"""Student t probabilities against mpmath at 50 digits.

fit_model's two-sided p-values (estimation._t_test) and monte_carlo's 97.5%
critical value (estimation.t_critical) are checked at every dof the
specification ladder produces at 78 x 12, 500 x 12 and 2000 x 20, in both tails
and for |t| up to 40, and at small dofs: the Cauchy tail (dof 1), and either
side of where the log-gamma ratio in the density's constant switches from the
recurrence to its Stirling series alone (dof 40). The oracle is the
regularized incomplete beta function: P(|T| > t) = I_x(dof/2, 1/2) with
x = dof / (dof + t^2).
"""
import mpmath
import numpy as np
import pytest

from rkpf.estimation import _std_errors, _t_test, fit_model, t_critical
from rkpf.simulate import DgpConfig, generate_panel
from rkpf.suite import MAIN_TAGS, expand_notation

DIGITS = 50
# the quadrature is off by at most 6.2e-14 relative on this grid (at |t| = 40)
P_RTOL = 1e-12
CRIT_RTOL = 1e-14
TINY = np.finfo(float).tiny  # below it a p-value is subnormal or 0 and keeps no relative precision
T_VALUES = (0.0, 1e-6, 0.5, 1.0, 1.96, 2.5, 5.0, 10.0, 20.0, 40.0)


def ladder_dofs(n: int, t: int) -> list[int]:
    """The residual dof of each ladder spec on an n x t panel: n*t less the fitted
    columns (terms, t-1 year dummies, a constant) less n absorbed region effects."""
    dofs = set()
    for tag in MAIN_TAGS:
        spec = expand_notation(tag)
        k = len(spec.regressors) + (t - 1) * spec.time_dummies + spec.intercept
        dofs.add(n * t - k - n * spec.region_effects)
    return sorted(dofs)


LADDER_DOFS = {d for n, t in ((78, 12), (500, 12), (2000, 20)) for d in ladder_dofs(n, t)}
# 103 and 104 are where a plain lgamma difference in the constant put t_critical 1.7e-14 off
SMALL_DOFS = {1, 2, 3, 5, 30, 39, 40, 41, 59, 60, 61, 100, 103, 104}
DOFS = sorted(LADDER_DOFS | SMALL_DOFS)


def two_sided_p(dof: int, t: float) -> mpmath.mpf:
    with mpmath.workdps(DIGITS):
        x = mpmath.mpf(dof) / (dof + mpmath.mpf(t) ** 2)
        return mpmath.betainc(mpmath.mpf(dof) / 2, mpmath.mpf(1) / 2, 0, x, regularized=True)


def test_ladder_dofs_are_the_fits_dofs():
    g = generate_panel(DgpConfig(n_regions=78, n_years=12, seed=1))
    fitted = {fit_model(g.dataset, expand_notation(tag), g.weights).dof for tag in MAIN_TAGS}
    assert sorted(fitted) == ladder_dofs(78, 12)


@pytest.mark.parametrize("dof", DOFS)
def test_two_sided_p_values(dof):
    t = np.array([sign * v for v in T_VALUES for sign in (1.0, -1.0)])
    # a unit covariance makes each coefficient its own t statistic
    t_stats, p_values = _t_test(_std_errors(np.eye(len(t))), t, dof)
    np.testing.assert_array_equal(t_stats, t)
    for t_value, got in zip(t, p_values):
        want = two_sided_p(dof, t_value)
        if want >= TINY:
            assert abs(got - float(want)) <= P_RTOL * float(want), (dof, t_value)
        else:
            assert abs(got - float(want)) <= P_RTOL * TINY, (dof, t_value)


@pytest.mark.parametrize("dof", DOFS)
def test_critical_values(dof):
    with mpmath.workdps(DIGITS):
        root = mpmath.findroot(lambda t: two_sided_p(dof, t) - mpmath.mpf("0.05"), 2)
    assert t_critical(dof) == pytest.approx(float(root), rel=CRIT_RTOL, abs=0)


def test_p_value_at_infinite_and_nan_t():
    _, p_values = _t_test(_std_errors(np.eye(3)), np.array([np.inf, -np.inf, np.nan]), 30)
    assert p_values[:2].tolist() == [0.0, 0.0]
    assert np.isnan(p_values[2])
