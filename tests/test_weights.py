"""Thematic weights construction and spatial lag operators."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rkpf.errors import (
    DegenerateDimensions,
    EmptyRegion,
    InvalidProfiles,
    InvalidWeights,
    RegionOrderMismatch,
)
from rkpf.estimation import ModelSpec, Term, build_design
from rkpf.indicators import PublicationRecord, Publications
from rkpf.panel import PanelDataset
from rkpf.weights import (
    SpatialWeights,
    ThematicProfileMatrix,
    build_profile_matrix,
    build_weights,
    check_profile_rows,
    check_weight_rows,
    correlation_matrix,
    lag_values,
    load_profiles_csv,
    load_weights_csv,
    profile_correlations,
    standardize_rows,
    write_profiles_csv,
    write_weights_csv,
)


def profiles(rows, regions=None):
    rows = np.asarray(rows, dtype=float)
    n, s = rows.shape
    regions = regions or [f"r{i}" for i in range(n)]
    areas = [f"s{j}" for j in range(s)]
    return ThematicProfileMatrix(tuple(regions), tuple(areas), rows)


def random_symmetric(rng, n):
    c = rng.uniform(-1, 1, size=(n, n))
    c = (c + c.T) / 2
    np.fill_diagonal(c, 1.0)
    return c


class TestCorrelationMatrix:
    def test_identical_profiles_correlate_one(self):
        m = profiles([[0.7, 0.2, 0.1], [0.7, 0.2, 0.1]])
        c = correlation_matrix(m)
        assert c[0, 1] == pytest.approx(1.0)

    def test_opposite_two_area_profiles(self):
        # hand Pearson: (1,0) vs (0,1) -> -1
        m = profiles([[1.0, 0.0], [0.0, 1.0]])
        c = correlation_matrix(m)
        assert c[0, 1] == pytest.approx(-1.0)

    def test_uniform_profile_is_neutral(self):
        m = profiles([[0.5, 0.5], [1.0, 0.0], [0.0, 1.0]])
        c = correlation_matrix(m)
        assert c[0, 1] == 0.0
        assert c[0, 2] == 0.0
        assert c[0, 0] == 0.0  # zero variance: no 1 on its own diagonal
        assert c[1, 1] == 1.0

    def test_degenerate_dimensions(self):
        with pytest.raises(DegenerateDimensions):
            correlation_matrix(profiles([[1.0]]))

    def test_matches_numpy_corrcoef(self):
        rng = np.random.default_rng(0)
        raw = rng.dirichlet(np.ones(6), size=5)
        c = correlation_matrix(profiles(raw))
        np.testing.assert_allclose(c, np.corrcoef(raw), atol=1e-12)

    def test_symmetric_in_minus_one_one(self):
        rng = np.random.default_rng(1)
        raw = rng.dirichlet(np.full(8, 0.4), size=10)
        c = correlation_matrix(profiles(raw))
        np.testing.assert_allclose(c, c.T, atol=1e-14)
        assert np.all(c <= 1.0) and np.all(c >= -1.0)


class TestStacks:
    """The array helpers take a stack of replications along a leading axis, and give
    each matrix the bits it gets alone."""

    regions = tuple("abcdef")

    def test_stacked_weights_equal_each_matrix_alone(self):
        rng = np.random.default_rng(3)
        shares = rng.dirichlet(np.full(5, 0.3), size=(3, 6))
        shares[1, 2] = shares[2] = 0.2  # uniform rows: zero variance, isolated regions
        w = standardize_rows(profile_correlations(shares))
        sums = check_weight_rows(self.regions, w)
        assert (sums[2] == 0).all() and sums[1, 2] == 0
        for b in range(3):
            alone = build_weights(correlation_matrix(profiles(shares[b])), self.regions)
            assert w[b].tobytes() == alone.w.tobytes()

    def test_the_first_bad_row_of_a_stack_is_named(self):
        shares = np.full((2, 6, 4), 0.25)
        shares[1, 4] = [1.5, -0.5, 0.0, 0.0]
        with pytest.raises(InvalidProfiles, match=r"^profile row for 'e' .* nonnegative"):
            check_profile_rows(self.regions, shares)
        w = np.zeros((2, 6, 6))
        w[1, 3, 0] = -0.1
        with pytest.raises(InvalidWeights, match=r"^row for 'd' has a negative or non-finite"):
            check_weight_rows(self.regions, w)
        w[1, 3, 0] = 0.5
        with pytest.raises(InvalidWeights, match=r"^row for 'd' sums to 0\.5, expected 0 or 1$"):
            check_weight_rows(self.regions, w)


class TestBuildWeights:
    def test_two_identical_regions(self):
        m = profiles([[0.7, 0.2, 0.1], [0.7, 0.2, 0.1]])
        w = build_weights(correlation_matrix(m), m.regions)
        np.testing.assert_allclose(w.w, [[0.0, 1.0], [1.0, 0.0]])
        assert not w.isolated

    def test_clamp_and_standardize(self):
        # row (1, 0.6, -0.2): clamp, zero diagonal, divide by 0.6
        c = np.array(
            [
                [1.0, 0.6, -0.2],
                [0.6, 1.0, 0.3],
                [-0.2, 0.3, 1.0],
            ]
        )
        w = build_weights(c)
        np.testing.assert_allclose(w.w[0], [0.0, 1.0, 0.0])
        np.testing.assert_allclose(w.w[1], [0.6 / 0.9, 0.0, 0.3 / 0.9])

    def test_all_negative_row_isolated(self):
        c = np.array(
            [
                [1.0, -0.5, -0.4],
                [-0.5, 1.0, 0.8],
                [-0.4, 0.8, 1.0],
            ]
        )
        w = build_weights(c)
        assert w.isolated == {0}
        np.testing.assert_array_equal(w.w[0], 0.0)

    @given(n=st.integers(2, 20), seed=st.integers(0, 10_000))
    @settings(max_examples=80, deadline=None)
    def test_invariants_on_random_symmetric_inputs(self, n, seed):
        rng = np.random.default_rng(seed)
        w = build_weights(random_symmetric(rng, n))
        assert np.all(w.w >= 0)
        assert np.all(np.diag(w.w) == 0)
        sums = w.w.sum(axis=1)
        for i, s in enumerate(sums):
            if i in w.isolated:
                assert s == 0.0
            else:
                assert abs(s - 1.0) < 1e-9

    def test_affine_profile_invariance(self):
        # Pearson is invariant to a common positive affine map of profiles,
        # so W built from transformed rows matches W from raw rows
        rng = np.random.default_rng(5)
        raw = rng.dirichlet(np.full(7, 0.5), size=9)
        c_raw = correlation_matrix(profiles(raw))
        transformed = 3.5 * raw + 0.25
        centered = transformed - transformed.mean(axis=1, keepdims=True)
        norms = np.linalg.norm(centered, axis=1, keepdims=True)
        c_affine = (centered / norms) @ (centered / norms).T
        np.fill_diagonal(c_affine, 1.0)
        w_raw = build_weights(c_raw)
        w_affine = build_weights(np.clip(c_affine, -1, 1))
        assert np.max(np.abs(w_raw.w - w_affine.w)) < 1e-10

    def test_builds_in_place_holding_one_n_by_n_array(self):
        """The correlation matrix becomes W: no copy, no boolean-indexed temporary."""
        n = 1000
        rng = np.random.default_rng(8)
        m = profiles(rng.dirichlet(np.full(20, 0.5), size=n))
        build_weights(correlation_matrix(m), m.regions)  # warm-up
        tracemalloc.start()
        try:
            build_weights(correlation_matrix(m), m.regions)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * n * n

    def test_a_read_only_input_is_copied_not_consumed(self):
        c = np.array([[1.0, 0.5], [0.5, 1.0]])
        c.flags.writeable = False
        w = build_weights(c)
        np.testing.assert_array_equal(c, [[1.0, 0.5], [0.5, 1.0]])
        np.testing.assert_array_equal(w.w, [[0.0, 1.0], [1.0, 0.0]])


class TestSpatialLag:
    def test_swap(self):
        w = SpatialWeights(("A", "B"), np.array([[0.0, 1.0], [1.0, 0.0]]))
        lagged = lag_values(w, np.array([[2.0], [4.0]]))
        np.testing.assert_allclose(lagged[:, 0], [4.0, 2.0])

    def test_isolated_region_gets_zero(self):
        w = SpatialWeights(("A", "B"), np.array([[0.0, 0.0], [1.0, 0.0]]))
        lagged = lag_values(w, np.array([[2.0, 3.0], [4.0, 5.0]]))
        np.testing.assert_array_equal(lagged[0], [0.0, 0.0])

    def test_weighted_dot_product(self):
        w_matrix = np.array(
            [
                [0.0, 0.25, 0.75],
                [0.5, 0.0, 0.5],
                [0.5, 0.5, 0.0],
            ]
        )
        w = SpatialWeights(("A", "B", "C"), w_matrix)
        lagged = lag_values(w, np.array([[9.0], [4.0], [8.0]]))
        assert lagged[0, 0] == pytest.approx(0.25 * 4.0 + 0.75 * 8.0)
        assert lagged[0, 0] == pytest.approx(7.0)

    def test_region_order_mismatch(self):
        # lag_values trusts the row order; build_design checks it against the panel
        d = PanelDataset(("A", "B"), (2019,), {"x": [[1.0], [2.0]]})
        w = SpatialWeights(("B", "A"), np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(RegionOrderMismatch):
            build_design(d, ModelSpec("x", (Term("x", lag=True),)), w)

    def test_spatially_constant_variable_fixed_point(self):
        rng = np.random.default_rng(2)
        w = build_weights(random_symmetric(rng, 6))
        values = np.tile([[3.0, 7.0, 1.0]], (6, 1))  # constant across regions
        lagged = lag_values(w, values)
        for i in range(6):
            if i not in w.isolated:
                np.testing.assert_allclose(lagged[i], values[i], atol=1e-12)

    @given(seed=st.integers(0, 5_000))
    @settings(max_examples=40, deadline=None)
    def test_linearity(self, seed):
        rng = np.random.default_rng(seed)
        w = build_weights(random_symmetric(rng, 5))
        x = rng.normal(size=(5, 3))
        y = rng.normal(size=(5, 3))
        a, b = rng.normal(), rng.normal()
        combined = lag_values(w, a * x + b * y)
        separate = a * lag_values(w, x) + b * lag_values(w, y)
        assert np.max(np.abs(combined - separate)) < 1e-12


class TestIo:
    def test_weights_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        w = build_weights(random_symmetric(rng, 4), ["A", "B", "C", "D"])
        path = tmp_path / "w.csv"
        write_weights_csv(w, path)
        loaded = load_weights_csv(path)
        assert loaded.regions == w.regions
        np.testing.assert_array_equal(loaded.w, w.w)
        assert loaded.isolated == w.isolated

    def test_profiles_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        m = profiles(rng.dirichlet(np.ones(5), size=3))
        path = tmp_path / "profiles.csv"
        write_profiles_csv(m, path)
        loaded = load_profiles_csv(path)
        assert loaded.regions == m.regions
        np.testing.assert_array_equal(loaded.shares, m.shares)


class TestValidation:
    """Constructors reject bad matrices with engine errors naming the row."""

    @pytest.mark.parametrize("bad", [-0.5, np.nan, np.inf, -np.inf])
    def test_weights_cell_rejected(self, bad):
        w = np.array([[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]])
        w[1, 2] = bad
        with pytest.raises(InvalidWeights, match="'B'"):
            SpatialWeights(("A", "B", "C"), w)
        assert w.flags.writeable  # a rejected array is not frozen

    def test_weights_nan_row_rejected(self):
        w = np.array([[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]])
        w[1] = np.nan
        with pytest.raises(InvalidWeights, match="^row for 'B' has a negative or non-finite"):
            SpatialWeights(("A", "B", "C"), w)

    def test_weights_array_is_frozen_not_copied(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert SpatialWeights(("A", "B"), a).w is a
        assert not a.flags.writeable
        shares = np.array([[0.5, 0.5], [0.2, 0.8]])
        assert profiles(shares).shares is shares
        assert not shares.flags.writeable

    def test_other_inputs_become_fresh_arrays(self):
        a = np.array([[0, 1], [1, 0]])
        w = SpatialWeights(("A", "B"), a)
        assert w.w.dtype == np.float64 and not w.w.flags.writeable
        assert a.flags.writeable
        assert SpatialWeights((), np.zeros((0, 0), dtype=int)).w.shape == (0, 0)

    @pytest.mark.parametrize("bad", [-0.5, np.nan, 0.9])
    def test_profile_share_rejected(self, bad):
        shares = np.array([[0.5, 0.5], [0.2, 0.8]])
        shares[1, 0] = bad
        with pytest.raises(InvalidProfiles, match="'r1'"):
            profiles(shares)

    def test_region_without_records_is_named(self):
        rec = PublicationRecord("p1", 2019, frozenset({"A"}), frozenset({"s1"}), 1, 1.0, "Q1")
        with pytest.raises(EmptyRegion, match="^region 'B' has no publication records$"):
            incidences = Publications.from_records([rec]).incidences
            build_profile_matrix(incidences, ["s1", "s2"], ["A", "B"])

    def test_repeated_region_rejected(self):
        with pytest.raises(InvalidWeights, match="region 'B' appears more than once"):
            SpatialWeights(("A", "B", "B"), np.full((3, 3), 0.5) - np.diag([0.5] * 3))
        with pytest.raises(InvalidProfiles, match="region 'r0' appears more than once"):
            profiles([[0.5, 0.5], [0.2, 0.8]], regions=["r0", "r0"])
