"""Independent numpy oracle for the outputs the benchmark checks.

Nothing here calls rkpf: indicators are recounted from the generated
records, weights are rebuilt from profile correlations, and every ladder
specification is re-estimated with reshape demeaning, `lstsq` and a
hand-built cluster sandwich scaled by G/(G-1) * (N-1)/(N-K).
"""
from __future__ import annotations

import numpy as np

# the acceptance suite's least-squares tolerance: max |a - b| / max(1, max |b|)
TOLERANCE = 1e-8

CONTROLS = ("log(EXPEMP10)", "log(GRPCAP10)", "log(PAPEMP)")
DEPENDENT = "log(PUB21EMP)"


def indicators(pubs, n_regions: int, n_years: int, n_areas: int):
    """Full-counting FWCI, Q1SH, NQSH per cell and per-region profiles."""
    count = np.zeros((n_regions, n_years))
    ratio = np.zeros((n_regions, n_years))
    q1 = np.zeros((n_regions, n_years))
    nq = np.zeros((n_regions, n_years))
    incidence = np.zeros((n_regions, n_areas))
    ratios = pubs.citations / pubs.expected
    for k, members in enumerate(pubs.regions):
        j = pubs.years[k]
        for r in members:
            count[r, j] += 1
            ratio[r, j] += ratios[k]
            q1[r, j] += pubs.quartile[k] == 0
            nq[r, j] += pubs.quartile[k] == 4
            incidence[r, list(pubs.areas[k])] += 1
    values = {
        "FWCI": ratio / count,
        "Q1SH": 100.0 * q1 / count,
        "NQSH": 100.0 * nq / count,
    }
    return values, incidence / incidence.sum(axis=1, keepdims=True)


def thematic_weights(shares: np.ndarray) -> np.ndarray:
    """Profile correlations, zero diagonal, negatives clamped, rows summing to 1."""
    w = np.corrcoef(shares)
    np.fill_diagonal(w, 0.0)
    w = np.maximum(w, 0.0)
    sums = w.sum(axis=1, keepdims=True)
    return np.divide(w, sums, out=np.zeros_like(w), where=sums > 0)


def ladder_terms(tag: str):
    """(label, variable, squared, lagged) per regressor of a ladder tag."""
    tokens = set(tag.split("."))
    terms = [(name, name, False, False) for name in CONTROLS]
    if "q" in tokens:
        quality = ["FWCI"]
        if "noq" not in tokens:
            quality.append("Q1SH")
        if "non" not in tokens:
            quality.append("NQSH")
        terms.append(("FWCI", "FWCI", False, False))
        terms.append(("FWCI^2", "FWCI", True, False))
        terms += [(v, v, False, False) for v in quality[1:]]
        if "sl" in tokens:
            terms += [(f"sl{v}", v, False, True) for v in quality]
    return terms


def fit(variables: dict, w: np.ndarray | None, tag: str, years) -> dict:
    """Coefficients plus classical and cluster-robust standard errors by label."""
    tokens = set(tag.split("."))
    n, t = variables[DEPENDENT].shape
    columns, labels = [], []
    for label, name, squared, lagged in ladder_terms(tag):
        values = variables[name] ** 2 if squared else variables[name]
        columns.append(w @ values if lagged else values)
        labels.append(label)
    if "tw" in tokens:
        for j, year in enumerate(years[1:], start=1):
            dummy = np.zeros((n, t))
            dummy[:, j] = 1.0
            columns.append(dummy)
            labels.append(f"year_{year}")
    if "ols" in tokens:
        columns.append(np.ones((n, t)))
        labels.append("const")
    X = np.stack(columns, axis=-1)  # (n, t, k)
    y = variables[DEPENDENT]
    absorbed = 0
    if "fe" in tokens:
        X = X - X.mean(axis=1, keepdims=True)
        y = y - y.mean(axis=1, keepdims=True)
        absorbed = n
    k = X.shape[-1]
    n_obs = n * t
    Xf, yf = X.reshape(n_obs, k), y.reshape(n_obs)
    coef = np.linalg.lstsq(Xf, yf, rcond=None)[0]
    resid = yf - Xf @ coef
    # (X'X)^-1 = P P' with P = pinv(X); the sandwich's bread-score product
    # per region is P_g u_g, so both covariances avoid forming X'X
    p = np.linalg.pinv(Xf)
    dof = n_obs - k - absorbed
    classical = (resid @ resid / dof) * np.einsum("ij,ij->i", p, p)
    scores = np.einsum("krt,rt->kr", p.reshape(k, n, t), resid.reshape(n, t))
    factor = (n / (n - 1)) * ((n_obs - 1) / (n_obs - k - absorbed))
    robust = factor * np.einsum("kr,kr->k", scores, scores)
    return {
        "labels": labels,
        "coef": coef,
        "se_classical": np.sqrt(classical),
        "se_robust": np.sqrt(robust),
    }


def mismatch(got, want) -> float:
    """Largest |got - want| relative to max(1, max |want|)."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return float(np.max(np.abs(got - want)) / max(1.0, float(np.max(np.abs(want)))))
