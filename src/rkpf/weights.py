"""Thematic-proximity spatial weights.

Regions are close in thematic space when their publication subject-area
profiles correlate. The weights matrix W is the profile correlation matrix
with its diagonal zeroed, negative entries clamped to zero (negatively
correlated regions are treated as neutral), and rows standardized to sum to
one. Rows that clamp to all zeros are isolated and keep zero spatial lags.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateDimensions,
    InvalidProfiles,
    InvalidWeights,
    MissingColumn,
    RegionOrderMismatch,
)
from .indicators import PublicationRecord, compute_thematic_profile
from .tables import parse_floats, read_table, write_table

_ROW_SUM_TOL = 1e-9


@dataclass(frozen=True)
class ThematicProfileMatrix:
    """Region x subject-area share matrix; each row sums to 1."""

    regions: tuple[str, ...]
    subject_areas: tuple[str, ...]
    shares: np.ndarray

    def __post_init__(self):
        shares = np.asarray(self.shares, dtype=float)
        n, s = len(self.regions), len(self.subject_areas)
        if shares.shape != (n, s):
            raise InvalidProfiles(f"shares shape {shares.shape} != ({n}, {s})")
        sums = shares.sum(axis=1)
        # comparisons with NaN are False, so non-finite rows fail here too
        ok = np.all(shares >= -_ROW_SUM_TOL, axis=1) & (np.abs(sums - 1.0) <= _ROW_SUM_TOL)
        if not ok.all():
            i = int(np.argmin(ok))
            raise InvalidProfiles(
                f"profile row for {self.regions[i]!r} sums to {sums[i]}, expected "
                "nonnegative shares summing to 1"
            )
        shares = shares.copy()
        shares.flags.writeable = False
        object.__setattr__(self, "shares", shares)


@dataclass(frozen=True)
class SpatialWeights:
    """Row-standardized nonnegative proximity matrix with zero diagonal.

    Rows that sum to 0 are the isolated regions; every other row sums to 1.
    """

    regions: tuple[str, ...]
    w: np.ndarray
    isolated: frozenset[int] = field(init=False)

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float)
        n = len(self.regions)
        if w.shape != (n, n):
            raise InvalidWeights(f"weights shape {w.shape} != ({n}, {n})")
        bad = ~np.isfinite(w) | (w < 0)
        if bad.any():
            i = int(np.nonzero(bad.any(axis=1))[0][0])
            raise InvalidWeights(
                f"row for {self.regions[i]!r} has a negative or non-finite weight"
            )
        if np.any(np.diag(w) != 0):
            raise InvalidWeights("weights diagonal must be exactly zero")
        sums = w.sum(axis=1)
        ok = (sums == 0) | (np.abs(sums - 1.0) <= _ROW_SUM_TOL)
        if not ok.all():
            i = int(np.argmin(ok))
            raise InvalidWeights(
                f"row for {self.regions[i]!r} sums to {sums[i]}, expected 0 or 1"
            )
        w = w.copy()
        w.flags.writeable = False
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "isolated", frozenset(np.flatnonzero(sums == 0).tolist()))


def correlation_matrix(m: ThematicProfileMatrix) -> np.ndarray:
    """Pearson correlations between profile rows.

    Zero-variance rows (uniform profiles) correlate 0 with everything,
    themselves included; positive-variance rows keep diagonal 1.
    """
    n, s = m.shares.shape
    if n < 2 or s < 2:
        raise DegenerateDimensions(
            f"need at least 2 regions and 2 subject areas, got {n} x {s}"
        )
    centered = m.shares - m.shares.mean(axis=1, keepdims=True)
    norms = np.sqrt((centered**2).sum(axis=1))
    degenerate = norms == 0
    safe = np.where(degenerate, 1.0, norms)
    unit = centered / safe[:, np.newaxis]
    corr = unit @ unit.T
    corr[degenerate, :] = 0.0
    corr[:, degenerate] = 0.0
    np.clip(corr, -1.0, 1.0, out=corr)
    keep = ~degenerate
    corr[keep, keep] = 1.0
    return corr


def build_weights(c: np.ndarray, regions=None) -> SpatialWeights:
    """Zero the diagonal, clamp negatives, row-standardize.

    Rows whose clamped sum is zero stay all-zero and are isolated.
    """
    c = np.asarray(c, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError(f"correlation matrix must be square, got {c.shape}")
    n = c.shape[0]
    if regions is None:
        regions = tuple(f"r{i}" for i in range(n))
    w = c.copy()
    np.fill_diagonal(w, 0.0)
    np.clip(w, 0.0, None, out=w)
    sums = w.sum(axis=1)
    nonzero = sums > 0
    w[nonzero] /= sums[nonzero, np.newaxis]
    return SpatialWeights(tuple(regions), w)


def build_profile_matrix(
    pubs: list[PublicationRecord],
    vocabulary: list[str],
    regions: list[str] | None = None,
) -> ThematicProfileMatrix:
    """Assemble per-region thematic profiles from publication records."""
    by_region: dict[str, list[PublicationRecord]] = {}
    for rec in pubs:
        for region in rec.regions:
            by_region.setdefault(region, []).append(rec)
    if regions is None:
        regions = sorted(by_region)
    shares = np.zeros((len(regions), len(vocabulary)))
    for i, region in enumerate(regions):
        shares[i] = compute_thematic_profile(by_region.get(region, []), vocabulary)
    return ThematicProfileMatrix(tuple(regions), tuple(vocabulary), shares)


def lag_values(w: SpatialWeights, values: np.ndarray) -> np.ndarray:
    """Spatial lag of an (n, T) array: out[r, t] = sum_j W[r, j] * values[j, t].

    Isolated regions get 0. Rows follow w.regions; callers check the order.
    """
    return w.w @ values


# ---------------------------------------------------------------------------
# i/o
# ---------------------------------------------------------------------------


def _write_region_matrix(path, columns, regions, matrix: np.ndarray) -> None:
    """Inverse of _read_region_matrix: a 'region' header, then one row per region."""
    rows = ([region, *row.tolist()] for region, row in zip(regions, matrix))
    write_table(path, ["region", *columns], rows)


def write_weights_csv(w: SpatialWeights, path) -> None:
    """Dense matrix with a region header row and column."""
    _write_region_matrix(path, w.regions, w.regions, w.w)


def _read_region_matrix(path) -> tuple[tuple[str, ...], tuple[str, ...], np.ndarray]:
    """Column labels, row regions and cells of a table whose first column is 'region'."""
    header, rows = read_table(path)
    if header[:1] != ["region"]:
        raise MissingColumn(f"{path}: first header cell must be 'region'")
    columns = header[1:]
    regions, matrix = [], []
    for lineno, cells in rows:
        regions.append(cells[0])
        matrix.append(parse_floats(cells[1:], columns, f"{path}:{lineno}"))
    return tuple(columns), tuple(regions), np.stack(matrix)


def load_weights_csv(path) -> SpatialWeights:
    columns, regions, w = _read_region_matrix(path)
    if regions != columns:
        raise RegionOrderMismatch(f"{path}: row and column region order differ")
    try:
        return SpatialWeights(regions, w)
    except InvalidWeights as exc:
        raise InvalidWeights(f"{path}: {exc}") from None


def write_weights_json(w: SpatialWeights, path) -> None:
    payload = {
        "regions": list(w.regions),
        "w": [row.tolist() for row in w.w],
        "isolated": sorted(w.regions[i] for i in w.isolated),
    }
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def write_profiles_csv(m: ThematicProfileMatrix, path) -> None:
    _write_region_matrix(path, m.subject_areas, m.regions, m.shares)


def load_profiles_csv(path) -> ThematicProfileMatrix:
    areas, regions, shares = _read_region_matrix(path)
    try:
        return ThematicProfileMatrix(regions, areas, shares)
    except InvalidProfiles as exc:
        raise InvalidProfiles(f"{path}: {exc}") from None
