"""Thematic-proximity spatial weights.

Regions are close in thematic space when their publication subject-area
profiles correlate. The weights matrix W is the profile correlation matrix
with its diagonal zeroed, negative entries clamped to zero (negatively
correlated regions are treated as neutral), and rows standardized to sum to
one. Rows that clamp to all zeros are isolated and keep zero spatial lags.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateDimensions,
    EmptyRegion,
    InvalidProfiles,
    InvalidWeights,
    MissingColumn,
    RegionOrderMismatch,
)
from .indicators import PublicationRecord, compute_thematic_profile
from .tables import format_rows, read_matrix, write_table

_ROW_SUM_TOL = 1e-9


def _check_distinct(regions, error) -> None:
    seen = set()
    for region in regions:
        if region in seen:
            raise error(f"region {region!r} appears more than once")
        seen.add(region)


@dataclass(frozen=True)
class ThematicProfileMatrix:
    """Region x subject-area share matrix; each row sums to 1."""

    regions: tuple[str, ...]
    subject_areas: tuple[str, ...]
    shares: np.ndarray

    def __post_init__(self):
        shares = np.asarray(self.shares, dtype=float)
        n, s = len(self.regions), len(self.subject_areas)
        _check_distinct(self.regions, InvalidProfiles)
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
        _check_distinct(self.regions, InvalidWeights)
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
        if region not in by_region:
            raise EmptyRegion(f"region {region!r} has no publication records")
        shares[i] = compute_thematic_profile(by_region[region], vocabulary)
    return ThematicProfileMatrix(tuple(regions), tuple(vocabulary), shares)


def lag_values(w: SpatialWeights, values: np.ndarray) -> np.ndarray:
    """Spatial lag of an (n, T) array: out[r, t] = sum_j W[r, j] * values[j, t].

    Isolated regions get 0. Rows follow w.regions; callers check the order.
    """
    return w.w @ values


# ---------------------------------------------------------------------------
# i/o
# ---------------------------------------------------------------------------


def _json_array(items, depth: int) -> str:
    """JSON texts as one array, laid out as json.dump(indent=2) does at nesting `depth`."""
    if not items:
        return "[]"
    inner = "\n" + "  " * (depth + 1)
    return "[" + inner + ("," + inner).join(items) + "\n" + "  " * depth + "]"


def write_weights_files(w: SpatialWeights, csv_path, json_path) -> None:
    """weights.csv and weights.json in one pass, formatting each weight once.

    The CSV is a dense matrix with a region header row and column; the JSON
    equals json.dump({"regions", "w", "isolated"}, indent=2) plus a newline,
    byte for byte. Both are written row by row.
    """
    with open(json_path, "w", encoding="utf-8", newline="") as fh:
        regions = _json_array(list(map(json.dumps, w.regions)), 1)
        fh.write('{\n  "regions": ' + regions + ',\n  "w": [')

        def cells():
            # each row's JSON block is written as the CSV writer draws its cells
            for i, formatted in enumerate(format_rows(w.w)):
                fh.write(("," if i else "") + "\n    " + _json_array(formatted, 2))
                yield formatted

        write_table(csv_path, ["region", *w.regions], zip(zip(w.regions), cells()))
        isolated = sorted(w.regions[i] for i in w.isolated)
        fh.write(("\n  ]" if w.regions else "]") + ',\n  "isolated": ')
        fh.write(_json_array(list(map(json.dumps, isolated)), 1) + "\n}\n")


def write_weights_csv(w: SpatialWeights, path) -> None:
    """weights.csv alone."""
    write_weights_files(w, path, os.devnull)


def write_weights_json(w: SpatialWeights, path) -> None:
    """weights.json alone."""
    write_weights_files(w, os.devnull, path)


def _read_region_matrix(path) -> tuple[tuple[str, ...], tuple[str, ...], np.ndarray]:
    """Column labels, row regions and cells of a table whose first column is 'region'."""

    def region_first(header):
        if header[:1] != ["region"]:
            raise MissingColumn(f"{path}: first header cell must be 'region'")
        return [0]

    columns, labels, matrix = read_matrix(path, region_first)
    return tuple(columns), tuple(region for region, in labels), matrix


def load_weights_csv(path) -> SpatialWeights:
    columns, regions, w = _read_region_matrix(path)
    if regions != columns:
        raise RegionOrderMismatch(f"{path}: row and column region order differ")
    return SpatialWeights(regions, w)


def write_profiles_csv(m: ThematicProfileMatrix, path) -> None:
    write_table(path, ["region", *m.subject_areas], zip(zip(m.regions), format_rows(m.shares)))


def load_profiles_csv(path) -> ThematicProfileMatrix:
    areas, regions, shares = _read_region_matrix(path)
    return ThematicProfileMatrix(regions, areas, shares)
