"""Thematic-proximity spatial weights.

Regions are close in thematic space when their publication subject-area
profiles correlate. The weights matrix W is the profile correlation matrix
with its diagonal zeroed, negative entries clamped to zero (negatively
correlated regions are treated as neutral), and rows standardized to sum to
one. Rows that clamp to all zeros are isolated and keep zero spatial lags.

W is dense, n x n, and is held once: build_weights turns the correlation
matrix into W in place, and SpatialWeights freezes the array it is given
rather than copying it. The thematic lags W x are its only use in a fit
(estimation.take_lags), so the CLI's fit and suite drop W once they are taken.
"""
from __future__ import annotations

import contextlib
import json
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateDimensions,
    EmptyRegion,
    EngineError,
    InvalidProfiles,
    InvalidWeights,
    MissingColumn,
    RegionOrderMismatch,
    UnknownSubjectArea,
)
from .manifest import read_csv_sidecar, write_csv_sidecar
from .tables import check_names, format_rows, read_matrix, write_table

_ROW_SUM_TOL = 1e-9
# (dtype kind, ndim) of each array of a weights sidecar
SIDECAR_LAYOUT = {"regions": ("U", 1), "w": ("f", 2)}


@dataclass(frozen=True)
class ThematicProfileMatrix:
    """Region x subject-area share matrix; each row sums to 1.

    A float64 `shares` array is checked and frozen in place, not copied; any
    other input becomes a fresh array first.
    """

    regions: tuple[str, ...]
    subject_areas: tuple[str, ...]
    shares: np.ndarray

    def __post_init__(self):
        shares = np.asarray(self.shares, dtype=float)
        n, s = len(self.regions), len(self.subject_areas)
        check_names(self.regions, InvalidProfiles, "region")
        check_names(self.subject_areas, InvalidProfiles, "subject area")
        if shares.shape != (n, s):
            raise InvalidProfiles(f"shares shape {shares.shape} != ({n}, {s})")
        check_profile_rows(self.regions, shares)
        shares.flags.writeable = False
        object.__setattr__(self, "shares", shares)


@dataclass(frozen=True)
class SpatialWeights:
    """Row-standardized nonnegative proximity matrix with zero diagonal.

    Rows that sum to 0 are the isolated regions; every other row sums to 1.
    A float64 `w` array is checked and frozen in place, not copied, so W is
    held once; any other input becomes a fresh array first.
    """

    regions: tuple[str, ...]
    w: np.ndarray
    isolated: frozenset[int] = field(init=False)

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float)
        n = len(self.regions)
        check_names(self.regions, InvalidWeights, "region")
        if w.shape != (n, n):
            raise InvalidWeights(f"weights shape {w.shape} != ({n}, {n})")
        sums = check_weight_rows(self.regions, w)
        w.flags.writeable = False
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "isolated", frozenset(np.flatnonzero(sums == 0).tolist()))


def first_cell(mask: np.ndarray) -> tuple[int, ...]:
    """The index of the first True cell of mask, leading axes first."""
    return np.unravel_index(int(np.argmax(mask)), mask.shape)


def check_profile_rows(regions, shares: np.ndarray) -> None:
    """Raise InvalidProfiles naming the first row of shares (..., n, S) that has a
    negative share or does not sum to 1. Leading axes stack replications, and the
    row is named by its region in regions."""
    sums = shares.sum(axis=-1)
    # comparisons with NaN are False, so non-finite rows fail here too
    ok = np.all(shares >= -_ROW_SUM_TOL, axis=-1) & (np.abs(sums - 1.0) <= _ROW_SUM_TOL)
    if not ok.all():
        at = first_cell(~ok)
        raise InvalidProfiles(
            f"profile row for {regions[at[-1]]!r} sums to {sums[at]}, expected "
            "nonnegative shares summing to 1"
        )


def check_weight_rows(regions, w: np.ndarray) -> np.ndarray:
    """The row sums of w (..., n, n), once every matrix of the stack is checked to be
    finite and nonnegative with a zero diagonal, each row summing to 0 or 1; else
    InvalidWeights, naming the first failing row by its region in regions."""
    # whole-array reductions, with no n x n temporary: NaN fails the first test,
    # and initial=0.0 lets an empty matrix pass
    if not (w.min(initial=0.0) >= 0 and w.max(initial=0.0) < np.inf):
        bad = ~np.isfinite(w) | (w < 0)  # built only to name the row
        raise InvalidWeights(
            f"row for {regions[first_cell(bad.any(axis=-1))[-1]]!r} has a negative or "
            "non-finite weight"
        )
    if np.any(np.einsum("...ii->...i", w) != 0):
        raise InvalidWeights("weights diagonal must be exactly zero")
    sums = w.sum(axis=-1)
    ok = (sums == 0) | (np.abs(sums - 1.0) <= _ROW_SUM_TOL)
    if not ok.all():
        at = first_cell(~ok)
        raise InvalidWeights(
            f"row for {regions[at[-1]]!r} sums to {sums[at]}, expected 0 or 1"
        )
    return sums


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
    return profile_correlations(m.shares)


def profile_correlations(shares: np.ndarray) -> np.ndarray:
    """correlation_matrix of each (n, S) share matrix of a stack (..., n, S)."""
    centered = shares - shares.mean(axis=-1, keepdims=True)
    norms = np.sqrt((centered**2).sum(axis=-1))
    degenerate = norms == 0
    safe = np.where(degenerate, 1.0, norms)
    unit = centered / safe[..., np.newaxis]
    corr = unit @ np.swapaxes(unit, -1, -2)
    corr[degenerate] = 0.0  # rows, then columns, with no n x n mask
    np.swapaxes(corr, -1, -2)[degenerate] = 0.0
    np.clip(corr, -1.0, 1.0, out=corr)
    np.einsum("...ii->...i", corr)[~degenerate] = 1.0
    return corr


def build_weights(c: np.ndarray, regions=None) -> SpatialWeights:
    """Zero the diagonal, clamp negatives, row-standardize.

    Rows whose clamped sum is zero stay all-zero and are isolated. `c` is
    consumed: a writeable float64 `c` becomes W in place (a read-only one is
    copied first), so W costs no second n x n array.
    """
    w = np.asarray(c, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError(f"correlation matrix must be square, got {w.shape}")
    if not w.flags.writeable:
        w = w.copy()
    if regions is None:
        regions = tuple(f"r{i}" for i in range(w.shape[0]))
    return SpatialWeights(tuple(regions), standardize_rows(w))


def standardize_rows(w: np.ndarray) -> np.ndarray:
    """build_weights' arithmetic on a writeable stack (..., n, n), in place; returns w."""
    np.einsum("...ii->...i", w)[...] = 0.0
    np.clip(w, 0.0, None, out=w)
    sums = w.sum(axis=-1)
    w /= np.where(sums > 0, sums, 1.0)[..., np.newaxis]  # x / 1.0 == x: a zero row stays zero
    return w


def build_profile_matrix(
    incidences: dict,
    vocabulary: list[str],
    regions: list[str] | None = None,
) -> ThematicProfileMatrix:
    """Per-region subject-area incidence shares over a fixed vocabulary.

    `incidences` counts each (region, subject area) that the records list
    together (Publications.incidences): a record listing k subject areas
    contributes one incidence to each of them in every region it lists. A
    region's shares are its incidences divided by its total. Regions default to
    every region the counts hold, sorted.
    """
    if regions is None:
        regions = sorted({region for region, _ in incidences})
    row = {region: i for i, region in enumerate(dict.fromkeys(regions))}
    column = {code: j for j, code in enumerate(vocabulary)}
    counts = np.zeros((len(row), len(vocabulary)))
    unknown: dict[str, list[str]] = {}
    for (region, code), n in incidences.items():
        if region in row:
            if code in column:
                counts[row[region], column[code]] = n
            else:
                unknown.setdefault(region, []).append(code)
    totals = counts.sum(axis=1)
    for region in regions:
        if region in unknown:
            raise UnknownSubjectArea(
                f"region {region!r}: subject areas {sorted(unknown[region])} not in vocabulary"
            )
        if not totals[row[region]]:
            raise EmptyRegion(f"region {region!r} has no publication records")
    shares = (counts / totals[:, np.newaxis])[[row[region] for region in regions]]
    return ThematicProfileMatrix(tuple(regions), tuple(vocabulary), shares)


def lag_values(w: SpatialWeights, values: np.ndarray) -> np.ndarray:
    """Spatial lag of an (n, T) array: out[r, t] = sum_j W[r, j] * values[j, t].

    Isolated regions get 0. Rows follow w.regions; callers check the order.
    A stack of weights w.w (..., n, n) lags a stack of values (..., n, T).
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


def write_weights_files(w: SpatialWeights, csv_path, json_path) -> str:
    """weights.csv and weights.json in one pass, formatting each weight once.

    The CSV is a dense matrix with a region header row and column; the JSON
    equals json.dump({"regions", "w", "isolated"}, indent=2) plus a newline,
    byte for byte. Both are written row by row, and neither where write_table
    refuses the header. Returns the sha256 of the CSV as written.
    """

    def rows():
        # write_table draws the first row once it has checked the header; each
        # row's JSON block is written as it draws the row's cells
        with open(json_path, "w", encoding="utf-8", newline="") as fh:
            regions = _json_array(list(map(json.dumps, w.regions)), 1)
            fh.write('{\n  "regions": ' + regions + ',\n  "w": [')
            for i, (region, formatted) in enumerate(zip(w.regions, format_rows(w.w))):
                fh.write(("," if i else "") + "\n    " + _json_array(formatted, 2))
                yield (region,), formatted
            isolated = sorted(w.regions[i] for i in w.isolated)
            fh.write(("\n  ]" if w.regions else "]") + ',\n  "isolated": ')
            fh.write(_json_array(list(map(json.dumps, isolated)), 1) + "\n}\n")

    with contextlib.closing(rows()) as body:  # closes weights.json if write_table fails
        return write_table(csv_path, ["region", *w.regions], body)


def write_weights_sidecar(w: SpatialWeights, csv_path, digest: str) -> None:
    """The sidecar of the weights CSV that write_weights_files wrote to csv_path,
    returning `digest`."""
    write_csv_sidecar(csv_path, digest, SIDECAR_LAYOUT, regions=w.regions, w=w.w)


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


def load_weights_csv(path, digests: dict | None = None) -> SpatialWeights:
    """Load a dense weights CSV, from its sidecar when one records the CSV's digest
    (see write_weights_sidecar). `digests`, if given, receives the sha256 of each
    file read, by path."""
    arrays = read_csv_sidecar(path, SIDECAR_LAYOUT, digests)
    if arrays is not None:
        with contextlib.suppress(EngineError, ValueError):  # rejected: parse the text
            return SpatialWeights(tuple(arrays["regions"].tolist()), arrays["w"])
    columns, regions, w = _read_region_matrix(path)
    if regions != columns:
        raise RegionOrderMismatch(f"{path}: row and column region order differ")
    return SpatialWeights(regions, w)


def write_profiles_csv(m: ThematicProfileMatrix, path) -> None:
    write_table(path, ["region", *m.subject_areas], zip(zip(m.regions), format_rows(m.shares)))


def load_profiles_csv(path) -> ThematicProfileMatrix:
    areas, regions, shares = _read_region_matrix(path)
    return ThematicProfileMatrix(regions, areas, shares)
