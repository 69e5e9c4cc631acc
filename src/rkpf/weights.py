"""Thematic-proximity spatial weights.

Regions are close in thematic space when their publication subject-area
profiles correlate. The weights matrix W is the profile correlation matrix
with its diagonal zeroed, negative entries clamped to zero (negatively
correlated regions are treated as neutral), and rows standardized to sum to
one. Rows that clamp to all zeros are isolated and keep zero spatial lags.

W is dense, n x n, and every step of it is row-local: a block of W's rows is
the correlations of those regions' profiles with all regions (correlation_rows),
clamped and standardized (weight_rows), and a block of rows lags each region of
it (lag_rows). So the CLI never holds W whole: weights writes it block by block
to weights.csv, weights.json and its sidecar (write_weight_rows), and fit and
suite take the lags from the sidecar block by block (load_weights_csv). Every
lag is taken by estimation.take_lags, which calls a weights object's lags: a
StreamedWeights', or whole_lags of SpatialWeights or simulate's PanelBlock. A
block is weight_block_rows rows, about W_BLOCK_BYTES, and a W that fits one
block is one product. A block's product has bits that depend on its shape, so
every W and every lag is taken by these same blocks, whether W is whole
(correlation_matrix, simulate's weight_matrix, whole_lags) or streamed.
"""
from __future__ import annotations

import contextlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

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
from .manifest import (
    DIGEST_KEY,
    SIDECAR_FAULTS,
    Sidecar,
    read_csv_sidecar,
    sidecar_path,
    sidecar_rows,
)
from .tables import check_names, format_rows, read_matrix, write_table

_ROW_SUM_TOL = 1e-9
# about 4 MB of W's rows per block: 256 rows at 2000 regions
W_BLOCK_BYTES = 4 << 20
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

    def lags(self, values: list) -> list:
        """W v of each (n, T) array v of values (0 for an isolated region)."""
        return whole_lags(self.w, values)


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


def weight_block_rows(n: int) -> int:
    """Rows of an n x n W per block: all n where W fits W_BLOCK_BYTES, else about
    W_BLOCK_BYTES of rows, a multiple of 64."""
    if n * n * 8 <= W_BLOCK_BYTES:
        return max(n, 1)
    return max(64, W_BLOCK_BYTES // (8 * n) // 64 * 64)


def _diagonal(rows: np.ndarray, start: int) -> np.ndarray:
    """A view of the cells of W's diagonal in rows (..., r, n), W's rows start:start + r."""
    return np.einsum("...ii->...i", rows[..., start : start + rows.shape[-2]])


def check_weight_rows(regions, w: np.ndarray, start: int = 0) -> np.ndarray:
    """The row sums of w (..., r, n), W's rows start:start + r (all of a square w by
    default), once every matrix of the stack is checked to be finite and nonnegative
    with a zero diagonal, each row summing to 0 or 1; else InvalidWeights, naming the
    first failing row by its region in regions."""
    # whole-array reductions, with no r x n temporary: NaN fails the first test,
    # and initial=0.0 lets an empty matrix pass
    if not (w.min(initial=0.0) >= 0 and w.max(initial=0.0) < np.inf):
        bad = ~np.isfinite(w) | (w < 0)  # built only to name the row
        raise InvalidWeights(
            f"row for {regions[start + first_cell(bad.any(axis=-1))[-1]]!r} has a negative "
            "or non-finite weight"
        )
    if np.any(_diagonal(w, start) != 0):
        raise InvalidWeights("weights diagonal must be exactly zero")
    sums = w.sum(axis=-1)
    ok = (sums == 0) | (np.abs(sums - 1.0) <= _ROW_SUM_TOL)
    if not ok.all():
        at = first_cell(~ok)
        raise InvalidWeights(
            f"row for {regions[start + at[-1]]!r} sums to {sums[at]}, expected 0 or 1"
        )
    return sums


def _check_dimensions(shares: np.ndarray) -> None:
    n, s = shares.shape
    if n < 2 or s < 2:
        raise DegenerateDimensions(
            f"need at least 2 regions and 2 subject areas, got {n} x {s}"
        )


def correlation_matrix(m: ThematicProfileMatrix) -> np.ndarray:
    """Pearson correlations between profile rows.

    Zero-variance rows (uniform profiles) correlate 0 with everything,
    themselves included; positive-variance rows keep diagonal 1.
    """
    _check_dimensions(m.shares)
    return _correlations(m.shares)


def correlation_rows(shares: np.ndarray, out: np.ndarray | None = None):
    """(first row, rows) of each block of weight_block_rows rows of correlation_matrix
    of each (n, S) share matrix of a stack (..., n, S), in order; where `out`, a
    (..., n, n) array, is given, the rows are computed into their rows of it. Every W
    is taken by these blocks, whole or streamed: a block is a BLAS product of its rows
    against all regions, whose bits depend on its shape."""
    centered = shares - shares.mean(axis=-1, keepdims=True)
    norms = np.sqrt((centered**2).sum(axis=-1))
    degenerate = norms == 0
    safe = np.where(degenerate, 1.0, norms)
    unit = centered / safe[..., np.newaxis]
    n = shares.shape[-2]
    step = weight_block_rows(n)
    for start in range(0, n, step):
        rows = slice(start, start + step)
        into = None if out is None else out[..., rows, :]
        corr = np.matmul(unit[..., rows, :], np.swapaxes(unit, -1, -2), out=into)
        corr[degenerate[..., rows]] = 0.0  # rows, then columns, with no r x n mask
        np.swapaxes(corr, -1, -2)[degenerate] = 0.0
        np.clip(corr, -1.0, 1.0, out=corr)
        _diagonal(corr, start)[~degenerate[..., rows]] = 1.0
        yield start, corr
        del corr  # before the next block is computed


def _correlations(shares: np.ndarray) -> np.ndarray:
    """correlation_matrix of each share matrix of a stack (..., n, S), computed by
    correlation_rows' blocks into one array."""
    whole = np.empty((*shares.shape[:-1], shares.shape[-2]))
    for _ in correlation_rows(shares, whole):
        pass
    return whole


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


def standardize_rows(w: np.ndarray, start: int = 0) -> np.ndarray:
    """build_weights' arithmetic on a writeable stack (..., r, n) of W's rows
    start:start + r (all of a square w by default), in place; returns w."""
    _diagonal(w, start)[...] = 0.0
    np.clip(w, 0.0, None, out=w)
    sums = w.sum(axis=-1)
    w /= np.where(sums > 0, sums, 1.0)[..., np.newaxis]  # x / 1.0 == x: a zero row stays zero
    return w


def weight_rows(m: ThematicProfileMatrix):
    """build_weights(correlation_matrix(m)).w as its blocks of correlation_rows, in
    order: each is correlation rows against all regions, then clamped and
    standardized, which is row-local. DegenerateDimensions is raised here, before
    any block."""
    _check_dimensions(m.shares)

    def blocks():
        for start, rows in correlation_rows(m.shares):
            yield standardize_rows(rows, start)
            del rows  # before the next block is computed

    return blocks()


def weight_matrix(shares: np.ndarray) -> np.ndarray:
    """build_weights(correlation_matrix(...)).w of each share matrix of a stack
    (..., n, S); its rows are those of weight_rows, as standardizing is row-local."""
    return standardize_rows(_correlations(shares))


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


def whole_lags(w: np.ndarray, values: list) -> list:
    """The lag of each (..., n, T) array of values by a whole W or stack of them
    (..., n, n), by blocks of weight_block_rows rows (lag_rows)."""
    n = w.shape[-1]
    step = weight_block_rows(n)
    return lag_rows((w[..., start : start + step, :] for start in range(0, n, step)), values)


def lag_rows(blocks, values: list) -> list:
    """The lag of each (..., n, T) array of values, from W's rows given as blocks
    (..., r, n) of weight_block_rows rows in order: rows a:b of a lag are
    W[a:b] @ v. A product's bits depend on its shape, so a lag has the same bits
    whether W is whole (whole_lags) or streamed from a sidecar."""
    lagged = [np.empty_like(v) for v in values]
    start = 0
    for rows in blocks:
        stop = start + rows.shape[-2]
        for out, v in zip(lagged, values):
            out[..., start:stop, :] = rows @ v
        start = stop
    return lagged


# ---------------------------------------------------------------------------
# i/o
# ---------------------------------------------------------------------------


def _json_array(items, depth: int) -> str:
    """JSON texts as one array, laid out as json.dump(indent=2) does at nesting `depth`."""
    if not items:
        return "[]"
    inner = "\n" + "  " * (depth + 1)
    return "[" + inner + ("," + inner).join(items) + "\n" + "  " * depth + "]"


def _checked_rows(regions, blocks):
    """(first row, block, its row sums) of each block (r, n) of W's rows, in order,
    once check_weight_rows has checked it; ValueError unless the blocks are the
    n x n W of the n regions."""
    n, start = len(regions), 0
    for rows in blocks:
        if rows.shape[-1] != n:
            raise ValueError(f"weights rows of {rows.shape[-1]} columns for {n} regions")
        sums = check_weight_rows(regions, rows, start)
        yield start, rows, sums
        start += rows.shape[0]
        del rows  # before the next block is computed
    if start != n:
        raise ValueError(f"{start} rows of weights for {n} regions")


def write_weight_rows(regions, blocks, csv_path, json_path, sidecar: bool = False):
    """weights.csv and weights.json of W, and with `sidecar` the CSV's sidecar, in one
    pass over W's rows, given as blocks (r, n) in order; each weight is formatted
    once, and each block is checked as SpatialWeights checks W. Returns the isolated
    regions, sorted.

    The CSV is a dense matrix with a region header row and column; the JSON
    equals json.dump({"regions", "w", "isolated"}, indent=2) plus a newline,
    byte for byte. All are written row by row, and none where write_table refuses
    the header. The sidecar's members are regions, w and last the CSV's sha256.
    """
    regions = tuple(regions)
    n = len(regions)
    isolated = []
    opened = []  # the sidecar, once write_table has checked the header

    def rows():
        # write_table draws the first row once it has checked the header; each
        # row's JSON block is written as it draws the row's cells
        fh = files.enter_context(open(json_path, "w", encoding="utf-8", newline=""))
        if sidecar:
            npz = Sidecar(sidecar_path(csv_path), SIDECAR_LAYOUT, "w", (n, n), regions=regions)
            opened.append(files.enter_context(contextlib.closing(npz)))
        names = _json_array(list(map(json.dumps, regions)), 1)
        fh.write('{\n  "regions": ' + names + ',\n  "w": [')
        for start, block, sums in _checked_rows(regions, blocks):
            isolated.extend(regions[start + i] for i in np.flatnonzero(sums == 0).tolist())
            for npz in opened:
                npz.write(block)
            for i, formatted in enumerate(format_rows(block), start):
                fh.write(("," if i else "") + "\n    " + _json_array(formatted, 2))
                yield (regions[i],), formatted
            del block  # before the next block is computed
        fh.write(("\n  ]" if regions else "]") + ',\n  "isolated": ')
        fh.write(_json_array(list(map(json.dumps, sorted(isolated))), 1) + "\n}\n")

    with contextlib.ExitStack() as files:  # closes weights.json, and an unfinished sidecar
        digest = write_table(csv_path, ["region", *regions], rows())
        for npz in opened:
            npz.finish({DIGEST_KEY: digest})
    return tuple(sorted(isolated))


def write_weights_csv(w: SpatialWeights, path) -> None:
    """weights.csv alone."""
    write_weight_rows(w.regions, [w.w], path, os.devnull)


def write_weights_json(w: SpatialWeights, path) -> None:
    """weights.json alone."""
    write_weight_rows(w.regions, [w.w], os.devnull, path)


def _read_region_matrix(path) -> tuple[tuple[str, ...], tuple[str, ...], np.ndarray]:
    """Column labels, row regions and cells of a table whose first column is 'region'."""

    def region_first(header):
        if header[:1] != ["region"]:
            raise MissingColumn(f"{path}: first header cell must be 'region'")
        return [0]

    columns, labels, matrix = read_matrix(path, region_first)
    return tuple(columns), tuple(region for region, in labels), matrix


def _load_text(path) -> SpatialWeights:
    columns, regions, w = _read_region_matrix(path)
    if regions != columns:
        raise RegionOrderMismatch(f"{path}: row and column region order differ")
    return SpatialWeights(regions, w)


def load_weights_csv(path, digests: dict | None = None) -> SpatialWeights | StreamedWeights:
    """The weights CSV at path, for estimation.take_lags, with W never whole: a
    StreamedWeights where its sidecar records the CSV's digest (see
    write_weight_rows) and holds the weights layout with an n x n float64 W for its
    n regions; otherwise the SpatialWeights parsed from the text. `digests`, if
    given, receives the sha256 of each file read, by path."""
    arrays = read_csv_sidecar(path, SIDECAR_LAYOUT, digests, by_rows="w")
    if arrays is not None:
        regions = tuple(arrays["regions"].tolist())
        with contextlib.suppress(InvalidWeights):
            check_names(regions, InvalidWeights, "region")
            if arrays["w"] == (len(regions), len(regions)):
                return StreamedWeights(Path(path), regions, arrays[DIGEST_KEY])
    return _load_text(path)


@dataclass(frozen=True)
class StreamedWeights:
    """A weights CSV whose sidecar load_weights_csv found usable: its regions, and
    its lags taken from the sidecar's W by blocks of weight_block_rows rows.

    Each block is checked as SpatialWeights checks W. The lags are trusted only once
    the last block is read, when zipfile has checked the member's CRC; on any
    failure they are discarded and taken from the W parsed from the CSV's text.
    """

    path: Path
    regions: tuple[str, ...]
    digest: str  # the CSV's sha256, which the sidecar records

    def lags(self, values: list) -> list:
        """SpatialWeights.lags of each (n, T) array of values."""
        n = len(self.regions)
        blocks = sidecar_rows(self.path, "w", self.digest, weight_block_rows(n))
        # a sidecar is a cache of the CSV: whatever a damaged one raises, the CSV is read
        with contextlib.suppress(*SIDECAR_FAULTS, EngineError), contextlib.closing(blocks):
            return lag_rows((rows for _, rows, _ in _checked_rows(self.regions, blocks)), values)
        try:
            w = _load_text(self.path)
            if w.regions != self.regions:
                raise RegionOrderMismatch("weights regions do not match dataset regions")
        except EngineError as exc:  # named by this file, as the CLI names a loader's errors
            if str(exc).startswith(f"{self.path}:"):
                raise
            raise type(exc)(f"{self.path}: {exc}") from None
        return whole_lags(w.w, values)


def write_profiles_csv(m: ThematicProfileMatrix, path) -> None:
    write_table(path, ["region", *m.subject_areas], zip(zip(m.regions), format_rows(m.shares)))


def load_profiles_csv(path) -> ThematicProfileMatrix:
    areas, regions, shares = _read_region_matrix(path)
    return ThematicProfileMatrix(regions, areas, shares)
