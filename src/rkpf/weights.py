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
suite take the lags block by block from the sidecar, or else from the CSV's
text (StreamedWeights). Every lag is taken by estimation.take_lags, which calls
a weights object's lags: a StreamedWeights', or whole_lags of SpatialWeights or
simulate's PanelBlock. A block is weight_block_rows rows, about W_BLOCK_BYTES,
and a W that fits one block is one product. A block's product has bits that
depend on its shape, so every W and every lag is taken by these same blocks,
whether W is whole (correlation_matrix, simulate's weight_matrix, whole_lags) or
streamed.

Each row's numbers are formatted once, as one text (tables.format_rows), which
is the row of weights.csv and, laid out, of weights.json. Formatting W's text is
most of the time it takes to write a W of more than one block, and rows format
independently, so a process with more than one CPU and no thread besides its own
forks worker processes that format copied chunks of rows; it keeps the checks,
the sidecar, the order of the rows and the CSV's digest. A W of one block is
formatted in process: forking would cost it more than it saves.
"""
from __future__ import annotations

import collections
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
    file_digest,
    member_rows,
    open_sidecar,
    recorded_digest,
    sidecar_path,
)
from .tables import check_names, format_rows, not_utf8, read_matrix, read_matrix_rows, write_table

_ROW_SUM_TOL = 1e-9
# about 4 MB of W's rows per block: 256 rows at 2000 regions
W_BLOCK_BYTES = 4 << 20
# processes that format the rows of a W of more than one block, at most; the rows
# of W that one of them formats per call; and the calls in flight, at most, whatever
# the number of processes, which bounds the part of W's text that the writer holds
FORMAT_WORKERS = 2
FORMAT_CHUNK_ROWS = 16
FORMAT_CHUNKS_IN_FLIGHT = 4
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
    incidences: tuple,
    vocabulary: list[str],
    regions: list[str] | None = None,
) -> ThematicProfileMatrix:
    """Per-region subject-area incidence shares over a fixed vocabulary.

    `incidences` is (regions, subject areas, counts) as Publications.incidences gives
    it: a record listing k subject areas adds one to each of them in the row of every
    region it lists. A region's shares are its incidences divided by its total.
    Regions default to those of the counts.
    """
    names, areas, counts = incidences
    if regions is None:
        regions = names
    row, column = ({name: i for i, name in enumerate(axis)} for axis in (names, areas))
    # a last row and column of zeros: a region or a vocabulary code without counts
    padded = np.zeros((len(names) + 1, len(areas) + 1))
    padded[:-1, :-1] = counts
    at = [row.get(region, -1) for region in regions]
    over = padded[np.ix_(at, [column.get(code, -1) for code in vocabulary])]
    codes = frozenset(vocabulary)
    unknown = [j for j, area in enumerate(areas) if area not in codes]
    totals = over.sum(axis=1)
    for region, i, total in zip(regions, at, totals):
        stray = [areas[j] for j in unknown if padded[i, j]]
        if stray:
            raise UnknownSubjectArea(
                f"region {region!r}: subject areas {sorted(stray)} not in vocabulary"
            )
        if not total:
            raise EmptyRegion(f"region {region!r} has no publication records")
    return ThematicProfileMatrix(tuple(regions), tuple(vocabulary), over / totals[:, np.newaxis])


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
        del rows  # before the next block is read
    return lagged


# ---------------------------------------------------------------------------
# i/o
# ---------------------------------------------------------------------------


def _json_array(joined: str, depth: int, sep: str) -> str:
    """The JSON array of the JSON texts that `sep` joins in `joined`, none of which
    holds `sep`, laid out as json.dump(indent=2) does at nesting `depth`."""
    if not joined:
        return "[]"
    inner = "\n" + "  " * (depth + 1)
    return "[" + inner + joined.replace(sep, "," + inner) + "\n" + "  " * depth + "]"


def _json_names(names) -> str:
    """The JSON array of the strings `names` in weights.json; a JSON text holds no
    newline."""
    return _json_array("\n".join(map(json.dumps, names)), 1, "\n")


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


def _format_workers(n: int) -> int:
    """Processes that format the rows of an n x n W: one per CPU, at most
    FORMAT_WORKERS, where W spans more than one block; none (W is formatted in this
    process) where it is one block, the process has one CPU, or it runs a thread
    besides its own, such as a BLAS thread, as a fork of it could deadlock."""
    if weight_block_rows(n) >= n:
        return 0
    try:
        threads = len(os.listdir("/proc/self/task"))
        cpus = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # not Linux
        return 0
    return min(cpus, FORMAT_WORKERS) if cpus > 1 and threads == 1 else 0


def _format_chunk(rows: np.ndarray) -> list[str]:
    """format_rows' texts of a chunk of W's rows, in a worker process."""
    return list(format_rows(rows))


def _row_texts(blocks, workers: int, files):
    """format_rows' text of each row of blocks (r, n) of W's rows, in order: in this
    process without workers, else by a fork-context pool of that many processes,
    which the ExitStack files shuts down. The pool gets copied chunks of
    FORMAT_CHUNK_ROWS rows, at most FORMAT_CHUNKS_IN_FLIGHT of them at once, so that
    it holds no block and a bounded part of W's text."""
    if not workers:
        for block in blocks:
            yield from format_rows(block)
            del block  # before the next block is computed
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"))
    files.callback(pool.shutdown, cancel_futures=True)
    pending = collections.deque()
    for block in blocks:
        for at in range(0, block.shape[0], FORMAT_CHUNK_ROWS):
            if len(pending) == FORMAT_CHUNKS_IN_FLIGHT:
                yield from pending.popleft().result()
            pending.append(pool.submit(_format_chunk, block[at : at + FORMAT_CHUNK_ROWS].copy()))
        del block  # before the next block is computed
    while pending:
        yield from pending.popleft().result()


def write_weight_rows(regions, blocks, csv_path, json_path, sidecar: bool = False):
    """weights.csv and weights.json of W, and with `sidecar` the CSV's sidecar, in one
    pass over W's rows, given as blocks (r, n) in order; each weight is formatted
    once, and each block is checked as SpatialWeights checks W. Returns the isolated
    regions, sorted.

    The CSV is a dense matrix with a region header row and column; the JSON
    equals json.dump({"regions", "w", "isolated"}, indent=2) plus a newline,
    byte for byte. All are written row by row, and none where write_table refuses
    the header. The sidecar's members are regions, w and last the CSV's sha256.
    A row's numbers are formatted once, as format_rows' text, in worker processes
    where _format_workers gives any; everything else (the checks, the isolated
    regions, the sidecar, the files and the CSV's digest) is done here, in order.
    """
    regions = tuple(regions)
    n = len(regions)
    isolated = []
    opened = []  # the sidecar, once write_table has checked the header

    def checked():
        for start, block, sums in _checked_rows(regions, blocks):
            isolated.extend(regions[start + i] for i in np.flatnonzero(sums == 0).tolist())
            for npz in opened:
                npz.write(block)
            yield block
            del block  # before the next block is computed

    def rows():
        # write_table draws the first row once it has checked the header; each
        # row's JSON block is written as it draws the row's text
        fh = files.enter_context(open(json_path, "w", encoding="utf-8", newline=""))
        if sidecar:
            npz = Sidecar(sidecar_path(csv_path), SIDECAR_LAYOUT, "w", (n, n), regions=regions)
            opened.append(files.enter_context(contextlib.closing(npz)))
        fh.write('{\n  "regions": ' + _json_names(regions) + ',\n  "w": [')
        for i, text in enumerate(_row_texts(checked(), _format_workers(n), files)):
            # a float's repr holds no comma, so the JSON row is the text laid out
            fh.write(("," if i else "") + "\n    " + _json_array(text, 2, ","))
            yield (regions[i],), text
        fh.write(("\n  ]" if regions else "]") + ',\n  "isolated": ')
        fh.write(_json_names(sorted(isolated)) + "\n}\n")

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


def _region_first(path):
    """tables' label_columns of a table at path whose first column is 'region'."""

    def region_first(header):
        if header[:1] != ["region"]:
            raise MissingColumn(f"{path}: first header cell must be 'region'")
        return [0]

    return region_first


def load_weights_csv(path, digests: dict | None = None) -> StreamedWeights:
    """The weights CSV at path, for estimation.take_lags: of its text, only the header,
    which gives the regions, is read here (see StreamedWeights). `digests`, if given,
    receives the sha256 of the CSV and, where it opens, of its sidecar, by path."""
    digest = recorded_digest(path, digests)
    with contextlib.suppress(OSError):  # no sidecar, or none this process can open
        recorded_digest(sidecar_path(path), digests)
    regions, blocks = read_matrix_rows(path, _region_first(path), 1)
    blocks.close()
    check_names(regions, InvalidWeights, "region")
    return StreamedWeights(Path(path), tuple(regions), digest)


@dataclass(frozen=True)
class StreamedWeights:
    """A weights CSV: its regions, and its lags taken from W's rows by blocks of
    weight_block_rows rows, each checked as SpatialWeights checks W. The rows come
    from the sidecar where it records the CSV's digest, and its lags are trusted
    only once zipfile has checked the member's CRC, as the last block is read; on
    any failure of the sidecar, they are taken again from the CSV's text
    (text_rows), whose errors name the CSV.
    """

    path: Path
    regions: tuple[str, ...]
    digest: str  # the CSV's sha256 when load_weights_csv read it

    def lags(self, values: list) -> list:
        """SpatialWeights.lags of each (n, T) array of values."""
        npz = sidecar_path(self.path)
        # a sidecar is a cache of the CSV: whatever a damaged one raises, the CSV is read
        with (contextlib.suppress(*SIDECAR_FAULTS),
              open_sidecar(npz, {DIGEST_KEY: self.digest}, SIDECAR_LAYOUT) as zf,
              contextlib.closing(member_rows(zf, "w", weight_block_rows(len(self.regions))))
              as blocks):
            return lag_rows((rows for _, rows, _ in _checked_rows(self.regions, blocks)), values)
        try:
            return lag_rows(self.text_rows(), values)
        except EngineError as exc:  # named by this file, as the CLI names a loader's errors
            if str(exc).startswith(f"{self.path}:"):
                raise
            raise type(exc)(f"{self.path}: {exc}") from None
        except UnicodeDecodeError:  # the CLI would name the file it is reading, not this one
            raise not_utf8(self.path) from None

    def text_rows(self):
        """The blocks (r, n) of W's rows in the CSV's text, in order, each checked as
        SpatialWeights checks W once its rows are found to be of the header's regions
        in order (else RegionOrderMismatch); after the last, InvalidWeights where the
        CSV no longer has the digest it had when it was loaded."""
        n = len(self.regions)
        _, blocks = read_matrix_rows(self.path, _region_first(self.path), weight_block_rows(n))
        mismatch = RegionOrderMismatch(f"{self.path}: row and column region order differ")
        start = 0
        for labels, rows in blocks:
            if tuple(region for region, in labels) != self.regions[start : start + len(labels)]:
                raise mismatch
            check_weight_rows(self.regions, rows, start)
            start += len(labels)
            yield rows
            del rows  # before the next block is read
        if start != n:
            raise mismatch
        if file_digest(self.path) != self.digest:
            raise InvalidWeights(f"{self.path}: changed since it was loaded as {self.digest}")


def write_profiles_csv(m: ThematicProfileMatrix, path) -> None:
    write_table(path, ["region", *m.subject_areas], zip(zip(m.regions), format_rows(m.shares)))


def load_profiles_csv(path) -> ThematicProfileMatrix:
    areas, labels, shares = read_matrix(path, _region_first(path))
    return ThematicProfileMatrix(tuple(region for region, in labels), tuple(areas), shares)
