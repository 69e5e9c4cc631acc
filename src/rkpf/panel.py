"""Balanced regional panel: loading, validation, and descriptive statistics.

A PanelDataset is an immutable region x year table of named numeric
variables. Cells that were absent from the input are stored as NaN until
validate_balanced certifies the panel complete; nothing is imputed.

No reader or writer holds a second whole copy of the values: load_panel_csv
parses a panel's text by blocks of rows, keeping of each row only codes of its
region and year; write_panel_csv formats the rows by blocks of regions, and
write_panel_sidecar writes the values one variable at a time.
"""
from __future__ import annotations

import contextlib
import itertools
import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .errors import (
    DuplicateRow,
    EngineError,
    MissingColumn,
    NonConsecutiveYears,
    NonNumericCell,
    UnknownVariable,
)
from .manifest import DIGEST_KEY, SIDECAR_FAULTS, Sidecar, read_sidecar, recorded_digest
from .manifest import sidecar_path
from .tables import check_names, format_rows, read_matrix_rows, write_table

RESERVED_COLUMNS = ("region", "year")
# (dtype kind, ndim) of each array of a panel's sidecar; values is (variable, region, year)
SIDECAR_LAYOUT = {
    "regions": ("U", 1),
    "years": ("i", 1),
    "variables": ("U", 1),
    "values": ("f", 3),
}


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.asarray(a, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class PanelDataset:
    """Region x year panel of named numeric variables.

    region_ids and years are ordered; each variable maps to an (n, T) array
    aligned with them. Instances are immutable: with_variable returns a new
    dataset.
    """

    region_ids: tuple[str, ...]
    years: tuple[int, ...]
    variables: dict[str, np.ndarray]

    def __post_init__(self):
        check_names(self.region_ids, DuplicateRow, "region")
        check_names(self.variables, DuplicateRow, "variable")
        years = tuple(int(y) for y in self.years)
        for a, b in zip(years, years[1:]):
            if b != a + 1:
                raise NonConsecutiveYears(
                    f"years must be consecutive; gap between {a} and {b}"
                )
        object.__setattr__(self, "years", years)
        n, t = len(self.region_ids), len(years)
        frozen = {}
        for name, arr in self.variables.items():
            arr = np.asarray(arr, dtype=float)
            if arr.shape != (n, t):
                raise ValueError(
                    f"variable {name!r} has shape {arr.shape}, expected ({n}, {t})"
                )
            frozen[name] = _freeze(arr)
        object.__setattr__(self, "variables", frozen)

    @property
    def n_regions(self) -> int:
        return len(self.region_ids)

    @property
    def n_years(self) -> int:
        return len(self.years)

    @property
    def n_obs(self) -> int:
        return self.n_regions * self.n_years

    def var(self, name: str) -> np.ndarray:
        if name not in self.variables:
            raise UnknownVariable(f"unknown variable {name!r}")
        return self.variables[name]

    def with_variable(self, name: str, values: np.ndarray) -> "PanelDataset":
        new_vars = dict(self.variables)
        new_vars[name] = np.asarray(values, dtype=float)
        return replace(self, variables=new_vars)


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------


def load_panel_csv(path, digests: dict | None = None) -> PanelDataset:
    """Load a long-format panel CSV (columns region, year, <var1>, ...).

    Returns a dataset containing exactly the rows present; regions and years
    are the sorted distinct values and unobserved cells are NaN. Balance is
    checked separately by validate_balanced. The arrays come from the CSV's
    sidecar when one records the CSV's digest (see write_panel_sidecar).
    `digests`, if given, receives the sha256 of each file read, by path.

    The text is parsed by blocks of 1024 data rows (tables.read_matrix_rows). Of
    each row only its region and year, as codes, and its line are kept beside the
    block's numbers, until the last block is read and the table is filled, block by
    block. An error names the first faulty row of the file.
    """
    sources = {DIGEST_KEY: recorded_digest(path, digests)}
    with contextlib.suppress(*SIDECAR_FAULTS):  # no sidecar to use: parse the text
        arrays = read_sidecar(sidecar_path(path), sources, SIDECAR_LAYOUT, digests)
        return PanelDataset(
            tuple(arrays["regions"].tolist()),
            tuple(arrays["years"].tolist()),
            dict(zip(arrays["variables"].tolist(), arrays["values"])),
        )

    def label_columns(header):
        for col in RESERVED_COLUMNS:
            if col not in header:
                raise MissingColumn(f"{path}: required column {col!r} missing")
        if len(header) == len(RESERVED_COLUMNS):
            raise MissingColumn(f"{path}: no variable columns beyond region,year")
        return [header.index(col) for col in RESERVED_COLUMNS]

    # region and year codes in order of first appearance; a row's key is the pair
    regions: dict[str, int] = {}
    years: dict[int, int] = {}
    keys, lines = [], []  # of the rows of the block being read

    def check_labels(lineno, labels):
        region, year_cell = labels
        try:
            year = int(year_cell)
        except ValueError:
            raise NonNumericCell(
                f"{path}:{lineno}: year column: cannot parse {year_cell!r}"
            ) from None
        keys.append(regions.setdefault(region, len(regions)) << 32
                    | years.setdefault(year, len(years)))
        lines.append(lineno)

    var_names, blocks = read_matrix_rows(path, label_columns, 1024, check_labels)
    parsed = []  # (keys, lines, numbers) of each block read

    def refuse_repeats():
        """Raise DuplicateRow naming the first row whose key an earlier row has."""
        row_keys = np.concatenate([k for k, _, _ in parsed] + [np.array(keys, dtype=np.int64)])
        _, first = np.unique(row_keys, return_index=True)
        repeat = np.ones(len(row_keys), dtype=bool)
        repeat[first] = False
        if repeat.any():
            i = int(np.argmax(repeat))
            lineno = np.concatenate([n for _, n, _ in parsed] + [np.array(lines, dtype=np.int64)])[i]
            region, year = list(regions)[row_keys[i] >> 32], list(years)[row_keys[i] & 0xFFFFFFFF]
            raise DuplicateRow(f"{path}:{lineno}: duplicate row for {region!r}, {year}")

    try:
        for _, values in blocks:
            parsed.append((np.array(keys, dtype=np.int64), np.array(lines, dtype=np.int64), values))
            keys.clear()
            lines.clear()
    except (EngineError, UnicodeDecodeError):  # unless a row before it repeats a key
        refuse_repeats()
        raise
    refuse_repeats()

    first, last = min(years), max(years)
    n_rows = sum(len(values) for _, _, values in parsed)
    if last - first >= n_rows:
        # a balanced panel has a row for every year it spans
        raise NonConsecutiveYears(f"{path}: years {first}-{last} outnumber the data rows")
    region_ids = tuple(sorted(regions))
    row_of = np.empty(len(regions), dtype=np.intp)
    row_of[[regions[r] for r in region_ids]] = np.arange(len(region_ids))
    column_of = np.array([year - first for year in years], dtype=np.intp)
    table = np.full((len(var_names), len(region_ids), last - first + 1), np.nan)
    while parsed:
        block_keys, _, values = parsed.pop(0)
        table[:, row_of[block_keys >> 32], column_of[block_keys & 0xFFFFFFFF]] = values.T
    return PanelDataset(region_ids, tuple(range(first, last + 1)), dict(zip(var_names, table)))


def write_panel_csv(d: PanelDataset, path) -> str:
    """Write the canonical long CSV, region-major: NaN as an empty cell, inf an error.

    Rows are stacked and formatted by blocks of regions, so no second whole copy of
    the values is made. Returns the sha256 of the bytes written.
    """
    names, arrays = list(d.variables), list(d.variables.values())
    infinite = [(int(np.argmax(cells)), j) for j, v in enumerate(arrays)
                if (cells := np.isinf(v).reshape(-1)).any()]
    if infinite:  # the first in the file's order
        row, col = min(infinite)
        where = f"{d.region_ids[row // d.n_years]}, {d.years[row % d.n_years]}"
        raise NonNumericCell(f"{names[col]!r} is {arrays[col].reshape(-1)[row]} at {where}")
    step = max(1, 1024 // max(d.n_years, 1))  # regions per block

    def rows(start):
        block = np.stack([v[start : start + step] for v in arrays], axis=-1)
        return zip(itertools.product(d.region_ids[start : start + step], d.years),
                   format_rows(block.reshape(-1, len(arrays))))

    blocks = map(rows, range(0, d.n_regions, step))
    return write_table(path, ["region", "year", *names], itertools.chain.from_iterable(blocks))


def write_panel_sidecar(d: PanelDataset, csv_path, digest: str) -> None:
    """The sidecar of the panel CSV that write_panel_csv wrote to csv_path, returning
    `digest`: the dataset as load_panel_csv returns it, regions sorted and every
    missing cell the NaN an empty cell parses to. Its (variable, region, year) values
    are written one variable at a time, each reordered and made canonical alone."""
    order = sorted(range(d.n_regions), key=d.region_ids.__getitem__)
    shape = (len(d.variables), d.n_regions, d.n_years)
    with contextlib.closing(Sidecar(
        sidecar_path(csv_path), SIDECAR_LAYOUT, "values", shape,
        regions=[d.region_ids[i] for i in order], years=d.years, variables=list(d.variables),
    )) as sidecar:
        for arr in d.variables.values():
            values = np.take(arr, order, axis=0)
            np.copyto(values, np.nan, where=np.isnan(values))
            sidecar.write(values[np.newaxis])
        sidecar.finish({DIGEST_KEY: digest})


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BalanceReport:
    passed: bool
    n_regions: int
    n_years: int
    n_variables: int
    gaps: tuple[tuple[str, int, str], ...]  # (region, year, variable)

    def to_dict(self) -> dict:
        return {**asdict(self), "gaps": [list(g) for g in self.gaps]}

    def render_text(self) -> str:
        lines = [
            f"balance check: {'PASS' if self.passed else 'FAIL'}",
            f"regions={self.n_regions} years={self.n_years} variables={self.n_variables}",
        ]
        if self.gaps:
            lines.append(f"missing cells ({len(self.gaps)}):")
            for region, year, name in self.gaps:
                lines.append(f"  {region} {year} {name}")
        return "\n".join(lines)


def validate_balanced(d: PanelDataset) -> BalanceReport:
    """Pass iff every region has a value for every year for every variable."""
    gaps = []
    for name in d.variables:
        arr = d.variables[name]
        for i, j in zip(*np.nonzero(np.isnan(arr))):
            gaps.append((d.region_ids[i], d.years[j], name))
    gaps.sort()
    return BalanceReport(
        passed=not gaps,
        n_regions=d.n_regions,
        n_years=d.n_years,
        n_variables=len(d.variables),
        gaps=tuple(gaps),
    )


# ---------------------------------------------------------------------------
# descriptive statistics
# ---------------------------------------------------------------------------

STAT_ORDER = ("min", "q1", "median", "mean", "q3", "max")
STAT_LABELS = {
    "min": "Min",
    "q1": "1st Qu",
    "median": "Median",
    "mean": "Mean",
    "q3": "3rd Qu",
    "max": "Max",
}


def descriptive_stats(d: PanelDataset, names: list[str]) -> dict[str, dict[str, float]]:
    """Six-number summary per variable; quartiles by linear interpolation."""
    table = {}
    for name in names:
        arr = d.var(name)
        flat = arr[~np.isnan(arr)]
        if flat.size == 0:
            raise UnknownVariable(f"variable {name!r} has no observed values")
        q1, median, q3 = _quartiles(flat)
        table[name] = {
            "min": float(flat.min()),
            "q1": q1,
            "median": median,
            "mean": float(flat.mean()),
            "q3": q3,
            "max": float(flat.max()),
        }
    return table


def _quartiles(values: np.ndarray) -> tuple[float, float, float]:
    """The quartiles of values (no NaN), from one sort.

    Each has the bits of np.percentile's linear method, which would load numpy.ma
    and partition the values once per quartile. At the virtual index
    v = (n - 1) q it takes the sorted values a and b at floor(v) and floor(v) + 1
    and g = v - floor(v), and gives a + (b - a) g for g < 1/2, else
    b - (b - a) (1 - g). Where v is the last index (n = 1), numpy reads both
    values at index -1, so g = v + 1. Only where the values hold zeros of both
    signs may the sign of a zero quartile differ: np.percentile's partition
    orders them in its own way.
    """
    s = np.sort(values)
    last = len(s) - 1
    quartiles = []
    for q in (0.25, 0.5, 0.75):
        v = last * q
        i = math.floor(v)
        g = v - i
        if v >= last:
            i, g = last, v + 1
        a, b = float(s[i]), float(s[min(i + 1, last)])
        quartiles.append(a + (b - a) * g if g < 0.5 else b - (b - a) * (1 - g))
    return tuple(quartiles)


def render_stats_text(table: dict[str, dict[str, float]]) -> str:
    """Aligned plain-text rendering of a descriptive-stats table."""
    name_w = max(len(n) for n in table) if table else 8
    name_w = max(name_w, 8)
    header = "variable".ljust(name_w) + "".join(
        STAT_LABELS[s].rjust(12) for s in STAT_ORDER
    )
    lines = [header]
    for name, stats in table.items():
        lines.append(
            name.ljust(name_w)
            + "".join(f"{stats[s]:12.4g}" for s in STAT_ORDER)
        )
    return "\n".join(lines)
