"""Balanced regional panel: loading, validation, and descriptive statistics.

A PanelDataset is an immutable region x year table of named numeric
variables. Cells that were absent from the input are stored as NaN until
validate_balanced certifies the panel complete; nothing is imputed.
"""
from __future__ import annotations

import contextlib
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
from .manifest import read_csv_sidecar, write_csv_sidecar
from .tables import check_names, format_rows, read_matrix, write_table

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
    """
    arrays = read_csv_sidecar(path, SIDECAR_LAYOUT, digests)
    if arrays is not None:
        with contextlib.suppress(EngineError, ValueError):  # rejected: parse the text
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

    seen: set[tuple[str, int]] = set()
    years = []

    def check_labels(lineno, labels):
        region, year_cell = labels
        try:
            year = int(year_cell)
        except ValueError:
            raise NonNumericCell(
                f"{path}:{lineno}: year column: cannot parse {year_cell!r}"
            ) from None
        if (region, year) in seen:
            raise DuplicateRow(f"{path}:{lineno}: duplicate row for {region!r}, {year}")
        seen.add((region, year))
        years.append(year)

    var_names, labels, values = read_matrix(path, label_columns, check_labels)
    regions = [region for region, _ in labels]

    first, last = min(years), max(years)
    if last - first >= len(years):
        # a balanced panel has a row for every year it spans
        raise NonConsecutiveYears(f"{path}: years {first}-{last} outnumber the data rows")
    region_ids = tuple(sorted(set(regions)))
    index = {r: i for i, r in enumerate(region_ids)}
    table = np.full((len(var_names), len(region_ids), last - first + 1), np.nan)
    table[:, [index[r] for r in regions], [y - first for y in years]] = values.T
    return PanelDataset(region_ids, tuple(range(first, last + 1)), dict(zip(var_names, table)))


def write_panel_csv(d: PanelDataset, path) -> str:
    """Write the canonical long CSV, region-major: NaN as an empty cell, inf an error.

    Returns the sha256 of the bytes written.
    """
    values = np.stack(list(d.variables.values()), axis=-1).reshape(d.n_obs, -1)
    if np.isinf(values).any():
        row, col = np.argwhere(np.isinf(values))[0]
        where = f"{d.region_ids[row // d.n_years]}, {d.years[row % d.n_years]}"
        raise NonNumericCell(f"{list(d.variables)[col]!r} is {values[row, col]} at {where}")
    keys = ((region, year) for region in d.region_ids for year in d.years)
    return write_table(path, ["region", "year", *d.variables], zip(keys, format_rows(values)))


def write_panel_sidecar(d: PanelDataset, csv_path, digest: str) -> None:
    """The sidecar of the panel CSV that write_panel_csv wrote to csv_path, returning
    `digest`: the dataset as load_panel_csv returns it, regions sorted and every
    missing cell the NaN an empty cell parses to."""
    order = sorted(range(d.n_regions), key=d.region_ids.__getitem__)
    # one (variable, region, year) array, filled in region order and made canonical
    # in place, so that writing it adds only the writer's copy
    values = np.empty((len(d.variables), d.n_regions, d.n_years))
    for out, arr in zip(values, d.variables.values()):
        np.take(arr, order, axis=0, out=out)
    np.copyto(values, np.nan, where=np.isnan(values))
    write_csv_sidecar(
        csv_path,
        digest,
        SIDECAR_LAYOUT,
        regions=[d.region_ids[i] for i in order],
        years=d.years,
        variables=list(d.variables),
        values=values,
    )


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
        table[name] = {
            "min": float(flat.min()),
            "q1": float(np.percentile(flat, 25)),
            "median": float(np.percentile(flat, 50)),
            "mean": float(flat.mean()),
            "q3": float(np.percentile(flat, 75)),
            "max": float(flat.max()),
        }
    return table


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
