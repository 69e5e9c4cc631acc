"""Balanced regional panel: loading, validation, and descriptive statistics.

A PanelDataset is an immutable region x year table of named numeric
variables. Cells that were absent from the input are stored as NaN until
validate_balanced certifies the panel complete; nothing is imputed.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DuplicateRow,
    MissingColumn,
    MissingData,
    NonConsecutiveYears,
    NonNumericCell,
    UnknownVariable,
)

RESERVED_COLUMNS = ("region", "year")


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
        if len(set(self.region_ids)) != len(self.region_ids):
            dupes = sorted({r for r in self.region_ids if self.region_ids.count(r) > 1})
            raise DuplicateRow(f"duplicate region identifiers: {dupes}")
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


def load_panel_csv(path, schema: list[str] | None = None) -> PanelDataset:
    """Load a long-format panel CSV (columns region, year, <var1>, ...).

    Returns a dataset containing exactly the rows present; regions and years
    are the sorted distinct values and unobserved cells are NaN. Balance is
    checked separately by validate_balanced.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise MissingData(f"{path}: file is empty") from None
        header = [h.strip() for h in header]
        for col in RESERVED_COLUMNS:
            if col not in header:
                raise MissingColumn(f"{path}: required column {col!r} missing")
        if schema is not None:
            missing = [c for c in schema if c not in header]
            if missing:
                raise MissingColumn(f"{path}: expected columns missing: {missing}")
        var_names = [h for h in header if h not in RESERVED_COLUMNS]
        if not var_names:
            raise MissingColumn(f"{path}: no variable columns beyond region,year")
        region_col = header.index("region")
        year_col = header.index("year")
        var_cols = [(name, header.index(name)) for name in var_names]

        rows: dict[tuple[str, int], dict[str, float]] = {}
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise NonNumericCell(
                    f"{path}:{lineno}: expected {len(header)} cells, got {len(row)}"
                )
            region = row[region_col].strip()
            try:
                year = int(row[year_col].strip())
            except ValueError:
                raise NonNumericCell(
                    f"{path}:{lineno}: year column: cannot parse {row[year_col]!r}"
                ) from None
            key = (region, year)
            if key in rows:
                raise DuplicateRow(f"{path}:{lineno}: duplicate row for {region!r}, {year}")
            values = {}
            for name, j in var_cols:
                cell = row[j].strip()
                if cell == "":
                    values[name] = math.nan
                    continue
                try:
                    values[name] = float(cell)
                except ValueError:
                    raise NonNumericCell(
                        f"{path}:{lineno}: column {name!r}: cannot parse {cell!r}"
                    ) from None
            rows[key] = values

    if not rows:
        raise MissingData(f"{path}: header only, no data rows")

    regions = tuple(sorted({r for r, _ in rows}))
    years_present = sorted({y for _, y in rows})
    years = tuple(range(years_present[0], years_present[-1] + 1))
    n, t = len(regions), len(years)
    variables = {name: np.full((n, t), np.nan) for name in var_names}
    r_idx = {r: i for i, r in enumerate(regions)}
    y_idx = {y: j for j, y in enumerate(years)}
    for (region, year), values in sorted(rows.items()):
        i, j = r_idx[region], y_idx[year]
        for name in var_names:
            variables[name][i, j] = values[name]

    return PanelDataset(regions, years, variables)


def write_panel_csv(d: PanelDataset, path) -> None:
    """Write the canonical long CSV (RFC 4180, LF, UTF-8, full precision)."""
    names = list(d.variables)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["region", "year", *names])
        for i, region in enumerate(d.region_ids):
            for j, year in enumerate(d.years):
                cells = [region, str(year)]
                for name in names:
                    v = d.variables[name][i, j]
                    cells.append("" if math.isnan(v) else repr(float(v)))
                writer.writerow(cells)


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
        return {
            "passed": self.passed,
            "n_regions": self.n_regions,
            "n_years": self.n_years,
            "n_variables": self.n_variables,
            "gaps": [list(g) for g in self.gaps],
        }

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
