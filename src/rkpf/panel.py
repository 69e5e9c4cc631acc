"""Balanced regional panel: loading, validation, and variable construction.

A PanelDataset is an immutable region x year table of named numeric
variables. Cells that were absent from the input are stored as NaN until
validate_balanced certifies the panel complete; transforms propagate NaN
silently and never impute.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    DuplicateRow,
    InsufficientHistory,
    InsufficientLead,
    MissingColumn,
    MissingData,
    NonConsecutiveYears,
    NonNumericCell,
    NonPositiveIndex,
    NonPositiveValue,
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
    aligned with them. Instances are immutable: every transform returns a
    new dataset, so sharing across concurrent tasks is safe.
    """

    region_ids: tuple[str, ...]
    years: tuple[int, ...]
    variables: dict[str, np.ndarray]
    metadata: dict[str, str] = field(default_factory=dict)

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

    def region_index(self, region: str) -> int:
        try:
            return self.region_ids.index(region)
        except ValueError:
            raise UnknownVariable(f"unknown region {region!r}") from None

    def year_index(self, year: int) -> int:
        try:
            return self.years.index(int(year))
        except ValueError:
            raise UnknownVariable(f"year {year} outside panel range") from None

    def with_variable(self, name: str, values: np.ndarray) -> "PanelDataset":
        new_vars = dict(self.variables)
        new_vars[name] = np.asarray(values, dtype=float)
        return replace(self, variables=new_vars)

    def restrict_years(self, first: int, last: int) -> "PanelDataset":
        """Slice every variable to the (inclusive) year window [first, last]."""
        i0, i1 = self.year_index(first), self.year_index(last)
        new_vars = {k: v[:, i0 : i1 + 1] for k, v in self.variables.items()}
        return replace(self, years=self.years[i0 : i1 + 1], variables=new_vars)


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

    return PanelDataset(regions, years, variables, {"source": str(path)})


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
# transforms
# ---------------------------------------------------------------------------


def deflate(
    d: PanelDataset,
    nominal: str,
    cpi: dict[int, float],
    base_year: int,
    out: str,
) -> PanelDataset:
    """Deflate a nominal series by a chained per-year price index.

    cpi[y] is the index of year y relative to year y-1. The chained deflator
    equals 1 at base_year, the product of cpi over (base_year, t] ahead of it
    and the reciprocal product behind it.
    """
    values = d.var(nominal)
    if base_year not in d.years:
        raise NonPositiveIndex(f"base_year {base_year} outside panel years")
    for year in d.years[1:]:  # the chain links every year to the one before it
        idx = cpi.get(year)
        if idx is None:
            raise NonPositiveIndex(f"price index missing for year {year}")
        if idx <= 0:
            raise NonPositiveIndex(f"non-positive price index {idx} for year {year}")
    deflator = chained_deflator(cpi, d.years, base_year)
    return d.with_variable(out, values / deflator[np.newaxis, :])


def chained_deflator(cpi: dict[int, float], years, base_year: int) -> np.ndarray:
    """Chained deflator over `years` with value exactly 1 at base_year."""
    years = list(years)
    deflator = np.empty(len(years))
    base_j = years.index(base_year)
    deflator[base_j] = 1.0
    for j in range(base_j + 1, len(years)):
        deflator[j] = deflator[j - 1] * cpi[years[j]]
    for j in range(base_j - 1, -1, -1):
        deflator[j] = deflator[j + 1] / cpi[years[j + 1]]
    return deflator


def weighted_trailing_average(
    d: PanelDataset, x: str, weights, out: str
) -> PanelDataset:
    """Trailing weighted average; weights[0] applies to the oldest year.

    out[r, t] = sum_k weights[k] * x[r, t-(K-1)+k] / sum(weights). The result
    panel drops the first K-1 years (every variable sliced to match), since
    those years lack the required history.
    """
    values = d.var(x)
    weights = np.asarray(list(weights), dtype=float)
    if weights.ndim != 1 or weights.size == 0:
        raise ValueError("weights must be a nonempty 1-d sequence")
    if np.any(weights <= 0):
        raise ValueError("weights must be positive")
    k = weights.size
    if k > d.n_years:
        first_possible = d.years[0] + k - 1
        raise InsufficientHistory(
            f"{x!r}: window of {k} years needs history through {first_possible}; "
            f"first computable year would be {first_possible}, panel ends {d.years[-1]}"
        )
    total = weights.sum()
    n_out = d.n_years - (k - 1)
    avg = np.zeros((d.n_regions, n_out))
    for offset, w in enumerate(weights):
        avg += w * values[:, offset : offset + n_out]
    avg /= total
    trimmed = d.restrict_years(d.years[k - 1], d.years[-1])
    return trimmed.with_variable(out, avg)


def lead_shift(d: PanelDataset, y: str, periods: int, out: str) -> PanelDataset:
    """Shift y forward so out[r, t] = y[r, t+periods].

    The result panel spans the explanatory-variable years only (drops the
    last `periods` years; every variable sliced to match). y must be
    observed over the shifted window; NaN there raises InsufficientLead.
    """
    if periods < 0:
        raise ValueError("periods must be nonnegative")
    values = d.var(y)
    if periods >= d.n_years:
        raise InsufficientLead(
            f"{y!r}: cannot shift {periods} periods in a {d.n_years}-year panel"
        )
    shifted = values[:, periods:]
    if np.isnan(shifted).any():
        i, j = [ax[0] for ax in np.nonzero(np.isnan(shifted))]
        raise InsufficientLead(
            f"{y!r}: missing at {d.region_ids[i]}, {d.years[j + periods]}; "
            f"values required over {d.years[periods]}-{d.years[-1]}"
        )
    if periods == 0:
        return d.with_variable(out, values.copy())
    trimmed = d.restrict_years(d.years[0], d.years[-1 - periods])
    return trimmed.with_variable(out, shifted)


def apply_log(d: PanelDataset, x: str, out: str) -> PanelDataset:
    """Natural log, elementwise. Zeros and negatives are a hard error."""
    values = d.var(x)
    bad = (values <= 0) & ~np.isnan(values)
    if bad.any():
        i, j = [ax[0] for ax in np.nonzero(bad)]
        raise NonPositiveValue(
            f"{x!r}: non-positive value {values[i, j]} at "
            f"{d.region_ids[i]}, {d.years[j]}"
        )
    with np.errstate(invalid="ignore"):
        return d.with_variable(out, np.log(values))


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
