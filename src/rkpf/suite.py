"""Specification notation, multi-model comparison runs, and table rendering.

Tags are dot-separated tokens: ols|fe, ow|tw (with fe), q (quality
variables), sl (spatial lags of the quality variables), a (articles-and-
reviews variable set), non|noq (drop the no-quartile / first-quartile
share). The three log controls are always present. The default comparison
is the seven-tag ladder from pooled OLS up to the full two-way FE SLX model.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass

from .errors import DualErrorsNeedRobust, InvalidTag, NoInteriorMaximum
from .estimation import (
    FitResult,
    ModelSpec,
    Term,
    fit_model,
    significance_stars,
)
from .panel import PanelDataset
from .runtime import parallel_map
from .weights import SpatialWeights

TOKENS = ("ols", "fe", "ow", "tw", "q", "sl", "a", "non", "noq")

CONTROLS = ("log(EXPEMP10)", "log(GRPCAP10)", "log(PAPEMP)")

MAIN_TAGS = (
    "ols.q",
    "fe.tw",
    "fe.ow.q",
    "fe.tw.q",
    "fe.tw.q.sl.non",
    "fe.tw.q.sl.noq",
    "fe.tw.q.sl",
)

TABLE_FORMATS = ("text", "csv", "md")


@dataclass(frozen=True)
class SuiteNotation:
    """A validated specification tag."""

    tag: str
    tokens: frozenset[str]

    @classmethod
    def parse(cls, tag: str) -> "SuiteNotation":
        parts = tag.split(".")
        if any(not p for p in parts):
            raise InvalidTag(f"{tag!r}: empty token")
        unknown = [p for p in parts if p not in TOKENS]
        if unknown:
            raise InvalidTag(f"{tag!r}: unknown tokens {unknown}")
        if len(set(parts)) != len(parts):
            raise InvalidTag(f"{tag!r}: repeated token")
        tokens = frozenset(parts)
        if ("ols" in tokens) == ("fe" in tokens):
            raise InvalidTag(f"{tag!r}: exactly one of 'ols'/'fe' required")
        if "fe" in tokens:
            if ("ow" in tokens) == ("tw" in tokens):
                raise InvalidTag(f"{tag!r}: 'fe' requires exactly one of 'ow'/'tw'")
        elif tokens & {"ow", "tw"}:
            raise InvalidTag(f"{tag!r}: 'ow'/'tw' only combine with 'fe'")
        if "non" in tokens and "noq" in tokens:
            raise InvalidTag(f"{tag!r}: 'non' and 'noq' are mutually exclusive")
        if ("non" in tokens or "noq" in tokens) and "q" not in tokens:
            raise InvalidTag(f"{tag!r}: 'non'/'noq' require 'q'")
        if "sl" in tokens and "q" not in tokens:
            raise InvalidTag(f"{tag!r}: 'sl' requires 'q'")
        return cls(tag, tokens)


def expand_notation(tag: str, covariance: str = "cluster_by_region") -> ModelSpec:
    """Expand a tag into the full ModelSpec it denotes."""
    notation = SuiteNotation.parse(tag)
    tokens = notation.tokens
    suffix = "A" if "a" in tokens else ""

    terms = [Term(name) for name in CONTROLS]
    if "q" in tokens:
        fwci, q1, nq = f"FWCI{suffix}", f"Q1SH{suffix}", f"NQSH{suffix}"
        terms.append(Term(fwci))
        terms.append(Term(fwci, squared=True))
        if "noq" not in tokens:
            terms.append(Term(q1))
        if "non" not in tokens:
            terms.append(Term(nq))
        if "sl" in tokens:
            terms.append(Term(fwci, lag=True))
            if "noq" not in tokens:
                terms.append(Term(q1, lag=True))
            if "non" not in tokens:
                terms.append(Term(nq, lag=True))

    pooled = "ols" in tokens
    return ModelSpec(
        dependent=f"log(PUB21EMP{suffix})",
        regressors=tuple(terms),
        intercept=pooled,
        region_effects=not pooled,
        time_dummies="tw" in tokens,
        covariance=covariance,
    )


@dataclass(frozen=True)
class ComparisonTable:
    """Fits side by side, Table-style: term rows, one column per tag."""

    tags: tuple[str, ...]
    fits: tuple[FitResult, ...]
    dual_errors: bool = False  # classical se beside robust, stars by classical p

    @property
    def row_labels(self) -> tuple[str, ...]:
        """Union of term labels in reporting order: controls, quality,
        lags, time dummies, constant."""
        seen: list[str] = []
        year_rows: list[str] = []
        has_const = False
        for fit in self.fits:
            for label in fit.column_labels:
                if label == "const":
                    has_const = True
                elif label.startswith("year_"):
                    if label not in year_rows:
                        year_rows.append(label)
                elif label not in seen:
                    seen.append(label)
        year_rows.sort()
        return tuple(seen + year_rows + (["const"] if has_const else []))

    def cell(self, label: str, col: int):
        fit = self.fits[col]
        if label not in fit.coefficients:
            return None
        entry = {
            "estimate": fit.coefficients[label],
            "std_error": fit.std_errors[label],
            "p": fit.p_values[label],
            "stars": fit.stars(label),
        }
        if self.dual_errors:
            p_classical = fit.classical_p_values[label]
            entry["std_error_classical"] = fit.classical_std_errors[label]
            entry["p_classical"] = p_classical
            entry["stars"] = significance_stars(p_classical)
        return entry

    def to_dict(self) -> dict:
        return {
            "columns": list(self.tags),
            "rows": [
                {
                    "term": label,
                    "cells": [self.cell(label, c) for c in range(len(self.tags))],
                }
                for label in self.row_labels
            ],
            "footer": {
                "n_obs": [fit.n_obs for fit in self.fits],
                "aic": [fit.aic for fit in self.fits],
            },
            "fits": [fit.to_dict() for fit in self.fits],
            "dual_errors": self.dual_errors,
        }


def run_suite(
    d: PanelDataset,
    w: SpatialWeights | None,
    tags,
    covariance: str = "cluster_by_region",
    dual_errors: bool = False,
) -> ComparisonTable:
    """One fit per tag, columns in tag order.

    Every tag is validated before any estimation starts. With dual_errors,
    each cell reports the classical standard errors of the same fit beside
    the robust ones and stars follow the classical p-values, matching the
    condensed two-line reporting style; this needs robust covariance.
    """
    tags = tuple(tags)
    specs = suite_specs(tags, covariance, dual_errors)
    fits = tuple(parallel_map(lambda s: fit_model(d, s, w), specs))
    return ComparisonTable(tags, fits, dual_errors)


def suite_specs(tags, covariance: str = "cluster_by_region", dual_errors: bool = False):
    """The ModelSpec of each tag; raises if a tag or the flags are invalid, before any data."""
    if dual_errors and covariance == "classical":
        raise DualErrorsNeedRobust(
            "dual errors report classical beside robust standard errors; "
            "they need cluster_by_region covariance"
        )
    if not tags:
        raise InvalidTag("empty tag list")
    return [expand_notation(tag, covariance) for tag in tags]


def vertex_of_quadratic(b_linear: float, b_quadratic: float) -> float:
    """Argmax of b_linear*x + b_quadratic*x^2; requires a concave quadratic."""
    if b_quadratic >= 0:
        raise NoInteriorMaximum(
            f"quadratic coefficient {b_quadratic} is not negative; no interior maximum"
        )
    return -b_linear / (2.0 * b_quadratic)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _fmt(value: float, decimals: int = 3) -> str:
    return f"{value:.{decimals}f}"


def _cell_lines(entry, dual: bool) -> list[str]:
    if entry is None:
        return [""]
    lines = [f"{_fmt(entry['estimate'])}{entry['stars']}"]
    if dual:
        lines.append(f"({_fmt(entry['std_error_classical'])})")
    lines.append(f"({_fmt(entry['std_error'])})")
    return lines


def render_table(table: ComparisonTable, fmt: str = "text") -> str:
    """Render to aligned text, tidy CSV, or Markdown.

    Estimates and standard errors print to 3 decimals; stars follow the
    *p<0.10, **p<0.05, ***p<0.01 thresholds.
    """
    if fmt not in TABLE_FORMATS:
        raise ValueError(f"format must be one of {TABLE_FORMATS}")
    dual = table.dual_errors
    if fmt == "csv":
        return _render_csv(table, dual)
    if fmt == "md":
        return _render_md(table, dual)
    return _render_text(table, dual)


def _render_text(table: ComparisonTable, dual: bool) -> str:
    ncols = len(table.tags)
    width = max([len(t) for t in table.tags] + [12])
    label_w = max([len(r) for r in table.row_labels] + [len("Observations")])
    sep = "  "

    def row(cells: list[str]) -> str:
        return sep.join(
            [cells[0].ljust(label_w)] + [c.rjust(width) for c in cells[1:]]
        ).rstrip()

    lines = [row(["", *table.tags])]
    lines.append("-" * len(lines[0]))
    for label in table.row_labels:
        entries = [table.cell(label, c) for c in range(ncols)]
        stacked = [_cell_lines(e, dual) for e in entries]
        depth = max(len(s) for s in stacked)
        for lvl in range(depth):
            cells = [label if lvl == 0 else ""]
            for s in stacked:
                cells.append(s[lvl] if lvl < len(s) else "")
            lines.append(row(cells))
    lines.append("-" * len(lines[0]))
    lines.append(row(["Observations", *[str(f.n_obs) for f in table.fits]]))
    lines.append(row(["AIC", *[_fmt(f.aic, 1) for f in table.fits]]))
    note = "note: *p<0.10; **p<0.05; ***p<0.01"
    if dual:
        note += "; (classical se) above (robust se); stars follow classical p"
    else:
        kind = "robust" if table.fits[0].spec.covariance == "cluster_by_region" else "classical"
        note += f"; {kind} standard errors in parentheses"
    lines.append(note)
    return "\n".join(lines)


def _render_csv(table: ComparisonTable, dual: bool) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = ["term", "spec", "estimate", "std_error", "stars"]
    if dual:
        header.insert(3, "std_error_classical")
    writer.writerow(header)
    for label in table.row_labels:
        for c, tag in enumerate(table.tags):
            entry = table.cell(label, c)
            if entry is None:
                continue
            fields = [label, tag, _fmt(entry["estimate"])]
            if dual:
                fields.append(_fmt(entry["std_error_classical"]))
            fields += [_fmt(entry["std_error"]), entry["stars"]]
            writer.writerow(fields)
    blanks = [""] * (3 if dual else 2)
    for c, tag in enumerate(table.tags):
        writer.writerow(["Observations", tag, str(table.fits[c].n_obs), *blanks])
        writer.writerow(["AIC", tag, _fmt(table.fits[c].aic, 1), *blanks])
    return buf.getvalue()


def _render_md(table: ComparisonTable, dual: bool) -> str:
    ncols = len(table.tags)
    lines = ["| term | " + " | ".join(table.tags) + " |"]
    lines.append("|" + "---|" * (ncols + 1))
    for label in table.row_labels:
        cells = []
        for c in range(ncols):
            entry = table.cell(label, c)
            cells.append(" ".join(_cell_lines(entry, dual)) if entry else "")
        lines.append(f"| {label} | " + " | ".join(cells) + " |")
    lines.append(
        "| Observations | " + " | ".join(str(f.n_obs) for f in table.fits) + " |"
    )
    lines.append("| AIC | " + " | ".join(_fmt(f.aic, 1) for f in table.fits) + " |")
    lines.append("")
    lines.append("note: \\*p<0.10; \\*\\*p<0.05; \\*\\*\\*p<0.01")
    return "\n".join(lines)


def render_fit_text(fit: FitResult) -> str:
    """Single-fit summary table."""
    label_w = max([len(l) for l in fit.column_labels] + [8])
    lines = [
        f"dependent: {fit.spec.dependent}   covariance: {fit.spec.covariance}",
        f"n={fit.n_obs}  params={fit.n_params}  absorbed={fit.n_absorbed}  dof={fit.dof}",
        f"R2(within)={fit.r_squared_within:.4f}  R2(overall)={fit.r_squared_overall:.4f}"
        f"  AIC={fit.aic:.1f}",
        "",
        "term".ljust(label_w) + "estimate".rjust(12) + "std.err".rjust(12)
        + "t".rjust(10) + "p".rjust(10) + "  ",
    ]
    for label in fit.column_labels:
        lines.append(
            label.ljust(label_w)
            + f"{fit.coefficients[label]:12.4f}"
            + f"{fit.std_errors[label]:12.4f}"
            + f"{fit.t_stats[label]:10.3f}"
            + f"{fit.p_values[label]:10.4f}"
            + f"  {fit.stars(label)}"
        )
    lines.append("note: *p<0.10; **p<0.05; ***p<0.01")
    return "\n".join(lines)


__all__ = [
    "SuiteNotation",
    "ComparisonTable",
    "MAIN_TAGS",
    "CONTROLS",
    "expand_notation",
    "run_suite",
    "suite_specs",
    "render_table",
    "render_fit_text",
    "vertex_of_quadratic",
    "significance_stars",
]
