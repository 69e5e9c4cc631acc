"""Command-line entry point wiring the engine into batch workflows.

Subcommands: ingest, weights, fit, suite, simulate, mc, stats. A bundle is
a plain directory holding dataset.csv plus a manifest; every command is
deterministic given its inputs and seed, and manifests record content
digests so reruns are verifiable. Exit codes: 0 success, 2 input or
validation error (including a path that is missing, a directory where a
file is wanted, or under a regular file), 1 internal error.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import sys
import traceback
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (
    EngineError,
    InvalidTag,
    MissingData,
    NonFiniteFit,
    NonNumericCell,
    RegionOrderMismatch,
    UnknownSubjectArea,
    UnknownVariable,
    ZeroDof,
)
from .indicators import INDICATOR_COLUMNS, load_publications, load_vocabulary
from .indicators import region_year_indicators, write_indicator_csv
from .manifest import build_manifest
from .panel import (
    PanelDataset,
    descriptive_stats,
    load_panel_csv,
    render_stats_text,
    validate_balanced,
    write_panel_csv,
)
from .simulate import DgpConfig, generate_panel, monte_carlo
from .estimation import COVARIANCE_KINDS, fit_model
from .suite import (
    MAIN_TAGS,
    ComparisonTable,
    expand_notation,
    render_fit_text,
    render_table,
    run_suite,
)
from .weights import (
    ThematicProfileMatrix,
    build_profile_matrix,
    build_weights,
    correlation_matrix,
    load_profiles_csv,
    load_weights_csv,
    write_profiles_csv,
    write_weights_files,
)

DATASET_NAME = "dataset.csv"


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_text(path: Path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
        if not text.endswith("\n"):
            fh.write("\n")


def _out_dir(args) -> Path:
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_bundle(bundle: str) -> PanelDataset:
    return load_panel_csv(Path(bundle) / DATASET_NAME)


def _dgp_config(args) -> DgpConfig:
    """The --config file (or the defaults), with --seed overriding its seed."""
    cfg = DgpConfig.from_yaml(args.config) if args.config else DgpConfig()
    return cfg if args.seed is None else replace(cfg, seed=args.seed)


def _tag_list(raw: str) -> list[str]:
    tags = [t.strip() for t in raw.split(",") if t.strip()]
    if not tags:
        raise InvalidTag("empty tag list")
    return tags


def _reorder_profiles(profiles, region_order):
    """Align a profile matrix with a bundle's region order."""
    index = {r: i for i, r in enumerate(profiles.regions)}
    missing = sorted(set(region_order) - index.keys())
    if missing:
        raise RegionOrderMismatch(f"profiles missing bundle regions: {missing}")
    rows = profiles.shares[[index[r] for r in region_order]]
    return ThematicProfileMatrix(tuple(region_order), profiles.subject_areas, rows)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_ingest(args) -> int:
    out = _out_dir(args)
    dataset = load_panel_csv(args.panel)
    inputs = [args.panel]

    if args.pubs:
        pubs = load_publications(args.pubs)
        inputs.append(args.pubs)
        if args.vocab:
            vocabulary = set(load_vocabulary(args.vocab))
            inputs.append(args.vocab)
            for rec in pubs:
                unknown = rec.subject_areas - vocabulary
                if unknown:
                    raise UnknownSubjectArea(
                        f"record {rec.id!r}: subject areas {sorted(unknown)} "
                        "not in vocabulary"
                    )
        try:
            rows = region_year_indicators(pubs)
        except NonNumericCell as exc:  # an FWCI mean that overflows
            raise NonNumericCell(f"{args.pubs}: {exc}") from None
        write_indicator_csv(rows, out / "indicators.csv")
        region_rows = {r: i for i, r in enumerate(dataset.region_ids)}
        year_columns = {y: j for j, y in enumerate(dataset.years)}
        # records outside the panel frame are left out
        rows = [r for r in rows if r.region in region_rows and r.year in year_columns]
        at = ([region_rows[r.region] for r in rows], [year_columns[r.year] for r in rows])
        for name, field in INDICATOR_COLUMNS.items():
            values = np.full((dataset.n_regions, dataset.n_years), np.nan)
            values[at] = [getattr(r, field) for r in rows]
            dataset = dataset.with_variable(name, values)

    report = validate_balanced(dataset)
    _write_json(out / "validation.json", report.to_dict())
    print(report.render_text())
    if not report.passed:
        return 2

    write_panel_csv(dataset, out / DATASET_NAME)
    _write_json(out / "manifest.json", build_manifest("ingest", inputs))
    print(f"bundle written to {out}")
    return 0


def cmd_weights(args) -> int:
    out = _out_dir(args)
    inputs = []
    if args.profiles:
        profiles = load_profiles_csv(args.profiles)
        inputs.append(args.profiles)
        if args.bundle:
            profiles = _reorder_profiles(profiles, _load_bundle(args.bundle).region_ids)
    elif args.pubs:
        pubs = load_publications(args.pubs)
        inputs.append(args.pubs)
        if args.vocab:
            vocabulary = load_vocabulary(args.vocab)
            inputs.append(args.vocab)
        else:
            vocabulary = sorted({a for rec in pubs for a in rec.subject_areas})
        regions = list(_load_bundle(args.bundle).region_ids) if args.bundle else None
        profiles = build_profile_matrix(pubs, vocabulary, regions)
    else:
        raise MissingData("weights needs --profiles or --pubs")

    w = build_weights(correlation_matrix(profiles), profiles.regions)
    write_weights_files(w, out / "weights.csv", out / "weights.json")
    _write_json(out / "manifest.json", build_manifest("weights", inputs))
    print(
        f"weights written to {out} "
        f"({len(w.regions)} regions, {len(w.isolated)} isolated)"
    )
    return 0


@contextlib.contextmanager
def _fit_inputs(args):
    """Yield (dataset, weights or None, input paths); an error of the data names dataset.csv."""
    dataset_path = Path(args.bundle) / DATASET_NAME
    dataset = load_panel_csv(dataset_path)
    w = load_weights_csv(args.weights) if args.weights else None
    try:
        yield dataset, w, [dataset_path] + ([args.weights] if args.weights else [])
    except (UnknownVariable, NonFiniteFit, ZeroDof) as exc:
        raise type(exc)(f"{dataset_path}: {exc}") from None


def cmd_fit(args) -> int:
    out = _out_dir(args)
    with _fit_inputs(args) as (dataset, w, inputs):
        fit = fit_model(dataset, expand_notation(args.spec, args.covariance), w)

    _write_json(out / "fit.json", fit.to_dict())
    fmt = args.format
    if fmt in ("csv", "md"):
        table = ComparisonTable((args.spec,), (fit,))
        _write_text(out / f"fit.{fmt}", render_table(table, fmt))
    elif fmt != "json":
        _write_text(out / "fit.txt", render_fit_text(fit))
    _write_json(out / "manifest.json", build_manifest("fit", inputs, config_text=args.spec))
    print(render_fit_text(fit))
    return 0


def cmd_suite(args) -> int:
    out = _out_dir(args)
    tags = _tag_list(args.specs)
    with _fit_inputs(args) as (dataset, w, inputs):
        table = run_suite(dataset, w, tags, args.covariance, dual_errors=args.dual_errors)

    _write_json(out / "suite.json", table.to_dict())
    fmt = args.format
    ext = {"text": "txt", "csv": "csv", "md": "md"}
    if fmt != "json":
        _write_text(out / f"suite.{ext[fmt]}", render_table(table, fmt))
    _write_json(out / "manifest.json", build_manifest("suite", inputs, config_text=args.specs))
    print(render_table(table, "text"))
    return 0


def cmd_simulate(args) -> int:
    out = _out_dir(args)
    cfg = _dgp_config(args)
    generated = generate_panel(cfg)

    write_panel_csv(generated.dataset, out / DATASET_NAME)
    write_profiles_csv(generated.profiles, out / "profiles.csv")
    write_weights_files(generated.weights, out / "weights.csv", out / "weights.json")
    cfg.to_yaml(out / "dgp.yaml")
    config_text = json.dumps(cfg.to_mapping(), sort_keys=True)
    inputs = [args.config] if args.config else []
    _write_json(out / "manifest.json", build_manifest("simulate", inputs, config_text))
    print(
        f"synthetic bundle written to {out} "
        f"({cfg.n_regions} regions x {cfg.n_years} years, seed {cfg.seed})"
    )
    return 0


def cmd_mc(args) -> int:
    out = _out_dir(args)
    cfg = _dgp_config(args)
    try:
        report = monte_carlo(cfg, args.spec, args.reps, args.covariance)
    except ZeroDof as exc:  # the config's panel is too small for the spec
        raise ZeroDof(f"{args.config}: {exc}") if args.config else exc from None

    _write_json(out / "mc.json", report.to_dict())
    _write_text(out / "mc.txt", report.render_text())
    config_text = json.dumps(cfg.to_mapping(), sort_keys=True) + f"|{args.spec}|{args.reps}"
    inputs = [args.config] if args.config else []
    _write_json(out / "manifest.json", build_manifest("mc", inputs, config_text))
    print(report.render_text())
    return 0


def cmd_stats(args) -> int:
    out = _out_dir(args)
    dataset = _load_bundle(args.bundle)
    names = _tag_list(args.vars) if args.vars else list(dataset.variables)
    table = descriptive_stats(dataset, names)
    _write_json(out / "stats.json", table)
    _write_text(out / "stats.txt", render_stats_text(table))
    inputs = [Path(args.bundle) / DATASET_NAME]
    _write_json(out / "manifest.json", build_manifest("stats", inputs))
    print(render_stats_text(table))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _positive_reps(raw: str) -> int:
    value = int(raw)
    if value < 2:
        raise argparse.ArgumentTypeError("replications must be >= 2")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rkpf",
        description="Regional knowledge production function engine",
    )
    parser.add_argument("--version", action="version", version=f"rkpf {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def subcommand(name, func, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--output-dir", default=".", help="directory for outputs")
        p.set_defaults(func=func, parser=p)
        return p

    def format_option(p):
        p.add_argument(
            "--format",
            choices=("text", "csv", "md", "json"),
            default="text",
            help="rendering of the human-readable table (json: sidecar only)",
        )

    def covariance_option(p):
        p.add_argument(
            "--covariance",
            choices=COVARIANCE_KINDS,
            default="cluster_by_region",
        )

    p = subcommand("ingest", cmd_ingest, "validate a panel CSV into a bundle")
    p.add_argument("--panel", required=True, help="long-format panel CSV")
    p.add_argument("--pubs", help="publication records (CSV or JSON-lines)")
    p.add_argument("--vocab", help="subject-area vocabulary, one code per line (with --pubs)")

    p = subcommand("weights", cmd_weights, "build the thematic weights matrix")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--profiles", help="precomputed region x subject share CSV")
    source.add_argument("--pubs", help="publication records to derive profiles from")
    p.add_argument("--vocab", help="subject-area vocabulary (with --pubs)")
    p.add_argument("--bundle", help="bundle whose region order the weights follow")

    p = subcommand("fit", cmd_fit, "estimate one specification")
    format_option(p)
    p.add_argument("--bundle", required=True)
    p.add_argument("--spec", required=True, help="specification tag, e.g. fe.tw.q.sl")
    p.add_argument("--weights", help="weights CSV (required for sl tags)")
    covariance_option(p)

    p = subcommand("suite", cmd_suite, "run a specification comparison table")
    format_option(p)
    p.add_argument("--bundle", required=True)
    p.add_argument(
        "--specs",
        default=",".join(MAIN_TAGS),
        help="comma-separated tags (default: the seven-model ladder)",
    )
    p.add_argument("--weights", help="weights CSV (required for sl tags)")
    covariance_option(p)
    p.add_argument(
        "--dual-errors",
        action="store_true",
        help="report classical beside robust standard errors per cell "
        "(one fit per tag; needs robust covariance)",
    )

    p = subcommand("simulate", cmd_simulate, "generate a synthetic bundle")
    p.add_argument("--seed", type=int, help="overrides the config's seed")
    p.add_argument("--config", help="DGP config YAML")

    p = subcommand("mc", cmd_mc, "Monte Carlo bias/coverage study")
    p.add_argument("--seed", type=int, help="overrides the config's seed")
    p.add_argument("--config", help="DGP config YAML")
    p.add_argument("--spec", default="fe.tw.q.sl")
    p.add_argument("--reps", type=_positive_reps, required=True)
    covariance_option(p)

    p = subcommand("stats", cmd_stats, "descriptive statistics for bundle variables")
    p.add_argument("--bundle", required=True)
    p.add_argument("--vars", help="comma-separated variable names (default: all)")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "vocab", None) and not args.pubs:
        args.parser.error("argument --vocab: needs --pubs")
    try:
        return args.func(args)
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # a path the user named (or a file in their --output-dir) cannot be read or made
        if isinstance(exc, OSError) and exc.filename is not None:
            print(f"error: {exc.filename}: {exc.strerror}", file=sys.stderr)
            return 2
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
