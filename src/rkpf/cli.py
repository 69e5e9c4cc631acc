"""Command-line entry point wiring the engine into batch workflows.

Subcommands: ingest, weights, fit, suite, simulate, mc, stats. A bundle is
a plain directory holding dataset.csv plus a manifest; every command is
deterministic given its inputs and seed, and a manifest records the digest
of every file its command read, so reruns are verifiable. Exit codes: 0
success, 2 input or validation error (one line naming the input at fault,
such as a path that is missing, a directory, or under a regular file), 1
internal error.
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
from .errors import EngineError, InvalidTag, MissingData, RegionOrderMismatch
from .indicators import INDICATOR_COLUMNS, load_publications, load_vocabulary
from .indicators import region_year_indicators, write_indicator_csv
from .manifest import build_manifest
from .panel import (
    descriptive_stats,
    load_panel_csv,
    render_stats_text,
    validate_balanced,
    write_panel_csv,
)
from .simulate import MAX_REPLICATIONS, DgpConfig, generate_panel, monte_carlo
from .estimation import COVARIANCE_KINDS, fit_model, require_weights
from .suite import (
    MAIN_TAGS,
    ComparisonTable,
    expand_notation,
    render_fit_text,
    render_table,
    run_suite,
    suite_specs,
)
from .tables import not_utf8
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


def _write_text(path: Path, text: str) -> None:
    path.write_text(text if text.endswith("\n") else text + "\n", encoding="utf-8", newline="")


def _write_json(path: Path, payload: dict) -> None:
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True))


def _out_dir(args) -> Path:
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


@contextlib.contextmanager
def _reading(inputs: list, path):
    """Open an input: list path (if any) for the manifest, and put it in front of an
    EngineError raised while the block works on the file, unless the message starts
    with an input's path already (a loader's file:line, or an input opened within).
    A file that is not UTF-8 is named with the line of its first bad byte.

    Every subcommand opens each input through this, and checks its flags before, so
    an error of a flag alone names no file.
    """
    if path is None:
        yield None
        return
    if path not in inputs:
        inputs.append(path)
    try:
        yield path
    except EngineError as exc:
        if any(str(exc).startswith(f"{p}:") for p in inputs):
            raise
        raise type(exc)(f"{path}: {exc}") from None
    except UnicodeDecodeError:
        raise not_utf8(path) from None


def _dgp_config(args, inputs: list) -> DgpConfig:
    """The --config file (or the defaults), with --seed overriding its seed."""
    with _reading(inputs, args.config) as path:
        cfg = DgpConfig.from_yaml(path) if path else DgpConfig()
    return cfg if args.seed is None else replace(cfg, seed=args.seed)


def _bundle_regions(bundle: str, inputs: list) -> tuple[str, ...]:
    with _reading(inputs, Path(bundle) / DATASET_NAME) as path:
        return load_panel_csv(path).region_ids


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
    inputs = []
    with _reading(inputs, args.panel) as path:
        dataset = load_panel_csv(path)

    if args.pubs:
        with _reading(inputs, args.vocab) as path:
            vocabulary = load_vocabulary(path) if path else None
        with _reading(inputs, args.pubs) as path:
            rows = region_year_indicators(load_publications(path, vocabulary))
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
    if not (args.profiles or args.pubs):
        raise MissingData("weights needs --profiles or --pubs")
    inputs = []
    if args.profiles:
        with _reading(inputs, args.profiles) as path:
            profiles = load_profiles_csv(path)
            if args.bundle:  # its dataset sets the row order
                profiles = _reorder_profiles(profiles, _bundle_regions(args.bundle, inputs))
    else:
        with _reading(inputs, args.vocab) as path:
            vocabulary = load_vocabulary(path) if path else None
        with _reading(inputs, args.pubs) as path:
            pubs = load_publications(path, vocabulary)
            if vocabulary is None:
                vocabulary = sorted({a for rec in pubs for a in rec.subject_areas})
            regions = _bundle_regions(args.bundle, inputs) if args.bundle else None
            profiles = build_profile_matrix(pubs, vocabulary, regions)

    w = build_weights(correlation_matrix(profiles), profiles.regions)
    write_weights_files(w, out / "weights.csv", out / "weights.json")
    _write_json(out / "manifest.json", build_manifest("weights", inputs))
    print(
        f"weights written to {out} "
        f"({len(w.regions)} regions, {len(w.isolated)} isolated)"
    )
    return 0


def cmd_fit(args) -> int:
    out = _out_dir(args)
    spec = expand_notation(args.spec, args.covariance)
    require_weights([spec], args.weights is not None)
    inputs = []
    with _reading(inputs, Path(args.bundle) / DATASET_NAME) as path:
        dataset = load_panel_csv(path)
        with _reading(inputs, args.weights) as weights_path:
            w = load_weights_csv(weights_path) if weights_path else None
        fit = fit_model(dataset, spec, w)

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
    require_weights(suite_specs(tags, args.covariance, args.dual_errors), args.weights is not None)
    inputs = []
    with _reading(inputs, Path(args.bundle) / DATASET_NAME) as path:
        dataset = load_panel_csv(path)
        with _reading(inputs, args.weights) as weights_path:
            w = load_weights_csv(weights_path) if weights_path else None
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
    inputs = []
    cfg = _dgp_config(args, inputs)
    with _reading(inputs, args.config):  # a panel that overflows is the config's
        generated = generate_panel(cfg)
        write_panel_csv(generated.dataset, out / DATASET_NAME)
    write_profiles_csv(generated.profiles, out / "profiles.csv")
    write_weights_files(generated.weights, out / "weights.csv", out / "weights.json")
    cfg.to_yaml(out / "dgp.yaml")
    config_text = json.dumps(cfg.to_mapping(), sort_keys=True)
    _write_json(out / "manifest.json", build_manifest("simulate", inputs, config_text))
    print(
        f"synthetic bundle written to {out} "
        f"({cfg.n_regions} regions x {cfg.n_years} years, seed {cfg.seed})"
    )
    return 0


def cmd_mc(args) -> int:
    out = _out_dir(args)
    expand_notation(args.spec, args.covariance)
    inputs = []
    cfg = _dgp_config(args, inputs)
    with _reading(inputs, args.config):  # such as a panel too small for the spec
        report = monte_carlo(cfg, args.spec, args.reps, args.covariance)

    _write_json(out / "mc.json", report.to_dict())
    _write_text(out / "mc.txt", report.render_text())
    config_text = json.dumps(cfg.to_mapping(), sort_keys=True) + f"|{args.spec}|{args.reps}"
    _write_json(out / "manifest.json", build_manifest("mc", inputs, config_text))
    print(report.render_text())
    return 0


def cmd_stats(args) -> int:
    out = _out_dir(args)
    names = _tag_list(args.vars) if args.vars else None
    inputs = []
    with _reading(inputs, Path(args.bundle) / DATASET_NAME) as path:
        dataset = load_panel_csv(path)
        table = descriptive_stats(dataset, names or list(dataset.variables))
    _write_json(out / "stats.json", table)
    _write_text(out / "stats.txt", render_stats_text(table))
    _write_json(out / "manifest.json", build_manifest("stats", inputs))
    print(render_stats_text(table))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _replications(raw: str) -> int:
    value = int(raw)
    if not 2 <= value <= MAX_REPLICATIONS:
        raise argparse.ArgumentTypeError(f"replications must be in [2, {MAX_REPLICATIONS}]")
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

    def covariance_option(p):
        p.add_argument("--covariance", choices=COVARIANCE_KINDS, default="cluster_by_region")

    def fit_options(p):  # the options of fit and suite
        p.add_argument(
            "--format",
            choices=("text", "csv", "md", "json"),
            default="text",
            help="rendering of the human-readable table (json: sidecar only)",
        )
        p.add_argument("--bundle", required=True)
        p.add_argument("--weights", help="weights CSV (required for sl tags)")
        covariance_option(p)

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
    fit_options(p)
    p.add_argument("--spec", required=True, help="specification tag, e.g. fe.tw.q.sl")

    p = subcommand("suite", cmd_suite, "run a specification comparison table")
    fit_options(p)
    p.add_argument(
        "--specs",
        default=",".join(MAIN_TAGS),
        help="comma-separated tags (default: the seven-model ladder)",
    )
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
    p.add_argument("--reps", type=_replications, required=True)
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
