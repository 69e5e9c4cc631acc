"""Command-line entry point wiring the engine into batch workflows.

Subcommands: ingest, weights, fit, suite, simulate, mc, stats. A bundle is
a plain directory holding dataset.csv plus a manifest; every command is
deterministic given its inputs and seed, and a manifest records the digest
of every file its command read, so reruns are verifiable. The dataset.csv and
weights.csv that ingest, weights and simulate write get a binary sidecar (see
rkpf.manifest) that later steps load instead of parsing the text, and ingest
--pubs leaves the publications' incidence counts in the bundle for weights
--pubs --bundle, which then does not decode the same file again.

main() gives every subcommand one frame: it makes --output-dir, runs the
command with the dict in which the command lists each input it reads, and
writes manifest.json last, from that dict and the config text the command
returns, only when the command succeeds; a command that fails leaves no empty
directory that main() made. Exit codes: 0 success, 2 input or validation error,
always one `error:` line on stderr naming the input at fault (such as a path that
is missing, a directory, or under a regular file, or a panel that is not
balanced), 1 internal error.

This module imports no engine module at load: each subcommand imports what it
uses when it runs, from the module that defines it, so --version, --help and a
usage error load no numpy, and `stats` loads no estimator. main() sets one BLAS
thread before that, in os.environ; in a process that has loaded numpy already,
BLAS keeps the thread count it started with. With one thread, `weights` formats a
W of several blocks in forked processes; beside a BLAS thread, it forks none.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import traceback
from dataclasses import replace
from pathlib import Path

from . import __version__
from .choices import COVARIANCE_KINDS, MAIN_TAGS, MAX_REPLICATIONS
from .errors import EngineError, InvalidTag, MissingData, RegionOrderMismatch

# the variables that set the BLAS thread count of numpy's BLAS when it loads
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

DATASET_NAME = "dataset.csv"


def _write_text(path: Path, text: str) -> None:
    path.write_text(text if text.endswith("\n") else text + "\n", encoding="utf-8", newline="")


def _write_json(path: Path, payload: dict) -> None:
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True))


def _write_dataset(dataset, out: Path) -> None:
    from .panel import write_panel_csv, write_panel_sidecar

    path = out / DATASET_NAME
    write_panel_sidecar(dataset, path, write_panel_csv(dataset, path))


def _write_weights(regions, blocks, out: Path) -> tuple[str, ...]:
    """weights.csv, weights.json and the CSV's sidecar of W's rows in blocks; returns
    the isolated regions."""
    from .weights import write_weight_rows

    return write_weight_rows(
        regions, blocks, out / "weights.csv", out / "weights.json", sidecar=True
    )


@contextlib.contextmanager
def _reading(inputs: dict, path):
    """Open an input: list path (if any) for the manifest, and put it in front of an
    EngineError raised while the block works on the file, unless the message starts
    with an input's path already (a loader's file:line, or an input opened within).
    A file that is not UTF-8 is named with the line of its first bad byte.

    Every subcommand opens each input through this, and checks its flags before, so
    an error of a flag alone names no file.

    `inputs` maps each path listed to its sha256, or to None until a loader
    records it; build_manifest hashes the rest.
    """
    if path is None:
        yield None
        return
    inputs.setdefault(str(path), None)
    try:
        yield path
    except EngineError as exc:
        if any(str(exc).startswith(f"{p}:") for p in inputs):
            raise
        raise type(exc)(f"{path}: {exc}") from None
    except UnicodeDecodeError:
        from .tables import not_utf8

        raise not_utf8(path) from None


def _dgp_config(args, inputs: dict):
    """The --config file (or the defaults), with --seed overriding its seed."""
    from .simulate import DgpConfig

    with _reading(inputs, args.config) as path:
        cfg = DgpConfig.from_yaml(path) if path else DgpConfig()
    return cfg if args.seed is None else replace(cfg, seed=args.seed)


def _bundle_regions(bundle: str, inputs: dict) -> tuple[str, ...]:
    from .panel import load_panel_csv

    with _reading(inputs, Path(bundle) / DATASET_NAME) as path:
        return load_panel_csv(path, inputs).region_ids


def _load_weights(path, inputs: dict, dataset_path, regions):
    """The --weights file for take_lags (see weights.load_weights_csv), or None without
    one; its regions must be `regions`, those of the dataset at dataset_path, in order."""
    from .weights import load_weights_csv

    with _reading(inputs, path) as path:
        if path is None:
            return None
        w = load_weights_csv(path, inputs)
        if w.regions != regions:
            raise RegionOrderMismatch(
                f"weights regions do not match the regions of {dataset_path} in order"
            )
        return w


def _name_list(raw: str, what: str) -> list[str]:
    """The names of a comma-separated flag value; `what` names them in the error."""
    names = [t.strip() for t in raw.split(",") if t.strip()]
    if not names:
        raise InvalidTag(f"empty {what} list")
    return names


def _reorder_profiles(profiles, region_order):
    """Align a profile matrix with a bundle's region order."""
    from .weights import ThematicProfileMatrix

    index = {r: i for i, r in enumerate(profiles.regions)}
    missing = sorted(set(region_order) - index.keys())
    if missing:
        raise RegionOrderMismatch(f"profiles missing bundle regions: {missing}")
    rows = profiles.shares[[index[r] for r in region_order]]
    return ThematicProfileMatrix(tuple(region_order), profiles.subject_areas, rows)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_ingest(args, out: Path, inputs: dict) -> str:
    import numpy as np

    from .indicators import (
        INDICATOR_COLUMNS,
        SIDECAR_NAME,
        load_publications,
        load_vocabulary,
        region_year_indicators,
        sidecar_sources,
        write_incidence_sidecar,
        write_indicator_csv,
    )
    from .panel import load_panel_csv, validate_balanced

    with _reading(inputs, args.panel) as path:
        dataset = load_panel_csv(path, inputs)

    if args.pubs:
        with _reading(inputs, args.vocab) as path:
            vocabulary = load_vocabulary(path) if path else None
        with _reading(inputs, args.pubs) as path:
            pubs = load_publications(path, vocabulary)
            sources = sidecar_sources(path, args.vocab, inputs)
            rows = region_year_indicators(pubs)
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
        raise MissingData(
            f"{args.panel}: not balanced: {len(report.gaps)} of its cells missing, "
            f"listed in {out / 'validation.json'}"
        )

    _write_dataset(dataset, out)
    if args.pubs:
        write_incidence_sidecar(pubs, out / SIDECAR_NAME, sources)
    print(f"bundle written to {out}")
    return ""


def cmd_weights(args, out: Path, inputs: dict) -> str:
    from .weights import build_profile_matrix, load_profiles_csv, weight_rows

    if not (args.profiles or args.pubs):
        raise MissingData("weights needs --profiles or --pubs")
    if args.profiles:
        with _reading(inputs, args.profiles) as path:
            profiles = load_profiles_csv(path)
            if args.bundle:  # its dataset sets the row order
                profiles = _reorder_profiles(profiles, _bundle_regions(args.bundle, inputs))
    else:
        from .indicators import SIDECAR_NAME, load_publications, load_vocabulary
        from .indicators import read_incidence_sidecar, sidecar_sources

        with _reading(inputs, args.vocab) as path:
            vocabulary = load_vocabulary(path) if path else None
        with _reading(inputs, args.pubs) as path:
            incidences = None
            if args.bundle:  # its ingest may have left the counts of these very files
                sources = sidecar_sources(path, args.vocab, inputs)
                sidecar = Path(args.bundle) / SIDECAR_NAME
                incidences = read_incidence_sidecar(sidecar, sources, vocabulary, inputs)
            if incidences is None:
                incidences = load_publications(path, vocabulary).incidences
            if vocabulary is None:
                vocabulary = incidences[1]
            regions = _bundle_regions(args.bundle, inputs) if args.bundle else None
            profiles = build_profile_matrix(incidences, vocabulary, regions)

    # W is written as it is computed, block by block of rows: it is never whole
    isolated = _write_weights(profiles.regions, weight_rows(profiles), out)
    print(
        f"weights written to {out} "
        f"({len(profiles.regions)} regions, {len(isolated)} isolated)"
    )
    return ""


def _fits(args, inputs: dict, tags, dual_errors=False):
    """The ComparisonTable of fit and suite, one column per tag, listing the files
    read in inputs. Estimation loads first, and the callers' writers after: a child's
    peak RSS moves with the order in which its modules load."""
    from .estimation import require_weights
    from .panel import load_panel_csv
    from .suite import run_suite, suite_specs

    require_weights(suite_specs(tags, args.covariance, dual_errors), args.weights is not None)
    with _reading(inputs, Path(args.bundle) / DATASET_NAME) as path:
        dataset = load_panel_csv(path, inputs)
        table = run_suite(
            dataset, _load_weights(args.weights, inputs, path, dataset.region_ids), tags,
            args.covariance, dual_errors=dual_errors,
        )
    return table


def cmd_fit(args, out: Path, inputs: dict) -> str:
    table = _fits(args, inputs, [args.spec])
    from .suite import render_fit_text, render_table

    fit = table.fits[0]
    _write_json(out / "fit.json", fit.to_dict())
    fmt = args.format
    text = render_fit_text(fit)
    if fmt in ("csv", "md"):
        _write_text(out / f"fit.{fmt}", render_table(table, fmt))
    elif fmt != "json":
        _write_text(out / "fit.txt", text)
    print(text)
    return args.spec


def cmd_suite(args, out: Path, inputs: dict) -> str:
    table = _fits(args, inputs, _name_list(args.specs, "tag"), args.dual_errors)
    from .suite import render_table

    _write_json(out / "suite.json", table.to_dict())
    fmt = args.format
    text = render_table(table, "text")
    ext = {"text": "txt", "csv": "csv", "md": "md"}
    if fmt != "json":
        _write_text(out / f"suite.{ext[fmt]}", text if fmt == "text" else render_table(table, fmt))
    print(text)
    return args.specs


def cmd_simulate(args, out: Path, inputs: dict) -> str:
    from .simulate import generate_panel
    from .weights import write_profiles_csv

    cfg = _dgp_config(args, inputs)
    with _reading(inputs, args.config):  # a panel that overflows is the config's
        generated = generate_panel(cfg)
        _write_dataset(generated.dataset, out)
    write_profiles_csv(generated.profiles, out / "profiles.csv")
    _write_weights(generated.weights.regions, [generated.weights.w], out)
    cfg.to_yaml(out / "dgp.yaml")
    print(
        f"synthetic bundle written to {out} "
        f"({cfg.n_regions} regions x {cfg.n_years} years, seed {cfg.seed})"
    )
    return json.dumps(cfg.to_mapping(), sort_keys=True)


def cmd_mc(args, out: Path, inputs: dict) -> str:
    from .simulate import monte_carlo
    from .suite import expand_notation

    expand_notation(args.spec, args.covariance)
    cfg = _dgp_config(args, inputs)
    with _reading(inputs, args.config):  # such as a panel too small for the spec
        report = monte_carlo(cfg, args.spec, args.reps, args.covariance)

    _write_json(out / "mc.json", report.to_dict())
    text = report.render_text()
    _write_text(out / "mc.txt", text)
    print(text)
    return json.dumps(cfg.to_mapping(), sort_keys=True) + f"|{args.spec}|{args.reps}"


def cmd_stats(args, out: Path, inputs: dict) -> str:
    from .panel import descriptive_stats, load_panel_csv, render_stats_text

    names = _name_list(args.vars, "variable") if args.vars else None
    with _reading(inputs, Path(args.bundle) / DATASET_NAME) as path:
        dataset = load_panel_csv(path, inputs)
        table = descriptive_stats(dataset, names or list(dataset.variables))
    _write_json(out / "stats.json", table)
    text = render_stats_text(table)
    _write_text(out / "stats.txt", text)
    print(text)
    return ""


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
            help="rendering of the human-readable table (json: fit.json or suite.json only)",
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
    # One BLAS thread, whatever the environment says: the CLI's fits are small, BLAS
    # threads cost them more than they gain, and the bytes it writes must not depend
    # on the thread count. Set before a subcommand loads numpy and so its BLAS, which
    # then starts no thread: a process of one thread may fork the processes that
    # format a wide W's rows (see weights.write_weight_rows).
    for name in BLAS_THREAD_VARIABLES:
        os.environ[name] = "1"
    args = build_parser().parse_args(argv)
    if getattr(args, "vocab", None) and not args.pubs:
        args.parser.error("argument --vocab: needs --pubs")
    # The frame of every subcommand: the output directory first, before the command
    # checks its flags; the manifest last, only on success. Every EngineError, and
    # every OSError on a path, is an exit 2 with one `error:` line. A run that fails
    # removes the directories it made (--output-dir and its missing parents) that are
    # still empty.
    made = []
    try:
        out = Path(args.output_dir)
        made = [path for path in (out, *out.parents) if not path.exists()]  # deepest first
        out.mkdir(parents=True, exist_ok=True)
        inputs = {}
        config_text = args.func(args, out, inputs)
        # every subcommand has loaded rkpf.manifest by now, through its loaders or writers
        from .manifest import build_manifest

        _write_json(out / "manifest.json", build_manifest(args.command, inputs, config_text))
        return 0
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    except Exception as exc:
        # a path the user named (or a file in their --output-dir) cannot be read or made
        if isinstance(exc, OSError) and exc.filename is not None:
            print(f"error: {exc.filename}: {exc.strerror}", file=sys.stderr)
            code = 2
        else:
            traceback.print_exc()
            code = 1
    for path in made:
        with contextlib.suppress(OSError):  # one that holds a file stays
            path.rmdir()
    return code


if __name__ == "__main__":
    sys.exit(main())
