#!/usr/bin/env python3
"""rkpf benchmark: the `rkpf` CLI end to end, and its layers traced in-process.

    python3 perfbench/run.py --workload pipeline-78x12 --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the engine is imported from `src/`
there and nowhere else. Each workload is a closed loop: one client, one op
at a time, every step of an op a fresh `python -m rkpf.cli` child process.
Inputs come from `--seed`; set-up also computes reference results, and every
op's outputs are checked against them.

With `--trace 0` the last stdout line reports the end-to-end metrics of the
untraced loop. With `--trace 1` it reports per-layer metrics from one op run
in-process with every public layer function wrapped (see tracer.py), next to
an untraced in-process op that gives the tracing overhead. Everything else
(machine facts, samples, spans) is written under `.perfbench_work/`.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYERS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
# an op still running this long after it started is killed and counts as
# failed; about three times the longest op seen (pipeline-2000x20, ~40 s on
# a 2-vCPU host), so only a hang or a severalfold slowdown reaches it
OP_CAP_S = 120.0
SETUP_REPEATS = 3
START_REPEATS = 3
# the paper's seven-model ladder, which `rkpf suite` runs by default
LADDER = (
    "ols.q",
    "fe.tw",
    "fe.ow.q",
    "fe.tw.q",
    "fe.tw.q.sl.non",
    "fe.tw.q.sl.noq",
    "fe.tw.q.sl",
)
FIT_SPEC = "fe.tw.q.sl"
MC_REPS = 200

WORKLOADS = {
    "pipeline-78x12": {
        "kind": "pipeline",
        "regions": 78,
        "years": 12,
        "publications": True,
        "rkpf_threads": 1,
        "why": "the paper's real-data path at its scale; start-up and imports dominate, "
        "and only this workload exercises indicators",
    },
    "pipeline-2000x20": {
        "kind": "pipeline",
        "regions": 2000,
        "years": 20,
        "publications": False,
        "rkpf_threads": 1,
        "why": "the same chain at 2000x20; time goes to estimation kernels, dense weights "
        "written then re-read, and manifest digests",
    },
    "mc-78x12": {
        "kind": "mc",
        "regions": 78,
        "years": 12,
        "rkpf_threads": 2,
        "why": "200 small generate+fit replications: per-call overhead and the runtime "
        "thread pool, with almost no file I/O",
    },
}

CLI_SUBCOMMANDS = ("ingest", "weights", "suite", "fit", "stats", "mc")
END_TO_END = {
    "setup_s": "s",
    "op_wall_s": "s",
    "estimates_per_s": "1/s",
    "peak_rss_mb": "MB",
}


# tracer counters reported as they are, with their units
COUNTERS = {
    "panel.csv_bytes": "bytes",
    "indicators.records": "count",
    "weights.io_bytes": "bytes",
    "estimation.design_bytes": "bytes",
    "runtime.parallel_map.items": "count",
    "manifest.digest_bytes": "bytes",
}


def per_layer_units() -> dict[str, str]:
    """Name -> unit of every metric a traced run reports."""
    units = {"cli.start_s": "s"}
    units.update({f"cli.main.{sub}.self_s": "s" for sub in CLI_SUBCOMMANDS})
    for module, function in LAYERS:
        units[f"{module}.{function}.self_s"] = "s"
        units[f"{module}.{function}.calls"] = "count"
    units.update(COUNTERS)
    units.update(
        {
            "suite.design_reuse": "ratio",
            "runtime.workers": "count",
            "trace.op_wall_s": "s",
            "trace.overhead_s": "s",
        }
    )
    return units


def thread_env(workload: str) -> dict[str, str]:
    """RKPF_THREADS and BLAS threads such that their product stays <= nproc."""
    nproc = len(os.sched_getaffinity(0))
    rkpf_threads = WORKLOADS[workload]["rkpf_threads"]
    blas = str(max(1, nproc // rkpf_threads))
    return {
        "RKPF_THREADS": str(rkpf_threads),
        "OPENBLAS_NUM_THREADS": blas,
        "OMP_NUM_THREADS": blas,
        "MKL_NUM_THREADS": blas,
    }


# ---------------------------------------------------------------------------
# set-up: inputs and reference results
# ---------------------------------------------------------------------------


def setup(workload: str, seed: int, inp: Path):
    """Write the workload's inputs under `inp`; return its reference results."""
    # numpy loads here, after main() has set the BLAS thread count
    import numpy as np
    from rkpf.panel import PanelDataset, write_panel_csv
    from rkpf.simulate import DgpConfig, generate_panel, monte_carlo
    from rkpf.weights import write_profiles_csv

    import inputs
    import oracle

    spec = WORKLOADS[workload]
    cfg = DgpConfig(n_regions=spec["regions"], n_years=spec["years"], seed=seed)
    if spec["kind"] == "mc":
        report = monte_carlo(cfg, FIT_SPEC, MC_REPS)
        return json.loads(json.dumps(report.to_dict()))

    generated = generate_panel(cfg)
    d = generated.dataset
    variables = dict(d.variables)
    if spec["publications"]:
        pubs = inputs.generate_publications(d, seed)
        inputs.write_publications(pubs, d, inp / "pubs.jsonl")
        inputs.write_vocabulary(inp / "vocab.txt")
        economic = {
            k: v for k, v in d.variables.items() if k not in inputs.INDICATOR_COLUMNS
        }
        write_panel_csv(PanelDataset(d.region_ids, d.years, economic), inp / "panel.csv")
        derived, shares = oracle.indicators(
            pubs, d.n_regions, d.n_years, len(inputs.VOCABULARY)
        )
        variables.update(derived)
    else:
        write_panel_csv(d, inp / "panel.csv")
        write_profiles_csv(generated.profiles, inp / "profiles.csv")
        shares = np.asarray(generated.profiles.shares)
    w = oracle.thematic_weights(shares)
    return {tag: oracle.fit(variables, w, tag, d.years) for tag in LADDER}


def steps(workload: str, seed: int, inp: Path, out: Path) -> list[tuple[str, list[str]]]:
    """The CLI invocations of one op, in order."""
    spec = WORKLOADS[workload]
    if spec["kind"] == "mc":
        argv = ["--reps", str(MC_REPS), "--spec", FIT_SPEC, "--seed", str(seed)]
        return [("mc", ["mc", *argv, "--output-dir", str(out / "mc")])]
    bundle, weights_csv = str(out / "bundle"), str(out / "weights" / "weights.csv")
    ingest = ["ingest", "--panel", str(inp / "panel.csv")]
    if spec["publications"]:
        pubs = ["--pubs", str(inp / "pubs.jsonl"), "--vocab", str(inp / "vocab.txt")]
        ingest += pubs
        weights = ["weights", *pubs]
    else:
        weights = ["weights", "--profiles", str(inp / "profiles.csv")]
    weights += ["--bundle", bundle]
    return [
        ("ingest", [*ingest, "--output-dir", bundle]),
        ("weights", [*weights, "--output-dir", str(out / "weights")]),
        (
            "suite",
            ["suite", "--bundle", bundle, "--weights", weights_csv, "--dual-errors",
             "--output-dir", str(out / "suite")],
        ),
        (
            "fit",
            ["fit", "--bundle", bundle, "--weights", weights_csv, "--spec", FIT_SPEC,
             "--output-dir", str(out / "fit")],
        ),
        ("stats", ["stats", "--bundle", bundle, "--output-dir", str(out / "stats")]),
    ]


def estimates_per_op(workload: str) -> int:
    """Specification x covariance results one op delivers."""
    if WORKLOADS[workload]["kind"] == "mc":
        return MC_REPS
    return 2 * len(LADDER) + 1


def result_files(workload: str) -> tuple[str, ...]:
    if WORKLOADS[workload]["kind"] == "mc":
        return ("mc/mc.json",)
    return ("weights/weights.json", "suite/suite.json", "fit/fit.json", "stats/stats.json")


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def check_against_reference(workload: str, out: Path, reference) -> list[str]:
    """Problems found comparing one op's results with the set-up reference."""
    import oracle

    if WORKLOADS[workload]["kind"] == "mc":
        got = json.loads((out / "mc" / "mc.json").read_text(encoding="utf-8"))
        return [] if got == reference else ["mc.json differs from in-process monte_carlo"]

    problems = []

    def compare(where, want, got, fields):
        labels = want["labels"]
        if sorted(got) != sorted(labels):
            problems.append(f"{where}: terms {sorted(got)} != {sorted(labels)}")
            return
        for key, field in fields.items():
            err = oracle.mismatch([got[label][field] for label in labels], want[key])
            if not err <= oracle.TOLERANCE:
                problems.append(f"{where}: {field} off by {err:.2e} relative")

    suite = json.loads((out / "suite" / "suite.json").read_text(encoding="utf-8"))
    if suite["columns"] != list(LADDER):
        return [f"suite columns {suite['columns']} != {list(LADDER)}"]
    for c, tag in enumerate(LADDER):
        cells = {row["term"]: row["cells"][c] for row in suite["rows"] if row["cells"][c]}
        compare(
            f"suite {tag}",
            reference[tag],
            cells,
            {"coef": "estimate", "se_robust": "std_error", "se_classical": "std_error_classical"},
        )
    fit = json.loads((out / "fit" / "fit.json").read_text(encoding="utf-8"))
    terms = {entry["term"]: entry for entry in fit["coefficients"]}
    compare("fit", reference[FIT_SPEC], terms, {"coef": "estimate", "se_robust": "std_error"})
    return problems


def digests(workload: str, out: Path) -> dict[str, str]:
    found = {}
    for name in result_files(workload):
        path = out / name
        if path.exists():
            with open(path, "rb") as fh:
                found[name] = hashlib.file_digest(fh, "sha256").hexdigest()
        else:
            found[name] = ""
    return found


class OutputCheck:
    """Every op's result JSONs equal the first op's byte for byte, and the
    first op's results match the reference."""

    def __init__(self, workload: str, reference):
        self.workload = workload
        self.reference = reference
        self.first: dict[str, str] | None = None

    def __call__(self, out: Path) -> list[str]:
        found = digests(self.workload, out)
        missing = [name for name, digest in found.items() if not digest]
        if missing:
            return [f"missing outputs {missing}"]
        if self.first is None:
            problems = check_against_reference(self.workload, out, self.reference)
            if not problems:
                self.first = found
            return problems
        return [f"{name} differs from the first op" for name in found if found[name] != self.first[name]]


# ---------------------------------------------------------------------------
# running ops
# ---------------------------------------------------------------------------


class Launcher:
    """Runs children through launcher.py, so their `ru_maxrss` is their own.

    Start it before numpy or rkpf is imported (see launcher.py for why).
    """

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launcher.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()

    def run(self, argv, env, log: Path, timeout: float) -> tuple[int, int, bool]:
        """One `python -m rkpf.cli` child: (exit code, ru_maxrss in KiB, killed).

        A child still running after `timeout` seconds is killed.
        """
        request = {
            "argv": [sys.executable, "-m", "rkpf.cli", *argv],
            "env": env, "cwd": str(ROOT), "log": str(log), "timeout": timeout,
        }
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        return reply["code"], reply["maxrss_kib"], reply["killed"]


def run_op(launcher: Launcher, op_steps, env, out: Path):
    """Run one op's steps as children: (wall s, peak RSS KiB, problem or None)."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    peak = 0
    start = time.perf_counter()
    for name, argv in op_steps:
        timeout = max(0.0, start + OP_CAP_S - time.perf_counter())
        code, rss, killed = launcher.run(argv, env, out / "log.txt", timeout)
        peak = max(peak, rss)
        if killed:
            return time.perf_counter() - start, peak, f"{name} killed at the {OP_CAP_S:g} s op cap"
        if code != 0:
            return time.perf_counter() - start, peak, f"{name} exited {code}"
    return time.perf_counter() - start, peak, None


def run_op_in_process(op_steps, out: Path, tracer=None) -> tuple[float, str | None]:
    """One op through `rkpf.cli.main` in this process: (wall s, problem or None)."""
    from rkpf import cli

    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    with open(out / "log.txt", "w", encoding="utf-8") as log, contextlib.redirect_stdout(log):
        start = time.perf_counter()
        for name, argv in op_steps:
            span = tracer.begin(f"cli.main.{name}") if tracer else None
            try:
                code = cli.main(argv)
            finally:
                if tracer:
                    tracer.end(span)
            if code != 0:
                return time.perf_counter() - start, f"{name} exited {code}"
        return time.perf_counter() - start, None


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def environment(workload: str) -> dict:
    import numpy
    import scipy

    facts = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": thread_env(workload),
    }
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        facts["blas"] = "unknown"
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}-{kind.lower()}"] = size
    facts["caches"] = caches
    return facts


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(args, launcher: Launcher, work: Path, env: dict, check):
    """The untraced closed loop: end-to-end metrics and op counts."""
    op_steps = steps(args.workload, args.seed, work / "inputs", work / "op")
    walls, peaks, attempted, failed = [], [], 0, 0
    start = time.monotonic()
    while attempted == 0 or time.monotonic() - start < args.seconds:
        attempted += 1
        wall, peak, problem = run_op(launcher, op_steps, env, work / "op")
        problems = [problem] if problem else check(work / "op")
        if problems:
            failed += 1
            print(f"op {attempted} failed: {'; '.join(problems)}", file=sys.stderr)
        else:
            walls.append(wall)
            peaks.append(peak)
    if not walls:  # every op failed; report what was measured
        walls, peaks = [wall], [peak]
    per_op = estimates_per_op(args.workload)
    values = {
        "op_wall_s": statistics.median(walls),
        "estimates_per_s": statistics.median(per_op / w for w in walls),
        "peak_rss_mb": statistics.median(peaks) / 1024.0,
    }
    metrics = {name: metric(value, END_TO_END[name]) for name, value in values.items()}
    samples = {"op_wall_s": walls, "peak_rss_kib": peaks}
    return metrics, samples, attempted, failed


def trace(args, launcher: Launcher, work: Path, env: dict, check):
    """cli start-up, an untraced and a traced in-process op: per-layer metrics."""
    starts = []
    for _ in range(START_REPEATS):
        began = time.perf_counter()
        launcher.run(["--version"], env, work / "start.log", OP_CAP_S)
        starts.append(time.perf_counter() - began)

    op_steps = steps(args.workload, args.seed, work / "inputs", work / "op")
    untraced, problem = run_op_in_process(op_steps, work / "op")
    untraced_problems = [problem] if problem else check(work / "op")
    tracer = Tracer()
    tracer.install()
    try:
        origin = time.perf_counter()
        traced, problem = run_op_in_process(op_steps, work / "op", tracer)
    finally:
        tracer.restore()
    traced_problems = [problem] if problem else check(work / "op")
    for p in untraced_problems + traced_problems:
        print(f"in-process op failed: {p}", file=sys.stderr)

    self_s = tracer.self_times()
    values = {"cli.start_s": statistics.median(starts)}
    for sub in CLI_SUBCOMMANDS:
        values[f"cli.main.{sub}.self_s"] = self_s.get(f"cli.main.{sub}", 0.0)
    for module, function in LAYERS:
        name = f"{module}.{function}"
        values[f"{name}.self_s"] = self_s.get(name, 0.0)
        values[f"{name}.calls"] = tracer.counters[f"{name}.calls"]
    values.update({name: tracer.counters[name] for name in COUNTERS})
    values["suite.design_reuse"] = tracer.design_reuse()
    values["runtime.workers"] = tracer.workers()
    values["trace.op_wall_s"] = traced
    values["trace.overhead_s"] = traced - untraced
    metrics = {name: metric(values[name], unit) for name, unit in per_layer_units().items()}
    with open(work / "trace.json", "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.dump(origin), "self_s": self_s,
                   "counters": dict(tracer.counters)}, fh)
    samples = {"cli.start_s": starts, "untraced_op_wall_s": untraced}
    return metrics, samples, 2, bool(untraced_problems) + bool(traced_problems)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rkpf" / "cli.py").is_file():
        print(f"error: no rkpf sources under {SRC}", file=sys.stderr)
        return 2
    threads = thread_env(args.workload)
    os.environ.update(threads)  # before numpy loads its BLAS in this process
    with Launcher() as launcher:  # before this process grows; see launcher.py
        sys.path.insert(0, str(SRC))
        import rkpf.cli  # noqa: F401  (imports every layer; compiles bytecode once)

        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        work = WORK / args.workload
        shutil.rmtree(work, ignore_errors=True)
        (work / "inputs").mkdir(parents=True)
        # page in the interpreter and libraries
        launcher.run(["--version"], env, work / "warmup.log", OP_CAP_S)

        setups = []
        for _ in range(SETUP_REPEATS if args.trace == 0 else 1):
            began = time.perf_counter()
            reference = setup(args.workload, args.seed, work / "inputs")
            setups.append(time.perf_counter() - began)
        check = OutputCheck(args.workload, reference)

        if args.trace:
            metrics, samples, attempted, failed = trace(args, launcher, work, env, check)
        else:
            metrics, samples, attempted, failed = measure(args, launcher, work, env, check)
            metrics = {"setup_s": metric(statistics.median(setups), END_TO_END["setup_s"]),
                       **metrics}
    shutil.rmtree(work / "op", ignore_errors=True)

    spec = WORKLOADS[args.workload]
    report = {
        "workload": args.workload,
        "why": spec["why"],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.workload),
        "setup_s": setups,
        "samples": samples,
        "attempted": attempted,
        "failed": failed,
        "failure_ratio": failed / attempted,
        "metrics": metrics,
    }
    with open(work / f"result-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
    print(f"workload {args.workload} (seed {args.seed}): {spec['why']}")
    print(f"environment: {json.dumps(report['environment'], sort_keys=True)}")
    print(f"ops: {attempted} attempted, {failed} failed (failure_ratio {failed / attempted:g})")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
