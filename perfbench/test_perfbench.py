"""Tests of the benchmark itself: oracle, output check, tracer, metric names.

    python3 -m pytest perfbench/test_perfbench.py -q
"""
import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import oracle  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
from rkpf import cli  # noqa: E402
from rkpf.estimation import fit_model  # noqa: E402
from rkpf.simulate import DgpConfig, generate_panel  # noqa: E402
from rkpf.suite import expand_notation  # noqa: E402


@pytest.fixture(scope="module")
def small_panel():
    return generate_panel(DgpConfig(n_regions=12, n_years=5, seed=21))


def engine_fit(g, tag):
    robust = fit_model(g.dataset, expand_notation(tag), g.weights)
    classical = fit_model(g.dataset, expand_notation(tag, "classical"), g.weights)
    labels = list(robust.column_labels)
    return labels, {
        "coef": [robust.coefficients[l] for l in labels],
        "se_robust": [robust.std_errors[l] for l in labels],
        "se_classical": [classical.std_errors[l] for l in labels],
    }


@pytest.mark.parametrize("tag", run.LADDER)
def test_oracle_agrees_with_fit_model(small_panel, tag):
    g = small_panel
    w = oracle.thematic_weights(np.asarray(g.profiles.shares))
    want = oracle.fit(dict(g.dataset.variables), w, tag, g.dataset.years)
    labels, got = engine_fit(g, tag)
    assert want["labels"] == labels
    for key, values in got.items():
        assert oracle.mismatch(values, want[key]) <= oracle.TOLERANCE, key


def test_oracle_disagrees_on_perturbed_panel(small_panel):
    g = small_panel
    variables = dict(g.dataset.variables)
    y = variables[oracle.DEPENDENT]
    variables[oracle.DEPENDENT] = y + 1e-4 * np.random.default_rng(0).standard_normal(y.shape)
    w = oracle.thematic_weights(np.asarray(g.profiles.shares))
    want = oracle.fit(variables, w, "fe.tw.q.sl", g.dataset.years)
    _, got = engine_fit(g, "fe.tw.q.sl")
    for key, values in got.items():
        assert oracle.mismatch(values, want[key]) > oracle.TOLERANCE, key


def test_output_check_passes_real_op_and_catches_a_changed_digit(tmp_path):
    workload = "pipeline-78x12"
    (tmp_path / "inputs").mkdir()
    reference = run.setup(workload, 5, tmp_path / "inputs")
    op_steps = run.steps(workload, 5, tmp_path / "inputs", tmp_path / "op")
    check = run.OutputCheck(workload, reference)

    _, problem = run.run_op_in_process(op_steps, tmp_path / "op")
    assert problem is None
    assert check(tmp_path / "op") == []

    suite_json = tmp_path / "op" / "suite" / "suite.json"
    table = json.loads(suite_json.read_text())
    cell = table["rows"][0]["cells"][0]
    cell["estimate"] *= 1 + 1e-6
    suite_json.write_text(json.dumps(table))
    assert run.check_against_reference(workload, tmp_path / "op", reference)
    assert check(tmp_path / "op") == ["suite/suite.json differs from the first op"]


def child_env():
    return {**os.environ, "PYTHONPATH": str(run.SRC)}


def test_child_peak_rss_excludes_the_harness(tmp_path):
    ballast = np.ones(300 * 2**20 // 8)  # 300 MiB, every page touched
    with run.Launcher() as launcher:
        code, rss_kib, killed = launcher.run(["--version"], child_env(), tmp_path / "log", 60)
    assert (code, killed) == (0, False)
    assert rss_kib < ballast.nbytes / 1024 / 2


def test_op_over_the_cap_is_killed_and_fails(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OP_CAP_S", 0.0)
    with run.Launcher() as launcher:
        _, _, problem = run.run_op(launcher, [("start", ["--version"])], child_env(), tmp_path)
    assert problem == "start killed at the 0 s op cap"


def rkpf_bindings():
    return {
        (name, attr): value
        for name, mod in sys.modules.items()
        if name == "rkpf" or name.startswith("rkpf.")
        for attr, value in vars(mod).items()
    }


def test_tracer_restores_every_binding():
    before = rkpf_bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for module in ("estimation", "cli", "suite", "simulate"):
            bound = getattr(sys.modules[f"rkpf.{module}"], "fit_model")
            assert bound.__perfbench_original__ is fit_model
    finally:
        tracer.restore()
    after = rkpf_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def traced_cli(tmp_path, monkeypatch, threads, *argv):
    monkeypatch.setenv("RKPF_THREADS", str(threads))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        start = tracer.begin("op")
        code = cli.main([*map(str, argv), "--output-dir", str(tmp_path)])
        tracer.end(start)
    finally:
        tracer.restore()
    assert code == 0
    name, began, ended, parent = tracer.spans[start]
    return tracer, ended - began


def test_self_times_do_not_exceed_traced_wall(tmp_path, monkeypatch):
    g = generate_panel(DgpConfig(n_regions=20, n_years=6, seed=3))
    from rkpf.panel import write_panel_csv
    from rkpf.weights import write_weights_csv

    write_panel_csv(g.dataset, tmp_path / "dataset.csv")
    write_weights_csv(g.weights, tmp_path / "weights.csv")
    tracer, wall = traced_cli(
        tmp_path, monkeypatch, 1,
        "suite", "--bundle", tmp_path, "--weights", tmp_path / "weights.csv", "--dual-errors",
    )
    self_s = tracer.self_times()
    assert tracer.counters["estimation.fit_model.calls"] == 14
    assert tracer.design_reuse() == 0.5
    assert all(value >= 0 for value in self_s.values())
    assert sum(self_s.values()) <= wall * (1 + 1e-9)


def test_worker_thread_spans_parent_to_parallel_map(tmp_path, monkeypatch):
    tracer, wall = traced_cli(tmp_path, monkeypatch, 2, "mc", "--reps", 4, "--seed", 1)
    names = [span[0] for span in tracer.spans]
    pool = names.index("runtime.parallel_map")
    fits = [span for span in tracer.spans if span[0] == "estimation.fit_model"]
    assert len(fits) == 4
    assert all(span[3] == pool for span in fits)
    assert tracer.workers() == 2
    # two workers overlap in wall time, so self times add up to at most 2 x wall
    assert sum(tracer.self_times().values()) <= 2 * wall


def test_benchmark_json_matches_what_run_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w["why"] for name, w in run.WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
