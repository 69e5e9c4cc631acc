"""The benchmark's tracer (perfbench/tracer.py) finds the engine functions it times by
module and name, and its counters read their arguments by name: a change to the engine
alone must keep every binding, or `perfbench/run.py --trace 1` fails. The tracer is
loaded from its file, as it stands; it uses the standard library only."""
import ast
import importlib
import importlib.util
import inspect
import sys
import textwrap
from pathlib import Path

import pytest

from rkpf import estimation, simulate
from rkpf.estimation import build_design
from rkpf.indicators import Publications
from rkpf.simulate import DgpConfig, block_size, generate_panel, monte_carlo
from rkpf.suite import expand_notation

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


def _keys_read(function, mapping: str) -> set:
    """The string keys that `function` reads from its local `mapping` by subscript."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(function)))
    return {
        node.slice.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Name) and node.value.id == mapping
        and isinstance(node.slice, ast.Constant)
    }


def _arguments_read(function: str) -> set:
    """The argument names the tracer reads from a call of the traced `function`: its
    counter reads the bound arguments as `a`, and parallel_map's adoption as `bound`."""
    hook = getattr(tracer.Tracer, f"_count_{function}", None)
    read = set() if hook is None else _keys_read(hook, "a")
    if function == "parallel_map":
        read |= _keys_read(tracer.Tracer._adopt, "bound")
    return read


@pytest.mark.parametrize("module, function", tracer.LAYERS)
def test_every_traced_function_resolves(module, function):
    fn = getattr(importlib.import_module(f"rkpf.{module}"), function)
    # the tracer names each span and finds each counter by the function's own name
    assert fn.__name__ == function
    assert _arguments_read(function) <= set(inspect.signature(fn).parameters)


def test_the_arguments_the_counters_read_are_found():
    read = set().union(*(_arguments_read(function) for _, function in tracer.LAYERS))
    assert read == {"path", "items", "input_paths", "fn"}


def test_publications_have_a_length():
    # indicators.records counts len() of what load_publications returns
    assert len(Publications(records=3)) == 3


def test_the_design_counter_reads_a_real_design():
    """_count_build_design reads X.shape, X.tobytes() and y.tobytes() of what
    build_design returns, which are views of one [X y] buffer."""
    g = generate_panel(DgpConfig(n_regions=12, n_years=5, seed=4))
    designs = [build_design(g.dataset, expand_notation(tag, "classical"), g.weights)
               for tag in ("fe.tw.q.sl", "fe.tw.q.sl", "ols.q")]
    t = tracer.Tracer()
    suite = t.begin("suite.run_suite")
    for design in designs:
        t._count_build_design({}, design)
    t.end(suite)
    assert t.counters["estimation.design_bytes"] == sum(
        design.X.shape[0] * design.X.shape[1] * 8 for design in designs)
    assert t.counters["suite.build_design_calls"] == 3
    assert t.design_reuse() == 2 / 3  # the repeated design is one distinct design


def _rkpf_bindings() -> dict:
    """Every function bound in a loaded rkpf module, by (module, name)."""
    return {(name, attr): value for name, module in list(sys.modules.items())
            if module is not None and (name == "rkpf" or name.startswith("rkpf."))
            for attr, value in vars(module).items() if callable(value)}


@pytest.mark.parametrize("covariance", ["cluster_by_region", "classical"])
def test_the_tracer_sees_each_monte_carlo_block_fitted(covariance):
    """Monte Carlo fits each block of replications through ols_fit and, for clustered
    errors, cluster_robust_cov, so the traced layers count one call a block; no design
    passes through build_design. The tracer changes no result, and restore() puts
    every binding back."""
    cfg = DgpConfig(n_regions=12, n_years=5, seed=4)
    size = block_size(cfg, expand_notation("fe.tw.q.sl", covariance))
    blocks = 3
    replications = (blocks - 1) * size + 1  # the last block holds one replication
    want = monte_carlo(cfg, "fe.tw.q.sl", replications, covariance)
    before = _rkpf_bindings()
    t = tracer.Tracer()
    t.install()
    try:
        assert estimation.ols_fit.__perfbench_original__ is before["rkpf.estimation", "ols_fit"]
        got = simulate.monte_carlo(cfg, "fe.tw.q.sl", replications, covariance)
    finally:
        t.restore()
    assert got == want
    robust = covariance == "cluster_by_region"
    assert t.counters["estimation.ols_fit.calls"] == blocks
    assert t.counters["estimation.cluster_robust_cov.calls"] == (blocks if robust else 0)
    assert t.counters["estimation.build_design.calls"] == 0
    after = _rkpf_bindings()
    assert all(after[key] is value for key, value in before.items())
