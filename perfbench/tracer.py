"""In-memory span tracer for one in-process run of the rkpf CLI.

`Tracer.install()` wraps each public function in LAYERS and rebinds the
wrapper in every loaded rkpf module that holds the original under that name
(for example `fit_model` in `estimation`, `cli`, `suite` and `simulate`), so
calls made from inside the engine are traced too; no source file changes.
`restore()` puts every original back. A span records its name, start, end
and parent; a layer's self time is its spans' durations minus the part of
each interval its child spans cover.
"""
from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import os
import sys
import threading
import time
from collections import Counter

# (module, public function) pairs traced, by the module that defines them
LAYERS = (
    ("panel", "load_panel_csv"),
    ("panel", "write_panel_csv"),
    ("panel", "validate_balanced"),
    ("panel", "descriptive_stats"),
    ("indicators", "load_publications"),
    ("indicators", "region_year_indicators"),
    ("weights", "build_profile_matrix"),
    ("weights", "correlation_matrix"),
    ("weights", "build_weights"),
    ("weights", "write_weights_csv"),
    ("weights", "write_weights_json"),
    ("weights", "load_weights_csv"),
    ("estimation", "build_design"),
    ("estimation", "within_transform"),
    ("estimation", "ols_fit"),
    ("estimation", "classical_cov"),
    ("estimation", "cluster_robust_cov"),
    ("estimation", "fit_model"),
    ("suite", "run_suite"),
    ("suite", "render_table"),
    ("simulate", "generate_panel"),
    ("simulate", "monte_carlo"),
    ("runtime", "parallel_map"),
    ("manifest", "build_manifest"),
)

# name of the span that runs the tracer's own bookkeeping (counters, digests)
HOOK_SPAN = "trace.hooks"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.counters: Counter = Counter()
        self._suite_designs: set[bytes] = set()
        self._pool_threads: dict[int, set[int]] = {}  # parallel_map span -> thread ids
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, stack[-1] if stack else None])
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    def add(self, key: str, amount: int) -> None:
        with self._lock:
            self.counters[key] += amount

    def _under(self, name: str) -> bool:
        stack = self._stack()
        parent = stack[-1] if stack else None
        while parent is not None:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, module: str, fn):
        name = f"{module}.{fn.__name__}"
        hook = getattr(self, f"_count_{fn.__name__}", None)
        signature = inspect.signature(fn)
        adopt = fn.__name__ == "parallel_map"
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer.begin(name)
            try:
                if adopt:
                    args, kwargs = tracer._adopt(signature, args, kwargs, index)
                result = fn(*args, **kwargs)
            finally:
                tracer.end(index)
            tracer.add(f"{name}.calls", 1)
            if hook is not None:
                hook_index = tracer.begin(HOOK_SPAN)
                try:
                    hook(signature.bind(*args, **kwargs).arguments, result)
                finally:
                    tracer.end(hook_index)
            return result

        traced.__perfbench_original__ = fn
        return traced

    def _adopt(self, signature, args, kwargs, parent: int):
        """Parent the spans parallel_map's worker threads open to its span."""
        bound = signature.bind(*args, **kwargs).arguments
        fn = bound["fn"]

        def adopted(item):
            with self._lock:
                self._pool_threads.setdefault(parent, set()).add(threading.get_ident())
            stack = self._stack()
            stack.append(parent)
            try:
                return fn(item)
            finally:
                stack.pop()

        return (adopted, list(bound["items"])), {}

    def install(self) -> None:
        """Wrap every LAYERS function wherever an rkpf module binds it."""
        for module, function in LAYERS:
            original = getattr(importlib.import_module(f"rkpf.{module}"), function)
            wrapper = self._wrap(module, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "rkpf" or mod_name.startswith("rkpf.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def restore(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- counters (run inside a HOOK_SPAN, outside the traced call) --------

    def _count_load_panel_csv(self, a, result):
        self.add("panel.csv_bytes", os.path.getsize(a["path"]))

    _count_write_panel_csv = _count_load_panel_csv

    def _count_load_publications(self, a, result):
        self.add("indicators.records", len(result))

    def _count_write_weights_csv(self, a, result):
        self.add("weights.io_bytes", os.path.getsize(a["path"]))

    _count_write_weights_json = _count_write_weights_csv
    _count_load_weights_csv = _count_write_weights_csv

    def _count_build_design(self, a, result):
        rows, cols = result.X.shape
        self.add("estimation.design_bytes", rows * cols * 8)
        if self._under("suite.run_suite"):
            digest = hashlib.blake2b(result.X.tobytes(), digest_size=16)
            digest.update(result.y.tobytes())
            with self._lock:
                self.counters["suite.build_design_calls"] += 1
                self._suite_designs.add(digest.digest())

    def _count_parallel_map(self, a, result):
        self.add("runtime.parallel_map.items", len(a["items"]))

    def _count_build_manifest(self, a, result):
        self.add("manifest.digest_bytes", sum(os.path.getsize(p) for p in a["input_paths"]))

    # -- summary ----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the union of child intervals."""
        children: dict[int, list[tuple[float, float]]] = {}
        for name, start, end, parent in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        totals: dict[str, float] = {}
        for index, (name, start, end, _) in enumerate(self.spans):
            covered, reach = 0.0, start
            for c_start, c_end in sorted(children.get(index, ())):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            totals[name] = totals.get(name, 0.0) + (end - start) - covered
        return totals

    def design_reuse(self) -> float:
        """Distinct suite designs per build_design call made under run_suite."""
        calls = self.counters["suite.build_design_calls"]
        return len(self._suite_designs) / calls if calls else 0.0

    def workers(self) -> int:
        """Most distinct threads that ran items of one parallel_map call."""
        return max((len(threads) for threads in self._pool_threads.values()), default=0)

    def dump(self, origin: float) -> list:
        return [[name, start - origin, end - origin, parent] for name, start, end, parent in self.spans]
