"""Run helper of suites."""
from __future__ import annotations


def parallel_map(fn, items) -> list:
    """Order-preserving serial map: one call of fn per item, in item order.

    A suite's fits are small, so they run on one thread (Monte Carlo fits its
    replications in blocks instead). The name stays because the benchmark's
    tracer wraps this function.
    """
    return [fn(item) for item in items]
