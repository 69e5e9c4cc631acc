"""Run helpers shared by suites and Monte Carlo."""
from __future__ import annotations


def parallel_map(fn, items) -> list:
    """Order-preserving serial map: one call of fn per item, in item order.

    Suites and Monte Carlo runs are small fits, so they run on one thread.
    The name stays because the benchmark's tracer wraps this function.
    """
    return [fn(item) for item in items]
