"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures (see
``python -m repro.experiments --list`` for the experiment index) and
attaches the reproduced numbers to ``benchmark.extra_info`` so they appear
in the pytest-benchmark report next to the timing data.
"""

from __future__ import annotations

import time

import pytest


def record(benchmark, **values) -> None:
    """Attach reproduced experiment values to the benchmark report."""
    for key, value in values.items():
        benchmark.extra_info[key] = value


def mean_wall_s(benchmark, fn, *args, rounds: int = 1, warmup: int = 0):
    """Run ``fn(*args)`` for ``rounds`` timed rounds: ``(last result, mean wall s)``.

    Each round is timed here with ``time.perf_counter``, so a gate reads the
    same statistic over the same rounds whether or not pytest-benchmark is
    collecting: under ``--benchmark-disable`` the fixture runs its target
    once and the remaining rounds run here.  ``warmup`` untimed calls go
    first (the plugin's own calibration call played that role before).
    """
    for _ in range(warmup):
        fn(*args)
    walls: list[float] = []

    def timed_round():
        start = time.perf_counter()
        result = fn(*args)
        walls.append(time.perf_counter() - start)
        return result

    result = benchmark.pedantic(timed_round, rounds=rounds, iterations=1)
    while len(walls) < rounds:
        result = timed_round()
    return result, sum(walls) / len(walls)


def best_of(fn, repeats: int) -> float:
    """Minimum wall time of ``repeats`` calls (noise-robust point estimate)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def best_of_interleaved(fns, repeats: int) -> list[float]:
    """Minimum wall time of each function over ``repeats`` interleaved rounds.

    Every round calls each function once, and the order rotates from round
    to round, so a slow spell of a shared host lands on both sides of a
    ratio instead of on whichever side happened to run during it.
    """
    best = [float("inf")] * len(fns)
    for round_index in range(repeats):
        shift = round_index % len(fns)
        for i in list(range(shift, len(fns))) + list(range(shift)):
            start = time.perf_counter()
            fns[i]()
            best[i] = min(best[i], time.perf_counter() - start)
    return best


@pytest.fixture
def paper_values() -> dict[str, float]:
    """The headline numbers the paper reports, for side-by-side comparison."""
    return {
        "softmax_share_at_512": 0.5920,
        "table1_star_area_ratio": 0.06,
        "table1_star_power_ratio": 0.05,
        "table1_softermax_area_ratio": 0.33,
        "table1_softermax_power_ratio": 0.12,
        "fig3_star_gops_per_watt": 612.66,
        "fig3_gain_over_gpu": 30.63,
        "fig3_gain_over_pipelayer": 4.32,
        "fig3_gain_over_retransformer": 1.31,
        "bits_cnews": 8,
        "bits_mrpc": 9,
        "bits_cola": 7,
    }
