"""Sharded-simulator benchmark: a million requests, validated and timed.

Three gates guard the scale-out:

* **Volume** — one million requests complete through the 8-shard simulator
  in a single benchmark round, with request conservation and the merged
  mean wait within 5% of the M/D/1 Pollaczek–Khinchine line (each shard is
  an exact rate-``lambda/8`` Poisson stream on a single deterministic
  chip, so the closed form applies shard-by-shard and therefore to the
  pooled mean).
* **Correctness** — parallel execution reproduces the single-process
  (serial, in-process) execution of the same partition bit for bit, which
  makes the throughput/p50/p99 agreement gates exact rather than
  statistical.
* **Scaling** — parallel efficiency of 4 workers stays above 0.5 and
  8 workers beat the single-process simulator by >= 4x.  Wall-clock
  speedup needs physical cores, so these gates engage only where the
  machine has them (CI runners with 1-2 cores still run the volume and
  correctness gates); the measured numbers are recorded either way.
"""

from __future__ import annotations

import os

import pytest

from repro.serving import (
    ChipFleet,
    FixedServiceModel,
    MD1Queue,
    PoissonArrivals,
    ServingSimulator,
    ShardedServingSimulator,
)

from conftest import mean_wall_s, record

SERVICE_S = 1e-3
LOAD = 0.7


def fleet(num_chips: int) -> ChipFleet:
    return ChipFleet(FixedServiceModel(SERVICE_S), num_chips=num_chips)


def arrivals(num_chips: int, seed: int = 7) -> PoissonArrivals:
    # hold the per-chip load at LOAD whatever the fleet size
    return PoissonArrivals(LOAD / SERVICE_S * num_chips, seq_len=128, seed=seed)


@pytest.mark.smoke
def test_bench_sharded_million_requests(benchmark):
    """1M requests across 8 shards: conservation, theory and wall time."""
    num_shards = 8
    simulator = ShardedServingSimulator(fleet(num_shards), num_shards=num_shards)

    report, wall = mean_wall_s(
        benchmark, simulator.run_poisson, arrivals(num_shards), 1_000_000
    )

    theory = MD1Queue(arrival_rate_rps=LOAD / SERVICE_S, service_s=SERVICE_S)
    deviation = abs(report.mean_wait_s - theory.mean_wait_s) / theory.mean_wait_s
    record(
        benchmark,
        requests_per_wall_second=round(1_000_000 / wall),
        md1_wait_deviation_pct=round(deviation * 100, 2),
        merged_p99_ms=round(report.p99_latency_s * 1e3, 3),
        cpu_count=os.cpu_count(),
    )
    assert report.num_requests == 1_000_000
    assert report.num_shards == num_shards
    # every shard is an exact M/D/1 at rho=0.7: the pooled mean wait must
    # land on Pollaczek-Khinchine
    assert deviation < 0.05

    if (os.cpu_count() or 1) >= 8:
        single = ServingSimulator(fleet(num_shards))
        requests = arrivals(num_shards).generate(1_000_000)
        import time

        start = time.perf_counter()
        single.run(requests)
        single_wall = time.perf_counter() - start
        record(benchmark, single_process_wall_s=round(single_wall, 2))
        assert single_wall / wall >= 4.0


@pytest.mark.smoke
def test_bench_sharded_matches_single_process(benchmark):
    """Parallel and single-process execution of one partition agree exactly."""
    num_shards = 4
    stream = arrivals(num_shards, seed=11)
    parallel = ShardedServingSimulator(fleet(num_shards), num_shards=num_shards)
    serial = ShardedServingSimulator(
        fleet(num_shards), num_shards=num_shards, parallel=False
    )

    merged = benchmark.pedantic(
        parallel.run_poisson, args=(stream, 200_000), rounds=1, iterations=1
    )
    reference = serial.run_poisson(stream, 200_000)

    p50_gap = abs(merged.p50_latency_s - reference.p50_latency_s) / reference.p50_latency_s
    p99_gap = abs(merged.p99_latency_s - reference.p99_latency_s) / reference.p99_latency_s
    thr_gap = abs(merged.throughput_rps - reference.throughput_rps) / reference.throughput_rps
    record(
        benchmark,
        p50_gap_pct=round(p50_gap * 100, 4),
        p99_gap_pct=round(p99_gap * 100, 4),
        throughput_gap_pct=round(thr_gap * 100, 4),
    )
    # bit-identical partition makes the 2% agreement gates exact
    assert merged.requests == reference.requests
    assert merged.batches == reference.batches
    assert p50_gap < 0.02 and p99_gap < 0.02 and thr_gap < 0.02


@pytest.mark.smoke
def test_bench_sharded_scaling_efficiency(benchmark):
    """4-worker parallel efficiency, gated only where cores exist."""
    import time

    num_shards = 4
    total = 200_000
    stream = arrivals(num_shards, seed=13)

    start = time.perf_counter()
    ShardedServingSimulator(
        fleet(num_shards), num_shards=num_shards, parallel=False
    ).run_poisson(stream, total)
    serial_wall = time.perf_counter() - start

    simulator = ShardedServingSimulator(fleet(num_shards), num_shards=num_shards)
    report, parallel_wall = mean_wall_s(benchmark, simulator.run_poisson, stream, total)

    speedup = serial_wall / parallel_wall
    efficiency = speedup / num_shards
    record(
        benchmark,
        serial_wall_s=round(serial_wall, 3),
        speedup=round(speedup, 2),
        efficiency=round(efficiency, 3),
        cpu_count=os.cpu_count(),
    )
    assert report.num_requests == total
    if (os.cpu_count() or 1) >= num_shards:
        assert efficiency >= 0.5
