"""Serving-simulator throughput benchmark and load-sweep smoke gates.

The request-level simulator must stay cheap enough to sweep offered loads
inside experiments: tens of thousands of requests have to simulate in well
under a second, and the single-chip no-batching limit has to keep landing
on the M/D/1 Pollaczek–Khinchine line.
"""

from __future__ import annotations

import pytest

from repro.serving import (
    ChipFleet,
    DynamicBatcher,
    FixedServiceModel,
    MD1Queue,
    NO_BATCHING,
    PoissonArrivals,
    ServingSimulator,
)

from conftest import mean_wall_s, record


@pytest.mark.smoke
def test_bench_serving_simulator_throughput(benchmark):
    """30k requests through a single-chip M/D/1 stay sub-second and on theory."""
    service = 1e-3
    rate = 0.7 / service
    requests = PoissonArrivals(rate, seq_len=128, seed=7).generate(30000)
    fleet = ChipFleet(FixedServiceModel(service), num_chips=1)
    simulator = ServingSimulator(fleet, NO_BATCHING)

    report, wall = mean_wall_s(benchmark, simulator.run, requests, rounds=5, warmup=1)

    theory = MD1Queue(arrival_rate_rps=rate, service_s=service)
    deviation = abs(report.mean_wait_s - theory.mean_wait_s) / theory.mean_wait_s
    record(
        benchmark,
        requests_per_wall_second=round(len(requests) / wall),
        simulated_throughput_rps=round(report.throughput_rps, 1),
        md1_wait_deviation_pct=round(deviation * 100, 2),
    )
    assert report.num_requests == len(requests)
    assert deviation < 0.05
    assert wall < 1.0


@pytest.mark.smoke
def test_bench_serving_fleet_scenarios(benchmark):
    """Batching and multi-chip scenarios the closed forms cannot express."""
    service = 1e-3
    requests = PoissonArrivals(2400.0, seq_len=128, seed=3).generate(6000)

    def scenarios():
        batched = ServingSimulator(
            ChipFleet(FixedServiceModel(service), num_chips=4),
            DynamicBatcher(max_batch_size=8, max_wait_s=2e-3),
        ).run(requests)
        hetero = ServingSimulator(
            ChipFleet(FixedServiceModel(service), num_chips=4, speedups=(1.0, 1.0, 0.5, 2.0)),
            NO_BATCHING,
        ).run(requests)
        return batched, hetero

    batched, hetero = benchmark(scenarios)

    record(
        benchmark,
        batched_mean_batch=round(batched.mean_batch_size, 2),
        batched_p99_ms=round(batched.p99_latency_s * 1e3, 3),
        hetero_utilization=[round(hetero.chip_utilization(c), 3) for c in range(4)],
    )
    # every request is conserved in both scenarios
    assert batched.num_requests == hetero.num_requests == len(requests)
    # batching actually batches under a 4x-capacity load
    assert batched.mean_batch_size > 1.5
    # the fast chip (2.0x) serves more than the slow one (0.5x)
    fast = sum(1 for r in hetero.requests if r.chip == 3)
    slow = sum(1 for r in hetero.requests if r.chip == 2)
    assert fast > slow
