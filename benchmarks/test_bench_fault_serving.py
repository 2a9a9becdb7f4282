"""Fault-injected serving benchmark and graceful-degradation smoke gates.

The fault machinery rides the same event loop as healthy serving, so it
must stay cheap enough to sweep failure rates inside experiments: tens of
thousands of requests with live failure/repair processes have to simulate
in well under a second, and shedding has to actually degrade gracefully —
goodput under a 10% steady-state capacity loss stays above a pinned floor
of the fault-free baseline.
"""

from __future__ import annotations

import pytest

from repro.serving import (
    AdmissionController,
    ChipFleet,
    DynamicBatcher,
    FaultInjector,
    FixedServiceModel,
    PoissonArrivals,
    RetryPolicy,
    ServingSimulator,
)

from conftest import mean_wall_s, record


@pytest.mark.smoke
def test_bench_fault_serving_throughput(benchmark):
    """30k requests with live failure/repair processes stay sub-second."""
    service = 1e-3
    rate = 0.7 * 4 / service
    requests = PoissonArrivals(rate, seq_len=128, seed=7).generate(30000)
    fleet = ChipFleet(
        FixedServiceModel(service, reprogram_latency_s=4e-3), num_chips=4
    )
    simulator = ServingSimulator(
        fleet,
        DynamicBatcher(max_batch_size=8, max_wait_s=2e-3),
        faults=FaultInjector.for_capacity_loss(
            0.10, repair_s=4e-3, detection_s=0.05, seed=5
        ),
        retry=RetryPolicy(max_attempts=3, backoff_base_s=2e-3, jitter=0.25),
    )

    report, wall = mean_wall_s(benchmark, simulator.run, requests, rounds=5, warmup=1)

    record(
        benchmark,
        requests_per_wall_second=round(len(requests) / wall),
        num_failures=report.num_failures,
        fleet_availability_pct=round(report.fleet_availability * 100, 2),
        completion_fraction=round(report.completion_fraction, 4),
    )
    assert report.num_offered == len(requests)
    assert report.num_failures > 0  # the run actually exercised faults
    assert wall < 1.0


@pytest.mark.smoke
def test_bench_fault_serving_goodput_floor(benchmark):
    """Shedding holds goodput under 10% capacity loss near the baseline.

    The pinned floor (85% of the fault-free goodput, the e11 acceptance
    band) guards the graceful-degradation property itself: a regression
    in health-aware dispatch, deadline shedding or retry accounting shows
    up here as lost goodput before it shows up in the golden report.
    """
    service = 1e-3
    deadline = 0.25
    rate = 0.9 * 4 * 8 / (8 * service)  # 90% of the fleet's request rate
    requests = PoissonArrivals(rate, seq_len=128, seed=11).generate(12000)
    fleet = ChipFleet(
        FixedServiceModel(service, reprogram_latency_s=4e-3), num_chips=4
    )
    batcher = DynamicBatcher(max_batch_size=8, max_wait_s=2e-3)
    retry = RetryPolicy(
        max_attempts=3, backoff_base_s=2e-3, jitter=0.25, deadline_s=deadline
    )
    admission = AdmissionController(
        max_queue_depth=int(deadline * rate), shed_expired=True, degraded_max_batch=4
    )
    faults = FaultInjector.for_capacity_loss(
        0.10, repair_s=4e-3, detection_s=0.05, seed=5
    )

    def both_arms():
        baseline = ServingSimulator(fleet, batcher).run(requests)
        degraded = ServingSimulator(
            fleet, batcher, faults=faults, retry=retry, admission=admission
        ).run(requests)
        return baseline, degraded

    baseline, degraded = benchmark(both_arms)

    baseline_goodput = sum(
        1 for r in baseline.requests if r.latency_s <= deadline
    ) / baseline.makespan_s
    retention = degraded.goodput_rps / baseline_goodput
    record(
        benchmark,
        baseline_goodput_rps=round(baseline_goodput, 1),
        degraded_goodput_rps=round(degraded.goodput_rps, 1),
        goodput_retention_pct=round(retention * 100, 1),
        degraded_p99_ms=round(degraded.p99_latency_s * 1e3, 2),
        num_shed=degraded.num_shed,
        num_abandoned=degraded.num_abandoned,
    )
    assert degraded.num_failures > 0
    # graceful degradation: >= 85% of fault-free goodput at 10% capacity loss
    assert retention >= 0.85
    # and the tail stays bounded near the SLO, not a queue blow-up
    assert degraded.p99_latency_s < 2 * deadline
