"""Tests of the benchmark itself, on tiny inputs.

Each workload runs once untraced and once traced with the same seed; the
two runs are independent set-ups, so comparing them checks determinism.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import harness  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
SPEC = json.loads((BENCH_DIR / "spec.json").read_text())
TINY = 0.05
SEED = 3


@pytest.fixture(scope="module")
def runs():
    """Tiny untraced and traced runs of every workload, one set-up each."""
    targets = harness.span_targets()
    originals = [vars(t.owner)[t.attr] for t in targets]
    results = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "TAIL_SAMPLES", 1)
        for name, cls in WORKLOADS.items():
            patch.setattr(cls, "setups", 1)
            results[name] = (
                harness.untraced_run(cls, SEED, 0.0, scale=TINY),
                harness.traced_run(cls, SEED, 0.0, scale=TINY),
            )
    return results, targets, originals


def test_workloads_match_benchmark_json_and_spec():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert list(SPEC["workloads"]) == list(WORKLOADS)
    for name, cls in WORKLOADS.items():
        assert SPEC["workloads"][name]["setups_per_run"] == cls.setups
        assert SPEC["workloads"][name]["host_gauge"] == cls.host_gauge


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric(runs, name):
    untraced, _ = runs[0][name]
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    emitted = {metric: unit for metric, (_, unit) in untraced["metrics"].items()}
    assert emitted == expected
    assert all(value > 0 for value, _ in untraced["metrics"].values())
    assert untraced["failed"] == 0, untraced["details"]["failed_checks"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_emits_every_per_layer_metric(runs, name):
    _, traced = runs[0][name]
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    emitted = {metric: unit for metric, (_, unit) in traced["metrics"].items()}
    assert emitted == expected
    assert traced["failed"] == 0, traced["details"]["failed_checks"]


def test_traced_runs_restore_every_wrapped_callable(runs):
    _, targets, originals = runs
    for target, original in zip(targets, originals):
        assert vars(target.owner)[target.attr] is original, target.span


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_repeats_digest_and_output_err(runs, name):
    untraced, traced = runs[0][name]
    assert untraced["details"]["digest"] == traced["details"]["digest"]
    assert untraced["details"]["output_err"] == traced["details"]["output_err"]


def test_traced_run_loads_the_layer_each_workload_is_for(runs):
    results = runs[0]

    def metric(name, key):
        return results[name][1]["metrics"][key][0]

    assert metric("softmax_sweep", "softmax.s") > 0.5 * metric("softmax_sweep", "call.s")
    assert metric("softmax_sweep", "xbar.matvec_s") == 0
    assert metric("analog_bert", "xbar.matvec_s") > metric("analog_bert", "softmax.s")
    assert metric("fleet_fifo", "loop.self_s") > metric("fleet_fifo", "pricing.s")
    assert metric("fleet_fifo", "template.builds") == 0
    assert metric("fleet_routed", "template.build_s") > 0.5 * metric("fleet_routed", "setup.s")
    assert metric("fleet_routed", "route.steal_frac") > 0
