"""Measurement and metrics of the benchmark.

:func:`untraced_run` gives the end-to-end metrics: it sets the workload up
several times and reports the median set-up time, then times closed-loop
calls with ``time.perf_counter``.  Every end-to-end time is normalised by the
host's slowdown, which a :class:`~gauge.HostGauge` samples between rounds
and set-ups; the raw times go to the run record.  :func:`traced_run` gives
the per-layer metrics: it sets up once and times calls twice, first untraced
and then with a :class:`~spans.SpanRecorder` wrapped around the library's
public layer entry points, so the tracing overhead is the ratio of the two
rates.  Per-layer times are raw span times.
"""

from __future__ import annotations

import gc
import math
import os
import platform
import resource
import statistics
import time
from collections import Counter
from pathlib import Path

import numpy as np

from gauge import HostGauge
from spans import SpanRecorder, SpanStats, Target

ROOT = Path(__file__).resolve().parent.parent

#: ``call_ms_tail`` percentile: fixed, so that runs and commits compare.
TAIL_PERCENTILE = 80.0
#: Calls beyond the tail percentile that a run must collect.
TAIL_SAMPLES = 10
#: Hard stop for one measurement phase, so a run ends within its time limit.
MAX_MEASURE_S = 60.0


def span_targets() -> list[Target]:
    """The library's public layer entry points the traced run wraps."""
    import repro.core.schedule_cache as schedule_cache
    from repro.core import (
        BatchGEMMExecutor,
        CamSubCrossbar,
        DividerUnit,
        ExponentialUnit,
        MatMulEngine,
        PipelineExecutor,
        ProgrammedOperand,
        RRAMSoftmaxEngine,
        STARAccelerator,
    )
    from repro.rram.crossbar import AnalogCrossbar
    from repro.serving import PoissonArrivals, ServingReport, ServingSimulator, StarServiceModel

    return [
        Target(RRAMSoftmaxEngine, "softmax_batch", "softmax", lambda a: {"rows": len(a[1])}),
        Target(CamSubCrossbar, "process_batch", "softmax.cam_sub"),
        Target(ExponentialUnit, "process_batch", "softmax.exp"),
        Target(DividerUnit, "divide_batch", "softmax.div"),
        Target(AnalogCrossbar, "matvec_batch", "xbar.matvec", lambda a: {"vectors": len(a[1])}),
        Target(AnalogCrossbar, "program", "xbar.program"),
        Target(
            MatMulEngine,
            "matmul",
            "gemm",
            lambda a: {"reused": int(isinstance(a[2], ProgrammedOperand))},
        ),
        Target(MatMulEngine, "program_operand", "gemm.program_operand"),
        Target(StarServiceModel, "batch_latency_s", "pricing.latency"),
        Target(StarServiceModel, "batch_energy_j", "pricing.energy"),
        Target(STARAccelerator, "request_timing", "pricing.request_timing"),
        Target(schedule_cache, "build_schedule_template", "template.build"),
        Target(PipelineExecutor, "execute_service_times", "sched.pipeline"),
        Target(BatchGEMMExecutor, "execute", "sched.gemm_exec"),
        Target(schedule_cache.ScheduleTemplate, "resample", "template.resample"),
        Target(ServingSimulator, "run", "loop"),
        Target(ServingReport, "summary", "report"),
        Target(PoissonArrivals, "generate", "arrivals"),
    ]


# ---------------------------------------------------------------------- #
# provenance
# ---------------------------------------------------------------------- #
def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": _git_sha(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "timer": "time.perf_counter",
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------- #
# measurement
# ---------------------------------------------------------------------- #
def min_calls() -> int:
    """Calls needed for ``TAIL_SAMPLES`` samples beyond the tail percentile."""
    return math.ceil(TAIL_SAMPLES / (1.0 - TAIL_PERCENTILE / 100.0))


def measure(workload, seconds: float, recorder: SpanRecorder | None = None, totals=None) -> dict:
    """Closed-loop calls for ``seconds`` (and at least :func:`min_calls`).

    Calls cycle through the workload's inputs and stop on a whole round.
    Checks run between calls, outside the timer and outside any tracing.
    The host gauge runs between rounds; a round's calls are normalised by
    the mean slowdown sampled just before and just after it.
    """
    call_s, round_s, failures = [], [], Counter()
    norm_call_s, norm_round_s = [], []
    failed_calls = 0
    items_per_round = sum(workload.items(i) for i in range(workload.num_inputs))
    needed = min_calls()
    gauge = HostGauge(workload.host_gauge)
    before = gauge.sample()
    start = time.perf_counter()
    while True:
        spent = 0.0
        round_calls = []
        for i in range(workload.num_inputs):
            workload.before_call()
            if recorder is None:
                t0 = time.perf_counter()
                output = workload.call(i)
                elapsed = time.perf_counter() - t0
            else:
                with recorder.installed():
                    t0 = time.perf_counter()
                    with recorder.span("call"):
                        output = workload.call(i)
                    elapsed = time.perf_counter() - t0
            round_calls.append(elapsed)
            spent += elapsed
            if totals is not None:
                workload.tally(output, totals)
            failed = workload.check(i, output)
            failures.update(failed)
            failed_calls += bool(failed)
            del output
        after = gauge.sample()
        slowdown = 0.5 * (before + after)
        before = after
        call_s.extend(round_calls)
        norm_call_s.extend(elapsed / slowdown for elapsed in round_calls)
        round_s.append(spent)
        norm_round_s.append(spent / slowdown)
        wall = time.perf_counter() - start
        if (wall >= seconds and len(call_s) >= needed) or wall >= MAX_MEASURE_S:
            break
    return {
        "call_s": norm_call_s,
        "raw_call_s": call_s,
        "attempted": len(call_s),
        "failed": failed_calls,
        "failed_checks": dict(failures),
        "items_per_s": items_per_round / statistics.median(norm_round_s),
        "raw_items_per_s": items_per_round / statistics.median(round_s),
        "host_slowdown": gauge.samples,
    }


def call_metrics(result: dict) -> tuple[dict, dict]:
    """``call_ms_p50`` / ``call_ms_tail`` and the tail's sample details."""
    times_ms = np.asarray(result["call_s"]) * 1e3
    raw_ms = np.asarray(result["raw_call_s"]) * 1e3
    tail = float(np.percentile(times_ms, TAIL_PERCENTILE))
    details = {
        "call_ms_tail_percentile": TAIL_PERCENTILE,
        "call_samples": int(times_ms.size),
        "call_samples_beyond_tail": int(np.count_nonzero(times_ms > tail)),
        "raw_call_ms_p50": float(np.median(raw_ms)),
        "raw_call_ms_tail": float(np.percentile(raw_ms, TAIL_PERCENTILE)),
        "call_ms": times_ms.round(4).tolist(),
        "raw_call_ms": raw_ms.round(4).tolist(),
    }
    return {"call_ms_p50": float(np.median(times_ms)), "call_ms_tail": tail}, details


def untraced_run(cls, seed: int, seconds: float, scale: float = 1.0) -> dict:
    """End-to-end metrics: median set-up over several set-ups, then timed calls.

    Each set-up is normalised like a round of calls, by the mean host
    slowdown sampled just before and just after it.
    """
    gauge = HostGauge(cls.host_gauge)
    setup_s, raw_setup_s = [], []
    for _ in range(cls.setups):
        workload = None  # release the previous set-up before timing the next
        gc.collect()
        before = gauge.sample()
        t0 = time.perf_counter()
        workload = cls(seed, scale)
        elapsed = time.perf_counter() - t0
        raw_setup_s.append(elapsed)
        setup_s.append(elapsed / (0.5 * (before + gauge.sample())))
    workload.prepare()
    result = measure(workload, seconds)
    calls, details = call_metrics(result)
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "items_per_s": (result["items_per_s"], "1/s"),
        "call_ms_p50": (calls["call_ms_p50"], "ms"),
        "call_ms_tail": (calls["call_ms_tail"], "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "output_err": (workload.output_err, "ratio"),
    }
    details.update(
        setup_samples_s=setup_s,
        raw_setup_samples_s=raw_setup_s,
        raw_setup_s=statistics.median(raw_setup_s),
        raw_items_per_s=result["raw_items_per_s"],
        host_slowdown=[round(x, 4) for x in gauge.samples + result["host_slowdown"]],
        item_unit=workload.item_unit,
        failed_checks=result["failed_checks"],
        properties=workload.properties(),
        output_err=workload.output_err,
        digest=workload.digest,
    )
    return {
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
        "details": details,
    }


def traced_run(cls, seed: int, seconds: float, scale: float = 1.0) -> dict:
    """Per-layer metrics from a traced set-up and a traced closed loop."""
    targets = span_targets()
    originals = [vars(t.owner)[t.attr] for t in targets]
    setup = SpanRecorder(targets)
    with setup.installed():
        t0 = time.perf_counter()
        workload = cls(seed, scale)
        setup_s = time.perf_counter() - t0
    workload.prepare()
    untraced = measure(workload, seconds / 2)
    timed = SpanRecorder(targets)
    totals = Counter()
    traced = measure(workload, seconds, recorder=timed, totals=totals)
    restored = all(vars(t.owner)[t.attr] is o for t, o in zip(targets, originals))
    metrics = layer_metrics(setup, timed, totals, setup_s)
    metrics["trace.items_per_s_untraced"] = (untraced["items_per_s"], "1/s")
    metrics["trace.items_per_s_traced"] = (traced["items_per_s"], "1/s")
    metrics["trace.overhead"] = (untraced["items_per_s"] / traced["items_per_s"], "ratio")
    failed_checks = Counter(untraced["failed_checks"]) + Counter(traced["failed_checks"])
    if not restored:
        failed_checks["originals_restored"] += 1
    return {
        "attempted": untraced["attempted"] + traced["attempted"],
        "failed": untraced["failed"] + traced["failed"] + (not restored),
        "metrics": metrics,
        "details": {
            "item_unit": workload.item_unit,
            "failed_checks": dict(failed_checks),
            "totals": dict(totals),
            "output_err": workload.output_err,
            "digest": workload.digest,
        },
        "spans": {"setup": setup.to_dict(), "timed": timed.to_dict()},
    }


def _ratio(numerator: float, base: float) -> float:
    return numerator / base if base else 0.0


def layer_metrics(setup: SpanRecorder, timed: SpanRecorder, totals: Counter, setup_s: float) -> dict:
    """Per-layer metrics: warm work from the timed loop, cold work from set-up.

    Cold work (pricing misses, template builds and the executed schedules
    inside them, arrival generation) is summed over set-up and the timed
    loop; everything else comes from the timed loop alone.
    """
    empty = SpanStats()

    def span(name: str) -> SpanStats:
        return timed.stats.get(name, empty)

    def cold(name: str, parents: tuple[str, ...] = ()) -> SpanStats:
        """``name`` over both phases; only under ``parents`` when given."""
        found = SpanStats()
        for recorder in (setup, timed):
            if parents:
                parts = [recorder.edges.get((parent, name), empty) for parent in parents]
            else:
                parts = [recorder.stats.get(name, empty)]
            for part in parts:
                found.calls += part.calls
                found.total_s += part.total_s
        return found

    rows = timed.counters.get("softmax.rows", 0)
    gemm = span("gemm")
    pricing = SpanStats(
        span("pricing.latency").calls + span("pricing.energy").calls,
        span("pricing.latency").total_s + span("pricing.energy").total_s,
    )
    cold_pricing = cold("pricing.request_timing", ("pricing.latency", "pricing.energy"))
    builds = cold("template.build")
    lookups = totals["pricing_hits"] + totals["pricing_misses"]
    events = totals["events"]
    nn_other = span("call").total_s - gemm.total_s - span("softmax").total_s if gemm.calls else 0.0
    return {
        "setup.s": (setup_s, "s"),
        "call.count": (span("call").calls, "count"),
        "call.s": (span("call").total_s, "s"),
        "softmax.calls": (span("softmax").calls, "count"),
        "softmax.rows": (rows, "count"),
        "softmax.s": (span("softmax").total_s, "s"),
        "softmax.cam_sub_s": (span("softmax.cam_sub").total_s, "s"),
        "softmax.exp_s": (span("softmax.exp").total_s, "s"),
        "softmax.div_s": (span("softmax.div").total_s, "s"),
        "softmax.self_s": (span("softmax").self_s, "s"),
        "softmax.rows_per_s": (_ratio(rows, span("softmax").total_s), "1/s"),
        "xbar.matvec_calls": (span("xbar.matvec").calls, "count"),
        "xbar.vectors": (timed.counters.get("xbar.matvec.vectors", 0), "count"),
        "xbar.matvec_s": (span("xbar.matvec").total_s, "s"),
        "xbar.program_calls": (span("xbar.program").calls, "count"),
        "xbar.program_s": (span("xbar.program").total_s, "s"),
        "gemm.calls": (gemm.calls, "count"),
        "gemm.s": (gemm.total_s, "s"),
        "gemm.self_s": (gemm.self_s, "s"),
        "gemm.operand_reuse": (_ratio(timed.counters.get("gemm.reused", 0), gemm.calls), "ratio"),
        "nn.other_s": (nn_other, "s"),
        "pricing.calls": (pricing.calls, "count"),
        "pricing.s": (pricing.total_s, "s"),
        "pricing.us_per_call": (_ratio(pricing.total_s * 1e6, pricing.calls), "us"),
        "pricing.cold_calls": (cold_pricing.calls, "count"),
        "pricing.cold_s": (cold_pricing.total_s, "s"),
        "pricing.hit_ratio": (_ratio(totals["pricing_hits"], lookups), "ratio"),
        "template.builds": (builds.calls, "count"),
        "template.build_s": (builds.total_s, "s"),
        "sched.pipeline_s": (cold("sched.pipeline").total_s, "s"),
        "sched.gemm_exec_s": (cold("sched.gemm_exec").total_s, "s"),
        "template.resamples": (span("template.resample").calls, "count"),
        "template.resample_s": (span("template.resample").total_s, "s"),
        "tier.executed_frac": (_ratio(totals["executed_batches"], totals["batches"]), "ratio"),
        "loop.s": (span("loop").total_s, "s"),
        "loop.self_s": (span("loop").self_s, "s"),
        "loop.events_per_req": (_ratio(events, totals["requests"]), "ratio"),
        "loop.dispatch_per_req": (_ratio(totals["dispatch_calls"], totals["requests"]), "ratio"),
        "loop.host_ns_per_event": (_ratio(span("loop").total_s * 1e9, events), "ns"),
        "loop.retry_frac": (_ratio(totals["retries"], totals["offered"]), "ratio"),
        "route.steal_frac": (_ratio(totals["stolen_batches"], totals["batches"]), "ratio"),
        "report.s": (span("report").total_s, "s"),
        "arrivals.s": (cold("arrivals").total_s, "s"),
    }


def ratio_bases(metrics: dict, totals: dict) -> dict:
    """Every ratio metric with the base it was taken over."""
    totals = Counter(totals)
    value = lambda name: metrics[name][0]
    return {
        "softmax.rows_per_s": f"{value('softmax.rows')} rows / {value('softmax.s'):.6f} s",
        "gemm.operand_reuse": f"over {value('gemm.calls')} GEMM calls",
        "pricing.us_per_call": f"{value('pricing.s'):.6f} s / {value('pricing.calls')} calls",
        "pricing.hit_ratio": f"over {totals['pricing_hits'] + totals['pricing_misses']} cache lookups",
        "tier.executed_frac": f"{totals['executed_batches']} / {totals['batches']} batches",
        "loop.events_per_req": f"{totals['events']} events / {totals['requests']} requests",
        "loop.dispatch_per_req": f"{totals['dispatch_calls']} sweeps / {totals['requests']} requests",
        "loop.host_ns_per_event": f"{value('loop.s'):.6f} s / {totals['events']} events",
        "loop.retry_frac": f"{totals['retries']} retries / {totals['offered']} offered",
        "route.steal_frac": f"{totals['stolen_batches']} / {totals['batches']} batches",
        "trace.overhead": (
            f"{value('trace.items_per_s_untraced'):.1f} untraced / "
            f"{value('trace.items_per_s_traced'):.1f} traced items/s"
        ),
    }
