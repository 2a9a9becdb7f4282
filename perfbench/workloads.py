"""The benchmark's four workloads.

Each workload builds its inputs from the seed in ``__init__`` (the timed
set-up), computes its correctness references once in :meth:`prepare`
(untimed), and then serves closed-loop calls: :meth:`call` is the timed unit
and :meth:`check` validates its output outside the timer, returning the
names of the checks that failed.  ``scale`` shrinks the inputs for the
benchmark's own tests; the benchmark itself always runs at ``scale=1``.
"""

from __future__ import annotations

import hashlib
from collections import Counter

import numpy as np

from repro.core import MatMulEngine, MatMulEngineConfig, RRAMSoftmaxEngine, SoftmaxEngineConfig
from repro.core.accelerator import STARAccelerator
from repro.core.batch_cost import BatchCostModel
from repro.core.config import STARConfig
from repro.core.schedule_cache import ScheduleTemplateCache, build_schedule_template
from repro.nn import AnalogBackend, BertConfig, BertEncoderModel, FixedPointSoftmax
from repro.nn.bert import BertWorkload
from repro.serving import (
    ChipFleet,
    DynamicBatcher,
    FaultInjector,
    NetworkModel,
    PoissonArrivals,
    PricingCache,
    RetryPolicy,
    Router,
    ServingSimulator,
    SLOClass,
    SLOPolicy,
    StarServiceModel,
    TieredServiceModel,
)
from repro.utils.fixed_point import CNEWS_FORMAT, COLA_FORMAT, MRPC_FORMAT
from repro.workloads import CNEWS_PROFILE, COLA_PROFILE, MRPC_PROFILE, AttentionScoreGenerator

__all__ = ["WORKLOADS", "SoftmaxSweep", "AnalogBert", "FleetFifo", "FleetRouted"]


def child_seeds(seed: int, count: int) -> list[int]:
    """Independent integer seeds derived from the workload seed.

    Plain integers, not ``SeedSequence`` objects: a ``SeedSequence`` spawns
    new children on every use, which would make repeated runs differ.
    """
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def exact_softmax(x: np.ndarray) -> np.ndarray:
    shifted = np.exp(x - x.max(axis=-1, keepdims=True))
    return shifted / shifted.sum(axis=-1, keepdims=True)


def mean_kl(p: np.ndarray, q: np.ndarray) -> float:
    """Mean over rows of ``KL(p || q)``; ``q`` is strictly positive."""
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0.0, p * np.log(p / q), 0.0)
    return float(terms.sum(axis=-1).mean())


class _Workload:
    #: Simulated outputs that must repeat exactly (fleet workloads only).
    digest = None
    #: The :mod:`gauge` kernel that resembles the workload's host work.
    host_gauge: str

    def before_call(self) -> None:
        """Rewind per-run state that is not part of the timed unit."""

    def tally(self, output, totals: Counter) -> None:
        """Add the public counters of one call's output to ``totals``."""


class SoftmaxSweep(_Workload):
    """Closed loop, one caller: score tensors through ``RRAMSoftmaxEngine``."""

    name = "softmax_sweep"
    item_unit = "rows"
    host_gauge = "numpy"
    setups = 3
    #: Mean per-row KL(engine || exact) above this fails the check.
    kl_bound = 0.05
    datasets = (
        ("CNEWS", CNEWS_PROFILE, CNEWS_FORMAT),
        ("MRPC", MRPC_PROFILE, MRPC_FORMAT),
        ("CoLA", COLA_PROFILE, COLA_FORMAT),
    )
    #: (batch x heads) per sequence length: equal scores per tensor, so every
    #: call does the same amount of work.
    tensors_per_len = {128: 96, 512: 6}

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        seeds = child_seeds(seed, len(self.datasets))
        self.inputs = []
        for (label, profile, fmt), dataset_seed in zip(self.datasets, seeds):
            engine = RRAMSoftmaxEngine(SoftmaxEngineConfig(fmt=fmt))
            generator = AttentionScoreGenerator(profile, seed=dataset_seed)
            for seq_len, heads in self.tensors_per_len.items():
                heads = max(1, int(heads * scale))
                scores = generator.rows(heads * seq_len, seq_len).reshape(heads, seq_len, seq_len)
                self.inputs.append((f"{label}/L{seq_len}", engine, fmt, scores))
        self.num_inputs = len(self.inputs)

    def properties(self) -> dict:
        return {"tensors": [[label, list(x.shape)] for label, _, _, x in self.inputs]}

    def prepare(self) -> None:
        self.expected, self.kl = [], []
        for _, _, fmt, scores in self.inputs:
            expected = FixedPointSoftmax(fmt)(scores)
            self.expected.append(expected)
            self.kl.append(mean_kl(expected, exact_softmax(scores)))
        rows = [x.shape[0] * x.shape[1] for _, _, _, x in self.inputs]
        self.output_err = float(np.average(self.kl, weights=rows))

    def call(self, i: int):
        _, engine, _, scores = self.inputs[i]
        return engine(scores)

    def items(self, i: int) -> int:
        scores = self.inputs[i][3]
        return scores.shape[0] * scores.shape[1]

    def check(self, i: int, probs) -> list[str]:
        failed = []
        if not np.array_equal(probs, self.expected[i]):
            failed.append("bit_identical_to_FixedPointSoftmax")
        if not self.kl[i] <= self.kl_bound:
            failed.append("kl_within_bound")
        return failed


class AnalogBert(_Workload):
    """Closed loop: full-analog 2-layer BERT inference, back to back."""

    name = "analog_bert"
    item_unit = "tokens"
    host_gauge = "numpy"
    setups = 5
    #: Relative L2 error of the encoder output vs the exact model above this fails.
    err_bound = 0.3
    config = BertConfig(
        num_layers=2, hidden=256, num_heads=4, intermediate=1024, vocab_size=2048, max_positions=128
    )
    #: (batch, seq_len) token batches: 128 tokens each, so calls do equal work.
    batches = ((2, 64), (1, 128))
    #: The weights are part of the system under test, not of its inputs: one
    #: fixed model, so ``output_err`` moves with the datapath, not the seed.
    model_seed = 0

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        backend = AnalogBackend(MatMulEngine(MatMulEngineConfig(bits_per_cell=5, adc_bits=10)))
        self.model = BertEncoderModel(
            self.config, seed=self.model_seed, softmax_fn=RRAMSoftmaxEngine(), backend=backend
        )
        rng = np.random.default_rng(seed)
        self.inputs = [rng.integers(0, self.config.vocab_size, size=shape) for shape in self.batches]
        self.num_inputs = len(self.inputs)
        # warm-up: the first inference programs every stationary weight
        self.model(self.inputs[0])

    def properties(self) -> dict:
        return {"token_batches": [list(t.shape) for t in self.inputs], "config": repr(self.config)}

    def prepare(self) -> None:
        ideal = BertEncoderModel(self.config, seed=self.model_seed)
        self.reference = [ideal(tokens) for tokens in self.inputs]
        self.first = [self.model(tokens) for tokens in self.inputs]
        self.errors = [
            float(np.linalg.norm(out - ref) / np.linalg.norm(ref))
            for out, ref in zip(self.first, self.reference)
        ]
        self.output_err = float(np.mean(self.errors))

    def call(self, i: int):
        return self.model(self.inputs[i])

    def items(self, i: int) -> int:
        return int(self.inputs[i].size)

    def check(self, i: int, out) -> list[str]:
        failed = []
        if not np.all(np.isfinite(out)):
            failed.append("finite")
        if not np.array_equal(out, self.first[i]):
            failed.append("repeatable")
        if not self.errors[i] <= self.err_bound:
            failed.append("output_err_within_bound")
        return failed


def report_digest(report) -> dict:
    """The simulated outputs that must repeat exactly, with a short hash."""
    fields = {
        "p50_latency_s": report.p50_latency_s,
        "p99_latency_s": report.p99_latency_s,
        "goodput_rps": report.goodput_rps,
        "energy_per_query_j": report.energy_per_query_j,
        "num_batches": report.num_batches,
    }
    text = repr(sorted(fields.items()))
    return {**fields, "sha256": hashlib.sha256(text.encode()).hexdigest()[:16]}


def littles_law_error(report) -> float:
    """Relative gap between time-averaged occupancy and ``lambda * W``.

    Occupancy is integrated independently from the completed requests'
    arrival and completion instants; ``lambda * W`` comes from the report's
    throughput and mean latency.
    """
    arrival = report.requests.arrival_s
    completion = report.requests.completion_s
    times = np.concatenate([arrival, completion])
    steps = np.concatenate([np.ones(arrival.size), -np.ones(completion.size)])
    order = np.argsort(times, kind="stable")
    times, in_system = times[order], np.cumsum(steps[order])
    area = float(np.sum(in_system[:-1] * np.diff(times)))
    occupancy = area / report.makespan_s
    predicted = report.throughput_rps * report.mean_latency_s
    return abs(occupancy - predicted) / predicted


def pricing_error(star_model, seq_len: int, template=None) -> float:
    """Single-request pricing error of ``star_model`` vs the executed schedule.

    ``template`` is the batch-1 executed-schedule template of this shape,
    built here when not given.
    """
    if template is None:
        workload = BertWorkload(config=star_model.bert_config, seq_len=seq_len).with_batch(1)
        template = build_schedule_template(star_model.accelerator, workload)
    executed = template.base_latency_s
    return abs(star_model.batch_latency_s(1, seq_len) - executed) / executed


def price_grid(model, max_batch: int, seq_lens) -> None:
    """Warm ``model``'s pricing cache for every batch size and length."""
    for batch in range(1, max_batch + 1):
        for seq_len in sorted(set(seq_lens)):
            model.batch_latency_s(batch, seq_len)
            model.batch_energy_j(batch, seq_len)


class _Fleet(_Workload):
    """Shared shape of the fleet workloads: one trace, served repeatedly."""

    item_unit = "requests"
    host_gauge = "python"
    num_inputs = 1
    little_tolerance = 1e-9

    def items(self, i: int) -> int:
        return len(self.requests)

    def call(self, i: int):
        report = self.simulator.run(self.requests)
        report.summary()
        return report

    def reference_run(self):
        self.before_call()
        report = self.call(0)
        self.digest = report_digest(report)
        return report

    def tally(self, report, totals: Counter) -> None:
        profile = self.simulator.last_profile
        totals.update(
            requests=profile.num_requests,
            events=profile.events_popped,
            dispatch_calls=profile.dispatch_calls,
            batches=profile.num_batches,
            pricing_hits=profile.pricing_hits,
            pricing_misses=profile.pricing_misses,
            executed_batches=profile.executed_batches,
            stolen_batches=profile.stolen_batches,
            retries=report.num_retries,
            offered=report.num_offered,
        )

    def check(self, i: int, report) -> list[str]:
        failed = []
        offered = len(self.requests)
        if report.num_requests + report.num_shed + report.num_abandoned != offered:
            failed.append("conservation")
        if not littles_law_error(report) <= self.little_tolerance:
            failed.append("littles_law")
        if report_digest(report) != self.digest:
            failed.append("digest_repeats")
        return failed


class FleetFifo(_Fleet):
    """Simulated open-loop Poisson trace on the healthy global FIFO."""

    name = "fleet_fifo"
    setups = 9
    num_chips = 16
    rate_rps = 900.0
    seq_lens = (64,) * 8 + (128,) * 8 + (256,) * 3 + (512,)
    num_requests = 20_000

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        self.model = StarServiceModel(cache=PricingCache())
        fleet = ChipFleet(self.model, num_chips=self.num_chips)
        self.simulator = ServingSimulator(fleet, DynamicBatcher(max_batch_size=8, max_wait_s=5e-3))
        arrivals = PoissonArrivals(self.rate_rps, seq_len=self.seq_lens, seed=seed)
        self.requests = arrivals.generate(max(1, int(self.num_requests * scale)))
        price_grid(self.model, 8, self.seq_lens)

    def properties(self) -> dict:
        return {
            "requests": len(self.requests),
            "rate_rps": self.rate_rps,
            "chips": self.num_chips,
            "seq_len_weights": {str(L): self.seq_lens.count(L) for L in sorted(set(self.seq_lens))},
        }

    def prepare(self) -> None:
        report = self.reference_run()
        errors = {L: pricing_error(self.model, L) for L in sorted(set(self.seq_lens))}
        self.output_err = float(np.mean([errors[int(L)] for L in report.requests.seq_len]))


class FleetRouted(_Fleet):
    """Routed, fault-injected, EDF, tiered-fidelity trace on a mixed fleet."""

    name = "fleet_routed"
    setups = 3
    rate_rps = 2500.0
    seq_lens = (64,) * 4 + (256,)
    num_requests = 10_000
    chip_tiles = (96,) * 2 + (16,) * 6
    max_batch = 4
    sample_fraction = 0.05
    #: Executed-tier share outside this many binomial sigmas fails.
    tier_sigmas = 4.0

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        seeds = child_seeds(seed, len(self.chip_tiles) + 4)
        pricing, templates = PricingCache(), ScheduleTemplateCache()
        self.types = {}
        for tiles in sorted(set(self.chip_tiles)):
            accelerator = STARAccelerator(
                STARConfig(matmul=MatMulEngineConfig(num_tiles=tiles)),
                batch_cost=BatchCostModel.streamed(),
            )
            base = StarServiceModel(
                accelerator=accelerator, bert_config=BertConfig(num_layers=2), cache=pricing
            )
            price_grid(base, self.max_batch, self.seq_lens)
            tiered = TieredServiceModel(
                base,
                sample_fraction=self.sample_fraction,
                jitter_sigma=0.3,
                template_cache=templates,
            )
            self.types[tiles] = tiered.build_templates(
                range(1, self.max_batch + 1), sorted(set(self.seq_lens))
            )
        self.chips = [
            self.types[tiles].with_seed(chip_seed)
            for tiles, chip_seed in zip(self.chip_tiles, seeds)
        ]
        arrival_seed, fault_seed = seeds[-2:]
        slo = SLOPolicy((SLOClass("interactive", 20e-3), SLOClass("batch", 200e-3)))
        arrivals = PoissonArrivals(self.rate_rps, seq_len=self.seq_lens, seed=arrival_seed)
        self.requests = slo.tag_by_length(
            arrivals.generate(max(1, int(self.num_requests * scale))), boundaries=(64,)
        )
        self.simulator = ServingSimulator(
            ChipFleet(service_models=self.chips),
            DynamicBatcher.edf(max_batch_size=self.max_batch, max_wait_s=2e-3),
            faults=FaultInjector(mtbf_s=0.5, detection_s=20e-3, seed=fault_seed),
            retry=RetryPolicy(max_attempts=3, backoff_base_s=2e-3, jitter=0.25, deadline_s=0.2),
            router=Router(
                policy="shortest_expected_delay",
                network=NetworkModel(link_latency_s=20e-6, steal_latency_s=10e-6),
            ),
        )

    def properties(self) -> dict:
        return {
            "requests": len(self.requests),
            "rate_rps": self.rate_rps,
            "chip_tiles": list(self.chip_tiles),
            "seq_len_weights": {str(L): self.seq_lens.count(L) for L in sorted(set(self.seq_lens))},
            "max_batch": self.max_batch,
            "sample_fraction": self.sample_fraction,
        }

    def before_call(self) -> None:
        for chip in self.chips:
            chip.reset()

    def prepare(self) -> None:
        report = self.reference_run()
        errors = {
            (tiles, L): pricing_error(tiered.base, L, tiered.templates[(1, L)])
            for tiles, tiered in self.types.items()
            for L in sorted(set(self.seq_lens))
        }
        served = [
            errors[(self.chip_tiles[int(chip)], int(L))]
            for chip, L in zip(report.requests.chip, report.requests.seq_len)
        ]
        self.output_err = float(np.mean(served))

    def check(self, i: int, report) -> list[str]:
        failed = super().check(i, report)
        if self.simulator.last_profile.template_misses != 0:
            failed.append("no_template_misses")
        batches = report.num_batches
        executed = report.num_batches_in_tier(1)
        sigma = np.sqrt(batches * self.sample_fraction * (1.0 - self.sample_fraction))
        if abs(executed - batches * self.sample_fraction) > self.tier_sigmas * sigma:
            failed.append("executed_fraction_in_band")
        return failed


WORKLOADS = {cls.name: cls for cls in (SoftmaxSweep, AnalogBert, FleetFifo, FleetRouted)}
