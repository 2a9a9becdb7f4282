"""Request-level discrete-event simulation of a serving fleet.

The simulator is a thin client of :mod:`repro.core.events` — the same
event-loop/server-pool substrate the attention-pipeline executor runs on,
one level up the stack: the *servers* are whole accelerator chips, the
*items* are inference requests, and service times are whole-model batched
inference latencies from the fleet's service model.

One event loop
--------------

Every configuration — healthy or fault-injected, FIFO or EDF, global
queue or routed, open or closed loop, fixed or autoscaled fleet — runs
through the one loop in this module.  It is parameterised by a **queue
topology**: a list of heaps plus each chip's *home* queue.  Without a
router there is one heap every chip calls home (the fleet-wide queue);
a :class:`~repro.serving.routing.Router` gives one heap per chip behind a
front end with a network stage and work stealing.  FIFO versus EDF is
only the heap key (:meth:`~repro.serving.batcher.DynamicBatcher.queue_key`).

Requests arrive, join their queue, and leave in dispatched batches
governed by the :class:`~repro.serving.batcher.DynamicBatcher`: a batch
is released as soon as its queue holds ``max_batch_size`` requests **or**
the head has waited ``max_wait_s`` since it arrived (the maturity timer
is armed when the request is queued, at ``max(now, arrival + max_wait)``).
Each dispatch sweep serves the globally best mature head — oldest, or most
urgent under EDF — on an idle home chip, or with stealing on any idle
chip.  A dispatched batch pads to its longest member's sequence length,
occupies its chip for the service model's batch latency, and completes
all member requests at once.  In the single-chip, no-batching limit with
deterministic service this is exactly an M/D/1 queue, which
:mod:`repro.serving.theory` cross-validates.

Optional hooks on the same loop:

* **faults** — with a :class:`~repro.serving.faults.FaultInjector` (and
  optionally a :class:`~repro.serving.faults.RetryPolicy` and
  :class:`~repro.serving.faults.AdmissionController`) per-chip
  failure/repair processes run alongside the traffic.  A failing chip
  goes offline and its in-flight batch is lost: the members re-enter
  through the retry policy (bounded attempts, deadline-aware exponential
  backoff with jitter) or are abandoned.  Repair takes detection time plus
  the chip's full-model operand reprogramming cost
  (``ChipFleet.reprogram_latency_s``).  The admission controller sheds
  arrivals beyond a bounded backlog, drops queued requests whose deadline
  has passed, and may cap batch size while any chip is down.  A failure
  simultaneous with a batch completion loses the batch (the conservative
  reading).
* **autoscaling** — an :class:`~repro.serving.autoscale.Autoscaler` runs a
  periodic ``TICK`` controller.  Chips move between awake, waking and
  sleeping with transitions priced by the fleet's power-state model:
  parking starts a sleep interval after the chip's drain latency, waking
  takes the wake latency and charges the wake energy to the report's
  :class:`~repro.serving.report.ScaleEvent` ledger.  Only idle chips are
  parked, so in-flight batches always finish; without work stealing a
  chip is also kept awake while its queue holds work or a routed request
  is on its hop to it, so no request waits on a parked chip.  Sleep time
  is credited against idle leakage in the report's energy accounting.
* **closed-loop clients** — :meth:`ServingSimulator.run_closed_loop`
  issues requests from :class:`~repro.serving.arrivals.ClosedLoopClients`
  that think, request and wait: a client's next request is scheduled only
  when its previous one completes, is shed or is abandoned.

A chip is dispatchable only while it is awake and not failed.

Results accumulate *columnar*: the loop appends plain scalars to
per-column lists and the per-request dispatch/completion/chip columns —
constant within a batch — are derived at the end by one vectorized gather
from the batch columns.  Rows are written at dispatch, or at completion
when any fault component is configured (a lost batch produces no rows,
only a :class:`~repro.serving.report.FailureRecord`), so fault-aware
record order is completion order.
"""

from __future__ import annotations

import math
import time as _time
from heapq import heappop, heappush
from typing import Sequence

import numpy as np

from repro.core.events import (
    ARRIVE,
    DISPATCH,
    FAIL,
    FREE,
    HOP,
    REPAIR,
    TICK,
    TIMEOUT,
    WAKE,
    EventLoop,
    ServerPool,
)
from repro.serving.arrivals import ClosedLoopClients, Request
from repro.serving.batcher import NO_BATCHING, DynamicBatcher
from repro.serving.faults import AdmissionController, FaultInjector, NO_ADMISSION, RetryPolicy
from repro.serving.fleet import ChipFleet
from repro.serving.profiling import PROFILER, RunProfile
from repro.serving.report import (
    BatchTable,
    DropRecord,
    FailureRecord,
    RequestTable,
    RetryRecord,
    RoutingStats,
    ScaleEvent,
    ServingReport,
    StealTable,
)
from repro.utils.validation import require_positive

__all__ = ["ServingSimulator"]

#: Sorts after every queue entry ``(drain key, arrival order, request)``:
#: the head of an empty queue.
_LAST = (math.inf, math.inf)


def _fleet_cache_counters(fleet: ChipFleet) -> tuple[int, int, int, int, int, int]:
    """Current pricing/template cache counters summed over the fleet.

    Distinct cache objects and tiered models are counted once even when
    chips share them; a run snapshots before/after and records the delta,
    so per-run numbers stay correct with module-global caches.
    """
    pricing: dict[int, object] = {}
    tiered: dict[int, object] = {}
    for model in fleet.models:
        for m in (model, getattr(model, "base", None)):
            cache = getattr(m, "cache", None)
            if cache is not None and hasattr(cache, "hits"):
                pricing.setdefault(id(cache), cache)
        if hasattr(model, "template_hits"):
            tiered.setdefault(id(model), model)
    return (
        sum(c.hits for c in pricing.values()),
        sum(c.misses for c in pricing.values()),
        sum(m.template_hits for m in tiered.values()),
        sum(m.template_misses for m in tiered.values()),
        sum(m.analytic_dispatches for m in tiered.values()),
        sum(m.executed_dispatches for m in tiered.values()),
    )


class _Ledger:
    """Everything one serving run writes down, and its report assembly.

    Per-request rows keep only the batch row index; the batch-constant
    columns are gathered from the batch rows at assembly.  An empty ledger
    assembles the zero-request report of an idle shard.
    """

    def __init__(self, num_chips: int) -> None:
        self.req_index: list[int] = []
        self.req_arrival: list[float] = []
        self.req_batch: list[int] = []
        self.req_attempts: list[int] = []
        self.req_slo: list[int] = []
        self.req_deadline: list[float] = []
        self.b_chip: list[int] = []
        self.b_queue: list[int] = []
        # when the batch was decided: its dispatch, or one steal hop earlier
        self.b_decided: list[float] = []
        self.b_dispatch: list[float] = []
        self.b_completion: list[float] = []
        self.b_size: list[int] = []
        self.b_seq_len: list[int] = []
        self.b_energy: list[float] = []
        self.b_tier: list[int] = []
        self.shed: list[DropRecord] = []
        self.abandoned: list[DropRecord] = []
        self.retries: list[RetryRecord] = []
        self.failures: list[FailureRecord] = []
        self.scale_events: list[ScaleEvent] = []
        # (start, end) deep-sleep spans per chip; a still-open span ends at inf
        self.sleep_intervals: list[list[tuple[float, float]]] = [
            [] for _ in range(num_chips)
        ]
        self.queue_peak = 0
        self.queue_peaks = [0] * num_chips  # per queue; routed runs only
        self.num_routed = 0
        self.route_network_s = 0.0

    def report(self, simulator: "ServingSimulator") -> ServingReport:
        fleet = simulator.fleet
        num_chips = fleet.num_chips
        chip = np.asarray(self.b_chip, dtype=np.int64)
        dispatch = np.asarray(self.b_dispatch, dtype=np.float64)
        completion = np.asarray(self.b_completion, dtype=np.float64)
        size = np.asarray(self.b_size, dtype=np.int64)
        seq_len = np.asarray(self.b_seq_len, dtype=np.int64)
        batch_of_request = np.asarray(self.req_batch, dtype=np.int64)
        requests = RequestTable(
            index=self.req_index,
            arrival_s=self.req_arrival,
            dispatch_s=dispatch[batch_of_request],
            completion_s=completion[batch_of_request],
            chip=chip[batch_of_request],
            batch_index=batch_of_request,
            batch_size=size[batch_of_request],
            seq_len=seq_len[batch_of_request],
            attempts=self.req_attempts,
            slo_class=self.req_slo,
            deadline_s=self.req_deadline,
        )
        batches = BatchTable(
            index=np.arange(len(chip)),
            chip=chip,
            dispatch_s=dispatch,
            completion_s=completion,
            size=size,
            seq_len=seq_len,
            energy_j=self.b_energy,
            tier=self.b_tier,
        )

        routing = None
        if simulator.router is not None:
            # queue q is chip q's home: a batch served off its queue's chip
            # was stolen
            queue = np.asarray(self.b_queue, dtype=np.int64)
            stolen = np.flatnonzero(queue != chip)
            steals = StealTable(
                batch_index=stolen,
                queue=queue[stolen],
                chip=chip[stolen],
                decided_s=np.asarray(self.b_decided)[stolen],
            )
            # per-queue dispatch counts and waits of the completed requests
            queue_of_request = queue[batch_of_request]
            routing = RoutingStats(
                policy=simulator.router.policy,
                stealing=simulator.router.stealing,
                num_routed=self.num_routed,
                local_batches=len(chip) - len(steals),
                stolen_batches=len(steals),
                route_network_s=self.route_network_s,
                steal_network_s=len(steals) * simulator.router.network.steal_latency_s,
                queue_peaks=tuple(self.queue_peaks),
                queue_requests=tuple(
                    np.bincount(queue_of_request, minlength=num_chips).tolist()
                ),
                queue_wait_s=tuple(
                    np.bincount(
                        queue_of_request,
                        weights=requests.wait_s,
                        minlength=num_chips,
                    ).tolist()
                ),
                steals=steals,
            )

        autoscaled = simulator.autoscaler is not None
        chip_sleep_s: tuple[float, ...] = ()
        if autoscaled:
            window_start, window_end = (
                (float(requests.arrival_s.min()), float(requests.completion_s.max()))
                if len(requests)
                else (0.0, 0.0)
            )
            # clip every sleep interval to the observation window so sleep
            # credit never exceeds the makespan the report charges idle over
            chip_sleep_s = tuple(
                sum(
                    max(0.0, min(end, window_end) - max(start, window_start))
                    for start, end in intervals
                )
                for intervals in self.sleep_intervals
            )
        fault_aware = simulator.fault_aware
        retry = simulator.retry if simulator.retry is not None else RetryPolicy()
        return ServingReport(
            num_chips=num_chips,
            requests=requests,
            batches=batches,
            chip_busy_s=tuple(
                np.bincount(chip, weights=batches.service_s, minlength=num_chips)
            ),
            queue_peak=self.queue_peak,
            chip_idle_power_w=tuple(fleet.idle_power_w(c) for c in range(num_chips)),
            shed=tuple(self.shed),
            abandoned=tuple(self.abandoned),
            retries=tuple(self.retries),
            failures=tuple(self.failures),
            deadline_s=retry.deadline_s if fault_aware else None,
            faults_enabled=fault_aware,
            scale_events=tuple(self.scale_events),
            chip_sleep_s=chip_sleep_s,
            chip_sleep_power_w=tuple(fleet.sleep_power_w(c) for c in range(num_chips))
            if autoscaled
            else (),
            autoscale_enabled=autoscaled,
            routing=routing,
        )


def _serve(
    simulator: "ServingSimulator",
    ordered: Sequence[Request] | None = None,
    clients: ClosedLoopClients | None = None,
    num_requests: int = 0,
) -> tuple[ServingReport, EventLoop, int]:
    """Run one serving simulation: the event loop behind every configuration.

    Pass either arrival-ordered ``ordered`` requests (open loop) or
    ``clients`` plus ``num_requests`` (closed loop).  Returns ``(report,
    event loop, dispatch sweeps)`` so the caller can attach its profile.
    """
    fleet = simulator.fleet
    batcher = simulator.batcher
    router = simulator.router
    autoscaler = simulator.autoscaler
    num_chips = fleet.num_chips
    fault_aware = simulator.fault_aware
    retry = simulator.retry if simulator.retry is not None else RetryPolicy()
    admission = simulator.admission if simulator.admission is not None else NO_ADMISSION
    deadline_on = fault_aware and retry.deadline_s is not None
    shedding = deadline_on and admission.shed_expired
    admits = admission.admits
    degraded_max_batch = admission.degraded_max_batch
    faults = simulator.faults
    faults = faults.session(num_chips) if faults is not None else None
    closed = clients is not None
    session = clients.session() if closed else None

    loop = EventLoop()
    chips = ServerPool("chips", num_chips, speedups=fleet.speedups)
    idle = chips.idle
    online = chips.online

    # queue topology: one heap per queue, entries (drain key, arrival
    # order, request), plus each chip's home queue
    num_queues = 1 if router is None else num_chips
    home = [0] * num_chips if router is None else list(range(num_chips))
    queues: list[list[tuple[float, int, Request]]] = [[] for _ in range(num_queues)]
    all_chips = range(num_chips)
    owners = [[c for c in all_chips if home[c] == q] for q in range(num_queues)]
    stealing = router is None or router.stealing
    # per queue: requests queued in it plus in service on its home chips
    # (per chip when routed: the load JSQ and SED route by)
    load = [0] * num_queues
    # each queue's head entry, _LAST while it is empty
    heads: list[tuple] = [_LAST] * num_queues
    # per queue: routed requests still on their network hop
    inbound = [0] * num_queues
    # per chip power state of an autoscaled run: parked (asleep, or still
    # draining into sleep) or waking; a chip that is neither is awake
    parked = [False] * num_chips
    waking = [False] * num_chips
    # the chips a request may be routed to: the dispatchable ones, or with
    # none, those that come back by themselves (failed or waking, never a
    # parked chip — only the autoscaler wakes that)
    targets = list(all_chips)
    steal_latency_s = 0.0
    if router is not None:
        route = router.chooser(fleet, batcher.max_batch_size, load, targets)
        links = router.network.links(num_chips)
        steal_latency_s = router.network.steal_latency_s

    ledger = _Ledger(num_chips)
    b_chip = ledger.b_chip
    queue_peaks = ledger.queue_peaks
    shed = ledger.shed
    abandoned = ledger.abandoned
    queue_peak = 0
    route_network_s = 0.0
    total_backlog = 0
    order = 0  # fleet-wide arrival counter (FIFO drain key)
    num_idle = num_chips  # chips idle AND online: dispatch early-out
    timed_wait = batcher.max_wait_s > 0.0
    queued: set[int] = set()  # indexes awaiting dispatch (timeout liveness)
    dispatch_calls = 0
    # chip -> its in-flight batch: (members, queue, decided_s, dispatch_s,
    # completion_s, seq_len, energy_j, tier)
    inflight: list[tuple | None] = [None] * num_chips
    attempts: dict[int, int] = {}  # index -> failed service attempts
    failed = [False] * num_chips
    failed_count = 0
    # offered requests not yet completed / shed / abandoned: when this
    # reaches 0 the traffic is resolved and the failure process and the
    # autoscaler stop renewing, letting the event heap drain
    outstanding = num_requests if closed else len(ordered)
    issued = 0  # closed-loop requests issued so far
    client_of: dict[int, int] = {}  # closed-loop request index -> client

    sleep_start = [0.0] * num_chips  # meaningful while parked
    awake_count = num_chips
    awake_accum = 0.0  # awake chip-seconds integrated up to last_transition
    last_transition = 0.0
    window_busy = 0.0  # chips.busy_s at the previous tick
    window_awake = 0.0  # awake_accum at the previous tick

    # hot-loop local bindings: attribute loads cost in a loop that runs
    # once per event over millions of events
    schedule = loop.schedule
    batcher_ready = batcher.ready
    batcher_batch_of = batcher.batch_of
    queue_key = batcher.queue_key
    batch_latency_s = fleet.batch_latency_s
    batch_energy_j = fleet.batch_energy_j
    batch_tier = fleet.batch_tier
    max_wait_s = batcher.max_wait_s
    req_index = ledger.req_index.append
    req_arrival = ledger.req_arrival.append
    req_batch = ledger.req_batch.append
    req_attempts = ledger.req_attempts.append
    req_slo = ledger.req_slo.append
    req_deadline = ledger.req_deadline.append
    attempts_of = attempts.get

    def refresh(chip: int) -> None:
        """Re-derive whether a chip may take work (awake and not failed)
        and where the router may send requests."""
        nonlocal num_idle
        usable = not (parked[chip] or waking[chip] or failed[chip])
        if usable != online[chip]:
            chips.set_online(chip, usable)
            if idle[chip]:
                num_idle += 1 if usable else -1
        targets[:] = [c for c in all_chips if online[c]] or [
            c for c in all_chips if not parked[c]
        ]

    def reissue(time: float, client: int) -> None:
        """A closed-loop client thinks, then issues its next request."""
        if issued < num_requests:
            schedule(time + session.next_think_s(), ARRIVE, None, client)

    def drop(request: Request, time: float, reason: str, ledger_list: list) -> None:
        nonlocal outstanding
        queued.discard(request.index)
        ledger_list.append(
            DropRecord(
                index=request.index,
                time_s=time,
                reason=reason,
                attempts=attempts_of(request.index, 0),
            )
        )
        outstanding -= 1
        if closed:
            reissue(time, client_of.pop(request.index))

    def expired(request: Request, now: float) -> bool:
        return now > retry.deadline_of(request.arrival_s)

    def land(time: float, request: Request, arrival_order: int, queue: int) -> None:
        """The request joins its queue and arms its maturity timer."""
        nonlocal total_backlog, queue_peak
        heap = queues[queue]
        heappush(heap, (queue_key(request, arrival_order), arrival_order, request))
        heads[queue] = heap[0]
        total_backlog += 1
        load[queue] += 1
        if total_backlog > queue_peak:
            queue_peak = total_backlog
        if len(heap) > queue_peaks[queue]:
            queue_peaks[queue] = len(heap)
        queued.add(request.index)
        if timed_wait:
            # maturity is measured from the request's arrival: a retry or a
            # hop-delayed landing can already be mature when it is queued
            schedule(max(time, request.arrival_s + max_wait_s), TIMEOUT, request.index)
        schedule(time, DISPATCH)

    def idle_owner(queue: int) -> int | None:
        """The lowest-indexed idle dispatchable chip whose home is ``queue``."""
        for chip in owners[queue]:
            if idle[chip] and online[chip]:
                return chip
        return None

    def record(chip: int, info: tuple) -> None:
        """Write one batch row and its request rows."""
        members, queue, decided_s, dispatch_s, done_s, seq_len, energy, tier = info
        row = len(b_chip)
        b_chip.append(chip)
        ledger.b_queue.append(queue)
        ledger.b_decided.append(decided_s)
        ledger.b_dispatch.append(dispatch_s)
        ledger.b_completion.append(done_s)
        ledger.b_size.append(len(members))
        ledger.b_seq_len.append(seq_len)
        ledger.b_energy.append(energy)
        ledger.b_tier.append(tier)
        for r in members:
            req_index(r.index)
            req_arrival(r.arrival_s)
            req_batch(row)
            req_attempts(attempts_of(r.index, 0))
            req_slo(r.slo_class)
            req_deadline(r.deadline_s)

    def dispatch(time: float, force: bool) -> None:
        """Serve mature queue heads fleet-wide, oldest/most-urgent first.

        Each round picks the globally best mature head and serves it on an
        idle home chip, else — with stealing — on the lowest-indexed idle
        chip, which pays the steal hop.  ``force`` releases the first batch
        past a maturity check that float rounding may have stranded (set
        by a TIMEOUT whose request is still queued, where ``(arrival +
        max_wait) - arrival`` may round below ``max_wait``).
        """
        nonlocal total_backlog, num_idle
        while True:
            if shedding:
                # head-of-line deadline shedding: an expired head must not
                # mature a batch or burn chip time nobody is waiting for
                for q, heap in enumerate(queues):
                    while heap and expired(heap[0][2], time):
                        total_backlog -= 1
                        load[q] -= 1
                        drop(heappop(heap)[2], time, "deadline", shed)
                        heads[q] = heap[0] if heap else _LAST
            if num_idle == 0 or total_backlog == 0:
                return
            best, best_head = -1, _LAST
            for q, head in enumerate(heads):
                if not head < best_head:
                    continue
                if not stealing and idle_owner(q) is None:
                    continue  # without stealing only a home chip serves q
                if timed_wait and not (
                    force or batcher_ready(len(queues[q]), time - head[2].arrival_s)
                ):
                    continue  # not mature yet
                best, best_head = q, head
            if best < 0:
                return
            for chip in owners[best]:
                if idle[chip] and online[chip]:
                    dispatch_s = time
                    break
            else:  # steal: the lowest-indexed idle chip serves it
                chip = idle.index(True)
                if not online[chip]:
                    chip = next(c for c in all_chips if idle[c] and online[c])
                dispatch_s = time + steal_latency_s
            force = False
            heap = queues[best]
            take = batcher_batch_of(len(heap))
            if degraded_max_batch is not None and failed_count:
                take = min(take, degraded_max_batch)
            members: list[Request] = []
            queued_before = len(heap)
            while len(members) < take and heap:
                request = heappop(heap)[2]
                if shedding and expired(request, time):
                    drop(request, time, "deadline", shed)
                    continue
                members.append(request)
            total_backlog -= queued_before - len(heap)
            load[best] -= queued_before - len(heap)
            heads[best] = heap[0] if heap else _LAST
            if not members:
                continue  # everything popped was expired; re-evaluate
            queued.difference_update(r.index for r in members)
            seq_len = max(r.seq_len for r in members)
            service = batch_latency_s(chip, len(members), seq_len)
            # read before the chip's model (possibly shared) prices again
            tier = batch_tier(chip)
            energy = batch_energy_j(chip, len(members), seq_len)
            completion = dispatch_s + service
            chips.acquire(chip)
            num_idle -= 1
            chips.occupy(service)
            load[home[chip]] += len(members)
            info = (members, best, time, dispatch_s, completion, seq_len, energy, tier)
            inflight[chip] = info
            if not fault_aware:
                record(chip, info)
            schedule(completion, FREE, chip, info)

    if closed:
        for client in range(clients.num_clients):
            schedule(session.next_think_s(), ARRIVE, None, client)
    else:
        for request in ordered:
            schedule(request.arrival_s, ARRIVE, request)
    if faults is not None:
        for chip in range(num_chips):
            schedule(faults.time_to_failure_s(chip), FAIL, chip)
    if autoscaler is not None:
        for chip in range(autoscaler.initial(num_chips), num_chips):
            parked[chip] = True
            refresh(chip)
            awake_count -= 1
        schedule(autoscaler.interval_s, TICK)

    while loop:
        time, kind, data = loop.pop()
        if kind == ARRIVE:
            request = data[0]
            if request is None:  # a closed-loop client ends its think time
                if issued >= num_requests:
                    continue  # traffic quota reached: the client retires
                client = data[1]
                request = Request(
                    index=issued,
                    arrival_s=time,
                    seq_len=session.next_seq_len(),
                    slo_class=session.slo_class_of(client),
                    deadline_s=session.deadline_of(client),
                )
                client_of[issued] = client
                issued += 1
            if not admits(total_backlog):
                drop(request, time, "queue_full", shed)
                continue
            if router is None:
                land(time, request, order, 0)
            else:
                queue = route(request)
                hop = links[queue]
                route_network_s += hop
                if hop == 0.0:
                    # zero-latency link: land within the arrival event
                    # (no extra heap traffic)
                    land(time, request, order, queue)
                else:
                    inbound[queue] += 1
                    schedule(time + hop, HOP, request, order, queue)
            order += 1
        elif kind == DISPATCH:
            # force only if the matured request is *still* waiting now
            dispatch_calls += 1
            dispatch(time, bool(data) and data[0] in queued)
        elif kind == FREE:
            chip, info = data
            if inflight[chip] is not info:
                continue  # completion of a batch a failure already killed
            inflight[chip] = None
            if fault_aware:
                record(chip, info)
            members = info[0]
            load[home[chip]] -= len(members)
            chips.release(chip)
            num_idle += 1  # busy chips are never parked, failed ones never free
            outstanding -= len(members)
            if closed:
                for r in members:
                    reissue(time, client_of.pop(r.index))
            schedule(time, DISPATCH)
        elif kind == TIMEOUT:
            if data[0] in queued:
                schedule(time, DISPATCH, data[0])
        elif kind == HOP:
            inbound[data[2]] -= 1
            land(time, *data)
        elif kind == FAIL:
            chip = data[0]
            if outstanding == 0:
                continue  # traffic resolved: let the failure process die out
            failed[chip] = True
            failed_count += 1
            refresh(chip)
            repaired_s = time + faults.downtime_s(chip, fleet.reprogram_latency_s(chip))
            lost = 0
            wasted = 0.0
            info = inflight[chip]
            if info is not None:
                # the in-flight batch dies with the chip
                inflight[chip] = None
                chips.release(chip)
                members, _, _, dispatch_s, completion_s, _, energy, _ = info
                lost = len(members)
                load[home[chip]] -= lost
                service = completion_s - dispatch_s
                # a stolen batch may still be on its steal hop
                progress = (time - dispatch_s) / service if service > 0 else 1.0
                wasted = energy * max(0.0, progress)
                for request in members:
                    attempt = attempts_of(request.index, 0) + 1
                    attempts[request.index] = attempt
                    if attempt >= retry.max_attempts:
                        drop(request, time, "retries_exhausted", abandoned)
                        continue
                    reenqueue_s = time + retry.backoff_s(attempt, faults.jitter_rng)
                    if deadline_on and expired(request, reenqueue_s):
                        # deadline-aware backoff: a retry that cannot
                        # complete in time is abandoned, not queued
                        drop(request, time, "deadline", abandoned)
                        continue
                    ledger.retries.append(
                        RetryRecord(
                            index=request.index,
                            attempt=attempt,
                            failure_s=time,
                            reenqueue_s=reenqueue_s,
                        )
                    )
                    # a retry re-enters through the front end (re-routed
                    # when routing: the failed chip is offline)
                    schedule(reenqueue_s, ARRIVE, request)
            ledger.failures.append(
                FailureRecord(
                    chip=chip,
                    fail_s=time,
                    repaired_s=repaired_s,
                    lost_requests=lost,
                    wasted_energy_j=wasted,
                )
            )
            schedule(repaired_s, REPAIR, chip)
        elif kind == REPAIR:
            chip = data[0]
            failed[chip] = False
            failed_count -= 1
            refresh(chip)
            if outstanding > 0:
                schedule(time + faults.time_to_failure_s(chip), FAIL, chip)
                schedule(time, DISPATCH)
        elif kind == WAKE:
            chip = data[0]
            awake_accum += awake_count * (time - last_transition)
            last_transition = time
            awake_count += 1
            waking[chip] = False
            refresh(chip)
            schedule(time, DISPATCH)
        else:  # TICK
            if outstanding <= 0:
                continue  # traffic resolved: the controller stops
            awake_accum += awake_count * (time - last_transition)
            last_transition = time
            awake_delta = awake_accum - window_awake
            busy_delta = chips.busy_s - window_busy
            window_awake = awake_accum
            window_busy = chips.busy_s
            utilization = busy_delta / awake_delta if awake_delta > 0 else 0.0
            active = num_chips - sum(parked)
            delta = autoscaler.decide(utilization, total_backlog, active)
            if delta > 0:
                allowed = min(delta, autoscaler.bound(num_chips) - active)
                for chip in range(num_chips):
                    if allowed <= 0:
                        break
                    if not parked[chip]:
                        continue
                    # the sleep interval ends at the wake *decision*: the
                    # ramp is priced as wake energy, not sleep leakage
                    ledger.sleep_intervals[chip].append((sleep_start[chip], time))
                    parked[chip] = False
                    waking[chip] = True
                    refresh(chip)
                    ready = time + fleet.wake_latency_s(chip)
                    ledger.scale_events.append(
                        ScaleEvent(
                            chip=chip,
                            time_s=time,
                            action="wake",
                            ready_s=ready,
                            energy_j=fleet.wake_energy_j(chip),
                        )
                    )
                    schedule(ready, WAKE, chip)
                    allowed -= 1
            elif delta < 0:
                allowed = min(-delta, active - autoscaler.min_chips)
                # park from the top so low-indexed chips stay the stable core
                for chip in range(num_chips - 1, -1, -1):
                    if allowed <= 0:
                        break
                    if parked[chip] or waking[chip] or not idle[chip]:
                        continue  # never park a busy chip
                    if not stealing and (queues[home[chip]] or inbound[home[chip]]):
                        continue  # nobody else may serve its queued or inbound work
                    parked[chip] = True
                    refresh(chip)
                    awake_count -= 1
                    entry = fleet.sleep_entry_latency_s(chip)
                    ledger.scale_events.append(
                        ScaleEvent(
                            chip=chip,
                            time_s=time,
                            action="sleep",
                            ready_s=time + entry,
                        )
                    )
                    sleep_start[chip] = time + entry
                    allowed -= 1
            schedule(time + autoscaler.interval_s, TICK)

    for chip in range(num_chips):
        if parked[chip]:
            ledger.sleep_intervals[chip].append((sleep_start[chip], math.inf))
    ledger.queue_peak = queue_peak
    ledger.num_routed = order  # every admitted arrival is routed once
    ledger.route_network_s = route_network_s
    return ledger.report(simulator), loop, dispatch_calls


class ServingSimulator:
    """Event-driven executor of a request stream over a chip fleet.

    ``faults``, ``retry`` and ``admission`` are all optional; passing any
    of them makes the run fault-aware (``retry`` defaults to a stock
    :class:`~repro.serving.faults.RetryPolicy` and ``admission`` to
    :data:`~repro.serving.faults.NO_ADMISSION` there).  ``autoscaler``
    parks and wakes chips, ``router`` replaces the fleet-wide queue with
    per-chip queues; every combination runs on the same event loop.

    After every run :attr:`last_profile` holds the run's hot-path counters
    (events scheduled/popped, dispatch sweeps, wall time); when the global
    :data:`~repro.serving.profiling.PROFILER` is enabled the counters are
    also collected there.
    """

    def __init__(
        self,
        fleet: ChipFleet,
        batcher: DynamicBatcher = NO_BATCHING,
        faults: FaultInjector | None = None,
        retry: RetryPolicy | None = None,
        admission: AdmissionController | None = None,
        autoscaler=None,
        router=None,
    ) -> None:
        self.fleet = fleet
        self.batcher = batcher
        self.faults = faults
        self.retry = retry
        self.admission = admission
        self.autoscaler = autoscaler
        self.router = router
        self.last_profile: RunProfile | None = None

    @property
    def fault_aware(self) -> bool:
        """Whether this simulator runs the fault/shedding machinery."""
        return (
            self.faults is not None
            or self.retry is not None
            or self.admission is not None
        )

    def run(self, requests: Sequence[Request], label: str = "serving") -> ServingReport:
        """Serve every request and report the completed run.

        ``requests`` need not be sorted; they are served in arrival order
        (ties broken by the given order, which arrival generators emit by
        index).  ``label`` names the run in profiler output.
        """
        if not requests:
            raise ValueError("cannot simulate an empty request stream")
        ordered = sorted(requests, key=lambda r: r.arrival_s)
        return self._profiled(label, ordered=ordered)

    def run_closed_loop(
        self, clients: ClosedLoopClients, num_requests: int, label: str = "closed-loop"
    ) -> ServingReport:
        """Serve ``num_requests`` issued by closed-loop clients.

        Arrivals react to completions (think -> request -> completion ->
        think; a shed or abandoned request also sends its client back to
        thinking).  With a FIFO batcher, one chip and nothing else this is
        the plain machine-repair closed queue the theory module
        cross-validates.
        """
        require_positive(num_requests, "num_requests")
        return self._profiled(label, clients=clients, num_requests=num_requests)

    def _profiled(self, label: str, **traffic) -> ServingReport:
        """Run the loop and keep its profile in :attr:`last_profile`."""
        counters = _fleet_cache_counters(self.fleet)
        start = _time.perf_counter()
        report, loop, dispatch_calls = _serve(self, **traffic)
        wall_s = _time.perf_counter() - start
        deltas = [
            after - before
            for after, before in zip(_fleet_cache_counters(self.fleet), counters)
        ]
        routing = report.routing
        self.last_profile = RunProfile(
            label=label,
            events_scheduled=loop.events_scheduled,
            events_popped=loop.events_popped,
            dispatch_calls=dispatch_calls,
            num_requests=report.num_requests,
            num_batches=report.num_batches,
            wall_s=wall_s,
            pricing_hits=deltas[0],
            pricing_misses=deltas[1],
            template_hits=deltas[2],
            template_misses=deltas[3],
            analytic_batches=deltas[4],
            executed_batches=deltas[5],
            routed_requests=routing.num_routed if routing else 0,
            stolen_batches=routing.stolen_batches if routing else 0,
            peak_queue_depth=routing.peak_queue_depth if routing else 0,
        )
        PROFILER.record(self.last_profile)
        return report
