"""Shared machinery for the verbs-based streaming-merge engines.

Both Hadoop-A and OSU-IB keep shuffle data on the map side until the
reducer's streaming merge consumes it ("network-levitated" merge): the
reducer holds only bounded per-run buffers, merges with the priority-queue
protocol (modelled at aggregate granularity by
:class:`~repro.core.virtualmerge.VirtualMerger`), and feeds reduce through
a FIFO.  This module implements that common skeleton; the two engines
differ in the policy methods:

* **packetisation** — how a segment is cut into messages (size-aware vs.
  fixed pairs-per-packet), which sets the *minimum fetch granularity*;
* **eagerness** — OSU-IB copiers stream packets as soon as each map
  completes (push), Hadoop-A pulls on merge demand once all segments are
  known;
* **TaskTracker service** — cache-first (OSU-IB) vs. disk-per-fetch
  (Hadoop-A).

**Staging fallback**: when the per-run minimum fetch times the number of
runs cannot fit in half the shuffle buffer, the merge cannot hold every
run's head simultaneously.  Overflowing runs are *staged*: fetched
entirely to local disk and re-read during the merge.  For OSU-IB's
128 KB size-aware packets this is essentially never triggered; for
Hadoop-A on Sort (fixed 1310 pairs x ~10.5 KB pairs => ~14 MB minimum
messages) it is the norm — which is the structural reason Hadoop-A loses
to plain IPoIB on the Sort benchmark (paper §IV-C) and recovers on SSD
(Figure 7).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Generator
from dataclasses import dataclass
from itertools import islice
from typing import TYPE_CHECKING, Any

from repro.core.packets import Packetizer
from repro.core.protocol import DataRequest, MapOutputMeta
from repro.core.virtualmerge import VirtualMerger
from repro.faults import FaultError
from repro.mapreduce.shuffle.base import ShuffleConsumer, ShuffleProvider
from repro.sim.core import Event
from repro.sim.resources import Store

if TYPE_CHECKING:  # pragma: no cover
    from repro.mapreduce.context import JobContext
    from repro.mapreduce.tasktracker import TaskTracker

__all__ = ["QueueingProvider", "StreamingConsumer", "FetchState"]

#: Response header accompanying every data message.
RESPONSE_HEADER_BYTES = 96


class QueueingProvider(ShuffleProvider):
    """TaskTracker side: request queue + responder thread pool.

    This is the paper's RDMAReceiver -> DataRequestQueue -> RDMAResponder
    structure; Hadoop-A's responder differs only in lacking the cache
    lookup (its DataEngine reads from disk for every request).
    """

    def __init__(self, ctx: "JobContext", tt: "TaskTracker"):
        super().__init__(ctx, tt)
        #: The DataRequestQueue (§III-B.1).
        self.data_request_queue = Store(ctx.sim, name=f"{tt.name}.reqq")
        #: Admission control: beyond this backlog depth incoming requests
        #: are parked instead of enqueued (0 = unlimited, the default).
        self._queue_limit = int(ctx.conf.responder_queue_limit)
        self._parked_requests: deque[tuple[DataRequest, Event, Any]] = deque()
        self.bytes_served = 0.0
        # Per-serve constants: the packet planner and the record model.
        self._plan = self.packetizer().plan
        model = ctx.conf.record_model
        self._avg_pair_bytes = model.avg_pair_bytes
        self._max_pair_bytes = model.max_pair_bytes
        for i in range(self.responder_threads()):
            ctx.sim.process(self._responder(), name=f"{tt.name}-responder{i}")

    # -- policy hooks ------------------------------------------------------

    def responder_threads(self) -> int:
        raise NotImplementedError

    def packetizer(self) -> Packetizer:
        raise NotImplementedError

    def fetch_payload(
        self, req: DataRequest, meta: MapOutputMeta, file: Any, take: float
    ) -> Generator[Event, Any, bool]:
        """Bring ``take`` bytes of the segment into send buffers.

        Returns True when the bytes were already memory-resident (cache
        hit); the base implementation always reads from disk.
        """
        yield from self.tt.node.fs.read(
            file,
            take,
            stream_id=f"serve-m{req.map_id}-r{req.reduce_id}",
            priority=0.0,
        )
        self.ctx.counters.add("shuffle.tt_disk_read_bytes", take)
        return False

    def after_serve(
        self, req: DataRequest, meta: MapOutputMeta, eof: bool, cached: bool = False
    ) -> None:
        """Hook after a response is sent, or its send failed (cache upkeep).

        ``cached`` reports whether :meth:`fetch_payload` served this
        response from memory — the engine that pinned the segment for the
        duration of the send uses it to release that pin.  A failed send
        passes ``eof=False``.
        """

    # -- request handling ----------------------------------------------------

    def submit(self, req: DataRequest, done: Event, requester_node: Any) -> None:
        """RDMAReceiver: enqueue an incoming request.

        With admission control enabled (``responder_queue_limit``),
        requests beyond the configured DataRequestQueue depth are parked
        and re-admitted one-for-one as responders drain the backlog, so a
        flood of copiers cannot grow the queue without bound.
        """
        if self._queue_limit > 0 and len(self.data_request_queue) >= self._queue_limit:
            self._parked_requests.append((req, done, requester_node))
            self.ctx.counters.add("shuffle.backpressure.deferred_requests", 1)
            return
        self.data_request_queue.put((req, done, requester_node))

    def backlog(self) -> float:
        """Responder pressure: requests admitted plus requests parked."""
        return float(len(self.data_request_queue) + len(self._parked_requests))

    def _admit_parked(self) -> None:
        """A responder freed a queue slot: admit deferred requests."""
        while self._parked_requests and (
            len(self.data_request_queue) < max(1, self._queue_limit)
        ):
            self.data_request_queue.put(self._parked_requests.popleft())

    def _responder(self) -> Generator[Event, Any, None]:
        while True:
            req, done, requester = yield self.data_request_queue.get()
            if self._parked_requests:
                self._admit_parked()
            yield from self._serve(req, done, requester)

    def _serve(
        self, req: DataRequest, done: Event, requester: Any
    ) -> Generator[Event, Any, None]:
        """RDMAResponder: answer one DataRequest through ``done``.

        The shared serve checks run with the empty-range return between
        the lookup and the segment draws.  Any failure, a check's or the
        send's, is delivered *through* ``done`` (the requester's retry
        loop handles it); the event is pre-defused so a cancelled
        requester doesn't turn the refusal into an unhandled failure.
        Without a fault plan none of them can happen.
        """
        ctx = self.ctx
        cached = False
        try:
            if ctx.faults is not None:
                yield from self._serve_gate(requester)
            meta, file = self._map_output(req.map_id)
            seg_bytes, _seg_pairs = meta.segment(req.reduce_id)
            take = max(0.0, min(req.max_bytes, seg_bytes - req.offset))
            if take <= 0:
                done.succeed(0.0)
                return
            integ = ctx.integrity
            if ctx.faults is not None or integ is not None:
                self._segment_faults(file, req.map_id)
            cached = yield from self.fetch_payload(req, meta, file, take)
            if integ is not None:
                if cached:
                    integ.settle_serve(self.tt.name, file.name)
                else:
                    self._verify_read(file, take, req.map_id)
            avg_pair = self._avg_pair_bytes
            pairs = max(1, int(round(take / avg_pair)))
            plan = self._plan(take, pairs, avg_pair, self._max_pair_bytes)
            if not ctx.ucr.is_connected(self.tt.node, requester):
                # The pair may have been torn down by a flap since the
                # requester connected; pay re-establishment.
                yield from ctx.ucr.connect(self.tt.node, requester)
            yield from ctx.ucr.endpoint(self.tt.node, requester).send(
                take + RESPONSE_HEADER_BYTES * max(1, plan.n_packets),
                messages=max(1, plan.n_packets),
            )
        except FaultError as exc:
            if cached:
                # Release the pin of a cache hit whose send failed.
                self.after_serve(req, meta, False, cached=True)
            done.fail(exc).defuse()
            return
        self.bytes_served += take
        ctx.counters.add("shuffle.bytes", take)
        eof = req.offset + take >= seg_bytes
        self.after_serve(req, meta, eof, cached=cached)
        done.succeed(take)


@dataclass
class FetchState:
    """Per-(map, this-reducer) fetch progress."""

    meta: MapOutputMeta
    seg_bytes: float
    seg_pairs: int
    offset: float = 0.0
    in_flight: bool = False
    #: Overflow runs are staged to local disk before the merge.
    staged: bool = False
    staged_done: bool = False
    staged_file: Any = None
    restore_offset: float = 0.0
    #: Spill bookkeeping: offset at which a run was demoted to disk (bytes
    #: before it were merged from memory; the staged file holds the rest),
    #: and whether its spill file was folded into a multi-pass merge.
    stage_base: float = 0.0
    compacted: bool = False
    seqno: int = 0
    #: Scheduler bookkeeping: present in the eager work queue / fully done.
    queued: bool = False
    done: bool = False
    #: Fault recovery: consecutive failed fetches of this run, whether the
    #: output was reported lost (run parked until a replacement arrives),
    #: and how many replacement outputs this state has been re-pointed at.
    failures: int = 0
    lost: bool = False
    generation: int = 0

    @property
    def fetch_remaining(self) -> float:
        return max(0.0, self.seg_bytes - self.offset)


class StreamingConsumer(ShuffleConsumer):
    """Reducer side: copiers + VirtualMerger + pipelined merge/reduce."""

    def __init__(
        self, ctx: "JobContext", tt: "TaskTracker", reduce_id: int, attempt: int = 0
    ):
        super().__init__(ctx, tt, reduce_id, attempt)
        sim = ctx.sim
        # The shuffle buffer (``capacity``) is enforced through per-run
        # fetch targets (sum of targets <= capacity) rather than a blocking
        # reservation, which keeps the fetch/merge loop deadlock-free by
        # construction.
        self.vm = VirtualMerger(expected_runs=ctx.n_maps)
        self.states: dict[int, FetchState] = {}
        self._levitated_budget = self.capacity / 2.0
        self._staging_active = 0
        self._progress = Event(sim)
        # O(1) fetch scheduling: states with possible eager work sit in the
        # work queue; states at their read-ahead target are parked until the
        # merge frontier advances; a counter tracks not-yet-finished runs.
        self._work_queue: deque[FetchState] = deque()
        self._parked: list[FetchState] = []
        self._undone = 0
        self._staged_pending = 0  # staged runs not yet fully on local disk
        #: Replacement metas that arrived before the collector created the
        #: corresponding FetchState (late subscriber race; faults only).
        self._pending_replacements: dict[int, MapOutputMeta] = {}
        # -- flow control & memory pressure (inert with the knobs unset) ----
        conf = ctx.conf
        #: Spill mode: in-memory deliveries are admitted against the
        #: shuffle-memory budget; runs that cannot fit demote to disk.
        self._spill_enabled = conf.shuffle_spill_threshold > 0
        self._spill_bytes = conf.shuffle_spill_threshold * self.capacity
        #: Level at which a paused credit gate stops re-granting credits.
        self._pressure_bytes = (
            self._spill_bytes if self._spill_enabled else 0.5 * self.capacity
        )
        #: Bytes reserved by in-flight in-memory fetches (admitted before
        #: the first yield, so concurrent fetchers cannot double-admit).
        self._inflight_mem = 0.0
        self._spill_seq = 0  # distinct pass-file names for disk merges
        # -- per-consumer constants of the fetch scheduler --------------------
        #: How many of the lowest-coverage runs ``_pick`` considers.
        self._bottleneck_k = 2 * self.fetch_threads()
        #: ``_wave_for`` terms that depend only on the conf.
        self._per_run_share = self.capacity / (2.0 * max(1, ctx.n_maps))
        self._wave_ceiling = min(
            self.wave_cap_bytes(), self.capacity / (2.0 * self.fetch_threads())
        )

    # -- policy hooks ----------------------------------------------------------

    def eager(self) -> bool:
        """Fetch before all maps are declared (push) or only after (pull)."""
        raise NotImplementedError

    def fetch_threads(self) -> int:
        raise NotImplementedError

    def min_fetch_bytes(self, state: FetchState) -> float:
        """Smallest message the engine's packetisation can request."""
        raise NotImplementedError

    def wave_cap_bytes(self) -> float:
        """Upper bound on one fetch batch."""
        raise NotImplementedError

    def buffer_waves(self) -> float:
        """Read-ahead depth per run, in waves (1 = no double buffering)."""
        raise NotImplementedError

    def packets_in(self, nbytes: float) -> float:
        """RDMA-tuned packets (Hadoop-A overrides with its fixed pairs)."""
        return max(1.0, -(-nbytes // self.ctx.conf.rdma_packet_bytes))

    # -- control-plane actuators (repro.control) --------------------------------

    def _apply_spill_threshold(self, fraction: float) -> bool:
        """Move the spill line (and the gate-pause line riding on it).

        Only an armed spill machinery is retuned — the controller never
        switches on a mode the job didn't configure.
        """
        if not self._spill_enabled or self.capacity <= 0:
            return False
        new_bytes = fraction * self.capacity
        if abs(new_bytes - self._spill_bytes) < 1.0:
            return False
        self._spill_bytes = new_bytes
        self._pressure_bytes = new_bytes
        # A raised line may unblock fetchers parked on _mem_stall().
        self._signal()
        return True

    def _shuffled_bytes(self) -> float:
        """Fetch progress straight from the per-map stream offsets."""
        return sum(s.offset for s in self.states.values())

    def control_signals(self) -> dict[str, float]:
        if self.capacity <= 0:
            return {}
        signals = {
            "mem_frac": self._mem_in_use() / self.capacity,
            "spill_frac": (
                self._spill_bytes / self.capacity if self._spill_enabled else 0.0
            ),
        }
        if self._credit_gate is not None:
            signals["credits"] = float(self._credit_gate.credits)
            signals["gate_paused"] = 1.0 if self._credit_gate.paused else 0.0
        known = sum(s.seg_bytes for s in self.states.values())
        if known > 0 and self.ctx.n_maps > 0:
            # Runs not yet announced are sized at the mean of the known
            # ones; good enough for the migration-profitability guard.
            est_total = known * (self.ctx.n_maps / len(self.states))
            fetched = sum(s.offset for s in self.states.values())
            signals["shuffle_progress"] = min(1.0, fetched / est_total)
        return signals

    # -- lifecycle ----------------------------------------------------------------

    def _reduce(self, inbox: Store) -> Generator[Event, Any, None]:
        collector = self._spawn(
            self._collector(inbox), name=f"r{self.reduce_id}-collector"
        )
        fetchers = [
            self._spawn(self._fetcher(), name=f"r{self.reduce_id}-fetch{i}")
            for i in range(self.fetch_threads())
        ]
        pipeline = self._spawn(self._pipeline(), name=f"r{self.reduce_id}-pipeline")
        yield self._gather_on([collector, *fetchers, pipeline])
        # reduce.completed is counted by the JobTracker at commit time
        # (commit-once: a losing speculative attempt that finishes its
        # pipeline must not count).

    def _on_replacement(self, meta: MapOutputMeta) -> None:
        """A re-executed map's new output is available: re-point its run.

        Fetch progress (``offset``) is preserved — partitioning is
        deterministic, so the replacement output is byte-identical and
        the remainder resumes where the lost copy left off.
        """
        state = self.states.get(meta.map_id)
        if state is None:
            self._pending_replacements[meta.map_id] = meta
            return
        if state.done:
            return
        state.meta = meta
        state.lost = False
        state.failures = 0
        state.generation += 1
        self._enqueue(state)
        self._signal()

    # -- signalling -------------------------------------------------------------

    def _signal(self) -> None:
        ev, self._progress = self._progress, Event(self.ctx.sim)
        ev.succeed()

    def _wait_progress(self) -> Event:
        return self._progress

    # -- collection (Map Completion Fetcher) ---------------------------------------

    def _collector(self, inbox: Store) -> Generator[Event, Any, None]:
        remaining = self.ctx.n_maps
        while remaining > 0:
            meta: MapOutputMeta = yield inbox.get()
            seg_bytes, seg_pairs = meta.segment(self.reduce_id)
            state = FetchState(meta=meta, seg_bytes=seg_bytes, seg_pairs=seg_pairs)
            # Staging decision: a run is levitated while its minimum fetch
            # granularity still fits the levitation budget.
            need = self.min_fetch_bytes(state)
            if seg_bytes > 0 and need <= self._levitated_budget:
                self._levitated_budget -= need
            elif seg_bytes > 0:
                state.staged = True
                self._staged_pending += 1
                self.ctx.counters.add("reduce.staged_runs", 1)
            self.states[meta.map_id] = state
            if self._pending_replacements:
                # A replacement beat this (late-subscribing) collector to
                # the punch; start straight from the current copy.
                newer = self._pending_replacements.pop(meta.map_id, None)
                if newer is not None:
                    state.meta = newer
                    state.generation += 1
            self.vm.add_run(meta.map_id, seg_bytes)
            if self._has_work(state):
                self._undone += 1
                self._enqueue(state)
            else:
                state.done = True
            remaining -= 1
            self._signal()

    # -- fetching ------------------------------------------------------------------

    def _all_fetched(self) -> bool:
        return self.vm.all_declared and self._undone == 0

    def _enqueue(self, state: FetchState) -> None:
        if not state.queued and not state.done and not state.in_flight:
            state.queued = True
            self._work_queue.append(state)

    def _unpark_all(self) -> None:
        """Frontier advanced: parked runs may have read-ahead room again."""
        if not self._parked:
            return
        parked, self._parked = self._parked, []
        for state in parked:
            self._enqueue(state)

    def _settle_state(self, state: FetchState) -> None:
        """Update done-accounting after working on a run."""
        if not state.done and not self._has_work(state):
            state.done = True
            self._undone -= 1

    def _pick(self) -> FetchState | None:
        """Choose the next run to work on.

        Priority: (1) merge-bottleneck runs (lowest coverage — the paper's
        "get next set of key-value pairs from that particular map");
        (2) when eager/read-ahead is allowed, the next queued run below
        its read-ahead target.  All transitions are O(1) amortised.
        """
        vm = self.vm
        if vm.all_declared:
            states = self.states
            for _cov, run_id in islice(vm.by_coverage, self._bottleneck_k):
                state = states[run_id]
                if not state.in_flight and not state.lost and self._has_work(state):
                    return state
        if not self.eager() and not vm.all_declared:
            return None
        while self._work_queue:
            state = self._work_queue.popleft()
            state.queued = False
            if state.in_flight or state.done or not self._has_work(state):
                continue
            if state.lost:
                # Parked until the replacement output is republished
                # (_on_replacement re-enqueues it).
                continue
            if state.staged and not state.staged_done:
                return state
            target = self.buffer_waves() * self._wave_for(state)
            if vm.buffered_of(state.meta.map_id) < target:
                return state
            self._parked.append(state)  # at target: wait for the frontier
        return None

    def _has_work(self, state: FetchState) -> bool:
        if state.seg_bytes <= 0:
            return False
        if state.staged:
            if not state.staged_done:
                return True
            return state.restore_offset < state.seg_bytes
        return state.fetch_remaining > 0

    def _wave_for(self, state: FetchState) -> float:
        wave = max(self.min_fetch_bytes(state), self._per_run_share)
        # The wave cap, and never let a handful of threads reserve the
        # whole buffer.
        wave = min(wave, self._wave_ceiling)
        return max(1.0, min(wave, state.seg_bytes))

    # -- memory admission (spill mode) -----------------------------------------

    def _mem_in_use(self) -> float:
        """Shuffle-buffer bytes currently committed (buffered + in flight)."""
        return self.vm.buffered_bytes() + self._inflight_mem

    def _note_mem(self) -> None:
        in_use = self.vm.buffered_bytes() + self._inflight_mem
        if in_use > self._mem_hwm:
            self._mem_hwm = in_use

    def _admit_mem(self, state: FetchState, wave: float, floor: float) -> float:
        """How many of ``wave`` bytes may enter the merge buffers right now.

        In-memory deliveries are admitted up to the spill threshold; a run
        at the merge frontier (nothing buffered — the merge is waiting on
        it) may dip into the remaining headroom up to the full buffer
        capacity so the frontier always advances.  Returns 0 when not even
        ``floor`` bytes fit — the caller demotes the run to disk or parks
        until the merge drains.
        """
        in_use = self._mem_in_use()
        starving = (
            self.vm.all_declared and self.vm.buffered_of(state.meta.map_id) <= 0
        )
        limit = self.capacity if starving else self._spill_bytes
        allowed = limit - in_use
        if wave <= allowed:
            return wave
        floor = min(floor, wave)
        if allowed >= floor:
            return allowed
        # Liveness valve: with nothing in flight and nothing drainable,
        # waiting cannot free memory — force minimum forward progress.
        if self._inflight_mem <= 0 and self.vm.drainable_bytes() <= 0:
            return floor
        return 0.0

    def _mem_stall(self) -> Generator[Event, Any, None]:
        """Budget exhausted: park this fetcher until the merge drains.

        A stalled wave made no progress, so the fetcher loop must not
        broadcast ``_signal()`` for it — two stalled fetchers would wake
        each other in an infinite same-instant ping-pong otherwise (the
        wave generators return False to say so).
        """
        ctx = self.ctx
        ctx.counters.add("shuffle.backpressure.mem_stalls", 1)
        t0 = ctx.sim.now
        yield self._wait_progress()
        if ctx.sim.now > t0:
            ctx.counters.add(
                "shuffle.backpressure.mem_stall_seconds", ctx.sim.now - t0
            )
            ctx.tracer.record(
                f"reduce-{self.reduce_id}", "bp-wait", t0, ctx.sim.now, 0.0
            )

    def _demote(self, state: FetchState) -> None:
        """Memory budget exhausted: convert a levitated run to disk staging.

        The in-memory prefix (``offset`` bytes) was already merged; the
        remainder is fetched straight to a local spill file and re-read
        during the merge, exactly like a statically staged overflow run.
        """
        state.staged = True
        state.stage_base = state.offset
        state.restore_offset = state.offset
        self._staged_pending += 1
        ctx = self.ctx
        ctx.counters.add("shuffle.spill.runs", 1)
        ctx.counters.add("shuffle.spill.bytes", state.fetch_remaining)
        # The run no longer holds a levitated head buffer.
        self._levitated_budget += self.min_fetch_bytes(state)
        # Pressure coupling: the co-located TaskTracker can shed
        # low-priority prefetched segments this node's RAM now needs.
        provider = self.tt.provider
        if provider is not None:
            provider.on_memory_pressure(state.fetch_remaining)

    def _maybe_compact_spills(self) -> Generator[Event, Any, None]:
        """Multi-pass on-disk merge of spill files (io.sort.factor).

        Hadoop's disk-merge trigger: once ``2*F - 1`` fully staged,
        not-yet-restored spill files accumulate, merge the ``F`` smallest
        into one sorted pass file so the restore phase never interleaves
        reads from more than ~``F`` spill files.
        """
        conf = self.ctx.conf
        if not self._spill_enabled and conf.merge_factor <= 0:
            return
        factor = max(2, conf.effective_merge_factor)
        while True:
            candidates = [
                s
                for s in self.states.values()
                if s.staged
                and s.staged_done
                and not s.in_flight
                and not s.compacted
                and s.restore_offset <= s.stage_base
                and s.seg_bytes - s.stage_base > 0
            ]
            if len(candidates) < 2 * factor - 1:
                return
            candidates.sort(key=lambda s: s.seg_bytes - s.stage_base)
            victims = candidates[:factor]
            for s in victims:
                s.in_flight = True
            self._spill_seq += 1
            pass_file = self.node.fs.create(
                f"staged/r{self.reduce_id}a{self.attempt}/pass{self._spill_seq}"
            )
            total = 0.0
            t0 = self.ctx.sim.now
            try:
                for s in victims:
                    nbytes = s.seg_bytes - s.stage_base
                    yield from self.node.fs.read(
                        s.staged_file,
                        nbytes,
                        stream_id=f"spillmerge-r{self.reduce_id}",
                    )
                    total += nbytes
                yield from self.node.compute(
                    conf.costs.cpu_seconds("merge", total) * self.jitter
                )
                yield from self.node.fs.write(
                    pass_file, total, stream_id=f"spillmerge-r{self.reduce_id}"
                )
                for s in victims:
                    s.staged_file = pass_file
                    s.compacted = True
            finally:
                for s in victims:
                    s.in_flight = False
            self.ctx.counters.add("shuffle.spill.merge_passes", 1)
            self.ctx.counters.add("shuffle.spill.merge_bytes", total)
            self.ctx.tracer.record(
                f"reduce-{self.reduce_id}", "spill-merge", t0, self.ctx.sim.now, total
            )
            self._signal()

    def _fetcher(self) -> Generator[Event, Any, None]:
        while True:
            if self.aborted:
                return  # the reduce attempt died; stop generating load
            state = self._pick()
            if state is None:
                if self._all_fetched():
                    return
                yield self._wait_progress()
                continue
            state.in_flight = True
            progressed = True
            try:
                if state.staged and not state.staged_done:
                    yield from self._stage_run(state)
                elif state.staged:
                    progressed = yield from self._restore_wave(state)
                else:
                    progressed = yield from self._fetch_wave(state)
            finally:
                state.in_flight = False
            self._settle_state(state)
            self._enqueue(state)
            if progressed:
                self._signal()

    def _fetch_wave(self, state: FetchState) -> Generator[Event, Any, bool]:
        """One network fetch batch for a levitated run.

        Returns False when the wave stalled without making progress (the
        fetcher loop then skips the progress broadcast).
        """
        wave = min(self._wave_for(state), state.fetch_remaining)
        if self._spill_enabled:
            wave = self._admit_mem(state, wave, self.min_fetch_bytes(state))
            if wave <= 0:
                starving = (
                    self.vm.all_declared
                    and self.vm.buffered_of(state.meta.map_id) <= 0
                )
                if starving:
                    # The merge is waiting on this very run; demoting it
                    # would only delay the frontier by a staging pass.
                    yield from self._mem_stall()
                    return False
                self._demote(state)
                return True  # state changed: staging must be scheduled
        # Receiver-driven flow control must never block the merge frontier:
        # a run the merge is starving on is the only thing that can free
        # memory (by letting the pipeline drain), so it always gets a
        # credit — pausing it would deadlock the resume path.
        use_credit = self._credit_gate is not None and not (
            self.vm.all_declared and self.vm.buffered_of(state.meta.map_id) <= 0
        )
        if use_credit:
            yield from self._credit_gate.acquire()
        t0 = self.ctx.sim.now
        self._inflight_mem += wave
        self._note_mem()
        got = 0.0
        try:
            got = yield from self._request(state, wave)
            state.offset += got
            self.vm.feed(state.meta.map_id, got)
        finally:
            self._inflight_mem -= wave
            if self._credit_gate is not None:
                if self._mem_in_use() >= self._pressure_bytes:
                    self._credit_gate.pause()
                if use_credit:
                    self._credit_gate.release()
        self.ctx.tracer.record(
            f"reduce-{self.reduce_id}", "shuffle", t0, self.ctx.sim.now, got
        )
        return True

    def _request(
        self, state: FetchState, nbytes: float
    ) -> Generator[Event, Any, float]:
        """RDMACopier: one exchange, with the shared recovery.

        A reported run is marked lost and returns 0 bytes; it stays parked
        until :meth:`_on_replacement` re-points it.  Without a fault plan
        nothing fails, and this is one raw exchange.
        """
        ctx = self.ctx
        while True:
            if ctx.faults is not None:
                self._check_own_node()
            if state.lost:
                return 0.0  # parked until the replacement arrives
            host = state.meta.host
            wait = self._penalty_remaining(host)
            if wait > 0:
                yield ctx.sim.timeout(wait)
                continue  # re-check: the host may have been replaced
            try:
                got = yield from self._request_once(state, nbytes)
            except FaultError as exc:
                state.failures += 1
                if not (yield from self._retry_or_report(exc, host, state.failures)):
                    continue
                if not state.lost:
                    state.lost = True
                    self._report_lost(state.meta)
                return 0.0
            self._note_fetch_success(host)
            state.failures = 0
            return got

    def _request_once(
        self, state: FetchState, nbytes: float
    ) -> Generator[Event, Any, float]:
        """One raw request/response exchange (no recovery)."""
        ctx = self.ctx
        tt_node = ctx.cluster.node(state.meta.host)
        if not ctx.ucr.is_connected(self.node, tt_node):
            yield from ctx.ucr.connect(self.node, tt_node)
        t0 = ctx.sim.now
        while True:
            state.seqno += 1
            req = DataRequest(
                job_id=ctx.conf.job_id,
                map_id=state.meta.map_id,
                reduce_id=self.reduce_id,
                offset=state.offset,
                max_bytes=nbytes,
                seqno=state.seqno,
            )
            yield from ctx.ucr.endpoint(self.node, tt_node).send(req.serialized_size())
            done = Event(ctx.sim)
            provider = ctx.trackers[state.meta.host].provider
            assert isinstance(provider, QueueingProvider)
            provider.submit(req, done, self.node)
            got = yield done
            # Verify-on-receive: a corrupted exchange re-requests the same
            # range from the source TaskTracker.
            if (
                ctx.integrity is None
                or got <= 0
                or not self._receive_corrupted(state.meta.host, got, state.meta.map_id)
            ):
                break
        if ctx.conf.ucr_tracing:
            # Pure network/service wait for this exchange, distinct from
            # the "shuffle" span (which includes admission + bookkeeping):
            # lets the overlap report split network wait from merge CPU.
            ctx.tracer.record(
                f"reduce-{self.reduce_id}", "net-wait", t0, ctx.sim.now, float(got)
            )
        return float(got)

    # -- staging (overflow fallback) ---------------------------------------------

    def _stage_run(self, state: FetchState) -> Generator[Event, Any, None]:
        """Fetch a whole overflow segment to local disk before the merge."""
        self._staging_active += 1
        t0 = self.ctx.sim.now
        try:
            if state.staged_file is None:
                # (A fault-interrupted staging pass resumes into the same
                # file at the preserved offset.)
                state.staged_file = self.node.fs.create(
                    f"staged/r{self.reduce_id}a{self.attempt}/m{state.meta.map_id}"
                )
            buf = min(state.seg_bytes, self.wave_cap_bytes())
            while state.fetch_remaining > 0:
                step = min(buf, state.fetch_remaining)
                got = yield from self._request(state, step)
                if got <= 0:
                    break  # run reported lost; resume after the republish
                state.offset += got
                yield from self.node.fs.write(
                    state.staged_file,
                    got,
                    stream_id=f"stage-r{self.reduce_id}",
                )
            if state.fetch_remaining > 0:
                return  # staging paused; a later pass finishes the run
            state.staged_done = True
            self._staged_pending -= 1
            staged = state.seg_bytes - state.stage_base
            self.ctx.counters.add("reduce.staged_bytes", staged)
            self.ctx.tracer.record(
                f"reduce-{self.reduce_id}",
                "shuffle",
                t0,
                self.ctx.sim.now,
                staged,
            )
            yield from self._maybe_compact_spills()
        finally:
            self._staging_active -= 1

    def _restore_wave(self, state: FetchState) -> Generator[Event, Any, bool]:
        """Feed the merge from a staged run's local disk copy.

        Returns False when the wave stalled on the memory budget.
        """
        remaining = state.seg_bytes - state.restore_offset
        wave = min(self._wave_for(state), remaining)
        if wave <= 0:
            return True
        if self._spill_enabled:
            wave = self._admit_mem(state, wave, min(remaining, 65536.0))
            if wave <= 0:
                yield from self._mem_stall()
                return False
        t0 = self.ctx.sim.now
        self._inflight_mem += wave
        self._note_mem()
        try:
            yield from self.node.fs.read(
                state.staged_file,
                wave,
                stream_id=f"restore-r{self.reduce_id}-m{state.meta.map_id}",
            )
            if self.ctx.integrity is not None:
                # Verify-on-read for staged shuffle data on our own disks;
                # a flipped wave is simply re-read (transient by model).
                while self.ctx.integrity.local_read_flipped(
                    self.node.name, state.staged_file, wave
                ):
                    self.ctx.integrity.note_reread()
                    yield from self.node.fs.read(
                        state.staged_file,
                        wave,
                        stream_id=f"restore-r{self.reduce_id}-m{state.meta.map_id}",
                    )
            state.restore_offset += wave
            self.vm.feed(state.meta.map_id, wave)
        finally:
            self._inflight_mem -= wave
        self.ctx.counters.add("reduce.restored_bytes", wave)
        self.ctx.tracer.record(
            f"reduce-{self.reduce_id}", "restore", t0, self.ctx.sim.now, wave
        )
        return True

    # -- merge + reduce pipeline ------------------------------------------------------

    def merge_gate_open(self) -> bool:
        """Whether extraction may begin (engines add barriers here)."""
        return True

    def _pipeline(self) -> Generator[Event, Any, None]:
        sim = self.ctx.sim
        conf = self.ctx.conf
        cost = conf.costs
        while True:
            if not self.merge_gate_open():
                yield self._wait_progress()
                continue
            drained = self.vm.drain(conf.reduce_flush_bytes)
            if drained <= 0:
                if self.vm.exhausted:
                    break
                if self._credit_gate is not None and self._credit_gate.paused:
                    # The merge is stalled waiting for data: withholding
                    # credits can only prolong the stall — re-open the
                    # window so parked fetchers can feed the frontier.
                    self._credit_gate.resume()
                yield self._wait_progress()
                continue
            self._unpark_all()
            if (
                self._credit_gate is not None
                and self._credit_gate.paused
                and self._mem_in_use() < self._pressure_bytes
            ):
                self._credit_gate.resume()
            self._signal()  # frontier advanced: fetchers may re-target
            t0 = sim.now
            yield from self.node.compute(
                cost.cpu_seconds("merge", drained) * self.jitter
            )
            self.ctx.tracer.record(
                f"reduce-{self.reduce_id}", "merge", t0, sim.now, drained
            )
            yield from self.reduce_and_write(drained, self.jitter)
