"""Shuffle engine interfaces and shared reducer plumbing.

An engine contributes two halves:

* a :class:`ShuffleProvider` per TaskTracker — serves map-output segments
  to requesting reducers (HTTP servlets / Hadoop-A responders / OSU-IB's
  RDMAListener-Receiver-Responder stack);
* a :class:`ShuffleConsumer` per ReduceTask — fetches, merges, reduces,
  and writes the output.  The consumer owns the *whole* reduce lifecycle
  because the overlap structure (Figure 3) is exactly what differs
  between the designs.

The fetch-failure protocol (which checks a serve makes, which faults are
retried and which reported) is decided here once for every engine.
"""

from __future__ import annotations

from collections.abc import Generator
from typing import TYPE_CHECKING, Any

from repro.core.protocol import MapOutputMeta
from repro.faults import FaultError
from repro.mapreduce.maptask import TaskFailure
from repro.sim.core import Event
from repro.sim.resources import Container

if TYPE_CHECKING:  # pragma: no cover
    from repro.mapreduce.context import JobContext
    from repro.mapreduce.tasktracker import TaskTracker
    from repro.storage.localfs import LocalFile

__all__ = [
    "ENGINES",
    "CreditGate",
    "ShuffleConsumer",
    "ShuffleProvider",
    "engine_by_name",
]


class CreditGate:
    """Credit-based receive window for one reducer (flow control).

    Modelled on MPICH2-over-IB's credit scheme (Liu et al.): the receiver
    grants the sender a fixed window of outstanding messages; each
    in-memory fetch consumes one credit and completing it normally grants
    the credit back.  While the gate is **paused** (the reducer's merge is
    stalled on memory pressure) completed fetches *withhold* their grants,
    so the window shrinks toward zero until the merge drains and
    :meth:`resume` re-grants the withheld credits.

    Disk-bound transfers (spill staging) are deliberately not gated: they
    are the relief valve for the very pressure that pauses the gate, and
    gating them would deadlock the spill path.
    """

    def __init__(self, ctx: "JobContext", owner: str, credits: int):
        if credits < 1:
            raise ValueError(f"need at least one credit, got {credits}")
        self.ctx = ctx
        self.owner = owner
        self.credits = credits
        self._tokens = Container(ctx.sim, capacity=credits, init=credits)
        self._paused = False
        self._withheld = 0
        #: Credits destroyed by a shrinking resize() that were in flight
        #: at the time: future releases are absorbed instead of granted
        #: until the window has drained down to the new size.
        self._deficit = 0

    def acquire(self) -> Generator[Event, Any, None]:
        """Take one credit, waiting (and counting the stall) when dry."""
        ctx = self.ctx
        if self._tokens.try_get(1.0):
            return
        ctx.counters.add("shuffle.backpressure.credit_waits", 1)
        t0 = ctx.sim.now
        yield self._tokens.get(1.0)
        wait = ctx.sim.now - t0
        if wait > 0:
            ctx.counters.add("shuffle.backpressure.credit_wait_seconds", wait)
            ctx.tracer.record(self.owner, "bp-wait", t0, ctx.sim.now, 0.0)

    def release(self) -> None:
        """Grant the credit back — or withhold it while paused."""
        if self._deficit > 0:
            # A shrink is still draining: this credit is destroyed, not
            # granted (re-minting it would undo the resize).
            self._deficit -= 1
            return
        if self._paused:
            self._withheld += 1
            self.ctx.counters.add("shuffle.backpressure.credits_withheld", 1)
        else:
            self._tokens.put(1.0)

    def resize(self, credits: int) -> bool:
        """Retarget the window to ``credits`` outstanding messages.

        The control plane's actuator.  Growing mints the extra credits
        immediately; shrinking never claws back credits held by in-flight
        fetches — it eats free tokens now and absorbs future releases
        into a deficit until the window has drained to the new size.
        Returns whether the target changed.
        """
        credits = int(credits)
        if credits < 1 or credits == self.credits:
            return False
        delta = credits - self.credits
        self.credits = credits
        if delta > 0:
            # Cancel any outstanding shrink debt before minting anew.
            settle = min(self._deficit, delta)
            self._deficit -= settle
            delta -= settle
            if delta > 0:
                self._tokens.capacity = max(
                    self._tokens.capacity, float(credits)
                )
                self._tokens.put(float(delta))
        else:
            shortfall = -delta
            while shortfall > 0 and self._tokens.try_get(1.0):
                shortfall -= 1
            self._deficit += shortfall
        return True

    def pause(self) -> None:
        """Merge stalled: stop granting credits back to the senders."""
        self._paused = True

    def resume(self) -> None:
        """Merge drained: re-grant every credit withheld while paused."""
        if not self._paused:
            return
        self._paused = False
        while self._withheld > 0:
            self._withheld -= 1
            if self._deficit > 0:
                self._deficit -= 1
            else:
                self._tokens.put(1.0)

    @property
    def paused(self) -> bool:
        return self._paused


class ShuffleProvider:
    """TaskTracker-side segment server (one per TaskTracker)."""

    def __init__(self, ctx: "JobContext", tt: "TaskTracker"):
        self.ctx = ctx
        self.tt = tt

    def on_map_output(self, meta: MapOutputMeta, file: "LocalFile") -> None:
        """Hook invoked when a local map task publishes its output."""

    def on_output_lost(self, meta: MapOutputMeta) -> None:
        """Hook invoked when a local map output is invalidated.

        The JobTracker calls this (via TaskTracker.invalidate_map_output)
        when a fetch-failure report condemns this output; engines drop any
        derived state (e.g. cached segments) here.
        """

    def on_memory_pressure(self, nbytes: float) -> None:
        """Hook invoked when a co-located reducer hits its memory budget.

        A reducer that spills a run to disk is out of RAM on this node;
        engines holding node memory (e.g. the OSU-IB PrefetchCache) shed
        roughly ``nbytes`` of low-priority state here.  Default: no-op.
        """

    def on_quarantine(self) -> None:
        """Hook invoked when this tracker lands on the integrity quarantine
        list (repeated checksum failures).  Engines drop speculative state
        whose integrity is now suspect (cached segments).  Default: no-op.
        """

    def backlog(self) -> float:
        """Serve-side queue depth: requests admitted or parked but not yet
        answered.  The control plane steers reduce placement away from
        trackers whose responders are drowning.  Default: nothing queues.
        """
        return 0.0

    # -- the serve checks (shared by all engines) ------------------------------
    #
    # Each raises FaultError for a doomed serve; the engine decides only
    # the order.  The generator gate runs only under a fault plan and the
    # segment draws only when faults or integrity are armed, so a
    # knob-free serve pays neither.

    def _serve_gate(self, requester: Any) -> Generator[Event, Any, None]:
        """Wait out a responder stall, then refuse a dead server or a
        downed path (call only under a fault plan)."""
        faults = self.ctx.faults
        name = self.tt.name
        stall = faults.stall_penalty(name)
        if stall > 0:
            # Hung service threads: requests queued behind the stall are
            # simply served late, the consumer just waits longer.
            yield self.ctx.sim.timeout(stall)
        if faults.node_dead(name):
            raise FaultError("crash", name)
        if faults.path_down(name, requester.name):
            raise FaultError("link", f"{name}<->{requester.name}")

    def _map_output(self, map_id: int) -> tuple[MapOutputMeta, "LocalFile"]:
        """The served map output; ``lost`` once it has been condemned."""
        entry = self.tt.map_outputs.get(map_id)
        if entry is None:
            raise FaultError("lost", f"map {map_id}")
        return entry

    def _segment_faults(self, file: "LocalFile", map_id: int) -> None:
        """Draw this serve's segment fault, then its disk read error."""
        ctx = self.ctx
        integ = ctx.integrity
        if integ is not None:
            kind = integ.segment_serve_fault(self.tt.name, file.name)
            if kind is not None:
                raise FaultError(kind, f"map {map_id} segment")
        faults = ctx.faults
        if faults is not None and faults.disk_read_fails(self.tt.name):
            if integ is not None:
                integ.note_disk_error(self.tt.name)
            raise FaultError("disk", f"map {map_id} spill read")

    def _verify_read(self, file: "LocalFile", nbytes: float, map_id: int) -> None:
        """Verify-on-read of a disk-served segment (integrity only)."""
        status = self.ctx.integrity.check_segment_read(self.tt.name, file, nbytes)
        if status == "persistent":
            # The canonical on-disk output is rotten: no retry can help,
            # the consumer reports it for condemnation.
            raise FaultError("corrupt", f"map {map_id} on-disk output")
        if status == "transient":
            raise FaultError("checksum", f"map {map_id} segment read")


class ShuffleConsumer:
    """ReduceTask-side shuffle + merge + reduce pipeline (one per reducer)."""

    def __init__(
        self, ctx: "JobContext", tt: "TaskTracker", reduce_id: int, attempt: int = 0
    ):
        self.ctx = ctx
        self.tt = tt
        self.node = tt.node
        self.reduce_id = reduce_id
        self.attempt = attempt
        # Attempt-scoped output name (Hadoop's _temporary attempt dirs).
        self.output_file = f"output/part-{reduce_id:05d}.a{attempt}"
        self.bytes_reduced = 0.0
        #: Segment bytes fetched so far; feeds :meth:`progress` (engines
        #: either accumulate here or override :meth:`_shuffled_bytes`).
        self.shuffled_bytes = 0.0
        # Fault injection: decide up front whether this attempt dies and
        # after how much reduced output (paper §VI future work).
        self._fail_after_bytes = float("inf")
        conf = ctx.conf
        if ctx.faults is not None:
            self._fail_after_bytes = ctx.faults.task_fail_at(
                "reduce", reduce_id, attempt, conf.data_bytes / conf.n_reduces
            )
        #: Reduce-side shuffle memory and this attempt's CPU jitter.
        self.capacity = ctx.shuffle_buffer_bytes()
        self.jitter = ctx.jitter(f"reduce-{reduce_id}")
        self.aborted = False
        #: Child processes (fetchers/copiers/mergers) spawned via _spawn,
        #: so a crashed attempt can be torn down with cancel().
        self._children: list[Any] = []
        # Per-host fetch failure streaks and penalty-box deadlines
        # (Hadoop's copier penalty box); only touched under faults.
        self._host_failures: dict[str, int] = {}
        self._penalty_until: dict[str, float] = {}
        self._retry_jitter: Any = None
        #: Receive window, armed by ``recv_credits`` (None = ungated).
        self._credit_gate = (
            CreditGate(ctx, f"reduce-{reduce_id}", conf.recv_credits)
            if conf.recv_credits > 0
            else None
        )
        #: Peak shuffle-buffer bytes in use (reported under backpressure).
        self._mem_hwm = 0.0
        #: The all_of this consumer's run() is currently gathered on; a
        #: cancelled attempt defuses it (its waiter is gone, and the
        #: interrupted children would otherwise fail it unhandled).
        self._gather: Any = None

    # -- engine entry point -------------------------------------------------

    def run(self) -> Generator[Event, Any, None]:
        """Full reduce lifecycle; drive with the simulator.

        Under a fault plan the attempt hears of republished map outputs
        (:meth:`_on_replacement`) for as long as it runs.
        """
        ctx = self.ctx
        if ctx.faults is not None:
            ctx.board.add_replacement_listener(self._on_replacement)
        try:
            yield from self._reduce(ctx.board.subscribe())
        finally:
            if ctx.faults is not None:
                ctx.board.remove_replacement_listener(self._on_replacement)
        if ctx.conf.backpressure_active:
            ctx.counters.peak("shuffle.mem.high_water_bytes", self._mem_hwm)

    def _reduce(self, inbox: Any) -> Generator[Event, Any, None]:
        """Engine body: shuffle ``inbox``'s map outputs, merge, reduce."""
        raise NotImplementedError

    def _on_replacement(self, meta: MapOutputMeta) -> None:
        """A re-executed map's replacement output has been published."""
        raise NotImplementedError

    # -- fault recovery (shared by all engines) -------------------------------

    def _spawn(self, gen: Generator, name: str) -> Any:
        """sim.process plus child bookkeeping for cancel()."""
        proc = self.ctx.sim.process(gen, name=name)
        self._children.append(proc)
        return proc

    def _gather_on(self, events: list) -> Event:
        """all_of over child processes, tracked so cancel() can defuse it."""
        cond = self.ctx.sim.all_of(events)
        self._gather = cond
        return cond

    def cancel(self, cause: str = "reduce attempt cancelled") -> None:
        """Tear down a doomed attempt (its node crashed, or it lost a race).

        Interrupts every live child process and marks the consumer
        aborted.  Failures of cancelled children are defused — nothing
        will wait on them once the attempt is abandoned.
        """
        self.aborted = True
        if self._gather is not None:
            # run()'s waiter is torn down with the attempt; the children we
            # interrupt below would fail this condition with nobody left to
            # catch it.  Defuse even a gather that already failed: the
            # interrupt below detaches run()'s resume callback before the
            # gather's failure event pops, leaving it waiterless.
            self._gather.defuse()
        active = self.ctx.sim.active_process
        for proc in self._children:
            if proc is active:
                continue
            if proc.is_alive:
                proc.interrupt(cause)
            # Defuse dead children too: a child that already failed in
            # this same timestep (e.g. a copier noticing its node died
            # the instant it spawned) has a failure event in flight that
            # nothing will wait on once the attempt is abandoned.
            proc.defuse()

    def _penalty_remaining(self, host: str) -> float:
        """Seconds until ``host`` leaves the penalty box (0 when out)."""
        until = self._penalty_until.get(host)
        if until is None:
            return 0.0
        return max(0.0, until - self.ctx.sim.now)

    def _note_fetch_success(self, host: str) -> None:
        """Decay ``host``'s penalty state after one good fetch.

        The failure streak is *halved*, not cleared: a host alternating
        failure and success keeps accumulating history and still lands in
        the penalty box, instead of resetting to a clean slate each time
        (which let a flapping host dodge the box for the whole job).  An
        active box deadline is lifted outright — the host demonstrably
        serves again, so making new fetches wait out a stale sentence
        only drags the tail.
        """
        streak = self._host_failures.get(host)
        if streak is not None:
            streak //= 2
            if streak > 0:
                self._host_failures[host] = streak
            else:
                del self._host_failures[host]
        until = self._penalty_until.pop(host, None)
        if until is not None and until > self.ctx.sim.now:
            self.ctx.counters.add("shuffle.retry.penalty_cleared", 1)

    def _fetch_backoff(self, host: str) -> float:
        """Record one failed fetch from ``host``; return the back-off delay.

        Exponential back-off with deterministic jitter; every
        ``penalty_box_after`` consecutive failures the host is boxed for
        ``penalty_box_secs`` (new fetches to it wait the box out first).
        """
        ctx = self.ctx
        conf = ctx.conf
        ctx.counters.add("shuffle.retry.attempts", 1)
        streak = self._host_failures.get(host, 0) + 1
        self._host_failures[host] = streak
        delay = min(
            conf.fetch_backoff_max, conf.fetch_backoff_base * (2.0 ** (streak - 1))
        )
        if self._retry_jitter is None:
            self._retry_jitter = ctx.rng.stream(f"fetch-backoff-r{self.reduce_id}")
        delay *= 0.5 + float(self._retry_jitter.uniform())  # jitter in [0.5, 1.5)
        if streak >= conf.penalty_box_after and streak % conf.penalty_box_after == 0:
            self._penalty_until[host] = ctx.sim.now + conf.penalty_box_secs
            ctx.counters.add("shuffle.retry.penalty_boxed", 1)
            if ctx.journal is not None:
                # Journaled so a recovered master re-learns which hosts
                # its reducers had boxed (observability across failover).
                ctx.journal.append("penalty_box", reduce_id=self.reduce_id, host=host)
        ctx.counters.add("shuffle.retry.backoff_seconds", delay)
        return delay

    def _check_own_node(self) -> None:
        """Our own node died: the whole reduce attempt fails."""
        if self.ctx.faults.node_dead(self.node.name):
            raise TaskFailure(f"reduce-{self.reduce_id}", self.attempt)

    def _retry_or_report(
        self, exc: FaultError, host: str, failures: int
    ) -> Generator[Event, Any, bool]:
        """Decide one failed fetch from ``host``, the ``failures``-th in a row.

        Rotten on-disk output (``corrupt``) is reported at once: retrying
        re-reads the same bad bytes.  Any other kind backs off; at
        ``fetch_retry_limit`` failures the output is reported, otherwise
        the fetcher sleeps the back-off and retries.  Returns True when
        the caller must report the output lost (:meth:`_report_lost`).
        """
        if exc.kind == "corrupt":
            return True
        ctx = self.ctx
        t0 = ctx.sim.now
        delay = self._fetch_backoff(host)
        if failures >= ctx.conf.fetch_retry_limit:
            return True
        yield ctx.sim.timeout(delay)
        ctx.tracer.record(f"reduce-{self.reduce_id}", "retry", t0, ctx.sim.now, 0.0)
        return False

    def _report_lost(self, meta: MapOutputMeta) -> None:
        """Report ``meta`` unfetchable; the JobTracker re-executes its map."""
        self.ctx.counters.add("shuffle.retry.reports", 1)
        self.ctx.report_fetch_failure(meta)

    def packets_in(self, nbytes: float) -> float:
        """Packets one exchange of ``nbytes`` rides in (integrity's wire
        model: per-packet corruption compounds over the exchange)."""
        raise NotImplementedError

    def _receive_corrupted(self, host: str, got: float, map_id: int) -> bool:
        """Verify-on-receive (integrity only); a corrupted exchange counts
        a refetch, and the caller re-requests it."""
        integ = self.ctx.integrity
        if not integ.wire_corrupted(
            host, self.node.name, self.packets_in(got), (map_id, self.reduce_id)
        ):
            return False
        integ.note_refetch()
        return True

    # -- control-plane actuators (repro.control) ------------------------------

    def retune(
        self,
        recv_credits: int | None = None,
        spill_threshold: float | None = None,
    ) -> dict[str, float]:
        """Mid-job knob adjustment from the control plane.

        Returns the changes that actually took effect — empty when
        nothing did (the gate was never armed, or the engine has no
        spill machinery to move).
        """
        applied: dict[str, float] = {}
        if recv_credits is not None and self._credit_gate is not None:
            if self._credit_gate.resize(int(recv_credits)):
                applied["recv_credits"] = float(int(recv_credits))
        if spill_threshold is not None:
            if self._apply_spill_threshold(float(spill_threshold)):
                applied["spill_threshold"] = round(float(spill_threshold), 6)
        return applied

    def _apply_spill_threshold(self, fraction: float) -> bool:
        """Engine hook: move the spill/merge trigger to ``fraction`` of
        the shuffle buffer.  Default: this engine has no such trigger.
        """
        return False

    def control_signals(self) -> dict[str, float]:
        """Pressure gauges the control plane reads each tick.

        Empty (the default) means this consumer exposes nothing to
        retune.  Engines report at least ``mem_frac`` (buffered bytes as
        a fraction of the shuffle buffer); ``spill_frac``, ``credits``
        and ``gate_paused`` when the corresponding machinery is armed.
        """
        return {}

    # -- progress estimation (LATE speculation) -------------------------------

    def _shuffled_bytes(self) -> float:
        """Engine hook: bytes fetched so far (default: the accumulator)."""
        return self.shuffled_bytes

    def progress(self) -> float:
        """Attempt progress in [0, 1) for the LATE speculator.

        Weighted over the reduce sub-phases the way Hadoop's ReduceTask
        reports: shuffle counts double (copy + the sort/merge it feeds),
        the reduce/write phase once.  Capped below 1.0 — a live attempt is
        never "done" until it actually commits.
        """
        expected = self.ctx.conf.data_bytes / max(1, self.ctx.conf.n_reduces)
        if expected <= 0:
            return 0.0
        shuffle = min(1.0, self._shuffled_bytes() / expected)
        reduced = min(1.0, self.bytes_reduced / expected)
        return min(0.99, (2.0 * shuffle + reduced) / 3.0)

    # -- shared helpers -------------------------------------------------------

    def _output_stream_id(self) -> str:
        return f"redout-r{self.reduce_id}"

    def reduce_and_write(
        self, nbytes: float, jitter: float
    ) -> Generator[Event, Any, None]:
        """Apply the reduce function to ``nbytes`` and append it to HDFS.

        The identity reduce of TeraSort/Sort: reduce CPU + the replicated
        output write.
        """
        if nbytes <= 0:
            return
        if self.bytes_reduced >= self._fail_after_bytes:
            self.aborted = True
            self.ctx.counters.add("reduce.failed_attempts", 1)
            raise TaskFailure(f"reduce-{self.reduce_id}", self.attempt)
        cost = self.ctx.conf.costs
        t0 = self.ctx.sim.now
        yield from self.node.compute(cost.cpu_seconds("reduce", nbytes) * jitter)
        yield from self.ctx.dfs.write_file_part(
            self.node,
            self.output_file,
            nbytes,
            replication=self.ctx.conf.output_replication,
            stream_id=self._output_stream_id(),
        )
        self.bytes_reduced += nbytes
        self.ctx.counters.add("reduce.output_bytes", nbytes)
        self.ctx.tracer.record(
            f"reduce-{self.reduce_id}", "reduce", t0, self.ctx.sim.now, nbytes
        )


def engine_by_name(name: str) -> tuple[type[ShuffleProvider], type[ShuffleConsumer]]:
    """Resolve an engine name to its (provider, consumer) classes."""
    # Imported here to avoid a cycle (engines import this module).
    from repro.mapreduce.shuffle.hadoopa import HadoopAConsumer, HadoopAProvider
    from repro.mapreduce.shuffle.http import HttpShuffleConsumer, HttpShuffleProvider
    from repro.mapreduce.shuffle.rdma import RdmaShuffleConsumer, RdmaShuffleProvider

    engines: dict[str, tuple[type[ShuffleProvider], type[ShuffleConsumer]]] = {
        "http": (HttpShuffleProvider, HttpShuffleConsumer),
        "hadoopa": (HadoopAProvider, HadoopAConsumer),
        "rdma": (RdmaShuffleProvider, RdmaShuffleConsumer),
    }
    pair = engines.get(name)
    if pair is None:
        raise KeyError(f"unknown shuffle engine {name!r}; known: {sorted(engines)}")
    return pair


#: Names of the available engines (for experiment sweeps).
ENGINES = ("http", "hadoopa", "rdma")
