"""Shared per-job runtime state.

The :class:`JobContext` wires together the cluster, HDFS, the UCR runtime
(for the verbs-based engines), the map-completion event board, and the job
counters.  All actors (JobTracker, TaskTrackers, tasks, shuffle engines)
receive the same context.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.cluster.builder import Cluster
from repro.core.protocol import MapOutputMeta
from repro.hdfs.client import DFSClient
from repro.hdfs.namenode import NameNode
from repro.mapreduce.job import JobConf
from repro.network.transports import IB_VERBS, IPOIB
from repro.obs.phases import PhaseTracer
from repro.obs.registry import MetricsRegistry
from repro.sim.monitor import Counter
from repro.sim.resources import Store
from repro.ucr.runtime import UCRRuntime

if TYPE_CHECKING:  # pragma: no cover
    from repro.mapreduce.tasktracker import TaskTracker

__all__ = ["CompletionBoard", "JobContext"]


class CompletionBoard:
    """Publishes map-completion events to subscribed reducers.

    Matches the 0.20.2 mechanism: completions reach reducers via the
    TaskTracker heartbeat + the reducer's event poll, i.e. after a delay
    (``costs.map_completion_notify``).  Subscribers that join late receive
    all previously-published events immediately (they would have polled
    the backlog).
    """

    def __init__(self, ctx: "JobContext"):
        self.ctx = ctx
        self._published: list[MapOutputMeta] = []
        self._subscribers: list[Store] = []
        #: Fault recovery: ``fn(meta)`` hooks fired when a re-executed
        #: map's replacement output is announced (empty without faults).
        self._replacement_listeners: list = []
        #: Master recovery: bumped by :meth:`rebuild` so notification
        #: processes launched by a dead incarnation can't pollute the
        #: rebuilt backlog (stays 0 on journal-free runs).
        self._generation = 0

    def publish(self, meta: MapOutputMeta) -> None:
        delay = self.ctx.conf.costs.map_completion_notify
        self.ctx.sim.process(
            self._deliver(meta, delay, self._generation),
            name=f"notify:m{meta.map_id}",
        )

    def _deliver(self, meta: MapOutputMeta, delay: float, generation: int):
        yield self.ctx.sim.timeout(delay)
        if generation != self._generation:
            return  # board was rebuilt after a master crash; stale notify
        self._published.append(meta)
        for inbox in self._subscribers:
            inbox.put(meta)

    def republish(self, meta: MapOutputMeta) -> None:
        """Announce a *re-executed* map's new output (fault recovery).

        Unlike :meth:`publish` this does not feed subscriber inboxes —
        consumers already counted the map once; their collectors may have
        exited.  Instead the backlog entry is replaced (so late
        subscribers see only the current copy) and replacement listeners
        — live consumers with an in-flight FetchState for this map — are
        notified to re-point at the new host.
        """
        delay = self.ctx.conf.costs.map_completion_notify
        self.ctx.sim.process(
            self._redeliver(meta, delay, self._generation),
            name=f"renotify:m{meta.map_id}",
        )

    def _redeliver(self, meta: MapOutputMeta, delay: float, generation: int):
        yield self.ctx.sim.timeout(delay)
        if generation != self._generation:
            return  # board was rebuilt after a master crash; stale notify
        for i, old in enumerate(self._published):
            if old.map_id == meta.map_id:
                self._published[i] = meta
                break
        else:
            self._published.append(meta)
        for fn in list(self._replacement_listeners):
            fn(meta)

    def add_replacement_listener(self, fn) -> None:
        self._replacement_listeners.append(fn)

    def remove_replacement_listener(self, fn) -> None:
        if fn in self._replacement_listeners:
            self._replacement_listeners.remove(fn)

    def subscribe(self) -> Store:
        inbox = Store(self.ctx.sim, name="map-events")
        for meta in self._published:
            inbox.put(meta)
        self._subscribers.append(inbox)
        return inbox

    def rebuild(self, metas: list[MapOutputMeta]) -> None:
        """Master recovery: republish the backlog from surviving outputs.

        The recovered JobTracker's consumers subscribe afresh and receive
        exactly the surviving committed outputs; stale subscriber inboxes,
        replacement listeners, and in-flight notification processes of the
        dead incarnation are all dropped.
        """
        self._generation += 1
        self._published = sorted(metas, key=lambda m: m.map_id)
        self._subscribers = []
        self._replacement_listeners = []

    @property
    def published_count(self) -> int:
        return len(self._published)


class JobContext:
    """Everything one job run shares across its actors."""

    def __init__(self, cluster: Cluster, conf: JobConf):
        self.cluster = cluster
        self.sim = cluster.sim
        self.conf = conf
        self.rng = cluster.rng
        self.namenode = NameNode(
            [n.name for n in cluster.nodes], cluster.rng.stream("hdfs-placement")
        )
        self.dfs = DFSClient(cluster, self.namenode)
        #: Fault injection runtime (repro.faults); None for no plan or the
        #: empty plan — the same thing.  Each lifecycle has one code path,
        #: whose fault queries read ``faults is not None and …``, so the
        #: idle path stays event-for-event identical.
        self.faults = None
        if conf.fault_plan is not None and not conf.fault_plan.empty:
            from repro.faults import FaultInjector

            self.faults = FaultInjector(
                self.sim,
                cluster.rng,
                conf.fault_plan,
                [n.name for n in cluster.nodes],
            )
            # Degradation windows (NodeSlowdown / DiskSlowdown /
            # LinkDegrade) actuate inside the cluster/storage/network
            # layers; no-op unless the plan carries such entries.
            self.faults.bind(cluster)
        cluster.faults = self.faults
        #: UCR runtime for the verbs engines ("hadoopa", "rdma"); they run
        #: native IB verbs regardless of what transport vanilla traffic uses
        #: (in the paper they are only ever run on the IB cluster).  Under
        #: faults it gets the IPoIB fallback spec for graceful degradation
        #: after repeated verbs failures.
        self.ucr = UCRRuntime(
            self.sim,
            cluster.fabric.flows,
            IB_VERBS,
            fallback=IPOIB if self.faults is not None else None,
            faults=self.faults,
            downgrade_after=conf.verbs_downgrade_after,
        )
        self.counters = Counter()
        #: JobTracker installs its fetch-failure report handler here.
        self.fetch_failure_handler = None
        #: Structured phase tracing (repro.obs): spans from tasks/engines.
        self.tracer = PhaseTracer(enabled=conf.phase_tracing)
        #: End-to-end checksum verification + corruption recovery +
        #: quarantine (repro.integrity); None unless integrity_checksums
        #: is on or the fault plan carries corruption entries.  Same
        #: contract as ``faults``: every hook is behind an
        #: ``is not None`` check, the idle path is untouched.
        self.integrity = None
        if conf.integrity_active:
            from repro.integrity import IntegrityManager

            self.integrity = IntegrityManager(
                self.sim,
                cluster.rng,
                conf.fault_plan,
                [n.name for n in cluster.nodes],
                quarantine_threshold=conf.quarantine_threshold,
                quarantine_min_failures=conf.quarantine_min_failures,
                tracer=self.tracer,
            )
            #: Quarantined nodes drop out of NameNode replica placement.
            self.namenode.health_filter = self.integrity.quarantined
        cluster.integrity = self.integrity
        #: Closed-loop shuffle control plane (repro.control); None unless
        #: control_interval is set.  Same contract as ``faults`` and
        #: ``integrity``: every hook is behind an ``is not None`` check,
        #: knob-free runs stay event-for-event identical.
        self.control = None
        if conf.control_active:
            from repro.control import ControlPlane

            self.control = ControlPlane(self)
        #: LATE-style speculative execution (repro.mapreduce.speculation);
        #: None unless a ``speculative_*`` knob is on.  Same contract as
        #: the other optional subsystems: every hook is behind an
        #: ``is not None`` check, knob-free runs stay bit-identical.
        self.speculation = None
        if conf.speculation_active:
            from repro.mapreduce.speculation import Speculator

            self.speculation = Speculator(self)
        #: Write-ahead job journal + lease/fencing state (repro.mapreduce
        #: .journal); None unless master_journal is on or the fault plan
        #: carries master entries.  Same contract as the other optional
        #: subsystems: every hook is behind an ``is not None`` check,
        #: knob-free runs stay bit-identical.
        self.journal = None
        if conf.master_active:
            from repro.mapreduce.journal import JobJournal

            self.journal = JobJournal(self)
        #: Federated metrics tree; actors register their collectors here
        #: (job counters now, cache stats and disks as they come up).
        self.metrics = MetricsRegistry()
        self.metrics.register("job", self.counters)
        if self.integrity is not None:
            # integrity.* appears only when the layer is active (no new
            # keys on knob-free BENCH exports).
            self.metrics.register("integrity", self.integrity)
        if self.control is not None:
            # control.* appears only when the controller is armed.
            self.metrics.register("control", self.control.metrics_snapshot)
        if self.speculation is not None:
            # speculation.* appears only when a speculative knob is set.
            self.metrics.register("speculation", self.speculation.metrics_snapshot)
        if self.journal is not None:
            # journal.* appears only when the master-resilience layer runs.
            self.metrics.register("journal", self.journal.counters)
        if self.faults is not None:
            # faults.* and ucr.* appear in the metrics tree only when a
            # plan is active (no new keys on fault-free BENCH exports).
            self.metrics.register("faults", self.faults.counters)
            self.metrics.register("ucr", self.ucr.fault_metrics)
            self.faults.start()
        if conf.ucr_tracing:
            # Per-send UCR spans + endpoint queue-depth gauges; ucr.net.*
            # appears in the metrics tree only when the knob is set.
            self.ucr.enable_tracing(self.tracer)
            self.metrics.register("ucr.net", self.ucr.net_metrics)
        #: Flow-network re-rating / wake-hygiene counters (fabric shared by
        #: socket transports and the UCR verbs engines alike).
        self.metrics.register("net", cluster.fabric)
        #: Event-kernel throughput counters (lazily evaluated at collect
        #: time, so the end-of-job snapshot sees the final totals).
        self.metrics.register(
            "sim",
            lambda: {
                "events": float(self.sim.event_count),
                "queue_size": float(self.sim.queue_size),
            },
        )
        self.board = CompletionBoard(self)
        self.trackers: dict[str, "TaskTracker"] = {}
        #: map_id -> MapOutputMeta, filled as maps complete.  Entries are
        #: *removed* when a fault report invalidates a lost output.
        self.map_outputs: dict[int, MapOutputMeta] = {}
        #: Distinct maps that ever committed (survives invalidation).
        self._ever_completed: set[int] = set()
        self.completed_maps = 0
        self.first_map_start: float | None = None
        self.last_map_end: float = 0.0
        #: Task attempt spans for timeline tooling (repro.tools.timeline).
        self.spans: list[Any] = []

    # -- helpers used throughout the actors --------------------------------

    @property
    def n_maps(self) -> int:
        return self.conf.n_maps

    def jitter(self, stream: str) -> float:
        """A deterministic per-task multiplicative jitter factor."""
        j = self.conf.costs.cpu_jitter
        if j <= 0:
            return 1.0
        return float(1.0 + self.rng.stream(stream).uniform(-j, j))

    def record_map_completion(self, meta: MapOutputMeta) -> None:
        first_commit = meta.map_id not in self._ever_completed
        self.map_outputs[meta.map_id] = meta
        self.last_map_end = self.sim.now
        if self.journal is not None:
            self.journal.append(
                "map_committed",
                map_id=meta.map_id,
                host=meta.host,
                nbytes=meta.total_bytes,
            )
        if first_commit:
            self._ever_completed.add(meta.map_id)
            self.completed_maps += 1
            self.board.publish(meta)
        else:
            # A re-executed map replacing a lost output: completed_maps
            # counts distinct maps, and live consumers learn the new host
            # through the replacement channel, not their inboxes.
            self.board.republish(meta)

    def report_fetch_failure(self, meta: MapOutputMeta) -> None:
        """A reducer gave up fetching this map output; ask for re-execution."""
        if self.fetch_failure_handler is not None:
            self.fetch_failure_handler(meta)

    def rebuild_completions(self, metas: list[MapOutputMeta]) -> None:
        """Master recovery: reset completion truth to the surviving outputs.

        ``completed_maps``/``_ever_completed`` restart from the survivors
        (a map whose only output died with its node is no longer
        complete), and the board backlog is republished so the recovered
        incarnation's reducers see exactly the surviving set.
        """
        self.map_outputs = {m.map_id: m for m in metas}
        self._ever_completed = set(self.map_outputs)
        self.completed_maps = len(self.map_outputs)
        self.board.rebuild(metas)

    # -- memory sizing ---------------------------------------------------------

    def shuffle_buffer_bytes(self) -> float:
        """Reduce-side shuffle memory (heap * input buffer percent)."""
        return self.conf.costs.task_heap_bytes * self.conf.shuffle_input_buffer_percent

    def cache_capacity_bytes(self, node: Any) -> float:
        """PrefetchCache capacity on one node: free RAM after task heaps.

        §III-B.3: "Depending on heap size availability it can limit the
        amount of data to be cached" — the 24 GB storage nodes end up with
        a much larger cache than the 12 GB compute nodes, which is the
        mechanism behind Figure 5's commentary.
        """
        heaps = (self.conf.map_slots + self.conf.reduce_slots) * (
            self.conf.costs.task_heap_bytes
        )
        return max(0.0, node.usable_ram_bytes - heaps)
