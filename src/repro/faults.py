"""Deterministic fault injection (node crashes, link flaps, disk errors).

The paper's OSU-IB design replaces Hadoop's HTTP shuffle — and with it the
battle-tested fetch-failure machinery (copier backoff, penalty boxes,
fetch-failure reports that re-execute maps).  To ask "does the RDMA
advantage survive a flaky fabric?" the simulation needs failure as a
first-class, *measurable* axis: a :class:`FaultPlan` is a seeded schedule
of faults, and a :class:`FaultInjector` is its per-job runtime attached to
the cluster (``ctx.faults``) when ``JobConf.fault_plan`` is set.

Fault kinds
-----------
* :class:`NodeCrash` — the node goes away permanently: its TaskTracker
  stops serving, running attempts there are lost, completed map outputs
  hosted there become unfetchable (discovered lazily through fetch-failure
  reports, as in Hadoop).
* :class:`LinkFlap` — the node's NIC/port is down for a window: sends to
  or from it fail, UCR endpoints are torn down and must pay
  re-establishment.
* :class:`ResponderStall` — shuffle service threads on the node hang for
  a window (GC pause / overloaded DataEngine); requests are served after
  the window, not failed.
* ``disk_error_rate`` — each provider-side segment read fails with this
  probability (drawn from a per-node named ``sim.rng`` stream, so runs
  stay reproducible bit-for-bit and faults are attributable to a disk).
* ``map_failure_rate`` / ``reduce_failure_rate`` — each task attempt dies
  partway through with this probability (one named stream per attempt,
  ``mapfail-…`` / ``redfail-…``).  A failed attempt burns one of the
  task's ``max_task_attempts``; a crash or a lost race only kills it.
* :class:`DiskCorruption` / :class:`WireCorruption` /
  :class:`SegmentFault` — *silent* data-plane corruption (flipped bits
  on disk reads, write-time rot, per-packet wire corruption, truncated
  or stale served segments).  Unlike the hard faults above these do not
  fail the operation; they poison its result, and only the
  :mod:`repro.integrity` checksum layer notices and recovers.
* :class:`NodeSlowdown` / :class:`LinkDegrade` / :class:`DiskSlowdown` —
  *degradation* faults: nothing fails, the node just gets slow.  CPU
  service times stretch, NIC capacity is cut without the port flapping,
  disk requests take longer.  These are the straggler generators the
  LATE speculator (:mod:`repro.mapreduce.speculation`) exists to defeat;
  no retry or checksum machinery ever notices them.
* :class:`MasterCrash` / :class:`MasterStall` — *control-plane* faults:
  the JobTracker process itself dies (or hangs for a window) mid-job.
  These entries name no cluster node — the master is not a DataNode —
  and are driven by the :class:`repro.mapreduce.journal.MasterSupervisor`
  rather than the injector's timeline processes, because killing the
  master means interrupting the very scheduler the injector would
  otherwise report to.  Recovery (journal replay, lease fencing,
  TaskTracker re-registration) lives in :mod:`repro.mapreduce.journal`.

Everything is deterministic: plan times are fixed simulation timestamps
and the only randomness (disk errors, task failures) comes from the
cluster's seeded stream family.  "No faults" is the empty plan: no
injector is instantiated, every fault query in the stack sits behind a
``ctx.faults is not None`` guard, and the run stays event-for-event
identical.  A node crash reaches running work through the crash hooks
(:meth:`FaultInjector.on_crash`): the JobTracker interrupts the attempts
on the dead node with cause ``"node-crash"``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from repro.sim.core import Simulator
from repro.sim.monitor import Counter

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.rng import RandomStreams

__all__ = [
    "DiskCorruption",
    "DiskSlowdown",
    "FaultError",
    "FaultInjector",
    "FaultPlan",
    "LinkDegrade",
    "LinkFlap",
    "MasterCrash",
    "MasterStall",
    "NodeCrash",
    "NodeSlowdown",
    "ResponderStall",
    "SegmentFault",
    "WireCorruption",
    "named_plan",
    "seeded_corruption_plan",
    "seeded_fault_plan",
    "seeded_master_plan",
    "seeded_slowdown_plan",
    "standard_corruption_plan",
    "standard_fault_plan",
    "standard_master_plan",
    "standard_slowdown_plan",
]


class FaultError(Exception):
    """An injected failure surfacing on a fetch/send path.

    ``kind`` is one of ``"crash"`` (the serving node is dead), ``"link"``
    (a flap window covers one endpoint), ``"disk"`` (segment read error),
    ``"lost"`` (the requested map output was invalidated),
    ``"checksum"`` (transient verification mismatch; a retry re-reads),
    ``"truncated"`` / ``"stale"`` (the responder served a short or
    outdated segment), or ``"corrupt"`` (the canonical on-disk output is
    rotten — retries cannot help, the map must be re-executed).
    """

    def __init__(self, kind: str, detail: str = ""):
        super().__init__(f"{kind}: {detail}" if detail else kind)
        self.kind = kind


@dataclass(frozen=True)
class NodeCrash:
    """The node fails permanently at ``at`` seconds."""

    at: float
    node: str


@dataclass(frozen=True)
class LinkFlap:
    """The node's port is down during ``[at, at + duration)``."""

    at: float
    node: str
    duration: float


@dataclass(frozen=True)
class ResponderStall:
    """Shuffle service threads on the node hang during the window."""

    at: float
    node: str
    duration: float


@dataclass(frozen=True)
class DiskCorruption:
    """Silent data corruption on one node's local disks.

    ``rate`` is the per-read probability that a segment read returns
    flipped bits (transient: the on-disk copy is fine, a re-read draws
    fresh).  ``rot_rate`` is the per-write probability that a committed
    map output lands corrupted on the platter (persistent: every read
    fails verification until the output is condemned and the map
    re-executed).  ``disk`` scopes the entry to one local disk index on
    the node (``-1`` = all disks).
    """

    node: str
    rate: float
    rot_rate: float = 0.0
    disk: int = -1


@dataclass(frozen=True)
class WireCorruption:
    """Per-packet corruption probability on one node's links.

    Applies to every shuffle exchange with that node as either endpoint;
    the receiver's verify-on-receive catches it and re-requests.
    """

    node: str
    rate: float


@dataclass(frozen=True)
class SegmentFault:
    """A responder on ``node`` serves a bad segment with probability ``rate``.

    ``kind`` is ``"truncated"`` (short read: part of the segment is
    missing) or ``"stale"`` (an outdated generation of the output was
    served).  Both are transient from the fetcher's view: the retry path
    re-requests and the next serve draws fresh.
    """

    node: str
    rate: float
    kind: str = "truncated"


@dataclass(frozen=True)
class NodeSlowdown:
    """The node's CPU runs ``factor``x slower during ``[at, at + duration)``.

    Models a contended/overheating host: every ``Node.compute`` there
    stretches by the product of the active slowdown windows.  Nothing
    fails — the attempt just lags, which is what speculation must catch.
    """

    at: float
    node: str
    duration: float
    factor: float


@dataclass(frozen=True)
class LinkDegrade:
    """The node's NIC capacity is divided by ``factor`` during the window.

    Unlike :class:`LinkFlap` the port stays *up*: transfers neither fail
    nor tear down UCR endpoints, they just crawl.  Both the tx and rx
    links re-rate at onset and again when the window closes.
    """

    at: float
    node: str
    duration: float
    factor: float


@dataclass(frozen=True)
class DiskSlowdown:
    """I/O service times on the node's disks multiply by ``factor``.

    Models a sick drive (remapped sectors, internal retries).  ``disk``
    scopes the entry to one local disk index (``-1`` = all disks).
    """

    at: float
    node: str
    duration: float
    factor: float
    disk: int = -1


@dataclass(frozen=True)
class MasterCrash:
    """The JobTracker process dies at ``at`` seconds.

    Names no cluster node: the master is a control-plane process, not a
    DataNode.  The supervising harness fences the journal epoch, waits
    out the lease + restart delay, and replays the journal — see
    :mod:`repro.mapreduce.journal`.
    """

    at: float


@dataclass(frozen=True)
class MasterStall:
    """The JobTracker hangs (GC pause / scheduler livelock) for a window.

    A stall shorter than the TaskTracker lease timeout is survived in
    place — heartbeats resume before anyone parks.  A longer stall is
    indistinguishable from a crash to the workers and triggers the same
    fence-and-restart failover (the stalled incarnation becomes a zombie
    whose late writes the fencing epoch rejects).
    """

    at: float
    duration: float


def _validated(field: str, entries, check) -> None:
    """Run ``check(entry)`` over ``entries``; re-raise naming the offender.

    A bad entry deep in a long plan used to report only the failing
    field value; now every validation error reads like
    ``crashes[2] (NodeCrash): fault time -1.0 is negative`` so the
    offending entry can be found without bisecting the plan by hand.
    """
    for i, entry in enumerate(entries):
        try:
            check(entry)
        except ValueError as exc:
            raise ValueError(
                f"{field}[{i}] ({type(entry).__name__}): {exc}"
            ) from None


@dataclass(frozen=True)
class FaultPlan:
    """A complete, hashable fault schedule (safe inside the frozen JobConf)."""

    crashes: tuple[NodeCrash, ...] = ()
    flaps: tuple[LinkFlap, ...] = ()
    stalls: tuple[ResponderStall, ...] = ()
    #: Probability that one provider-side segment read fails.
    disk_error_rate: float = 0.0
    #: Probability that one map / reduce task attempt fails partway through.
    map_failure_rate: float = 0.0
    reduce_failure_rate: float = 0.0
    #: Silent-corruption entries (verified and recovered by repro.integrity).
    disk_corruptions: tuple[DiskCorruption, ...] = ()
    wire_corruptions: tuple[WireCorruption, ...] = ()
    segment_faults: tuple[SegmentFault, ...] = ()
    #: Degradation entries (stragglers; mitigated by speculative execution).
    slowdowns: tuple[NodeSlowdown, ...] = ()
    link_degrades: tuple[LinkDegrade, ...] = ()
    disk_slowdowns: tuple[DiskSlowdown, ...] = ()
    #: Control-plane entries (JobTracker crash/stall; recovered by the
    #: journal/lease/fencing machinery in repro.mapreduce.journal).
    master_crashes: tuple[MasterCrash, ...] = ()
    master_stalls: tuple[MasterStall, ...] = ()
    name: str = "plan"

    def __post_init__(self) -> None:
        if not 0.0 <= self.disk_error_rate < 1.0:
            raise ValueError(f"disk_error_rate {self.disk_error_rate} not in [0, 1)")
        for field in ("map_failure_rate", "reduce_failure_rate"):
            rate = getattr(self, field)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{field} {rate} not in [0, 1]")

        def nonneg_at(e):
            if e.at < 0:
                raise ValueError(f"fault time {e.at} is negative")

        def positive_duration(e):
            if e.duration <= 0:
                raise ValueError(f"non-positive window duration {e.duration}")

        def positive_factor(e):
            if e.factor <= 0:
                raise ValueError(f"non-positive degradation factor {e.factor}")

        def valid_rate(e):
            if not 0.0 <= e.rate < 1.0:
                raise ValueError(f"corruption rate {e.rate} not in [0, 1)")

        def valid_rot(e):
            if not 0.0 <= e.rot_rate < 1.0:
                raise ValueError(f"rot_rate {e.rot_rate} not in [0, 1)")

        def valid_kind(e):
            if e.kind not in ("truncated", "stale"):
                raise ValueError(f"unknown segment fault kind {e.kind!r}")

        timed = {
            "crashes": self.crashes,
            "flaps": self.flaps,
            "stalls": self.stalls,
            "slowdowns": self.slowdowns,
            "link_degrades": self.link_degrades,
            "disk_slowdowns": self.disk_slowdowns,
            "master_crashes": self.master_crashes,
            "master_stalls": self.master_stalls,
        }
        for field, entries in timed.items():
            _validated(field, entries, nonneg_at)
        for field in ("flaps", "stalls", "master_stalls"):
            _validated(field, timed[field], positive_duration)
        for field in ("slowdowns", "link_degrades", "disk_slowdowns"):
            _validated(field, timed[field], positive_duration)
            _validated(field, timed[field], positive_factor)
        for field, entries in (
            ("disk_corruptions", self.disk_corruptions),
            ("wire_corruptions", self.wire_corruptions),
            ("segment_faults", self.segment_faults),
        ):
            _validated(field, entries, valid_rate)
        _validated("disk_corruptions", self.disk_corruptions, valid_rot)
        _validated("segment_faults", self.segment_faults, valid_kind)

    @property
    def empty(self) -> bool:
        return not (
            self.crashes
            or self.flaps
            or self.stalls
            or self.disk_error_rate > 0
            or self.map_failure_rate > 0
            or self.reduce_failure_rate > 0
            or self.has_corruption
            or self.has_degradation
            or self.has_master_faults
        )

    @property
    def has_corruption(self) -> bool:
        return bool(
            self.disk_corruptions or self.wire_corruptions or self.segment_faults
        )

    @property
    def has_degradation(self) -> bool:
        return bool(self.slowdowns or self.link_degrades or self.disk_slowdowns)

    @property
    def has_master_faults(self) -> bool:
        return bool(self.master_crashes or self.master_stalls)

    def nodes_referenced(self) -> set[str]:
        """Every node any entry names — crashes, windows, corruption,
        *and* degradation.

        ``FaultInjector`` validates this set against the cluster, so a
        typo'd node in any entry kind fails fast instead of silently
        never firing.  Master entries are covered by construction: they
        carry no ``node`` field (the JobTracker is a control-plane
        process, not a DataNode), so there is no name to typo.
        """
        return {
            f.node
            for f in (
                *self.crashes,
                *self.flaps,
                *self.stalls,
                *self.disk_corruptions,
                *self.wire_corruptions,
                *self.segment_faults,
                *self.slowdowns,
                *self.link_degrades,
                *self.disk_slowdowns,
            )
        }


def standard_fault_plan(
    node_names: Sequence[str],
    runtime_hint: float,
    disk_error_rate: float = 0.05,
    name: str = "standard",
) -> FaultPlan:
    """The chaos-benchmark schedule: 1 crash mid-shuffle + 2 link flaps.

    Fault times are fractions of ``runtime_hint`` — a measured fault-free
    runtime — so the same plan shape scales with ``REPRO_BENCH_SCALE``.
    The last node crashes at 55% of the run (maps have completed there and
    reducers are mid-shuffle); two earlier/later flaps hit surviving nodes.
    """
    nodes = list(node_names)
    if len(nodes) < 2:
        raise ValueError("standard_fault_plan needs >= 2 nodes (1 must survive)")
    if runtime_hint <= 0:
        raise ValueError(f"runtime_hint must be positive, got {runtime_hint}")
    survivors = nodes[:-1]
    flap_len = 0.06 * runtime_hint
    return FaultPlan(
        crashes=(NodeCrash(at=0.55 * runtime_hint, node=nodes[-1]),),
        flaps=(
            LinkFlap(at=0.35 * runtime_hint, node=survivors[0], duration=flap_len),
            LinkFlap(
                at=0.70 * runtime_hint,
                node=survivors[len(survivors) // 2],
                duration=flap_len,
            ),
        ),
        disk_error_rate=disk_error_rate,
        name=name,
    )


def seeded_fault_plan(
    seed: int, node_names: Sequence[str], runtime_hint: float
) -> FaultPlan:
    """A randomized-but-reproducible plan (property tests): same seed, same plan."""
    import numpy as np

    nodes = list(node_names)
    if len(nodes) < 2:
        raise ValueError("seeded_fault_plan needs >= 2 nodes")
    rng = np.random.default_rng(seed)
    crashes: tuple[NodeCrash, ...] = ()
    if rng.uniform() < 0.5:  # at most one crash: >= 1 node always survives
        victim = nodes[int(rng.integers(0, len(nodes)))]
        crashes = (NodeCrash(at=float(rng.uniform(0.3, 0.7)) * runtime_hint, node=victim),)
    flaps = tuple(
        LinkFlap(
            at=float(rng.uniform(0.1, 0.8)) * runtime_hint,
            node=nodes[int(rng.integers(0, len(nodes)))],
            duration=float(rng.uniform(0.02, 0.10)) * runtime_hint,
        )
        for _ in range(int(rng.integers(0, 3)))
    )
    stalls = tuple(
        ResponderStall(
            at=float(rng.uniform(0.1, 0.8)) * runtime_hint,
            node=nodes[int(rng.integers(0, len(nodes)))],
            duration=float(rng.uniform(0.03, 0.12)) * runtime_hint,
        )
        for _ in range(int(rng.integers(0, 2)))
    )
    disk_rate = float(rng.uniform(0.0, 0.08)) if rng.uniform() < 0.5 else 0.0
    return FaultPlan(
        crashes=crashes,
        flaps=flaps,
        stalls=stalls,
        disk_error_rate=disk_rate,
        name=f"seeded-{seed}",
    )


def standard_corruption_plan(
    node_names: Sequence[str],
    disk_rate: float = 0.15,
    rot_rate: float = 0.2,
    wire_rate: float = 0.015,
    segment_rate: float = 0.05,
    name: str = "corruption",
) -> FaultPlan:
    """The corruption-benchmark schedule: one hop of each kind goes bad.

    The last node's disks flip bits on reads and rot a fraction of the
    map outputs they commit (forcing condemnation + re-execution), the
    first node's links corrupt packets in flight, and a middle node's
    responders serve truncated/stale segments.  No crashes or flaps —
    every byte of slowdown in ``BENCH_integrity`` is detection and
    recovery, nothing else.
    """
    nodes = list(node_names)
    if len(nodes) < 2:
        raise ValueError("standard_corruption_plan needs >= 2 nodes")
    middle = nodes[len(nodes) // 2]
    return FaultPlan(
        disk_corruptions=(
            DiskCorruption(node=nodes[-1], rate=disk_rate, rot_rate=rot_rate),
        ),
        wire_corruptions=(WireCorruption(node=nodes[0], rate=wire_rate),),
        segment_faults=(
            SegmentFault(node=middle, rate=segment_rate, kind="truncated"),
            SegmentFault(node=middle, rate=segment_rate / 2, kind="stale"),
        ),
        name=name,
    )


def seeded_corruption_plan(seed: int, node_names: Sequence[str]) -> FaultPlan:
    """A randomized-but-reproducible corruption plan: same seed, same plan."""
    import numpy as np

    nodes = list(node_names)
    if len(nodes) < 2:
        raise ValueError("seeded_corruption_plan needs >= 2 nodes")
    rng = np.random.default_rng(seed)
    disks = tuple(
        DiskCorruption(
            node=nodes[int(rng.integers(0, len(nodes)))],
            rate=float(rng.uniform(0.0, 0.3)),
            rot_rate=float(rng.uniform(0.0, 0.25)) if rng.uniform() < 0.5 else 0.0,
        )
        for _ in range(int(rng.integers(0, 3)))
    )
    wires = tuple(
        WireCorruption(
            node=nodes[int(rng.integers(0, len(nodes)))],
            rate=float(rng.uniform(0.0, 0.04)),
        )
        for _ in range(int(rng.integers(0, 3)))
    )
    segments = tuple(
        SegmentFault(
            node=nodes[int(rng.integers(0, len(nodes)))],
            rate=float(rng.uniform(0.0, 0.1)),
            kind="truncated" if rng.uniform() < 0.5 else "stale",
        )
        for _ in range(int(rng.integers(0, 3)))
    )
    return FaultPlan(
        disk_corruptions=disks,
        wire_corruptions=wires,
        segment_faults=segments,
        name=f"seeded-corruption-{seed}",
    )


def standard_slowdown_plan(
    node_names: Sequence[str],
    runtime_hint: float,
    cpu_factor: float = 3.0,
    disk_factor: float = 2.5,
    link_factor: float = 4.0,
    name: str = "slowdown",
) -> FaultPlan:
    """The straggler-benchmark schedule: one node gets sick, nothing fails.

    The last node's CPU and disks degrade from 5% of the run almost to the
    end, and its NIC loses most of its bandwidth for the middle stretch —
    the classic "one bad host" tail-latency scenario.  Without speculation
    every attempt placed there (and every fetch of a map output hosted
    there) drags the job; with it, backups on healthy nodes win the race.
    """
    nodes = list(node_names)
    if len(nodes) < 2:
        raise ValueError("standard_slowdown_plan needs >= 2 nodes (1 must be healthy)")
    if runtime_hint <= 0:
        raise ValueError(f"runtime_hint must be positive, got {runtime_hint}")
    sick = nodes[-1]
    onset = 0.05 * runtime_hint
    window = 2.0 * runtime_hint  # outlasts the stretched run
    return FaultPlan(
        slowdowns=(NodeSlowdown(at=onset, node=sick, duration=window, factor=cpu_factor),),
        disk_slowdowns=(
            DiskSlowdown(at=onset, node=sick, duration=window, factor=disk_factor),
        ),
        link_degrades=(
            LinkDegrade(
                at=0.30 * runtime_hint,
                node=sick,
                duration=0.5 * runtime_hint,
                factor=link_factor,
            ),
        ),
        name=name,
    )


def seeded_slowdown_plan(
    seed: int, node_names: Sequence[str], runtime_hint: float
) -> FaultPlan:
    """A randomized-but-reproducible degradation plan: same seed, same plan.

    Always leaves the first node untouched so a healthy backup target
    exists, and draws 1–2 sick nodes with independent CPU/disk/link
    windows inside the run.
    """
    import numpy as np

    nodes = list(node_names)
    if len(nodes) < 2:
        raise ValueError("seeded_slowdown_plan needs >= 2 nodes")
    rng = np.random.default_rng(seed)
    candidates = nodes[1:]
    n_sick = int(rng.integers(1, min(2, len(candidates)) + 1))
    sick = [candidates[int(i)] for i in rng.choice(len(candidates), n_sick, replace=False)]
    slowdowns = []
    disk_slowdowns = []
    link_degrades = []
    for node in sick:
        start = float(rng.uniform(0.0, 0.3)) * runtime_hint
        dur = float(rng.uniform(0.8, 2.0)) * runtime_hint
        slowdowns.append(
            NodeSlowdown(at=start, node=node, duration=dur, factor=float(rng.uniform(2.0, 4.0)))
        )
        if rng.uniform() < 0.7:
            disk_slowdowns.append(
                DiskSlowdown(at=start, node=node, duration=dur, factor=float(rng.uniform(1.5, 3.0)))
            )
        if rng.uniform() < 0.5:
            link_degrades.append(
                LinkDegrade(
                    at=float(rng.uniform(0.1, 0.5)) * runtime_hint,
                    node=node,
                    duration=float(rng.uniform(0.2, 0.6)) * runtime_hint,
                    factor=float(rng.uniform(2.0, 6.0)),
                )
            )
    return FaultPlan(
        slowdowns=tuple(slowdowns),
        disk_slowdowns=tuple(disk_slowdowns),
        link_degrades=tuple(link_degrades),
        name=f"seeded-slowdown-{seed}",
    )


def standard_master_plan(
    node_names: Sequence[str],
    runtime_hint: float,
    name: str = "master",
) -> FaultPlan:
    """The master-resilience benchmark schedule: one JobTracker crash.

    The crash lands at 45% of the fault-free runtime — maps are largely
    done and reducers are mid-shuffle, so recovery must re-register the
    committed map outputs from TaskTracker storage *and* reschedule the
    in-flight reduces without double-committing any that finished.
    ``node_names`` is accepted for signature parity with the other
    standard plans (master entries name no node).
    """
    if runtime_hint <= 0:
        raise ValueError(f"runtime_hint must be positive, got {runtime_hint}")
    del node_names  # master faults are control-plane; no node to pick
    return FaultPlan(
        master_crashes=(MasterCrash(at=0.45 * runtime_hint),),
        name=name,
    )


def seeded_master_plan(
    seed: int, node_names: Sequence[str], runtime_hint: float
) -> FaultPlan:
    """A randomized-but-reproducible master plan: same seed, same plan.

    Draws either a mid-job crash or a stall; stall durations straddle
    realistic lease timeouts so some seeds are survived in place and
    others trigger the full fence-and-restart failover.
    """
    import numpy as np

    del node_names
    if runtime_hint <= 0:
        raise ValueError(f"runtime_hint must be positive, got {runtime_hint}")
    rng = np.random.default_rng(seed)
    at = float(rng.uniform(0.25, 0.7)) * runtime_hint
    if rng.uniform() < 0.6:
        return FaultPlan(
            master_crashes=(MasterCrash(at=at),),
            name=f"seeded-master-{seed}",
        )
    return FaultPlan(
        master_stalls=(
            MasterStall(at=at, duration=float(rng.uniform(0.05, 0.5)) * runtime_hint),
        ),
        name=f"seeded-master-{seed}",
    )


def named_plan(
    name: str, node_names: Sequence[str], runtime_hint: float
) -> FaultPlan:
    """Build one of the standard plans by name (the ``--fault-plan`` CLI).

    ``standard`` is the crash+flap chaos schedule, ``corruption`` the
    silent-data-corruption schedule, ``slowdown`` the straggler schedule,
    ``master`` the JobTracker-crash schedule.  All scale their windows
    off ``runtime_hint`` (a measured fault-free runtime) where relevant.
    """
    builders: dict[str, Callable[[], FaultPlan]] = {
        "standard": lambda: standard_fault_plan(node_names, runtime_hint),
        "corruption": lambda: standard_corruption_plan(node_names),
        "slowdown": lambda: standard_slowdown_plan(node_names, runtime_hint),
        "master": lambda: standard_master_plan(node_names, runtime_hint),
    }
    try:
        return builders[name]()
    except KeyError:
        raise ValueError(
            f"unknown plan name {name!r}; pick from {sorted(builders)}"
        ) from None


class FaultInjector:
    """Runtime of one :class:`FaultPlan` on one cluster/job.

    Created only for a non-empty plan.  The shuffle / UCR / scheduler
    code runs one path with or without it: each fault query there reads
    ``faults is not None and faults.<query>(…)``, so the idle cost is a
    single attribute test.  Crashes reach running work through
    :meth:`on_crash` hooks, never through events to wait on.
    """

    def __init__(
        self,
        sim: Simulator,
        rng: "RandomStreams",
        plan: FaultPlan,
        node_names: Iterable[str],
    ):
        self.sim = sim
        self.plan = plan
        names = set(node_names)
        unknown = plan.nodes_referenced() - names
        if unknown:
            raise ValueError(f"fault plan references unknown nodes: {sorted(unknown)}")
        if {c.node for c in plan.crashes} >= names:
            raise ValueError("fault plan crashes every node; nothing could recover")
        #: Injection tallies, registered as the ``faults.*`` metrics namespace.
        self.counters = Counter()
        for key in (
            "node_crashes",
            "link_flaps",
            "disk_errors",
            "responder_stalls",
            "node_slowdowns",
            "link_degrades",
            "disk_slowdowns",
        ):
            self.counters.add(key, 0.0)
        if plan.has_master_faults:
            # Pre-seeded only when the plan actually carries master
            # entries, so existing fault runs' counter key sets (and
            # their exported reports) stay byte-identical.  The
            # MasterSupervisor ticks these — the injector has no driver
            # for control-plane faults (it cannot outlive the master's
            # death the way node-crash drivers outlive a worker's).
            self.counters.add("master_crashes", 0.0)
            self.counters.add("master_stalls", 0.0)
        self.crashed: set[str] = set()
        self._flap_windows: dict[str, list[tuple[float, float]]] = {}
        for flap in plan.flaps:
            self._flap_windows.setdefault(flap.node, []).append(
                (flap.at, flap.at + flap.duration)
            )
        self._stall_windows: dict[str, list[tuple[float, float]]] = {}
        for stall in plan.stalls:
            self._stall_windows.setdefault(stall.node, []).append(
                (stall.at, stall.at + stall.duration)
            )
        # Degradation windows: (start, end, factor[, disk]) per node.  CPU
        # and disk windows are consulted at service time (no driver); the
        # link windows need drivers because capacity changes must re-rate
        # in-flight flows at the window edges.
        self._slow_windows: dict[str, list[tuple[float, float, float]]] = {}
        for slow in plan.slowdowns:
            self._slow_windows.setdefault(slow.node, []).append(
                (slow.at, slow.at + slow.duration, slow.factor)
            )
        self._disk_slow_windows: dict[str, list[tuple[float, float, float, int]]] = {}
        for dslow in plan.disk_slowdowns:
            self._disk_slow_windows.setdefault(dslow.node, []).append(
                (dslow.at, dslow.at + dslow.duration, dslow.factor, dslow.disk)
            )
        self._active_degrades: dict[str, list[LinkDegrade]] = {}
        self._link_base_caps: dict[object, float] = {}
        self._fabric = None
        # Disk-error draws come from one named stream *per node* (created
        # lazily): faults are attributable to the disk that threw them —
        # the prerequisite for health scoring — and adding one node's
        # serves never perturbs another node's draw sequence.
        self._rng = rng
        self._disk_rngs: dict[str, object] = {}
        self._crash_hooks: list[Callable[[str], None]] = []
        self._flap_hooks: list[Callable[[str], None]] = []
        self._started = False

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Spawn the timeline processes (idempotent)."""
        if self._started:
            return
        self._started = True
        for crash in self.plan.crashes:
            self.sim.process(self._crash_driver(crash), name=f"fault-crash-{crash.node}")
        for i, flap in enumerate(self.plan.flaps):
            self.sim.process(self._flap_driver(flap), name=f"fault-flap{i}-{flap.node}")
        for i, deg in enumerate(self.plan.link_degrades):
            self.sim.process(self._degrade_driver(deg), name=f"fault-degrade{i}-{deg.node}")
        for slow in self.plan.slowdowns:
            self.sim.process(
                self._onset_tally(slow, "node_slowdowns"),
                name=f"fault-slow-{slow.node}",
            )
        for dslow in self.plan.disk_slowdowns:
            self.sim.process(
                self._onset_tally(dslow, "disk_slowdowns"),
                name=f"fault-diskslow-{dslow.node}",
            )
        # Stalls, disk errors and CPU/disk slowdowns need no actuating
        # driver: providers consult the windows / draw from the stream at
        # serve time (the slowdown processes above only tally onsets).

    def bind(self, cluster) -> None:
        """Attach degradation hooks to the cluster's nodes, disks and NICs.

        Only nodes/disks actually named by a degradation window get their
        ``faults`` attribute set, so untouched nodes keep the plain
        single-attribute-test hot path.  No-op for plans without
        degradation entries — existing fault runs stay bit-identical.
        """
        if not self.plan.has_degradation:
            return
        self._fabric = cluster.fabric
        for node in cluster.nodes:
            if node.name in self._slow_windows:
                node.faults = self
            if node.name in self._disk_slow_windows:
                for index, disk in enumerate(node.fs.disks):
                    disk.faults = self
                    disk.fault_node = node.name
                    disk.fault_index = index

    def on_crash(self, fn: Callable[[str], None]) -> None:
        """Register ``fn(node_name)`` to run when a node crashes."""
        self._crash_hooks.append(fn)

    def on_flap(self, fn: Callable[[str], None]) -> None:
        """Register ``fn(node_name)`` to run when a link flap begins."""
        self._flap_hooks.append(fn)

    def _crash_driver(self, crash: NodeCrash):
        yield self.sim.timeout(crash.at)
        if crash.node in self.crashed:
            return
        self.crashed.add(crash.node)
        self.counters.add("node_crashes", 1)
        for fn in self._crash_hooks:
            fn(crash.node)

    def _flap_driver(self, flap: LinkFlap):
        yield self.sim.timeout(flap.at)
        if flap.node in self.crashed:
            return  # the port is already permanently gone
        self.counters.add("link_flaps", 1)
        for fn in self._flap_hooks:
            fn(flap.node)

    def _onset_tally(self, entry, key: str):
        """Count a CPU/disk slowdown window that actually began."""
        yield self.sim.timeout(entry.at)
        if entry.node not in self.crashed:
            self.counters.add(key, 1)

    def _degrade_driver(self, degrade: LinkDegrade):
        yield self.sim.timeout(degrade.at)
        if degrade.node in self.crashed or self._fabric is None:
            return
        self._active_degrades.setdefault(degrade.node, []).append(degrade)
        self.counters.add("link_degrades", 1)
        self._apply_link_capacity(degrade.node)
        yield self.sim.timeout(degrade.duration)
        active = self._active_degrades.get(degrade.node)
        if active and degrade in active:
            active.remove(degrade)
        if degrade.node not in self.crashed:
            self._apply_link_capacity(degrade.node)

    def _apply_link_capacity(self, node: str) -> None:
        """Re-rate the node's NIC links to base capacity / active factors."""
        nic = self._fabric.interfaces.get(node)
        if nic is None:
            return
        factor = 1.0
        for entry in self._active_degrades.get(node, ()):
            factor *= entry.factor
        for link in (nic.tx, nic.rx):
            base = self._link_base_caps.setdefault(link, link.capacity)
            self._fabric.flows.set_capacity(link, base / factor)

    # -- queries (the hooks the rest of the stack calls) --------------------

    def node_dead(self, node: str) -> bool:
        return node in self.crashed

    def link_down(self, node: str) -> bool:
        """Is the node's port unusable right now (crashed or flapping)?"""
        if node in self.crashed:
            return True
        now = self.sim.now
        return any(s <= now < e for s, e in self._flap_windows.get(node, ()))

    def path_down(self, a: str, b: str) -> bool:
        return self.link_down(a) or self.link_down(b)

    def stall_penalty(self, node: str) -> float:
        """Seconds left in an active responder-stall window (0 when none).

        Counts one ``responder_stalls`` tick per affected service call.
        """
        now = self.sim.now
        for s, e in self._stall_windows.get(node, ()):
            if s <= now < e:
                self.counters.add("responder_stalls", 1)
                return e - now
        return 0.0

    def disk_read_fails(self, node: str) -> bool:
        """Draw one provider-side segment read on ``node`` against
        ``disk_error_rate`` (from that node's own seeded stream)."""
        if self.plan.disk_error_rate <= 0:
            return False
        stream = self._disk_rngs.get(node)
        if stream is None:
            stream = self._rng.stream(f"faults-disk-{node}")
            self._disk_rngs[node] = stream
        if float(stream.uniform()) < self.plan.disk_error_rate:
            self.counters.add("disk_errors", 1)
            return True
        return False

    def task_fail_at(self, kind: str, task_id: int, attempt: int, work: float) -> float:
        """How much of ``work`` this ``"map"``/``"reduce"`` attempt gets
        through before it fails (``inf`` = it survives), drawn from the
        attempt's own ``mapfail-…`` / ``redfail-…`` stream."""
        if kind == "map":
            rate, prefix = self.plan.map_failure_rate, "mapfail"
        else:
            rate, prefix = self.plan.reduce_failure_rate, "redfail"
        if rate <= 0:
            return float("inf")
        fate = self._rng.stream(f"{prefix}-{task_id}-a{attempt}")
        if fate.uniform() < rate:
            return float(fate.uniform(0.05, 0.95)) * work
        return float("inf")

    def cpu_delay(self, node: str, delay: float) -> float:
        """Wall-clock seconds to do ``delay`` nominal CPU-seconds from now.

        Integrates piecewise across the node's slowdown windows: work
        proceeds at speed ``1 / product(active factors)``, so a compute
        that spans a window edge pays exactly the stretched portion.
        Called only on nodes a :class:`NodeSlowdown` names (``bind`` sets
        ``node.faults`` selectively).
        """
        windows = self._slow_windows.get(node)
        if not windows or delay <= 0:
            return delay
        t = self.sim.now
        remaining = delay
        wall = 0.0
        while remaining > 1e-12:
            factor = 1.0
            next_edge = float("inf")
            for start, end, f in windows:
                if start <= t < end:
                    factor *= f
                    next_edge = min(next_edge, end)
                elif t < start:
                    next_edge = min(next_edge, start)
            span = remaining * factor
            if t + span <= next_edge:
                wall += span
                remaining = 0.0
            else:
                wall += next_edge - t
                remaining -= (next_edge - t) / factor
                t = next_edge
        return wall

    def disk_factor(self, node: str, disk_index: int) -> float:
        """Service-time multiplier for one disk right now (1.0 = healthy)."""
        factor = 1.0
        now = self.sim.now
        for start, end, f, disk in self._disk_slow_windows.get(node, ()):
            if (disk < 0 or disk == disk_index) and start <= now < end:
                factor *= f
        return factor

    def healthy(self, names: Iterable[str]) -> list[str]:
        return [n for n in names if n not in self.crashed]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<FaultInjector {self.plan.name!r} crashed={sorted(self.crashed)}>"
