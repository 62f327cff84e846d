"""Master resilience: write-ahead job journal, crash recovery, fencing.

PRs 3–8 made workers, disks, links, and merely-slow nodes survivable, but
every one of those recoveries routes through a single JobTracker — a
master crash still lost the whole job.  This module closes that gap with
the three classic ingredients of master fail-over:

* **Write-ahead journal** (:class:`JobJournal`).  The JobTracker appends
  a record at every state transition that matters for recovery — job
  submission, map-output registration, reduce attempt starts and
  commits, fetch-failure condemnations, quarantine and penalty-box
  decisions, speculation launches.  Appends are synchronous bookkeeping
  (the decision is durable before the action proceeds); the I/O cost is
  charged by a group-commit flusher that periodically writes the
  buffered tail to HDFS (``<job>/_journal/seg-N``), the way real WALs
  amortise fsyncs across transactions.

* **Lease-based failure detection.**  A healthy master heartbeats every
  ``HEARTBEAT_INTERVAL``; on master death the workers notice only
  after ``LEASE_TIMEOUT`` of silence, park (stop reporting
  completions upward — TaskTracker storage keeps serving the shuffle),
  and re-register with the restarted master.  A :class:`MasterStall`
  shorter than the lease is survived in place; a longer one is
  indistinguishable from a crash and triggers the same fail-over.

* **Fencing epochs.**  Every journal append and every reduce commit
  carries the incarnation's epoch.  Fail-over fences the journal
  (``epoch += 1``) before the replacement master replays it, so a
  zombie incarnation's late writes — its unflushed journal tail finally
  reaching HDFS, a straggling commit — are rejected, proving
  commit-once across the crash.

Recovery replays the journal (:meth:`JobJournal.replay` — a pure,
idempotent function of the record list), re-registers committed map
outputs from surviving TaskTracker storage (cross-validated against the
journaled hosts), rebuilds the CompletionBoard backlog for
freshly-subscribing consumers, and reschedules exactly the uncommitted
work.  The :class:`MasterSupervisor` replaces the plain
``JobTracker.run`` driver whenever ``JobConf.master_active`` is set;
without it no journal exists and runs are event-for-event identical to a
build without this module.
"""

from __future__ import annotations

from collections.abc import Generator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.sim.core import Event, Interrupted
from repro.sim.monitor import Counter

if TYPE_CHECKING:  # pragma: no cover
    from repro.mapreduce.context import JobContext
    from repro.mapreduce.jobtracker import JobTracker

__all__ = ["JobJournal", "MasterSupervisor", "RecoveryState"]

#: Modelled on-disk size of one journal record (ids + enum + timestamps).
RECORD_BYTES = 256.0

#: Seconds of master silence before TaskTrackers park (stop reporting
#: completions upward) and the supervisor declares the incarnation dead.
#: A MasterStall shorter than this is survived.  It must exceed
#: HEARTBEAT_INTERVAL, or a healthy master's lease would lapse between
#: beats.
LEASE_TIMEOUT = 1.5

#: Seconds between JobTracker heartbeats to the lease layer.
HEARTBEAT_INTERVAL = 0.5

#: Seconds between master death being declared and the replacement
#: JobTracker starting journal replay (process restart + init cost).
RESTART_DELAY = 1.0

#: Seconds between journal group-commit flushes to HDFS.  Appends between
#: flushes are buffered; a crash loses none of the *decisions* (replay is
#: reconstructed from the journal object, which models the durable tail),
#: but the flush cadence sets the recurring I/O charge the journal adds.
JOURNAL_FLUSH = 0.5


@dataclass
class RecoveryState:
    """What a journal replay reconstructs — the restarted master's brain.

    Everything here is derived purely from the accepted record list, so
    replaying twice (or replaying on a different master) yields equal
    state: the idempotence the restart path depends on.
    """

    #: reduce_id -> (attempt, committed bytes, commit time).
    committed_reduces: dict[int, tuple[int, float, float]] = field(
        default_factory=dict
    )
    #: reduce_id -> next attempt id (so post-recovery attempts never
    #: collide with journaled ones: unique RNG streams and output files).
    reduce_attempt_seq: dict[int, int] = field(default_factory=dict)
    #: map_id -> host of the journaled committed output.
    map_hosts: dict[int, str] = field(default_factory=dict)
    #: Maps condemned by fetch-failure reports (informational; the
    #: rebuild trusts surviving TaskTracker storage for what exists now).
    condemned: set[int] = field(default_factory=set)
    #: Nodes the integrity layer quarantined before the crash.
    quarantined: set[str] = field(default_factory=set)
    #: (reduce_id, host) penalty-box entries recorded by reducers.
    penalty_boxed: set[tuple[int, str]] = field(default_factory=set)
    #: ("map"|"reduce", task_id) speculation backups launched pre-crash.
    speculated: set[tuple[str, int]] = field(default_factory=set)
    records_replayed: int = 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RecoveryState):
            return NotImplemented
        return (
            self.committed_reduces == other.committed_reduces
            and self.reduce_attempt_seq == other.reduce_attempt_seq
            and self.map_hosts == other.map_hosts
            and self.condemned == other.condemned
            and self.quarantined == other.quarantined
            and self.penalty_boxed == other.penalty_boxed
            and self.speculated == other.speculated
            and self.records_replayed == other.records_replayed
        )


class JobJournal:
    """The write-ahead job journal with group commit and epoch fencing.

    Created once per job (``ctx.journal``) when ``conf.master_active``;
    shared by every incarnation of the JobTracker.  The in-memory record
    list models the durable journal contents — an append that returns
    True *is* durable as a decision (write-ahead: the master acts only
    after journaling).  The flusher charges the corresponding HDFS I/O
    in batches, and ``note_master_down`` snapshots the unflushed tail so
    the fail-over can replay it as the zombie incarnation's late writes
    (all of which the fresh epoch rejects).
    """

    def __init__(self, ctx: "JobContext", spool_dir: str | None = None):
        self.ctx = ctx
        self.sim = ctx.sim
        #: Fencing epoch: incremented by each fail-over's fence().
        self.epoch = 0
        #: True between master death and the replacement's fence().
        self.master_down = False
        #: Accepted records, in append order (the durable journal).
        self.records: list[dict[str, Any]] = []
        #: Records appended since the last group-commit flush.
        self._unflushed: list[dict[str, Any]] = []
        self._segments = 0
        #: Optional host directory for rotated segment spool files
        #: (written with the fsync-hardened write_json_atomic).
        self.spool_dir = spool_dir
        #: reduce_id -> (attempt, bytes, time): the commit-once registry
        #: as the journal sees it (survives the master that built it).
        self.committed: dict[int, tuple[int, float, float]] = {}
        self.counters = Counter()
        for key in (
            "appends",
            "fenced_appends",
            "commits",
            "fenced_commits",
            "double_commits_prevented",
            "heartbeats",
            "flushes",
            "flushed_bytes",
            "reports_dropped",
            "completions_unreported",
            "replay.outputs_lost",
            "replay.outputs_unjournaled",
        ):
            self.counters.add(key, 0.0)

    # -- the append/commit protocol (fenced) --------------------------------

    def append(self, kind: str, epoch: int | None = None, **data: Any) -> bool:
        """Append one record; False (and no record) when fenced out.

        ``epoch`` defaults to the journal's current epoch (the common
        case: the live master writing its own records).  A writer
        presenting a stale epoch — a zombie incarnation's late write —
        or writing while the master is down is rejected.
        """
        if epoch is None:
            epoch = self.epoch
        if self.master_down or epoch != self.epoch:
            self.counters.add("fenced_appends", 1)
            return False
        record = {"kind": kind, "epoch": epoch, "t": self.sim.now, **data}
        self.records.append(record)
        self._unflushed.append(record)
        self.counters.add("appends", 1)
        return True

    def commit_reduce(
        self, epoch: int, reduce_id: int, attempt: int, nbytes: float, host: str
    ) -> bool:
        """Fenced commit-once for reduce output: the journal is the judge.

        Rejects a stale-epoch or during-down commit (``fenced_commits``)
        and a second commit of the same reduce (``double_commits_
        prevented``), whichever incarnation attempts it.  On success the
        commit record is journaled and the registry updated atomically.
        """
        if self.master_down or epoch != self.epoch:
            self.counters.add("fenced_commits", 1)
            return False
        if reduce_id in self.committed:
            self.counters.add("double_commits_prevented", 1)
            return False
        self.append(
            "reduce_committed",
            epoch=epoch,
            reduce_id=reduce_id,
            attempt=attempt,
            nbytes=nbytes,
            host=host,
        )
        self.committed[reduce_id] = (attempt, nbytes, self.sim.now)
        self.counters.add("commits", 1)
        return True

    # -- fail-over edges ------------------------------------------------------

    def note_master_down(self) -> list[dict[str, Any]]:
        """The master died: close the journal to writes.

        Returns a snapshot of the unflushed tail — the writes the dead
        incarnation buffered but never made durable.  The fail-over
        replays them *after* fencing, modelling the zombie's late I/O
        finally landing; every one is rejected.
        """
        self.master_down = True
        tail = list(self._unflushed)
        self._unflushed.clear()
        return tail

    def fence(self) -> int:
        """Open a new incarnation: bump the epoch, reopen for writes."""
        self.epoch += 1
        self.master_down = False
        self.append("fence", epoch=self.epoch)
        return self.epoch

    # -- replay ----------------------------------------------------------------

    def replay(self) -> RecoveryState:
        """Reconstruct master state from the records — pure and idempotent."""
        state = RecoveryState()
        for rec in self.records:
            kind = rec["kind"]
            if kind == "reduce_committed":
                state.committed_reduces[rec["reduce_id"]] = (
                    rec["attempt"],
                    rec["nbytes"],
                    rec["t"],
                )
                seq = state.reduce_attempt_seq.get(rec["reduce_id"], 0)
                state.reduce_attempt_seq[rec["reduce_id"]] = max(
                    seq, rec["attempt"] + 1
                )
            elif kind == "reduce_attempt_started":
                seq = state.reduce_attempt_seq.get(rec["reduce_id"], 0)
                state.reduce_attempt_seq[rec["reduce_id"]] = max(
                    seq, rec["attempt"] + 1
                )
            elif kind == "map_committed":
                state.map_hosts[rec["map_id"]] = rec["host"]
                state.condemned.discard(rec["map_id"])
            elif kind == "map_condemned":
                state.condemned.add(rec["map_id"])
                state.map_hosts.pop(rec["map_id"], None)
            elif kind == "quarantine":
                state.quarantined.add(rec["node"])
            elif kind == "penalty_box":
                state.penalty_boxed.add((rec["reduce_id"], rec["host"]))
            elif kind == "speculation":
                state.speculated.add((rec["task_kind"], rec["task_id"]))
            state.records_replayed += 1
        return state

    # -- the durability processes --------------------------------------------

    def heartbeat_loop(self) -> Generator[Event, Any, None]:
        """The master's lease renewal; silence past the lease means death."""
        try:
            while True:
                yield self.sim.timeout(HEARTBEAT_INTERVAL)
                self.counters.add("heartbeats", 1)
        except Interrupted:
            return

    def flush_loop(self) -> Generator[Event, Any, None]:
        """Group commit: periodically persist the buffered tail to HDFS.

        One rotated segment per flush, replicated like a real WAL; the
        writer is the first live node (the JobTracker host at simulation
        fidelity).  Charges real disk + pipeline network time, which is
        the journal's entire runtime overhead.
        """
        ctx = self.ctx
        try:
            while True:
                yield self.sim.timeout(JOURNAL_FLUSH)
                if not self._unflushed or self.master_down:
                    continue
                batch, self._unflushed = self._unflushed, []
                writer = self._journal_writer()
                if writer is None:
                    continue
                nbytes = RECORD_BYTES * len(batch)
                seg = self._segments
                self._segments += 1
                replication = min(3, len(ctx.cluster.nodes))
                yield from ctx.dfs.write_file_part(
                    writer,
                    f"{ctx.conf.job_id}/_journal/seg-{seg}",
                    nbytes,
                    replication=replication,
                    stream_id=f"journal-seg{seg}",
                )
                self.counters.add("flushes", 1)
                self.counters.add("flushed_bytes", nbytes)
                if self.spool_dir is not None:
                    self._spool_segment(seg, batch)
        except Interrupted:
            return

    def _journal_writer(self):
        faults = self.ctx.faults
        for node in self.ctx.cluster.nodes:
            if faults is None or not faults.node_dead(node.name):
                return node
        return None

    def _spool_segment(self, seg: int, batch: list[dict[str, Any]]) -> None:
        """Rotate one segment to a host-filesystem spool file.

        Reuses the fsync-hardened :func:`repro.obs.export.write_json_atomic`
        so a spooled segment survives a *host* crash, not just a process
        crash — the property the journal's durability story rests on.
        """
        import os

        from repro.obs.export import write_json_atomic

        path = os.path.join(self.spool_dir, f"journal-seg{seg:05d}.json")
        write_json_atomic({"segment": seg, "records": batch}, path)

    def dump(self, path: str) -> None:
        """Export the full journal (debugging / post-mortem tooling)."""
        from repro.obs.export import write_json_atomic

        write_json_atomic(
            {
                "epoch": self.epoch,
                "records": self.records,
                "committed": {
                    str(rid): list(entry) for rid, entry in self.committed.items()
                },
            },
            path,
        )

    def report(self) -> dict[str, Any]:
        """Recovery summary for the phase report / BENCH export."""
        return {
            "epoch": self.epoch,
            "records": len(self.records),
            **self.counters.as_dict(),
        }


class MasterSupervisor:
    """Drives JobTracker incarnations across planned master faults.

    The supervisor is the simulation's stand-in for whatever keeps the
    real JobTracker process alive (init scripts, an HA standby): it runs
    ``jt.execute()`` as a child process, consumes the plan's
    :class:`MasterCrash`/:class:`MasterStall` entries in time order, and
    on each fatal one performs the fail-over sequence — journal closed,
    scheduler brain halted, lease waited out, orphans abandoned, journal
    fenced and replayed, state rebuilt from surviving TaskTracker
    storage, a fresh incarnation launched on the remaining work.
    """

    def __init__(self, ctx: "JobContext"):
        self.ctx = ctx
        self.sim = ctx.sim
        self.jt: "JobTracker | None" = None

    def run(self) -> Generator[Event, Any, Any]:
        from repro.mapreduce.jobtracker import JobTracker

        ctx = self.ctx
        conf = ctx.conf
        journal = ctx.journal
        jt = JobTracker(ctx)
        self.jt = jt
        yield from jt.setup()
        journal.append(
            "job_submitted",
            job_id=conf.job_id,
            n_maps=conf.n_maps,
            n_reduces=conf.n_reduces,
            engine=conf.shuffle_engine,
        )
        if ctx.integrity is not None:
            ctx.integrity.on_quarantine(
                lambda node: journal.append("quarantine", node=node)
            )
        flush_proc = self.sim.process(journal.flush_loop(), name="journal-flush")

        plan = conf.fault_plan
        schedule: list[tuple[float, str, float]] = []
        if plan is not None:
            schedule = sorted(
                [(mc.at, "crash", 0.0) for mc in plan.master_crashes]
                + [(ms.at, "stall", ms.duration) for ms in plan.master_stalls]
            )
        idx = 0

        while True:
            jt.epoch = journal.epoch
            run_proc = self.sim.process(
                jt.execute(), name=f"jobtracker-e{journal.epoch}"
            )
            hb = self.sim.process(
                journal.heartbeat_loop(), name=f"master-hb-e{journal.epoch}"
            )
            failed_over = False
            while True:
                if idx >= len(schedule):
                    yield run_proc
                    break
                at, kind, duration = schedule[idx]
                timer = self.sim.timeout(max(0.0, at - self.sim.now))
                yield self.sim.any_of([run_proc, timer])
                if not run_proc.is_alive:
                    # The job beat the fault to the finish line; the
                    # remaining schedule entries never fire.
                    if timer.callbacks is not None:
                        timer.cancel()
                    break
                idx += 1
                if kind == "stall" and duration <= LEASE_TIMEOUT:
                    # A pause shorter than the lease: heartbeats resume
                    # before any worker parks.  Survived in place — the
                    # scheduler slept through it, which at this fidelity
                    # only shifts decisions the stall already delayed.
                    if ctx.faults is not None:
                        ctx.faults.counters.add("master_stalls", 1)
                    journal.append("master_stall_survived", duration=duration)
                    continue
                yield from self._failover(jt, run_proc, hb, kind, duration)
                failed_over = True
                break
            if failed_over:
                continue
            if hb.is_alive:
                hb.interrupt("job-done")
            break

        if flush_proc.is_alive:
            flush_proc.interrupt("job-done")
        return jt.finish()

    # -- the fail-over sequence ----------------------------------------------

    def _failover(
        self,
        jt: "JobTracker",
        run_proc: Any,
        hb: Any,
        kind: str,
        duration: float,
    ) -> Generator[Event, Any, None]:
        ctx = self.ctx
        journal = ctx.journal
        if ctx.faults is not None:
            ctx.faults.counters.add(
                "master_crashes" if kind == "crash" else "master_stalls", 1
            )
        old_epoch = journal.epoch
        zombie_tail = journal.note_master_down()
        if hb.is_alive:
            hb.interrupt("master-crash")
        if run_proc.is_alive:
            # The scheduler brain dies *now*: map loops, watchers and the
            # control plane stop.  Worker-side processes keep running —
            # real tasks don't die with the JobTracker.
            run_proc.interrupt("master-crash")
            yield run_proc
        # The lease window: workers run headless.  Maps that finish land
        # in TaskTracker storage but go unreported; reduces that finish
        # hit the fenced journal and are torn down uncommitted.
        yield self.sim.timeout(LEASE_TIMEOUT)
        parked = 0
        for name in sorted(ctx.trackers):
            tt = ctx.trackers[name]
            if ctx.faults is not None and ctx.faults.node_dead(name):
                continue
            tt.parked = True
            parked += 1
        ctx.counters.add("master.tt_parked", parked)
        # Lease expired: every in-flight attempt loses its master for
        # good and unwinds (killed, not failed).
        live = jt.abandon("master-crash")
        if live:
            yield self.sim.all_of(live)
        # Replacement master process start-up.
        yield self.sim.timeout(RESTART_DELAY)
        new_epoch = journal.fence()
        recovery = journal.replay()
        self._rebuild(jt, recovery)
        journal.append(
            "master_restarted",
            epoch=new_epoch,
            cause=kind,
            records_replayed=recovery.records_replayed,
            outputs_recovered=len(ctx.map_outputs),
        )
        # The zombie's buffered journal tail finally reaches HDFS — every
        # append presents the dead epoch and is fenced out, plus one
        # straggling commit probe to prove the commit path is fenced too.
        for rec in zombie_tail:
            journal.append(
                rec["kind"],
                epoch=old_epoch,
                **{k: v for k, v in rec.items() if k not in ("kind", "epoch", "t")},
            )
        journal.commit_reduce(old_epoch, -1, 0, 0.0, "zombie-master")

    def _rebuild(self, jt: "JobTracker", recovery: RecoveryState) -> None:
        """Re-register committed map outputs from surviving TT storage.

        TaskTracker-side storage is the ground truth for what exists
        *now*; the journal is the ground truth for what the dead master
        *knew*.  The rebuild trusts storage (a journaled output on a
        crashed node is gone regardless of what the journal says) and
        cross-validates against the journal so discrepancies are counted
        rather than silently absorbed.
        """
        ctx = self.ctx
        journal = ctx.journal
        metas = []
        seen: dict[int, Any] = {}
        for name in sorted(ctx.trackers):
            if ctx.faults is not None and ctx.faults.node_dead(name):
                continue
            tt = ctx.trackers[name]
            tt.parked = False
            for map_id in sorted(tt.map_outputs):
                if map_id in seen:
                    continue
                meta, _file = tt.map_outputs[map_id]
                seen[map_id] = meta
                metas.append(meta)
        ctx.rebuild_completions(metas)
        for map_id, _host in sorted(recovery.map_hosts.items()):
            if map_id not in seen:
                # Journaled as committed, but no surviving replica (its
                # TaskTracker crashed too): rescheduled like a lost map.
                journal.counters.add("replay.outputs_lost", 1)
        for map_id in sorted(seen):
            if map_id not in recovery.map_hosts:
                # Finished during the down window (reported TT-side
                # only) — recovered from storage despite never being
                # journaled.  This is why the rebuild scans storage.
                journal.counters.add("replay.outputs_unjournaled", 1)
        if ctx.integrity is not None:
            for node in sorted(recovery.quarantined):
                # Idempotent re-apply: the in-memory manager usually
                # still knows, but a journaled quarantine must survive
                # the master either way.
                ctx.integrity.quarantine.add(node)
        jt.recover(recovery)
