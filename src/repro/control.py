"""Closed-loop adaptive shuffle control plane (the AM-side controller).

The static knobs from the earlier subsystems — the fetch retry / penalty
box, the credit-based receive window (``recv_credits``), the spill
threshold (``shuffle_spill_threshold``), and the EWMA health/quarantine
machinery — are all fixed per job, while the running system already emits
every signal a controller needs: backpressure counters, responder queue
depths, per-node health scores.  This module closes the loop, mirroring
how MPICH2-over-InfiniBand adapts its RDMA eager/rendezvous channel to
runtime conditions rather than trusting a static tuning.

:class:`ControlPlane` runs as a periodic sim process during the job and
acts on three levers:

* **retune** — per-reducer ``recv_credits`` / ``shuffle_spill_threshold``
  via the engine :meth:`~repro.mapreduce.shuffle.base.ShuffleConsumer.retune`
  hook: a reducer whose merge is memory-bound (gate paused, or buffered
  bytes at the spill line) halves its receive window and spills earlier;
  a calm reducer grows its window back toward the ceiling;
* **steer** — reduce (re)placement avoids trackers with deep responder
  backlogs (:meth:`~repro.mapreduce.shuffle.base.ShuffleProvider.backlog`)
  or degraded health scores;
* **migrate** — an in-flight reduce attempt on a tracker that crosses the
  quarantine threshold mid-job is killed (not failed — Hadoop semantics,
  PR 3's reschedule path) and relaunched on a steered-to tracker; its
  partially fetched state is refetched from scratch (partitioning is
  deterministic, so the output is identical) and the integrity ledger
  settles the abandoned artifacts
  (:meth:`repro.integrity.IntegrityManager.note_migrated`).

Determinism: ticks land on the simulated clock, every scan iterates in
sorted reduce-id / tracker-name order, and no RNG is consumed — the same
seed and fault plan produce bit-identical decisions and counters.

Inert by default: the plane is only created when
``JobConf.control_interval > 0``; knob-free runs carry no ``control.*``
counters and stay event-for-event identical.
"""

from __future__ import annotations

from collections.abc import Generator
from typing import TYPE_CHECKING, Any

from repro.sim.core import Event
from repro.sim.monitor import Counter

if TYPE_CHECKING:  # pragma: no cover
    from repro.mapreduce.context import JobContext
    from repro.mapreduce.shuffle.base import ShuffleConsumer
    from repro.mapreduce.tasktracker import TaskTracker

__all__ = ["ControlPlane", "COUNTER_KEYS"]

#: All controller counters, pre-seeded so the exported key set is stable
#: whenever the plane is active (0 = the policy never had cause to act).
COUNTER_KEYS = (
    "ticks",
    "retunes",
    "credits_raised",
    "credits_lowered",
    "spill_raised",
    "spill_lowered",
    "steered",
    "migrations",
)

#: Floor for mid-job ``recv_credits`` retuning.  The controller only
#: adjusts a gate that exists (``recv_credits > 0`` armed it); the
#: ceiling is twice the job's static window.
MIN_CREDITS = 1

#: Band for mid-job ``shuffle_spill_threshold`` retuning (fractions of
#: the shuffle buffer; the controller never leaves it).
SPILL_FLOOR = 0.35
SPILL_CEILING = 0.9

#: Responder backlog depth at (or beyond) which a tracker draws a
#: placement penalty when reduce attempts are (re)located.
QUEUE_DEPTH = 8

#: EWMA health score at (or beyond) which a tracker draws a placement
#: penalty (the integrity layer must be active for scores to exist).
HEALTH_THRESHOLD = 0.3

#: Retune step sizes (fractions of the shuffle buffer per tick).
_SPILL_STEP_DOWN = 0.10
_SPILL_STEP_UP = 0.05

#: Decision-log cap: phase reports must stay bounded at paper scale.
_MAX_DECISIONS = 512

#: Migration profitability guard: evacuating a reducer refetches its
#: whole input (killed-not-failed semantics), so a reducer past this
#: shuffle-progress fraction stays put — the refetch would cost more
#: than the sick tracker.  Engines that report no progress migrate
#: unconditionally (the guard cannot price what it cannot see).
_MIGRATE_PROGRESS_MAX = 0.5

#: At most this many evacuations per tick: relocating a quarantined
#: tracker's reducers all at once dogpiles the survivors' reduce slots;
#: staggering lets each relocation be absorbed before the next.
_MIGRATIONS_PER_TICK = 1


class _Attempt:
    """One live reduce attempt the controller can observe and actuate."""

    __slots__ = ("reduce_id", "tt_name", "consumer", "proc")

    def __init__(
        self,
        reduce_id: int,
        tt_name: str,
        consumer: "ShuffleConsumer",
        proc: Any,
    ):
        self.reduce_id = reduce_id
        self.tt_name = tt_name
        self.consumer = consumer
        #: The reduce wrapper running the attempt; migration interrupts it
        #: with cause ``"control-migrate"`` (killed, then relocated).
        self.proc = proc


class ControlPlane:
    """Per-job feedback controller (``ctx.control``).

    Created only when ``JobConf.control_active``; every hook in the
    scheduler and the engines is behind ``ctx.control is not None``.
    """

    def __init__(self, ctx: "JobContext"):
        self.ctx = ctx
        conf = ctx.conf
        self.interval = float(conf.control_interval)
        self.max_credits = max(MIN_CREDITS, 2 * conf.recv_credits)

        self.counters = Counter()
        for key in COUNTER_KEYS:
            self.counters.add(key, 0.0)
        #: Bounded decision log for ``phase_report["control"]``.
        self.decisions: list[dict[str, Any]] = []
        self.decisions_dropped = 0
        self._attempts: dict[int, _Attempt] = {}

    # -- live-attempt registry (maintained by the reduce wrappers) ----------

    def track_attempt(
        self, reduce_id: int, tt_name: str, consumer: "ShuffleConsumer", proc: Any
    ) -> None:
        """Register a freshly launched reduce attempt run by wrapper ``proc``."""
        self._attempts[reduce_id] = _Attempt(reduce_id, tt_name, consumer, proc)

    def untrack_attempt(self, reduce_id: int) -> None:
        """The attempt finished (or was torn down); stop actuating it."""
        self._attempts.pop(reduce_id, None)

    # -- signals -------------------------------------------------------------

    def _backlog(self, tt: "TaskTracker") -> float:
        provider = tt.provider
        return provider.backlog() if provider is not None else 0.0

    def _health(self, name: str) -> float:
        integ = self.ctx.integrity
        return integ.health_score(name) if integ is not None else 0.0

    def _penalised(self, tt: "TaskTracker") -> bool:
        """Does placement steering want to avoid this tracker right now?"""
        if self._backlog(tt) >= QUEUE_DEPTH:
            return True
        return self._health(tt.name) >= HEALTH_THRESHOLD

    # -- decision log --------------------------------------------------------

    def _decide(self, action: str, **detail: Any) -> None:
        self.counters.add(action, 1)
        if len(self.decisions) < _MAX_DECISIONS:
            self.decisions.append({"t": self.ctx.sim.now, "action": action, **detail})
        else:
            self.decisions_dropped += 1
        now = self.ctx.sim.now
        self.ctx.tracer.record("control", f"control-{action}", now, now)

    # -- placement steering --------------------------------------------------

    def pick(self, pool: list, load_key: Any) -> Any:
        """Steering-aware tracker choice for a reduce (re)placement.

        Prefers the least-loaded non-penalised tracker; when every
        candidate is penalised the plain least-loaded choice stands (a
        bad tracker beats no tracker).
        """
        baseline = min(pool, key=load_key)
        clean = [tt for tt in pool if not self._penalised(tt)]
        if not clean:
            return baseline
        choice = min(clean, key=load_key)
        if choice is not baseline:
            self._decide(
                "steered",
                avoided=baseline.name,
                chosen=choice.name,
                backlog=self._backlog(baseline),
                health=self._health(baseline.name),
            )
        return choice

    # -- the periodic controller ---------------------------------------------

    def run(self) -> Generator[Event, Any, None]:
        """The controller process; runs until the job's done event stops
        the simulation (pending ticks are simply never processed) — or
        until a master crash interrupts it (the recovered JobTracker
        starts a fresh controller process)."""
        from repro.sim.core import Interrupted

        sim = self.ctx.sim
        try:
            while True:
                yield sim.timeout(self.interval)
                self._tick()
        except Interrupted:
            return

    def _tick(self) -> None:
        self.counters.add("ticks", 1)
        self._retune_pass()
        self._migrate_pass()

    def _retune_pass(self) -> None:
        """Per-reducer window/spill adjustment from live pressure gauges."""
        for reduce_id in sorted(self._attempts):
            attempt = self._attempts[reduce_id]
            signals = attempt.consumer.control_signals()
            if not signals:
                continue
            mem_frac = float(signals.get("mem_frac", 0.0))
            paused = signals.get("gate_paused", 0.0) > 0
            credits = signals.get("credits")
            spill_frac = float(signals.get("spill_frac", 0.0))
            hot = paused or mem_frac >= 0.9 or (
                spill_frac > 0 and mem_frac >= spill_frac
            )
            cold = not hot and not paused and mem_frac < 0.25
            want_credits = None
            want_spill = None
            if hot:
                if credits is not None and int(credits) > MIN_CREDITS:
                    want_credits = max(MIN_CREDITS, int(credits) // 2)
                if spill_frac > SPILL_FLOOR:
                    want_spill = max(SPILL_FLOOR, spill_frac - _SPILL_STEP_DOWN)
            elif cold:
                if credits is not None and int(credits) < self.max_credits:
                    want_credits = min(self.max_credits, int(credits) + 1)
                if 0 < spill_frac < SPILL_CEILING:
                    want_spill = min(SPILL_CEILING, spill_frac + _SPILL_STEP_UP)
            if want_credits is None and want_spill is None:
                continue
            applied = attempt.consumer.retune(
                recv_credits=want_credits, spill_threshold=want_spill
            )
            if not applied:
                continue
            if "recv_credits" in applied:
                self.counters.add(
                    "credits_lowered" if hot else "credits_raised", 1
                )
            if "spill_threshold" in applied:
                self.counters.add("spill_lowered" if hot else "spill_raised", 1)
            self._decide(
                "retunes",
                reduce_id=reduce_id,
                tracker=attempt.tt_name,
                pressure="hot" if hot else "cold",
                **applied,
            )

    def _migrate_pass(self) -> None:
        """Evacuate live reducers off trackers quarantined mid-job."""
        integ = self.ctx.integrity
        if integ is None:
            return
        fired = 0
        for reduce_id in sorted(self._attempts):
            if fired >= _MIGRATIONS_PER_TICK:
                break
            attempt = self._attempts[reduce_id]
            if not integ.quarantined(attempt.tt_name):
                continue
            if not self._has_alternative(attempt.tt_name):
                continue  # nowhere better to go; staying put beats thrash
            progress = float(
                attempt.consumer.control_signals().get("shuffle_progress", 0.0)
            )
            if progress > _MIGRATE_PROGRESS_MAX:
                continue  # refetching a nearly-done shuffle costs more
            attempt.proc.interrupt("control-migrate")
            fired += 1
            self._decide(
                "migrations",
                reduce_id=reduce_id,
                tracker=attempt.tt_name,
                score=self._health(attempt.tt_name),
                progress=round(progress, 4),
            )

    def _has_alternative(self, name: str) -> bool:
        """Is there a healthy tracker with a *free* reduce slot?

        Relocating onto a slot-full tracker serializes the evacuated
        reducer behind everything already running there — worse than any
        sick host — so migration requires genuinely spare capacity.
        """
        ctx = self.ctx
        for tt_name in sorted(ctx.trackers):
            if tt_name == name:
                continue
            if ctx.faults is not None and ctx.faults.node_dead(tt_name):
                continue
            if ctx.integrity is not None and ctx.integrity.quarantined(tt_name):
                continue
            slots = ctx.trackers[tt_name].reduce_slots
            if slots.count < slots.capacity:
                return True
        return False

    # -- reporting -----------------------------------------------------------

    def metrics_snapshot(self) -> dict[str, float]:
        return self.counters.as_dict()

    def report(self) -> dict[str, Any]:
        """Phase-report section: decision counts + the bounded log."""
        out: dict[str, Any] = {
            key: self.counters.get(key) for key in COUNTER_KEYS
        }
        out["decisions"] = list(self.decisions)
        if self.decisions_dropped:
            out["decisions_dropped"] = self.decisions_dropped
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<ControlPlane ticks={self.counters.get('ticks'):.0f} "
            f"retunes={self.counters.get('retunes'):.0f} "
            f"migrations={self.counters.get('migrations'):.0f}>"
        )
