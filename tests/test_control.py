"""Closed-loop adaptive shuffle control plane (repro.control).

Covers the whole feedback loop: the inert-by-default contract (no knobs,
no footprint), determinism (same seed + fault plan => bit-identical
decisions and counters), the retune actuators (credit-window resize and
spill-threshold moves, both directions), quarantine-driven migration of
in-flight reducers, and the two scheduling bugfixes that ride along —
the quarantine-fallback counter in tracker picking and penalty-box decay
on fetch success.
"""

import dataclasses
from types import SimpleNamespace

import pytest

from repro import control, integrity
from repro.cluster import westmere_cluster
from repro.control import COUNTER_KEYS
from repro.faults import DiskCorruption, FaultPlan
from repro.mapreduce import journal, run_job, terasort_job
from repro.mapreduce.shuffle.base import CreditGate, ShuffleConsumer
from repro.obs.phases import PhaseTracer
from repro.sim.core import Simulator
from repro.sim.monitor import Counter
from repro.sim.rng import RandomStreams

GB = 1024**3
MB = 1024**2

#: Recovery knobs scaled down to these ~1 GB test jobs.
FAST_KNOBS = dict(
    fetch_backoff_base=0.2, fetch_backoff_max=1.5, penalty_box_secs=1.5
)


def run(engine, n_nodes=3, size=1 * GB, seed=7, heap_frac=1.0, **overrides):
    conf = terasort_job(size, n_nodes, engine, block_bytes=64 * MB, **overrides)
    if heap_frac != 1.0:
        costs = dataclasses.replace(
            conf.costs, task_heap_bytes=int(conf.costs.task_heap_bytes * heap_frac)
        )
        conf = dataclasses.replace(conf, costs=costs)
    return run_job(westmere_cluster(n_nodes), "ipoib", conf, seed=seed)


def assert_same_output(a, b):
    x = a.counters["reduce.output_bytes"]
    y = b.counters["reduce.output_bytes"]
    assert y == pytest.approx(x, rel=1e-9), "controlled run lost output bytes"


#: The plan from the quarantine tests: node02's disks flip reads and rot
#: committed outputs until the EWMA crosses the quarantine threshold.
SICK_NODE = FaultPlan(
    disk_corruptions=(DiskCorruption(node="node02", rate=0.5, rot_rate=0.3),),
    name="sick-node",
)


# ---------------------------------------------------------------------------
# Inert by default
# ---------------------------------------------------------------------------


def test_knob_free_run_has_no_control_footprint():
    result = run("rdma")
    assert not any(k.startswith("control.") for k in result.counters)
    assert "control" not in result.phase_report
    assert not any(k.startswith("control.") for k in result.metrics)
    assert "reduce.migrated" not in result.counters


def test_controller_on_quiet_job_is_timing_transparent():
    """A controller with nothing to actuate must not move the clock.

    Steering/retune decisions only matter under pressure; on a calm job
    with no gate and no spill machinery armed there is nothing to act on,
    and the periodic scan itself is free in simulated time.
    """
    plain = run("rdma")
    controlled = run("rdma", control_interval=2.0)
    assert controlled.execution_time == plain.execution_time
    assert_same_output(plain, controlled)
    c = controlled.counters
    assert c["control.ticks"] > 0
    assert c["control.retunes"] == 0  # no gate, no spill line -> no signals


def test_control_knob_validation():
    with pytest.raises(ValueError, match="control_interval"):
        run("rdma", control_interval=-1.0)


def test_robustness_constants_are_consistent():
    assert control.MIN_CREDITS >= 1
    assert 0.0 < control.SPILL_FLOOR <= control.SPILL_CEILING <= 1.0
    assert control.QUEUE_DEPTH >= 1
    assert 0.0 < control.HEALTH_THRESHOLD <= 1.0
    assert 0.0 < integrity.EWMA_ALPHA <= 1.0
    # A lease no longer than one heartbeat would lapse between beats on
    # a healthy master.
    assert journal.LEASE_TIMEOUT > journal.HEARTBEAT_INTERVAL > 0.0
    assert journal.RESTART_DELAY > 0.0
    assert journal.JOURNAL_FLUSH > 0.0


# ---------------------------------------------------------------------------
# Retune: the credit window and the spill line move with pressure
# ---------------------------------------------------------------------------


def test_cold_reducers_grow_their_windows():
    static = run("rdma", recv_credits=4, shuffle_spill_threshold=0.6)
    controlled = run(
        "rdma",
        recv_credits=4,
        shuffle_spill_threshold=0.6,
        control_interval=2.0,
    )
    assert_same_output(static, controlled)
    c = controlled.counters
    assert c["control.ticks"] > 0
    assert c["control.retunes"] > 0
    assert c["control.credits_raised"] > 0
    assert c["control.spill_raised"] > 0
    # The full counter key set exports whenever the plane is active.
    for key in COUNTER_KEYS:
        assert f"control.{key}" in c
    report = controlled.phase_report["control"]
    decisions = report["decisions"]
    assert decisions, "retunes must land in the decision log"
    assert all(d["action"] == "retunes" for d in decisions)
    # The window never exceeds the default ceiling (2x the static window).
    assert max(d["recv_credits"] for d in decisions if "recv_credits" in d) <= 8


def test_hot_reducers_shed_credits_and_spill_earlier():
    knobs = dict(
        partition_skew=1.2,
        shuffle_spill_threshold=0.55,
        merge_factor=4,
        recv_credits=4,
        responder_queue_limit=16,
    )
    static = run("rdma", heap_frac=0.25, **knobs)
    controlled = run(
        "rdma", heap_frac=0.25, control_interval=1.0, **knobs
    )
    assert_same_output(static, controlled)
    c = controlled.counters
    relief = c["control.credits_lowered"] + c["control.spill_lowered"]
    assert relief > 0, "memory-bound reducers must trigger the hot path"
    hot = [
        d
        for d in controlled.phase_report["control"]["decisions"]
        if d.get("pressure") == "hot"
    ]
    assert hot
    # The spill line never drops below the configured floor.
    floors = [d["spill_threshold"] for d in hot if "spill_threshold" in d]
    assert all(f >= 0.35 - 1e-9 for f in floors)


# ---------------------------------------------------------------------------
# Determinism: the controller consumes no RNG
# ---------------------------------------------------------------------------


def test_controller_decisions_are_deterministic():
    knobs = dict(
        fault_plan=SICK_NODE,
        recv_credits=4,
        shuffle_spill_threshold=0.6,
        control_interval=1.0,
        **FAST_KNOBS,
    )
    a = run("rdma", **knobs)
    b = run("rdma", **knobs)
    assert a.execution_time == b.execution_time
    assert a.counters == b.counters
    assert (
        a.phase_report["control"]["decisions"]
        == b.phase_report["control"]["decisions"]
    )


# ---------------------------------------------------------------------------
# Migration: reducers evacuate a tracker quarantined mid-job
# ---------------------------------------------------------------------------


def test_reducers_migrate_off_quarantined_tracker():
    # Six reducers on twelve slots: migration requires a *free* slot on a
    # healthy tracker (evacuating onto a full one would serialize the
    # attempt behind everything already running there).
    clean = run("rdma", n_reduces=6)
    controlled = run(
        "rdma",
        n_reduces=6,
        fault_plan=SICK_NODE,
        recv_credits=4,
        shuffle_spill_threshold=0.6,
        control_interval=0.5,
        **FAST_KNOBS,
    )
    c = controlled.counters
    assert c["integrity.quarantined_trackers"] >= 1
    assert c["control.migrations"] >= 1
    assert c["reduce.migrated"] >= 1
    # Killed, not failed: migration is a scheduling decision, and the
    # relaunched attempts refetch deterministically-partitioned data.
    assert c.get("reduce.failed_attempts", 0) == 0
    assert_same_output(clean, controlled)
    # The abandoned attempt's in-flight artifacts settle in the ledger.
    assert c["integrity.detected"] == c["integrity.recovered"]
    moves = [
        d
        for d in controlled.phase_report["control"]["decisions"]
        if d["action"] == "migrations"
    ]
    assert moves and all(m["tracker"] == "node02" for m in moves)


# ---------------------------------------------------------------------------
# Satellite: quarantine fallback in tracker picking is loud, not silent
# ---------------------------------------------------------------------------


def test_all_quarantined_fallback_is_counted():
    clean = run("rdma")
    plan = FaultPlan(
        disk_corruptions=tuple(
            DiskCorruption(node=f"node{i:02d}", rate=0.4, rot_rate=0.3)
            for i in range(3)
        ),
        name="everyone-sick",
    )
    faulty = run(
        "rdma",
        fault_plan=plan,
        quarantine_threshold=0.2,
        quarantine_min_failures=1,
        **FAST_KNOBS,
    )
    c = faulty.counters
    assert c["integrity.quarantined_trackers"] == 3
    # Every tracker is quarantined, so placement *must* fall back — and
    # each fallback is now counted instead of silently ignored.
    assert c["integrity.quarantine.fallback"] > 0
    assert_same_output(clean, faulty)


# ---------------------------------------------------------------------------
# Satellite: penalty-box decay on fetch success
# ---------------------------------------------------------------------------


def make_consumer(now=0.0, penalty_box_after=2, **overrides):
    conf = terasort_job(
        1 * GB,
        3,
        "rdma",
        block_bytes=64 * MB,
        penalty_box_after=penalty_box_after,
        penalty_box_secs=10.0,
        fetch_backoff_base=0.5,
        fetch_backoff_max=8.0,
        **overrides,
    )
    sim = Simulator(start=now)
    ctx = SimpleNamespace(
        sim=sim,
        counters=Counter(),
        tracer=PhaseTracer(enabled=False),
        conf=conf,
        rng=RandomStreams(99),
        faults=None,
        journal=None,
        shuffle_buffer_bytes=lambda: 0.0,
        jitter=lambda stream: 1.0,
    )
    tt = SimpleNamespace(node=None)
    return ShuffleConsumer(ctx, tt, reduce_id=0)


def test_success_halves_failure_streak():
    c = make_consumer(penalty_box_after=10)  # stay out of the box here
    for _ in range(3):
        c._fetch_backoff("node01")
    assert c._host_failures["node01"] == 3
    c._note_fetch_success("node01")
    assert c._host_failures["node01"] == 1
    c._note_fetch_success("node01")
    assert "node01" not in c._host_failures
    # No active box deadline was lifted -> the cleared counter stays off.
    assert c.ctx.counters.get("shuffle.retry.penalty_cleared") == 0


def test_success_lifts_active_penalty_box():
    c = make_consumer()
    c._fetch_backoff("node01")
    c._fetch_backoff("node01")  # streak 2 == penalty_box_after -> boxed
    assert c.ctx.counters.get("shuffle.retry.penalty_boxed") == 1
    assert c._penalty_remaining("node01") > 0
    c._note_fetch_success("node01")
    assert c._penalty_remaining("node01") == 0
    assert c.ctx.counters.get("shuffle.retry.penalty_cleared") == 1


def test_flapping_host_still_lands_in_the_box():
    """Mostly-failing hosts must accumulate history, not reset it.

    A host that fails three fetches for every one it serves never sees a
    ``penalty_box_after=4`` box under the old clear-on-success rule (the
    streak restarts from zero after every good fetch); with halving the
    history carries over and the second cycle crosses the line.
    """
    c = make_consumer(penalty_box_after=4)
    boxed = False
    for _cycle in range(4):
        for _ in range(3):
            c._fetch_backoff("node01")
            if c._penalty_remaining("node01") > 0:
                boxed = True
        if boxed:
            break
        c._note_fetch_success("node01")
    assert boxed, "flapping fail/fail/fail/success dodged the penalty box"
    # The old rule's streak peaked at 3 each cycle — never boxed.
    assert c.ctx.counters.get("shuffle.retry.penalty_boxed") == 1


def test_expired_box_is_not_counted_as_cleared():
    c = make_consumer()
    c._fetch_backoff("node01")
    c._fetch_backoff("node01")
    c.ctx.sim.now = c._penalty_until["node01"] + 1.0  # sentence served
    c._note_fetch_success("node01")
    assert c.ctx.counters.get("shuffle.retry.penalty_cleared") == 0


# ---------------------------------------------------------------------------
# CreditGate.resize: the window actuator under the control plane
# ---------------------------------------------------------------------------


def make_gate(credits):
    ctx = SimpleNamespace(
        sim=Simulator(),
        counters=Counter(),
        tracer=PhaseTracer(enabled=False),
    )
    return CreditGate(ctx, "reduce-0", credits)


def take(gate):
    """Drive acquire() to completion; only valid when a credit is free."""
    for _ in gate.acquire():
        raise AssertionError("acquire blocked with credits free")


def free_tokens(gate):
    return gate._tokens.level


def test_resize_grow_mints_credits():
    gate = make_gate(4)
    assert gate.resize(6)
    assert gate.credits == 6
    assert free_tokens(gate) == 6


def test_resize_shrink_eats_free_tokens():
    gate = make_gate(6)
    assert gate.resize(3)
    assert gate.credits == 3
    assert free_tokens(gate) == 3
    assert gate._deficit == 0


def test_resize_rejects_noop_and_invalid():
    gate = make_gate(4)
    assert not gate.resize(4)
    assert not gate.resize(0)
    assert gate.credits == 4


def test_shrink_with_credits_in_flight_absorbs_releases():
    gate = make_gate(4)
    for _ in range(4):
        take(gate)  # all four credits held by in-flight fetches
    assert gate.resize(2)
    # Nothing could be clawed back: the shrink is all deficit.
    assert gate._deficit == 2
    gate.release()  # destroyed, not granted
    gate.release()  # destroyed, not granted
    assert gate._deficit == 0
    assert free_tokens(gate) == 0
    gate.release()  # drained to the new size: grants resume
    gate.release()
    assert free_tokens(gate) == 2


def test_grow_after_shrink_settles_deficit_first():
    gate = make_gate(4)
    for _ in range(4):
        take(gate)
    gate.resize(1)  # deficit 3
    assert gate.resize(3)  # settles 2 of the deficit, mints nothing
    assert gate._deficit == 1
    assert free_tokens(gate) == 0
    gate.release()  # absorbed by the remaining deficit
    assert free_tokens(gate) == 0
    gate.release()
    gate.release()
    gate.release()
    assert free_tokens(gate) == 3


def test_resume_after_shrink_respects_deficit():
    gate = make_gate(3)
    for _ in range(3):
        take(gate)
    gate.pause()
    gate.release()  # withheld while paused
    gate.resize(1)  # deficit 2 (no free tokens to eat)
    gate.resume()  # the withheld credit is absorbed, not re-granted
    assert gate._deficit == 1
    assert free_tokens(gate) == 0
    gate.release()
    assert free_tokens(gate) == 0
    gate.release()
    assert free_tokens(gate) == 1


# ---------------------------------------------------------------------------
# Satellite: phase-report rows are omitted, never empty/None
# ---------------------------------------------------------------------------


def _no_empty_rows(node, path="phase_report"):
    assert node is not None, f"{path} is None"
    if isinstance(node, dict):
        for key, value in node.items():
            _no_empty_rows(value, f"{path}.{key}")


def test_phase_report_has_no_none_rows():
    result = run(
        "rdma",
        integrity_checksums=True,
        ucr_tracing=True,
        control_interval=2.0,
    )
    _no_empty_rows(result.phase_report)
    assert "control" in result.phase_report
    for key in COUNTER_KEYS:
        assert key in result.phase_report["control"]
