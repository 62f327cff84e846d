"""Master resilience: journal, crash/restart recovery, lease-fenced commits.

Three levels, mirroring the subsystem's structure:

* plan plumbing — ``MasterCrash`` / ``MasterStall`` entries validate
  with indexed error messages, count into ``has_master_faults``, and
  the standard/seeded/named builders behave;
* journal unit semantics — epoch fencing, commit-once, and idempotent
  replay on a bare :class:`JobJournal` (no simulation);
* end-to-end failover — a mid-job JobTracker crash on every engine
  must recover to byte-identical committed output with zero double
  commits, across early (map-phase), mid-reduce, and late crash
  windows, plus survived-in-place short stalls.

The recovery-overhead performance claim is gated by
``benchmarks/test_master.py``; here we only pin correctness.
"""

import functools
from types import SimpleNamespace

import pytest

from repro.cluster import westmere_cluster
from repro.faults import (
    FaultPlan,
    MasterCrash,
    MasterStall,
    named_plan,
    seeded_master_plan,
    standard_master_plan,
)
from repro.mapreduce import run_job, terasort_job
from repro.mapreduce.journal import JobJournal

GB = 1024**3

ENGINES = ["http", "hadoopa", "rdma"]


def nodes(n):
    return [f"node{i:02d}" for i in range(n)]


# ---------------------------------------------------------------------------
# Plan plumbing (no simulation)
# ---------------------------------------------------------------------------


def test_master_plan_validation_names_offender():
    # Satellite: validation errors name the offending entry's index and
    # type, so a bad entry deep in a long plan is found without bisecting.
    with pytest.raises(ValueError, match=r"master_crashes\[0\] \(MasterCrash\)"):
        FaultPlan(master_crashes=(MasterCrash(at=-1.0),))
    with pytest.raises(ValueError, match=r"master_stalls\[1\] \(MasterStall\)"):
        FaultPlan(
            master_stalls=(
                MasterStall(at=1.0, duration=2.0),
                MasterStall(at=3.0, duration=0.0),
            )
        )
    with pytest.raises(ValueError, match="non-positive window duration"):
        FaultPlan(master_stalls=(MasterStall(at=1.0, duration=-1.0),))


def test_master_only_plan_is_not_empty():
    plan = FaultPlan(master_crashes=(MasterCrash(at=5.0),))
    assert not plan.empty
    assert plan.has_master_faults
    assert not plan.has_corruption
    assert not plan.has_degradation
    # Master entries are control-plane: no node name to validate.
    assert plan.nodes_referenced() == set()
    assert not FaultPlan().has_master_faults


def test_standard_master_plan_shape():
    plan = standard_master_plan(nodes(3), runtime_hint=100.0)
    assert len(plan.master_crashes) == 1
    assert plan.master_crashes[0].at == pytest.approx(45.0)
    assert not plan.master_stalls and not plan.crashes
    with pytest.raises(ValueError, match="runtime_hint"):
        standard_master_plan(nodes(3), runtime_hint=0.0)


def test_seeded_master_plan_deterministic():
    names = nodes(3)
    assert seeded_master_plan(4, names, 100.0) == seeded_master_plan(4, names, 100.0)
    plans = [seeded_master_plan(seed, names, 100.0) for seed in range(16)]
    assert all(p.has_master_faults for p in plans)
    # The draw straddles both fault kinds across seeds.
    assert any(p.master_crashes for p in plans)
    assert any(p.master_stalls for p in plans)
    with pytest.raises(ValueError, match="runtime_hint"):
        seeded_master_plan(0, names, -1.0)


def test_named_plan_dispatch():
    assert named_plan("master", nodes(3), 100.0) == standard_master_plan(
        nodes(3), 100.0
    )
    assert named_plan("slowdown", nodes(3), 100.0).has_degradation
    with pytest.raises(ValueError, match="corruption.*master.*slowdown.*standard"):
        named_plan("chaos", nodes(3), 100.0)


def test_master_knob_validation():
    assert not terasort_job(1 * GB, 3, "http").master_active
    assert terasort_job(1 * GB, 3, "http", master_journal=True).master_active


# ---------------------------------------------------------------------------
# Journal unit semantics (no simulation)
# ---------------------------------------------------------------------------


def bare_journal():
    ctx = SimpleNamespace(sim=SimpleNamespace(now=0.0))
    return JobJournal(ctx)


def test_fencing_rejects_zombie_epoch_writes():
    j = bare_journal()
    assert j.append("job_submitted", job="j1")
    assert j.commit_reduce(0, 0, 0, 100.0, "node00")
    tail = j.note_master_down()
    # Down window: the dead incarnation's writes are all rejected.
    assert not j.append("map_committed", map_id=1, host="node00")
    assert not j.commit_reduce(0, 1, 0, 100.0, "node00")
    assert j.fence() == 1
    # Post-fence, the zombie's stale epoch stays rejected forever...
    assert not j.append("map_committed", epoch=0, map_id=1, host="node00")
    assert not j.commit_reduce(0, 1, 0, 100.0, "node00")
    # ...while the fresh incarnation writes freely.
    assert j.commit_reduce(1, 1, 0, 100.0, "node01")
    assert j.counters.get("fenced_appends") == 2.0
    assert j.counters.get("fenced_commits") == 2.0
    # The dead incarnation's buffered (never-flushed) writes came back
    # as the zombie tail: the pre-crash submit + commit records.
    assert [rec["kind"] for rec in tail] == ["job_submitted", "reduce_committed"]


def test_commit_once_across_epochs():
    j = bare_journal()
    assert j.commit_reduce(0, 3, 0, 50.0, "node00")
    # Same reduce, any later attempt/incarnation: prevented, not fenced.
    assert not j.commit_reduce(0, 3, 1, 50.0, "node01")
    j.note_master_down()
    j.fence()
    assert not j.commit_reduce(1, 3, 2, 50.0, "node02")
    assert j.counters.get("double_commits_prevented") == 2.0
    assert j.committed[3][0] == 0  # the first attempt's commit stands


def test_replay_is_pure_and_idempotent():
    j = bare_journal()
    j.append("job_submitted", job="j1")
    j.append("map_committed", map_id=0, host="node00")
    j.append("map_committed", map_id=1, host="node01")
    j.append("map_condemned", map_id=1, host="node01")
    j.append("reduce_attempt_started", reduce_id=0, attempt=0)
    j.commit_reduce(0, 0, 0, 64.0, "node00")
    j.append("quarantine", node="node02")
    j.append("penalty_box", reduce_id=1, host="node02")
    j.append("speculation", task_kind="map", task_id=5, backup="node00")
    first = j.replay()
    assert first == j.replay(), "replay is not idempotent"
    assert first.map_hosts == {0: "node00"}
    assert first.condemned == {1}
    assert first.committed_reduces[0][1] == 64.0
    assert first.reduce_attempt_seq[0] == 1
    assert first.quarantined == {"node02"}
    assert first.penalty_boxed == {(1, "node02")}
    assert first.speculated == {("map", 5)}
    # A re-committed map clears its condemnation (re-execution landed).
    j.append("map_committed", map_id=1, host="node02")
    assert j.replay().condemned == set()


# ---------------------------------------------------------------------------
# End-to-end failover (every engine)
# ---------------------------------------------------------------------------

SIZE = int(0.05 * GB)


@functools.lru_cache(maxsize=None)
def plain_run(engine):
    conf = terasort_job(SIZE, 3, engine)
    return run_job(westmere_cluster(3), "ipoib", conf, seed=7)


@functools.lru_cache(maxsize=None)
def faulted_run(engine, kind, frac, dur_frac=0.0):
    hint = plain_run(engine).execution_time
    if kind == "crash":
        plan = FaultPlan(
            master_crashes=(MasterCrash(at=frac * hint),), name="master-crash"
        )
    else:
        plan = FaultPlan(
            master_stalls=(MasterStall(at=frac * hint, duration=dur_frac * hint),),
            name="master-stall",
        )
    conf = terasort_job(SIZE, 3, engine, fault_plan=plan)
    return run_job(westmere_cluster(3), "ipoib", conf, seed=7)


def assert_recovered_byte_identical(engine, faulted):
    plain = plain_run(engine)
    c = faulted.counters
    assert c["reduce.completed"] == faulted.conf.n_reduces
    # Byte-identical committed output, exactly once per reduce.  Plain
    # runs record no committed_output_bytes (nothing races there), so
    # the baseline is their total reduce output.
    assert c["reduce.committed_output_bytes"] == pytest.approx(
        plain.counters["reduce.output_bytes"], rel=1e-9
    )
    assert c["journal.double_commits_prevented"] == 0.0
    assert c["map.completed"] >= faulted.conf.n_maps


def test_knob_free_run_exports_no_journal_state():
    # Inert-by-default: without master knobs or master fault entries, no
    # journal exists and no journal/master counters leak into results.
    c = plain_run("http").counters
    assert not any(k.startswith("journal.") for k in c)
    assert not any(k.startswith("master.") for k in c)
    assert "recovery" not in plain_run("http").phase_report


def test_journal_only_run_commits_identically():
    # The journal alone (no faults): one epoch, nothing fenced, and the
    # committed bytes match the journal-free run exactly.
    conf = terasort_job(SIZE, 3, "http", master_journal=True)
    r = run_job(westmere_cluster(3), "ipoib", conf, seed=7)
    c = r.counters
    assert c["master.epochs"] == 1.0
    assert c["journal.appends"] > 0
    assert c["journal.fenced_appends"] == 0.0
    assert c["journal.fenced_commits"] == 0.0
    assert c["reduce.output_bytes"] == pytest.approx(
        plain_run("http").counters["reduce.output_bytes"], rel=1e-9
    )
    assert r.phase_report["recovery"]["epoch"] == c["master.epochs"] - 1


@pytest.mark.parametrize("engine", ENGINES)
def test_mid_job_crash_recovers_byte_identical(engine):
    r = faulted_run(engine, "crash", 0.45)
    c = r.counters
    assert c["faults.master_crashes"] == 1
    assert c["master.epochs"] == 2.0
    assert_recovered_byte_identical(engine, r)
    # The fencing probe proves at least one zombie write was rejected.
    assert c["journal.fenced_commits"] >= 1
    # Workers parked on master silence and re-registered on restart.
    assert c["master.tt_parked"] >= 1


@pytest.mark.parametrize("frac", [0.63, 0.72])
def test_reduce_phase_crash_windows(frac):
    # Later windows catch reducers mid-flight (orphan teardown) or
    # finishing headless (lease-fenced commits); both must stay
    # byte-identical with commits surviving exactly once.
    r = faulted_run("rdma", "crash", frac)
    c = r.counters
    assert c["master.epochs"] == 2.0
    assert_recovered_byte_identical("rdma", r)
    assert c["reduce.master_lost"] + c["journal.fenced_commits"] >= 1


def test_short_stall_survived_in_place():
    # A stall shorter than the lease timeout: heartbeats resume before
    # anyone parks, so no failover — one epoch, no fencing.
    r = faulted_run("http", "stall", 0.45, dur_frac=0.02)
    c = r.counters
    assert c["faults.master_stalls"] == 1
    assert c["master.epochs"] == 1.0
    assert c["journal.fenced_commits"] == 0.0
    assert_recovered_byte_identical("http", r)


def test_long_stall_triggers_failover():
    # A stall past the lease is indistinguishable from a crash: the
    # stalled incarnation is fenced out and a fresh epoch takes over.
    r = faulted_run("http", "stall", 0.45, dur_frac=0.5)
    c = r.counters
    assert c["faults.master_stalls"] == 1
    assert c["master.epochs"] == 2.0
    assert c["journal.fenced_commits"] >= 1
    assert_recovered_byte_identical("http", r)


def test_failover_deterministic_same_seed():
    a = faulted_run("rdma", "crash", 0.45)
    hint = plain_run("rdma").execution_time
    plan = FaultPlan(
        master_crashes=(MasterCrash(at=0.45 * hint),), name="master-crash"
    )
    conf = terasort_job(SIZE, 3, "rdma", fault_plan=plan)
    b = run_job(westmere_cluster(3), "ipoib", conf, seed=7)
    assert a.execution_time == b.execution_time
    assert a.counters == b.counters


def test_recovery_report_in_phase_report():
    r = faulted_run("http", "crash", 0.45)
    report = r.phase_report["recovery"]
    assert report["epoch"] == 1
    assert report["records"] == r.counters["journal.appends"]
    assert r.counters["master.epochs"] == 2.0
