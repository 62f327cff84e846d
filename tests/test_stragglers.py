"""Degradation faults + LATE speculation (the straggler-mitigation layer).

Three levels, mirroring the subsystem's structure:

* plan plumbing — the degradation entries (``NodeSlowdown`` /
  ``LinkDegrade`` / ``DiskSlowdown``) validate, count into
  ``nodes_referenced`` and fail fast on unknown nodes, plus the
  ``ResponderStall`` validation edge cases the older suites missed;
* estimator properties — :mod:`repro.mapreduce.speculation` in isolation
  (monotone progress, order-independent deterministic picks, and the
  no-relative-straggler guarantee: equal rates never speculate);
* end-to-end commit-once — a degraded node plus LATE backups on every
  engine must commit each task exactly once, tear losers down as
  *killed* (not failed), and keep output bytes identical to the
  no-speculation run.

The speculation-beats-no-speculation performance claim is gated by
``benchmarks/test_stragglers.py``; here we only pin correctness.
"""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import westmere_cluster
from repro.faults import (
    DiskSlowdown,
    FaultPlan,
    LinkDegrade,
    NodeSlowdown,
    ResponderStall,
    fault_plan,
)
from repro.mapreduce import run_job, terasort_job
from repro.mapreduce.speculation import AttemptProgress, pick_straggler
from repro.tools import phase_breakdown

GB = 1024**3
MB = 1024**2


def nodes(n):
    return [f"node{i:02d}" for i in range(n)]


# ---------------------------------------------------------------------------
# Plan plumbing (no simulation)
# ---------------------------------------------------------------------------


def test_degradation_plan_validation():
    with pytest.raises(ValueError, match="negative"):
        FaultPlan(slowdowns=(NodeSlowdown(at=-1.0, node="n", duration=5.0, factor=2.0),))
    with pytest.raises(ValueError, match="non-positive window duration"):
        FaultPlan(
            link_degrades=(LinkDegrade(at=1.0, node="n", duration=0.0, factor=2.0),)
        )
    with pytest.raises(ValueError, match="non-positive degradation factor"):
        FaultPlan(
            disk_slowdowns=(DiskSlowdown(at=1.0, node="n", duration=5.0, factor=0.0),)
        )
    with pytest.raises(ValueError, match="non-positive degradation factor"):
        FaultPlan(slowdowns=(NodeSlowdown(at=1.0, node="n", duration=5.0, factor=-2.0),))


def test_responder_stall_validation():
    # Stall edge cases the older validation tests never covered: stalls are
    # windows too, so both the onset and the duration must be sane.
    with pytest.raises(ValueError, match="negative"):
        FaultPlan(stalls=(ResponderStall(at=-0.5, node="n", duration=1.0),))
    with pytest.raises(ValueError, match="non-positive window duration"):
        FaultPlan(stalls=(ResponderStall(at=1.0, node="n", duration=0.0),))


def test_nodes_referenced_covers_degradation():
    plan = FaultPlan(
        slowdowns=(NodeSlowdown(at=1.0, node="node00", duration=5.0, factor=2.0),),
        link_degrades=(LinkDegrade(at=1.0, node="node01", duration=5.0, factor=2.0),),
        disk_slowdowns=(DiskSlowdown(at=1.0, node="node02", duration=5.0, factor=2.0),),
        stalls=(ResponderStall(at=1.0, node="node03", duration=5.0),),
        name="mixed",
    )
    assert plan.nodes_referenced() == {"node00", "node01", "node02", "node03"}
    assert plan.has_degradation
    assert not plan.empty


def test_degradation_only_plan_is_not_empty():
    plan = FaultPlan(
        slowdowns=(NodeSlowdown(at=1.0, node="node01", duration=5.0, factor=2.0),)
    )
    assert not plan.empty
    assert plan.has_degradation
    assert not plan.has_corruption
    assert FaultPlan().empty
    assert not FaultPlan().has_degradation


def test_standard_slowdown_plan_shape():
    plan = fault_plan(["slowdown"], nodes(3), runtime_hint=100.0)
    # One sick node (the last), degraded on all three axes, nothing crashes.
    assert plan.nodes_referenced() == {"node02"}
    assert len(plan.slowdowns) == len(plan.disk_slowdowns) == len(plan.link_degrades) == 1
    assert not plan.crashes
    with pytest.raises(ValueError, match=">= 2 nodes"):
        fault_plan(["slowdown"], nodes(1), runtime_hint=100.0)
    with pytest.raises(ValueError, match="runtime_hint"):
        fault_plan(["slowdown"], nodes(3), runtime_hint=0.0)


def test_seeded_slowdown_plan_deterministic():
    names = nodes(4)

    def draw(seed):
        return fault_plan(["slowdown"], names, 100.0, seed=seed)

    assert draw(9) == draw(9)
    plans = [draw(seed) for seed in range(16)]
    # The first node always stays healthy (a backup target must exist).
    assert all("node00" not in p.nodes_referenced() for p in plans)
    assert all(p.has_degradation for p in plans)
    assert len({p for p in plans}) > 1, "every seed drew the identical plan"


def test_unknown_degradation_node_fails_fast():
    plan = FaultPlan(
        slowdowns=(NodeSlowdown(at=1.0, node="node99", duration=5.0, factor=2.0),)
    )
    conf = terasort_job(1 * GB, 2, "http", fault_plan=plan)
    with pytest.raises(ValueError, match="node99"):
        run_job(westmere_cluster(2), "ipoib", conf, seed=1)


# ---------------------------------------------------------------------------
# Estimator properties (no simulation)
# ---------------------------------------------------------------------------


@given(st.lists(st.floats(-1.0, 2.0, allow_nan=False), min_size=1, max_size=20))
def test_progress_monotone_and_clamped(updates):
    est = AttemptProgress("map", 0, 0, "n", started=0.0)
    prev = 0.0
    for u in updates:
        est.advance(u)
        assert prev <= est.progress <= 1.0
        prev = est.progress


@given(
    st.floats(0.01, 0.99),
    st.floats(0.01, 0.99),
    st.floats(1.0, 1000.0),
)
def test_more_work_done_means_earlier_projection(p1, p2, age):
    lo, hi = sorted((p1, p2))
    slow = AttemptProgress("map", 0, 0, "n", started=0.0, progress=lo)
    fast = AttemptProgress("map", 1, 0, "n", started=0.0, progress=hi)
    assert fast.rate(age) >= slow.rate(age)
    assert fast.est_total(age) <= slow.est_total(age)
    assert fast.est_finish(age) <= slow.est_finish(age)


@given(
    st.integers(2, 8),
    st.floats(0.05, 0.95),
    st.floats(1.0, 50.0),
    st.floats(1.0 + 1e-6, 3.0),
)
def test_equal_rates_never_speculate(n, progress, now, threshold):
    """No *relative* straggler -> no pick, for any threshold > 1.

    Every attempt started together and progressed identically, and the
    completed-task median implies the same pace, so nothing can project
    past threshold x median.
    """
    ests = [
        AttemptProgress("map", i, 0, f"n{i}", started=0.0, progress=progress)
        for i in range(n)
    ]
    median = now / progress  # the duration this common pace implies
    assert pick_straggler(ests, now, median, threshold) is None


@settings(max_examples=30)
@given(st.permutations(list(range(5))))
def test_pick_is_order_independent(order):
    base = [
        AttemptProgress("map", i, 0, f"n{i}", started=0.0, progress=0.1 * (i + 1))
        for i in range(5)
    ]
    shuffled = [base[i] for i in order]
    pick = pick_straggler(shuffled, 100.0, median_duration=10.0, threshold=1.5)
    assert pick is not None
    # Slowest rate = least progress = task 0, regardless of scan order.
    assert (pick.task_id, pick.attempt) == (0, 0)


def test_pick_skips_unjudgeable_attempts():
    now = 100.0
    unstarted = AttemptProgress("map", 0, 0, "n", started=0.0, progress=0.0)
    finished = AttemptProgress("map", 1, 0, "n", started=0.0, progress=1.0)
    young = AttemptProgress("map", 2, 0, "n", started=now, progress=0.5)
    laggard = AttemptProgress("map", 3, 0, "n", started=0.0, progress=0.2)
    pool = [unstarted, finished, young, laggard]
    pick = pick_straggler(pool, now, median_duration=10.0, threshold=1.5)
    assert pick is laggard
    # No completed-task median yet -> never speculate.
    assert pick_straggler(pool, now, median_duration=0.0, threshold=1.5) is None
    # Only unjudgeable attempts -> nothing to pick.
    assert pick_straggler([unstarted, finished, young], now, 10.0, 1.5) is None


# ---------------------------------------------------------------------------
# End-to-end commit-once under a degraded node (every engine)
# ---------------------------------------------------------------------------

SICK_NODE = "node02"

#: Harsh enough that a 3-node job reliably provokes backups on every engine.
HARSH = FaultPlan(
    slowdowns=(NodeSlowdown(at=1.0, node=SICK_NODE, duration=600.0, factor=6.0),),
    disk_slowdowns=(DiskSlowdown(at=1.0, node=SICK_NODE, duration=600.0, factor=4.0),),
    link_degrades=(LinkDegrade(at=1.0, node=SICK_NODE, duration=600.0, factor=4.0),),
    name="harsh-degradation",
)

SPECULATION = dict(
    speculative_execution=True,
    speculative_reduces=True,
    speculative_threshold=1.3,
    speculative_interval=1.0,
)


@functools.lru_cache(maxsize=None)
def degraded_run(engine, speculate):
    conf = terasort_job(
        1 * GB,
        3,
        engine,
        block_bytes=256 * MB,
        n_reduces=6,
        fault_plan=HARSH,
        **(SPECULATION if speculate else {}),
    )
    return run_job(westmere_cluster(3), "ipoib", conf, seed=3)


@pytest.mark.parametrize("engine", ["http", "hadoopa", "rdma"])
def test_degradation_injects_and_job_completes(engine):
    r = degraded_run(engine, False)
    c = r.counters
    assert c["faults.node_slowdowns"] == 1
    assert c["faults.disk_slowdowns"] == 1
    assert c["faults.link_degrades"] == 1
    assert c["reduce.completed"] == r.conf.n_reduces
    # Speculation off: no speculation footprint at all.
    spec_keys = [k for k in c if k.startswith("speculation.")]
    assert spec_keys == []


@pytest.mark.parametrize("engine", ["http", "hadoopa", "rdma"])
def test_commit_once_and_loser_teardown(engine):
    off = degraded_run(engine, False)
    on = degraded_run(engine, True)
    c = on.counters

    # Commit-once: every task commits exactly once, and the committed
    # output is byte-identical to the no-speculation run.
    assert c["map.completed"] == on.conf.n_maps
    assert c["reduce.completed"] == on.conf.n_reduces
    assert c["reduce.committed_output_bytes"] == pytest.approx(
        off.counters["reduce.committed_output_bytes"], rel=1e-9
    )
    # Raw reduce output = committed + the losers' discarded partials.
    assert c["reduce.output_bytes"] == pytest.approx(
        c["reduce.committed_output_bytes"] + c["speculation.wasted_output_bytes"],
        rel=1e-9,
    )

    # The degraded node provoked backups, and races resolved cleanly:
    # every loser was torn down as *killed*, never burning a failure.
    backups = c["speculation.map_backups"] + c["speculation.reduce_backups"]
    assert backups > 0, "the degraded node never provoked a backup attempt"
    assert c["speculation.wins"] > 0
    assert c["speculation.wins"] + c["speculation.losers_killed"] == 2 * backups

    killed = [s for s in on.task_spans if s.killed]
    assert len(killed) == c["speculation.losers_killed"]
    assert all(not s.ok for s in killed)
    phases = phase_breakdown(on.task_spans)
    for kind in ("map", "reduce"):
        assert phases[f"{kind}.failed_attempts"] == 0.0

    # The decision log mirrors the counters.
    report = on.phase_report["speculation"]
    assert report["counters"]["wins"] == c["speculation.wins"]
    actions = [d["action"] for d in report["decisions"]]
    assert actions.count("losers_killed") == c["speculation.losers_killed"]


def test_speculation_deterministic_same_seed():
    a = degraded_run("rdma", True)
    conf = terasort_job(
        1 * GB,
        3,
        "rdma",
        block_bytes=256 * MB,
        n_reduces=6,
        fault_plan=HARSH,
        **SPECULATION,
    )
    b = run_job(westmere_cluster(3), "ipoib", conf, seed=3)
    assert a.execution_time == b.execution_time
    assert a.counters == b.counters
