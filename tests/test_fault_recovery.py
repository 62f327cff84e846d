"""Fault-plan injection and end-to-end recovery (the robustness layer).

Covers the :mod:`repro.faults` machinery proper: node crashes mid-job
(map re-execution + reduce attempt migration), link flaps (fetch retry /
back-off / penalty box, verbs->IPoIB downgrade), disk read errors, and
responder stalls.  The transparent-overhead invariant — a job with no
fault plan behaves bit-identically to one built before this subsystem
existed — is checked via counter-key absence and determinism, and "no
faults" is the empty plan.

The plan's task-failure rates (``map_failure_rate`` /
``reduce_failure_rate``) are covered in test_fault_tolerance.py.
"""

import pytest

from repro.cluster import westmere_cluster
from repro.faults import (
    FaultPlan,
    LinkFlap,
    NodeCrash,
    ResponderStall,
    standard_fault_plan,
)
from repro.mapreduce import run_job, terasort_job

GB = 1024**3
MB = 1024**2

#: Recovery knobs scaled down to these ~1 GB test jobs.
FAST_KNOBS = dict(
    fetch_backoff_base=0.2, fetch_backoff_max=1.5, penalty_box_secs=1.5
)


def run(engine, n_nodes=3, size=1 * GB, seed=1, **overrides):
    conf = terasort_job(size, n_nodes, engine, block_bytes=64 * MB, **overrides)
    return run_job(westmere_cluster(n_nodes), "ipoib", conf, seed=seed)


def nodes(n):
    return [f"node{i:02d}" for i in range(n)]


def assert_same_output(clean, faulty):
    a = clean.counters["reduce.output_bytes"]
    b = faulty.counters["reduce.output_bytes"]
    assert b == pytest.approx(a, rel=1e-9), "faulty run lost output bytes"


# ---------------------------------------------------------------------------
# Node crash: map outputs lost, maps re-executed, reduces migrated
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("engine", ["http", "hadoopa", "rdma"])
def test_node_crash_recovered(engine):
    clean = run(engine)
    plan = FaultPlan(
        crashes=(NodeCrash(at=0.55 * clean.execution_time, node="node02"),),
        name="crash-only",
    )
    faulty = run(engine, fault_plan=plan, **FAST_KNOBS)
    assert_same_output(clean, faulty)
    assert faulty.execution_time > clean.execution_time
    c = faulty.counters
    assert c["faults.node_crashes"] == 1
    # The dead node held committed map outputs and running reduces.
    assert c["map.reexecuted"] > 0
    assert c["reduce.node_lost"] > 0
    assert c["reduce.completed"] == faulty.conf.n_reduces


def test_crash_before_any_work_still_completes():
    clean = run("rdma")
    plan = FaultPlan(crashes=(NodeCrash(at=0.01, node="node02"),), name="early")
    faulty = run("rdma", fault_plan=plan, **FAST_KNOBS)
    assert_same_output(clean, faulty)


def test_reexecution_host_crash_relaunches_the_map():
    # node02's crash moves its maps onto node01; node01 then dies under
    # those re-executions, which must relaunch on node00: dropped as
    # duplicates of themselves, they would leave the job unfinished.
    clean = run("rdma")
    at = 0.5 * clean.execution_time
    plan = FaultPlan(
        crashes=(
            NodeCrash(at=at, node="node02"),
            NodeCrash(at=at + 1.0, node="node01"),
        ),
        name="reexec-host-crash",
    )
    faulty = run("rdma", fault_plan=plan, **FAST_KNOBS)
    assert_same_output(clean, faulty)
    assert faulty.counters["reduce.completed"] == faulty.conf.n_reduces


# ---------------------------------------------------------------------------
# Link flaps: retry/back-off, penalty box, verbs downgrade
# ---------------------------------------------------------------------------


def flap_plan(clean, node="node01", at=0.35, frac=0.25):
    return FaultPlan(
        flaps=(
            LinkFlap(
                at=at * clean.execution_time,
                node=node,
                duration=frac * clean.execution_time,
            ),
        ),
        name="flap-only",
    )


@pytest.mark.parametrize("engine", ["http", "hadoopa", "rdma"])
def test_link_flap_retries_and_recovers(engine):
    clean = run(engine)
    faulty = run(engine, fault_plan=flap_plan(clean), **FAST_KNOBS)
    assert_same_output(clean, faulty)
    c = faulty.counters
    assert c["faults.link_flaps"] == 1
    assert c["shuffle.retry.attempts"] > 0
    assert c["shuffle.retry.backoff_seconds"] > 0


@pytest.mark.parametrize("engine", ["hadoopa", "rdma"])
def test_link_flap_downgrades_verbs_to_ipoib(engine):
    clean = run(engine)
    # Position the flap well into the shuffle so verbs endpoints exist to
    # tear down (hadoopa's copiers connect only once fetch waves start).
    faulty = run(
        engine,
        fault_plan=flap_plan(clean, at=0.6, frac=0.3),
        verbs_downgrade_after=1,
        **FAST_KNOBS,
    )
    assert_same_output(clean, faulty)
    c = faulty.counters
    assert c["ucr.teardowns"] > 0, "flap must tear down UCR endpoints"
    assert c["ucr.downgrades"] > 0, "repeated verbs failures must degrade to IPoIB"


def test_persistent_flap_hits_penalty_box():
    clean = run("http")
    faulty = run(
        "http",
        fault_plan=flap_plan(clean, frac=0.4),
        fetch_backoff_base=0.05,
        fetch_backoff_max=0.2,
        penalty_box_after=2,
        penalty_box_secs=1.0,
        fetch_retry_limit=50,  # keep retrying instead of condemning the output
    )
    assert_same_output(clean, faulty)
    assert faulty.counters["shuffle.retry.penalty_boxed"] > 0


# ---------------------------------------------------------------------------
# Disk errors and responder stalls
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("engine", ["http", "hadoopa", "rdma"])
def test_disk_read_errors_retried(engine):
    clean = run(engine)
    plan = FaultPlan(disk_error_rate=0.25, name="disk-only")
    faulty = run(engine, fault_plan=plan, **FAST_KNOBS)
    assert_same_output(clean, faulty)
    c = faulty.counters
    assert c["faults.disk_errors"] > 0
    assert c["shuffle.retry.attempts"] >= c["faults.disk_errors"]


def test_responder_stall_delays_but_completes():
    clean = run("rdma")
    plan = FaultPlan(
        stalls=(
            # A wide window: rdma's request waves are bursty, so a narrow
            # stall can fall entirely between them and never be observed.
            ResponderStall(
                at=0.2 * clean.execution_time,
                node="node01",
                duration=0.5 * clean.execution_time,
            ),
        ),
        name="stall-only",
    )
    faulty = run("rdma", fault_plan=plan, **FAST_KNOBS)
    assert_same_output(clean, faulty)
    assert faulty.counters["faults.responder_stalls"] > 0


# ---------------------------------------------------------------------------
# The standard chaos plan, and the no-fault transparency invariant
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("engine", ["http", "hadoopa", "rdma"])
def test_standard_plan_deterministic(engine):
    clean = run(engine)
    plan = standard_fault_plan(nodes(3), clean.execution_time)
    a = run(engine, fault_plan=plan, **FAST_KNOBS)
    b = run(engine, fault_plan=plan, **FAST_KNOBS)
    assert a.counters == b.counters
    assert a.execution_time == b.execution_time


def test_no_plan_leaves_no_fault_footprint():
    result = run("rdma")
    fault_keys = [
        k
        for k in {**result.counters, **result.metrics}
        if k.startswith(("faults.", "shuffle.retry.", "ucr."))
        or k in ("map.reexecuted", "map.lost_outputs", "reduce.node_lost")
    ]
    assert fault_keys == [], f"fault-free run leaked fault keys: {fault_keys}"


@pytest.mark.parametrize("engine", ["http", "hadoopa", "rdma"])
def test_empty_plan_matches_no_plan(engine):
    a = run(engine, fault_plan=None)
    b = run(engine, fault_plan=FaultPlan())
    assert a.counters == b.counters
    assert a.execution_time == b.execution_time
    assert sorted(a.metrics) == sorted(b.metrics)


def test_plan_crashing_every_node_rejected():
    plan = FaultPlan(
        crashes=tuple(NodeCrash(at=1.0, node=n) for n in nodes(2)),
        name="doomed",
    )
    with pytest.raises(ValueError, match="crashes every node"):
        run("http", n_nodes=2, fault_plan=plan)
