"""Failure injection and recovery (the paper's §VI future-work extension).

Map attempts die partway and are rescheduled; reduce attempts die and
re-run their whole shuffle; fetches fail transiently and back off.  The
invariants: jobs still complete correctly, recovery costs time, and the
retry counters account for every injected fault.  Every failure comes
from the :class:`~repro.faults.FaultPlan` (task-failure rates, disk read
errors); a killed attempt (node crash) never burns the attempt budget.
"""

import pytest

from repro.cluster import westmere_cluster
from repro.faults import FaultPlan, NodeCrash
from repro.mapreduce import run_job, terasort_job

GB = 1024**3


def run(engine, size=1 * GB, n_nodes=2, seed=0, **overrides):
    conf = terasort_job(size, n_nodes, engine, **overrides)
    return run_job(westmere_cluster(n_nodes), "ipoib", conf, seed=seed)


# ---------------------------------------------------------------------------
# Map failures
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("engine", ["http", "rdma"])
def test_map_failures_recovered(engine):
    result = run(engine, size=2 * GB, fault_plan=FaultPlan(map_failure_rate=0.3))
    assert result.counters.get("map.failed_attempts", 0) > 0
    # Every map still completed exactly once.
    assert result.counters["map.completed"] == result.conf.n_maps
    assert result.counters["reduce.completed"] == result.conf.n_reduces


def test_map_failures_cost_time():
    clean = run("rdma", size=2 * GB)
    # Generous attempt budget: with rate 0.4 a 4-strikes-out is plausible.
    faulty = run(
        "rdma",
        size=2 * GB,
        fault_plan=FaultPlan(map_failure_rate=0.4),
        max_task_attempts=10,
    )
    assert faulty.execution_time > clean.execution_time


def test_map_failure_rate_zero_injects_nothing():
    result = run("rdma", fault_plan=FaultPlan(map_failure_rate=0.0))
    assert result.counters.get("map.failed_attempts", 0) == 0


def test_map_failures_deterministic():
    a = run("rdma", size=2 * GB, fault_plan=FaultPlan(map_failure_rate=0.3))
    b = run("rdma", size=2 * GB, fault_plan=FaultPlan(map_failure_rate=0.3))
    assert a.counters == b.counters
    assert a.execution_time == b.execution_time


def test_unrecoverable_map_aborts_job():
    with pytest.raises(RuntimeError, match="exceeded"):
        run("rdma", fault_plan=FaultPlan(map_failure_rate=1.0), max_task_attempts=2)


# ---------------------------------------------------------------------------
# Reduce failures
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("engine", ["http", "hadoopa", "rdma"])
def test_reduce_failures_recovered(engine):
    result = run(
        engine, size=2 * GB, fault_plan=FaultPlan(reduce_failure_rate=0.35), seed=3
    )
    assert result.counters.get("reduce.failed_attempts", 0) > 0
    assert result.counters["reduce.completed"] == result.conf.n_reduces
    # The successful attempts wrote at least the full dataset (failed
    # attempts may have written partial output on top).
    assert result.counters["reduce.output_bytes"] >= result.conf.data_bytes * 0.999


def test_reduce_failures_cost_time():
    clean = run("rdma", size=2 * GB)
    faulty = run(
        "rdma", size=2 * GB, fault_plan=FaultPlan(reduce_failure_rate=0.5), seed=5
    )
    assert faulty.counters.get("reduce.failed_attempts", 0) > 0
    assert faulty.execution_time > clean.execution_time


def test_unrecoverable_reduce_aborts_job():
    with pytest.raises(RuntimeError, match=r"reduce \d+ exceeded 2 attempts"):
        run("rdma", fault_plan=FaultPlan(reduce_failure_rate=1.0), max_task_attempts=2)


def test_killed_reduce_attempts_do_not_burn_the_budget():
    # One attempt per task: if a crash-killed reduce attempt counted as a
    # failure, the relaunch would exceed the budget and abort the job.
    kw = dict(size=1 * GB, n_nodes=3, block_bytes=64 * 1024**2)
    clean = run("rdma", **kw)
    crash = NodeCrash(at=0.55 * clean.execution_time, node="node02")
    plan = FaultPlan(crashes=(crash,))
    result = run("rdma", fault_plan=plan, max_task_attempts=1, **kw)
    c = result.counters
    assert c["reduce.node_lost"] > 0
    assert c.get("reduce.failed_attempts", 0) < result.conf.max_task_attempts
    assert c["reduce.completed"] == result.conf.n_reduces


# ---------------------------------------------------------------------------
# Transient fetch failures (disk read errors on the serving TaskTracker)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("engine", ["http", "hadoopa", "rdma"])
def test_fetch_retries_recovered(engine):
    result = run(engine, size=2 * GB, fault_plan=FaultPlan(disk_error_rate=0.05))
    assert result.counters["shuffle.retry.attempts"] > 0
    assert result.counters["shuffle.bytes"] == pytest.approx(
        result.counters["map.output_bytes"], rel=1e-6
    )


def test_fetch_retries_cost_time():
    clean = run("http", size=2 * GB)
    # A 10 s back-off per retry (jittered 5-15 s), like a slow servlet.
    flaky = run(
        "http",
        size=2 * GB,
        fault_plan=FaultPlan(disk_error_rate=0.10),
        fetch_backoff_base=10.0,
        fetch_backoff_max=10.0,
    )
    assert flaky.counters["shuffle.retry.attempts"] > 0
    assert flaky.execution_time > clean.execution_time


def test_combined_fault_storm_still_completes():
    result = run(
        "rdma",
        size=2 * GB,
        fault_plan=FaultPlan(
            map_failure_rate=0.2, reduce_failure_rate=0.2, disk_error_rate=0.03
        ),
        seed=11,
    )
    assert result.counters["map.completed"] == result.conf.n_maps
    assert result.counters["reduce.completed"] == result.conf.n_reduces
