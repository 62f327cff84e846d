"""End-to-end shuffle data integrity (repro.integrity).

Covers the whole verify-and-recover plane: checksummed artifacts on every
hop (map-output disk, PrefetchCache, wire, HDFS), silent-corruption
injection from the fault plan, detection counters, the
``detected == recovered`` ledger invariant, and health-scored quarantine.

The transparent-overhead contract is checked two ways: a knob-free job
exports no ``integrity.*`` keys (and behaves bit-identically, covered by
the BENCH baselines), and a checksums-on-but-nothing-corrupting job has
*exactly* the knob-off execution time — verification moves counters, not
the clock.
"""

import dataclasses

import pytest

from repro.cluster import westmere_cluster
from repro.faults import (
    DiskCorruption,
    FaultPlan,
    ResponderStall,
    SegmentFault,
    WireCorruption,
    fault_plan,
)
from repro.mapreduce import run_job, terasort_job

GB = 1024**3
MB = 1024**2

ENGINES = ["http", "hadoopa", "rdma"]

#: Recovery knobs scaled down to these ~1 GB test jobs.
FAST_KNOBS = dict(
    fetch_backoff_base=0.2, fetch_backoff_max=1.5, penalty_box_secs=1.5
)


def run(engine, n_nodes=3, size=1 * GB, seed=7, **overrides):
    conf = terasort_job(size, n_nodes, engine, block_bytes=64 * MB, **overrides)
    return run_job(westmere_cluster(n_nodes), "ipoib", conf, seed=seed)


def nodes(n):
    return [f"node{i:02d}" for i in range(n)]


def assert_same_output(clean, faulty):
    a = clean.counters["reduce.output_bytes"]
    b = faulty.counters["reduce.output_bytes"]
    assert b == pytest.approx(a, rel=1e-9), "corrupted run lost output bytes"


def assert_ledger_settled(result):
    c = result.counters
    assert c["integrity.detected"] == c["integrity.recovered"], (
        f"unrecovered detections: {result.phase_report.get('integrity')}"
    )
    assert result.phase_report["integrity"]["pending"] == 0.0


# ---------------------------------------------------------------------------
# Inertness: no knobs, no footprint; checksums alone cost zero time
# ---------------------------------------------------------------------------


def test_knob_free_run_has_no_integrity_footprint():
    result = run("rdma")
    assert not any(k.startswith("integrity.") for k in result.counters)
    assert "integrity" not in result.phase_report
    assert not any(k.startswith("integrity.") for k in result.metrics)


@pytest.mark.parametrize("engine", ENGINES)
def test_checksums_only_is_timing_transparent(engine):
    plain = run(engine)
    verified = run(engine, integrity_checksums=True)
    # Verification is free in simulated time: counters move, timing doesn't.
    assert verified.execution_time == plain.execution_time
    c = verified.counters
    assert c["integrity.verified"] > 0
    assert c["integrity.verified_bytes"] > 0
    assert c["integrity.detected"] == 0
    assert c["integrity.quarantined_trackers"] == 0
    # Empty score/quarantine rows are omitted, not reported as [] / {}.
    assert "quarantined" not in verified.phase_report["integrity"]
    assert "scores" not in verified.phase_report["integrity"]


# ---------------------------------------------------------------------------
# Disk: transient read flips re-read; write rot condemns + re-executes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("engine", ENGINES)
def test_disk_flips_detected_and_recovered(engine):
    clean = run(engine)
    plan = FaultPlan(
        disk_corruptions=(DiskCorruption(node="node02", rate=0.3),),
        name="disk-flips",
    )
    faulty = run(engine, fault_plan=plan, **FAST_KNOBS)
    assert_same_output(clean, faulty)
    assert_ledger_settled(faulty)
    c = faulty.counters
    assert c["integrity.disk_flips"] > 0
    assert c["integrity.detected"] > 0
    # Transient flips never condemn the on-disk output.
    assert c["integrity.disk_rot"] == 0


@pytest.mark.parametrize("engine", ENGINES)
def test_disk_rot_condemns_and_reexecutes(engine):
    # OSU-IB's fresh-output caching would mask the rotten platter copy
    # (the cache is populated by memcpy before the write settles); turn it
    # off so every serve reads — and detects — the rotten file.
    overrides = {"caching_enabled": False} if engine == "rdma" else {}
    clean = run(engine, **overrides)
    plan = FaultPlan(
        disk_corruptions=(DiskCorruption(node="node02", rate=0.0, rot_rate=0.7),),
        name="rot-only",
    )
    faulty = run(engine, fault_plan=plan, **FAST_KNOBS, **overrides)
    assert_same_output(clean, faulty)
    assert_ledger_settled(faulty)
    c = faulty.counters
    assert c["integrity.disk_rot"] > 0
    assert c["integrity.condemned"] > 0
    assert c["map.reexecuted"] > 0


def test_disk_scoped_corruption_only_hits_that_disk():
    # disk index 0 on node02; a run at a savage rate still completes and
    # detections stay attributed to node02.
    plan = FaultPlan(
        disk_corruptions=(DiskCorruption(node="node02", rate=0.5, disk=0),),
        name="one-disk",
    )
    clean = run("http")
    faulty = run("http", fault_plan=plan, **FAST_KNOBS)
    assert_same_output(clean, faulty)
    assert_ledger_settled(faulty)
    scores = faulty.phase_report["integrity"]["scores"]
    assert set(scores) <= {"node02"}


# ---------------------------------------------------------------------------
# Wire: verify-on-receive re-requests the exchange
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("engine", ENGINES)
def test_wire_corruption_refetched(engine):
    clean = run(engine)
    plan = FaultPlan(
        wire_corruptions=(WireCorruption(node="node00", rate=0.02),),
        name="wire",
    )
    faulty = run(engine, fault_plan=plan, **FAST_KNOBS)
    assert_same_output(clean, faulty)
    assert_ledger_settled(faulty)
    c = faulty.counters
    assert c["integrity.wire_corruptions"] > 0
    assert c["integrity.refetches"] > 0


# ---------------------------------------------------------------------------
# Cache: poisoned PrefetchCache entries evicted, served from disk
# ---------------------------------------------------------------------------


def test_cache_poisoning_detected_and_invalidated():
    clean = run("rdma")
    plan = FaultPlan(
        disk_corruptions=(DiskCorruption(node="node02", rate=0.3),),
        name="cache-poison",
    )
    faulty = run("rdma", fault_plan=plan, **FAST_KNOBS)
    assert_same_output(clean, faulty)
    assert_ledger_settled(faulty)
    c = faulty.counters
    assert c["integrity.cache_corruptions"] > 0
    assert c["integrity.cache_invalidations"] >= c["integrity.cache_corruptions"]


# ---------------------------------------------------------------------------
# Responder serve faults: truncated and stale segments retried
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("engine", ENGINES)
def test_segment_serve_faults_recovered(engine):
    clean = run(engine)
    plan = FaultPlan(
        segment_faults=(
            SegmentFault(node="node01", rate=0.1, kind="truncated"),
            SegmentFault(node="node01", rate=0.05, kind="stale"),
        ),
        name="segments",
    )
    faulty = run(engine, fault_plan=plan, **FAST_KNOBS)
    assert_same_output(clean, faulty)
    assert_ledger_settled(faulty)
    c = faulty.counters
    assert c["integrity.truncated"] > 0
    assert c["integrity.stale"] > 0


# ---------------------------------------------------------------------------
# HDFS: verify-on-read with replica failover
# ---------------------------------------------------------------------------


def test_hdfs_corruption_fails_over_to_another_replica():
    clean = run("http")
    plan = FaultPlan(
        disk_corruptions=(DiskCorruption(node="node02", rate=0.5),),
        name="hdfs-corrupt",
    )
    faulty = run("http", fault_plan=plan, **FAST_KNOBS)
    assert_same_output(clean, faulty)
    assert_ledger_settled(faulty)
    c = faulty.counters
    assert c["integrity.hdfs_corruptions"] > 0
    assert c["integrity.replica_failovers"] > 0


# ---------------------------------------------------------------------------
# Health scores and quarantine
# ---------------------------------------------------------------------------


def test_threshold_crossing_tracker_is_quarantined():
    plan = FaultPlan(
        disk_corruptions=(DiskCorruption(node="node02", rate=0.5, rot_rate=0.3),),
        name="sick-node",
    )
    faulty = run("rdma", fault_plan=plan, **FAST_KNOBS)
    assert faulty.counters["integrity.quarantined_trackers"] >= 1
    report = faulty.phase_report["integrity"]
    # Quarantine is sticky: membership records the threshold crossing even
    # though the EWMA score decays once clean serves resume elsewhere.
    assert "node02" in report["quarantined"]
    assert report["scores"]["node02"] > 0
    # The integrity section is surfaced through the metrics registry too.
    assert faulty.metrics["integrity.score.node02"] > 0


def test_quarantine_knobs_change_membership():
    plan = FaultPlan(
        disk_corruptions=(DiskCorruption(node="node02", rate=0.3),),
        name="knobbed",
    )
    strict = run(
        "http",
        fault_plan=plan,
        quarantine_threshold=0.2,
        quarantine_min_failures=1,
        **FAST_KNOBS,
    )
    lax = run(
        "http", fault_plan=plan, quarantine_threshold=0.999999, **FAST_KNOBS
    )
    assert strict.counters["integrity.quarantined_trackers"] >= 1
    assert lax.counters["integrity.quarantined_trackers"] == 0


# ---------------------------------------------------------------------------
# The standard corruption plan: every hop goes bad, the job still agrees
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("engine", ENGINES)
def test_standard_corruption_plan_end_to_end(engine):
    clean = run(engine)
    # The standard schedule with the last node's disks flipping twice as
    # often, so every engine sees disk flips at this small size.
    plan = dataclasses.replace(
        fault_plan(["corruption"], nodes(3), clean.execution_time),
        disk_corruptions=(DiskCorruption(node="node02", rate=0.3, rot_rate=0.2),),
    )
    faulty = run(engine, fault_plan=plan, **FAST_KNOBS)
    assert_same_output(clean, faulty)
    assert_ledger_settled(faulty)
    c = faulty.counters
    for family in ("disk_flips", "wire_corruptions", "truncated"):
        assert c[f"integrity.{family}"] > 0, f"{engine}: no {family} detections"
    assert c["integrity.detected"] > 0


def test_corrupted_runs_are_deterministic():
    plan = fault_plan(["corruption"], nodes(3), runtime_hint=100.0)
    a = run("rdma", fault_plan=plan, **FAST_KNOBS)
    b = run("rdma", fault_plan=plan, **FAST_KNOBS)
    assert a.execution_time == b.execution_time
    assert {k: v for k, v in a.counters.items() if k.startswith("integrity.")} == {
        k: v for k, v in b.counters.items() if k.startswith("integrity.")
    }


# ---------------------------------------------------------------------------
# Plan plumbing (no simulation)
# ---------------------------------------------------------------------------


def test_nodes_referenced_covers_stalls_and_corruption():
    plan = FaultPlan(
        stalls=(ResponderStall(at=1.0, node="node00", duration=2.0),),
        disk_corruptions=(DiskCorruption(node="node01", rate=0.1),),
        wire_corruptions=(WireCorruption(node="node02", rate=0.01),),
        segment_faults=(SegmentFault(node="node03", rate=0.05),),
        name="everything",
    )
    assert plan.nodes_referenced() == {"node00", "node01", "node02", "node03"}
    assert plan.has_corruption
    assert not plan.empty


def test_corruption_only_plan_is_not_empty():
    plan = FaultPlan(
        wire_corruptions=(WireCorruption(node="node00", rate=0.01),), name="w"
    )
    assert not plan.empty


def test_corruption_plan_validation():
    with pytest.raises(ValueError):
        FaultPlan(disk_corruptions=(DiskCorruption(node="n", rate=1.5),))
    with pytest.raises(ValueError):
        FaultPlan(disk_corruptions=(DiskCorruption(node="n", rate=0.1, rot_rate=-1),))
    with pytest.raises(ValueError):
        FaultPlan(segment_faults=(SegmentFault(node="n", rate=0.1, kind="bogus"),))
    with pytest.raises(ValueError):
        fault_plan(["corruption"], ["lonely"], runtime_hint=100.0)


def test_unknown_corruption_node_fails_fast():
    plan = FaultPlan(
        disk_corruptions=(DiskCorruption(node="node99", rate=0.1),), name="typo"
    )
    with pytest.raises(ValueError, match="node99"):
        run("http", fault_plan=plan)
