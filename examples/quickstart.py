#!/usr/bin/env python
"""Quickstart: sort real data through the paper's shuffle/merge data path.

Runs TeraSort on synthetic TeraGen records with the functional engine —
the size-aware RDMA packetizer cuts each map-output segment into shuffle
messages, the TaskTracker-side PrefetchCache serves them, and the
reducer's priority-queue merge (with the paper's refill protocol) emits a
globally sorted stream that TeraValidate checks.

    python examples/quickstart.py [n_rows]
"""

import sys

import numpy as np

from repro.core.packets import SizeAwarePacketizer
from repro.engine import EngineConfig, LocalJobRunner
from repro.obs.registry import MetricsRegistry
from repro.tools import render_metrics_tree
from repro.workloads import teragen, teravalidate


def main() -> int:
    n_rows = int(sys.argv[1]) if len(sys.argv) > 1 else 20_000
    rng = np.random.default_rng(42)

    print(f"TeraGen: generating {n_rows} hundred-byte records ...")
    records = teragen(rng, n_rows)

    config = EngineConfig(
        n_reducers=8,
        split_records=max(1, n_rows // 16),  # 16 map tasks
        packetizer=SizeAwarePacketizer(packet_bytes=64 * 1024),
        partitioning="range",  # TeraSort's total-order partitioner
        cache_bytes=32 << 20,
    )
    runner = LocalJobRunner(config=config)

    print(f"TeraSort: 16 maps -> shuffle -> merge -> {config.n_reducers} reducers ...")
    out = runner.run(records)

    report = teravalidate(out.partitions, expected_rows=n_rows)
    print(f"TeraValidate: {report}")
    if not report["valid"]:
        return 1

    s = out.shuffle_stats
    metrics = MetricsRegistry()
    metrics.register(
        "shuffle",
        {
            "packets": float(s.packets),
            "bytes": float(s.bytes),
            "records": float(s.records),
        },
    )
    if out.cache_stats is not None:
        metrics.register("cache", out.cache_stats)
    print(render_metrics_tree(metrics, title="job metrics"))
    sizes = [len(p) for p in out.partitions]
    print(f"reducer output rows: {sizes} (range-partitioned, globally ordered)")

    chaos_demo()
    lowmem_demo()
    integrity_demo()
    straggler_demo()
    return 0


def chaos_demo() -> None:
    """Re-run the simulated job under the standard fault plan.

    One node crashes mid-shuffle, two links flap, and 5% of provider-side
    disk reads fail — the job still finishes with exactly the fault-free
    output, paying for retries, map re-execution, and verbs->IPoIB
    degradation.  The recovery counters land in the ``faults.*``,
    ``shuffle.retry.*``, and ``ucr.*`` metrics namespaces.
    """
    from repro.cluster import westmere_cluster
    from repro.faults import fault_plan
    from repro.mapreduce import run_job, terasort_job

    GB = 1024**3
    MB = 1024**2
    n_nodes = 3

    def sim_run(**overrides):
        conf = terasort_job(1 * GB, n_nodes, "rdma", block_bytes=64 * MB, **overrides)
        return run_job(westmere_cluster(n_nodes), "ipoib", conf, seed=1)

    print("\nChaos: simulated 1 GB TeraSort on 3 nodes, OSU-IB engine ...")
    clean = sim_run()
    plan = fault_plan(
        ["standard"], [f"node{i:02d}" for i in range(n_nodes)], clean.execution_time
    )
    faulty = sim_run(
        fault_plan=plan,
        fetch_backoff_base=0.2,
        fetch_backoff_max=1.5,
        penalty_box_secs=1.5,
        verbs_downgrade_after=2,
    )
    out_clean = clean.counters["reduce.output_bytes"]
    out_faulty = faulty.counters["reduce.output_bytes"]
    same = abs(out_faulty - out_clean) <= 1e-6 * out_clean
    print(
        f"clean {clean.execution_time:.1f}s -> under faults "
        f"{faulty.execution_time:.1f}s "
        f"({faulty.execution_time / clean.execution_time:.2f}x); output bytes "
        f"{'match' if same else 'DIFFER'}"
    )
    tree: dict[str, dict[str, float]] = {}
    for key, value in faulty.counters.items():
        if key.startswith(("faults.", "shuffle.retry.", "ucr.")) or key in (
            "map.reexecuted",
            "map.lost_outputs",
            "reduce.node_lost",
        ):
            ns, leaf = key.rsplit(".", 1)
            tree.setdefault(ns, {})[leaf] = value
    print(render_metrics_tree(tree, title="recovery metrics"))


def lowmem_demo() -> None:
    """Re-run the simulated job skewed and memory-starved.

    A Zipf-skewed partitioner concentrates ~39% of the data on one
    reducer while the task heap is cut to a quarter.  With the
    backpressure knobs on, the hot reducer spills sorted runs to local
    disk, fetchers park on credit windows, and the job still finishes
    with exactly the unconstrained output — the degradation shows up in
    the ``shuffle.spill.*``, ``shuffle.backpressure.*``, and
    ``shuffle.mem.*`` counters instead of an OOM.
    """
    import dataclasses

    from repro.cluster import westmere_cluster
    from repro.mapreduce import run_job, terasort_job

    GB = 1024**3
    MB = 1024**2
    n_nodes = 3

    def sim_run(heap_frac: float = 1.0, **overrides):
        conf = terasort_job(
            1 * GB, n_nodes, "rdma", block_bytes=64 * MB,
            partition_skew=1.2, **overrides,
        )
        if heap_frac != 1.0:
            costs = dataclasses.replace(
                conf.costs,
                task_heap_bytes=int(conf.costs.task_heap_bytes * heap_frac),
            )
            conf = dataclasses.replace(conf, costs=costs)
        return run_job(westmere_cluster(n_nodes), "ipoib", conf, seed=1)

    print("\nLow memory: skewed 1 GB TeraSort, 0.25x heap, OSU-IB engine ...")
    clean = sim_run()
    starved = sim_run(
        heap_frac=0.25,
        shuffle_spill_threshold=0.55,
        merge_factor=4,
        recv_credits=4,
        responder_queue_limit=16,
    )
    out_clean = clean.counters["reduce.output_bytes"]
    out_starved = starved.counters["reduce.output_bytes"]
    same = abs(out_starved - out_clean) <= 1e-6 * out_clean
    print(
        f"unconstrained {clean.execution_time:.1f}s -> starved "
        f"{starved.execution_time:.1f}s "
        f"({starved.execution_time / clean.execution_time:.2f}x); output bytes "
        f"{'match' if same else 'DIFFER'}"
    )
    tree: dict[str, dict[str, float]] = {}
    for key, value in starved.counters.items():
        if key.startswith(("shuffle.spill.", "shuffle.backpressure.", "shuffle.mem.")):
            ns, leaf = key.rsplit(".", 1)
            tree.setdefault(ns, {})[leaf] = value
    print(render_metrics_tree(tree, title="degradation metrics"))


def integrity_demo() -> None:
    """Re-run the simulated job under silent data corruption.

    One node's disks flip bits on reads and rot some committed map
    outputs, another node's links corrupt packets, a third node's
    responders serve truncated/stale segments.  End-to-end checksums
    catch every one of them — corrupted exchanges are re-requested,
    poisoned cache entries evicted, rotten outputs condemned and
    re-executed, and a repeatedly-failing node lands on the quarantine
    list.  The job finishes with exactly the clean output and a settled
    ledger (``detected == recovered``); everything lands in the
    ``integrity.*`` namespace.
    """
    from repro.cluster import westmere_cluster
    from repro.faults import fault_plan
    from repro.mapreduce import run_job, terasort_job

    GB = 1024**3
    MB = 1024**2
    n_nodes = 3

    def sim_run(**overrides):
        conf = terasort_job(1 * GB, n_nodes, "rdma", block_bytes=64 * MB, **overrides)
        return run_job(westmere_cluster(n_nodes), "ipoib", conf, seed=1)

    print("\nIntegrity: simulated 1 GB TeraSort under silent corruption ...")
    clean = sim_run()
    plan = fault_plan(
        ["corruption"], [f"node{i:02d}" for i in range(n_nodes)], clean.execution_time
    )
    corrupted = sim_run(
        fault_plan=plan,
        fetch_backoff_base=0.2,
        fetch_backoff_max=1.5,
        penalty_box_secs=1.5,
    )
    out_clean = clean.counters["reduce.output_bytes"]
    out_corrupted = corrupted.counters["reduce.output_bytes"]
    same = abs(out_corrupted - out_clean) <= 1e-6 * out_clean
    report = corrupted.phase_report["integrity"]
    print(
        f"clean {clean.execution_time:.1f}s -> under corruption "
        f"{corrupted.execution_time:.1f}s "
        f"({corrupted.execution_time / clean.execution_time:.2f}x); output bytes "
        f"{'match' if same else 'DIFFER'}; detected "
        f"{report['detected']:.0f} == recovered {report['recovered']:.0f}; "
        f"quarantined {report.get('quarantined') or 'nobody'}"
    )
    tree: dict[str, dict[str, float]] = {}
    for key, value in corrupted.counters.items():
        if key.startswith("integrity.") or key == "map.reexecuted":
            ns, leaf = key.rsplit(".", 1)
            tree.setdefault(ns, {})[leaf] = value
    print(render_metrics_tree(tree, title="integrity metrics"))


def straggler_demo() -> None:
    """Re-run the simulated job with one degraded node, then speculate.

    ``node02`` gets sick — CPU 6x slower, disks 4x slower, link at a
    quarter bandwidth — but never dies, so nothing in the failure layer
    fires and every attempt placed there just *drags*.  LATE-style
    speculative execution launches backup attempts of the projected
    stragglers on healthy nodes; the first finisher commits, losers are
    killed (not failed) and their partial output discarded.  Activity
    lands in the ``speculation.*`` namespace and the decision log in
    ``phase_report["speculation"]``.
    """
    from repro.cluster import westmere_cluster
    from repro.faults import DiskSlowdown, FaultPlan, LinkDegrade, NodeSlowdown
    from repro.mapreduce import run_job, terasort_job

    GB = 1024**3
    MB = 1024**2
    n_nodes = 3
    sick = "node02"
    plan = FaultPlan(
        slowdowns=(NodeSlowdown(at=1.0, node=sick, duration=600.0, factor=6.0),),
        disk_slowdowns=(DiskSlowdown(at=1.0, node=sick, duration=600.0, factor=4.0),),
        link_degrades=(LinkDegrade(at=1.0, node=sick, duration=600.0, factor=4.0),),
        name="demo-straggler",
    )

    def sim_run(**overrides):
        conf = terasort_job(
            1 * GB, n_nodes, "rdma",
            block_bytes=256 * MB, n_reduces=6,
            fault_plan=plan, **overrides,
        )
        return run_job(westmere_cluster(n_nodes), "ipoib", conf, seed=3)

    print(f"\nStragglers: 1 GB TeraSort with {sick} degraded (6x CPU, 4x disk) ...")
    dragging = sim_run()
    late = sim_run(
        speculative_execution=True,
        speculative_reduces=True,
        speculative_threshold=1.3,
        speculative_interval=1.0,
    )
    out_a = dragging.counters["reduce.committed_output_bytes"]
    out_b = late.counters["reduce.committed_output_bytes"]
    print(
        f"no speculation {dragging.execution_time:.1f}s -> LATE "
        f"{late.execution_time:.1f}s "
        f"({dragging.execution_time / late.execution_time:.2f}x speedup); "
        f"committed bytes {'match' if out_a == out_b else 'DIFFER'}"
    )
    tree: dict[str, dict[str, float]] = {}
    for key, value in late.counters.items():
        if key.startswith("speculation.") or key.endswith(".speculative_launched"):
            ns, leaf = key.rsplit(".", 1)
            tree.setdefault(ns, {})[leaf] = value
    print(render_metrics_tree(tree, title="speculation metrics"))


if __name__ == "__main__":
    raise SystemExit(main())
