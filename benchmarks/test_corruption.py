"""Silent-corruption benchmark: the standard corruption plan per engine.

Runs each engine clean, then under the ``corruption`` family of
:func:`repro.faults.fault_plan` (bit-flipping disks + a
rotting writer on one node, corrupting links on another, truncated/stale
responder serves on a third) on a 3-node cluster, and checks the
verify-and-recover plane end to end:

* every engine still produces exactly the clean output bytes;
* the integrity ledger settles (``detected == recovered``);
* the corrupted run costs at most ``MAX_SLOWDOWN`` x the clean run —
  detection + re-fetch + condemnation is bounded overhead, not a stall.

Exports ``BENCH_integrity.json`` (slowdowns + detection counters per
engine) so ``tools/bench_trend.py`` tracks the cost of the
verify-and-recover path across PRs.
"""

import os

from repro.cluster.presets import westmere_cluster
from repro.faults import fault_plan
from repro.mapreduce.driver import run_job
from repro.mapreduce.job import terasort_job
from repro.mapreduce.shuffle.base import ENGINES
from repro.obs.export import write_json_atomic

from .conftest import bench_scale

GB = 1 << 30
MB = 1 << 20

N_NODES = 3
SEED = 5
MAX_SLOWDOWN = 2.0

#: Recovery knobs proportioned to these short benchmark jobs (~1 min).
RECOVERY_KNOBS = dict(
    fetch_backoff_base=0.25,
    fetch_backoff_max=2.0,
    penalty_box_secs=2.0,
)

#: Counters exported per engine (detection/recovery fingerprint).
_EXPORT_COUNTERS = (
    "integrity.verified",
    "integrity.detected",
    "integrity.recovered",
    "integrity.disk_flips",
    "integrity.disk_rot",
    "integrity.truncated",
    "integrity.stale",
    "integrity.cache_corruptions",
    "integrity.wire_corruptions",
    "integrity.hdfs_corruptions",
    "integrity.refetches",
    "integrity.replica_failovers",
    "integrity.condemned",
    "integrity.quarantined_trackers",
    "map.reexecuted",
)


def _conf(engine: str, data_bytes: float, **overrides):
    # 64 MB blocks: enough map outputs that rot hits several of them.
    return terasort_job(
        data_bytes, N_NODES, engine, block_bytes=64 * MB, **overrides
    )


def _run_engine(engine: str, data_bytes: float) -> dict:
    clean = run_job(
        westmere_cluster(N_NODES), "ipoib", _conf(engine, data_bytes), seed=SEED
    )
    names = [f"node{i:02d}" for i in range(N_NODES)]
    plan = fault_plan(["corruption"], names, clean.execution_time)
    corrupted = run_job(
        westmere_cluster(N_NODES),
        "ipoib",
        _conf(engine, data_bytes, fault_plan=plan, **RECOVERY_KNOBS),
        seed=SEED,
    )
    counters = {
        key: corrupted.counters.get(key, 0.0) for key in _EXPORT_COUNTERS
    }
    return {
        "clean_seconds": clean.execution_time,
        "corrupted_seconds": corrupted.execution_time,
        "slowdown": corrupted.execution_time / clean.execution_time,
        "clean_output_bytes": clean.counters.get("reduce.output_bytes", 0.0),
        "corrupted_output_bytes": corrupted.counters.get(
            "reduce.output_bytes", 0.0
        ),
        "counters": counters,
    }


def _check(engine: str, r: dict) -> None:
    rel = abs(r["corrupted_output_bytes"] - r["clean_output_bytes"])
    assert rel <= 1e-6 * max(1.0, r["clean_output_bytes"]), (
        f"{engine}: corrupted run lost output bytes"
    )
    assert r["slowdown"] <= MAX_SLOWDOWN, (
        f"{engine}: corruption slowdown {r['slowdown']:.2f}x exceeds "
        f"{MAX_SLOWDOWN}x"
    )
    c = r["counters"]
    assert c["integrity.detected"] > 0, f"{engine}: nothing detected"
    assert c["integrity.detected"] == c["integrity.recovered"], (
        f"{engine}: ledger unsettled "
        f"({c['integrity.detected']:.0f} != {c['integrity.recovered']:.0f})"
    )
    # The plan corrupts the disk, wire, and responder hops; each family
    # must actually fire (cache/HDFS corruption rates are low enough that
    # small scales may draw zero — those hops are pinned in tests/).
    assert c["integrity.disk_flips"] > 0, f"{engine}: no disk detections"
    assert c["integrity.wire_corruptions"] > 0, f"{engine}: no wire detections"
    assert c["integrity.truncated"] > 0, f"{engine}: no serve-fault detections"


def test_corruption_recovery_all_engines(benchmark):
    scale = bench_scale()
    data_bytes = scale * 40 * GB

    def sweep():
        return {engine: _run_engine(engine, data_bytes) for engine in ENGINES}

    engines = benchmark.pedantic(sweep, rounds=1, iterations=1)
    for engine, r in engines.items():
        _check(engine, r)

    out_dir = os.environ.get("REPRO_BENCH_OUT", ".")
    os.makedirs(out_dir, exist_ok=True)
    payload = {
        "benchmark": "integrity",
        "figure": "integrity",
        "scale": scale,
        "slowdowns": {engine: r["slowdown"] for engine, r in engines.items()},
        "engines": engines,
    }
    write_json_atomic(payload, os.path.join(out_dir, "BENCH_integrity.json"))
