"""Chaos benchmark: the standard fault plan against every shuffle engine.

Runs each engine clean, then under the ``standard`` family of
:func:`repro.faults.fault_plan` (one node crash mid-shuffle, two link
flaps, 5% disk read errors) on a 3-node cluster, and checks end-to-end
recovery:

* every engine still completes with exactly the fault-free output bytes;
* the faulty run costs at most ``MAX_SLOWDOWN`` x the clean run;
* the recovery machinery actually fired — fetch retries and map
  re-execution on all engines, verbs->IPoIB downgrades on the UCR ones.

Exports ``BENCH_faults.json`` (slowdowns + recovery counters per engine)
so ``tools/bench_trend.py`` tracks fault-recovery cost across PRs.
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
SEED = 3
MAX_SLOWDOWN = 2.5

#: Recovery knobs proportioned to these short benchmark jobs (~1 min):
#: the production defaults (8 s max back-off, 10 s penalty box) are sized
#: for jobs running minutes to hours and would dominate runtime here.
CHAOS_KNOBS = dict(
    fetch_backoff_base=0.25,
    fetch_backoff_max=2.0,
    penalty_box_secs=2.0,
    verbs_downgrade_after=2,
)

#: Counters exported per engine (recovery activity fingerprint).
_EXPORT_COUNTERS = (
    "shuffle.retry.attempts",
    "shuffle.retry.reports",
    "shuffle.retry.penalty_boxed",
    "map.reexecuted",
    "map.lost_outputs",
    "reduce.node_lost",
    "ucr.downgrades",
    "ucr.teardowns",
    "ucr.reconnects",
    "faults.node_crashes",
    "faults.link_flaps",
    "faults.disk_errors",
)


def _conf(engine: str, data_bytes: float, **overrides):
    # 64 MB blocks: enough map tasks that the mid-shuffle crash loses both
    # committed and in-flight map outputs on the dead node.
    return terasort_job(
        data_bytes, N_NODES, engine, block_bytes=64 * MB, **overrides
    )


def _run_engine(engine: str, data_bytes: float) -> dict:
    clean = run_job(westmere_cluster(N_NODES), "ipoib", _conf(engine, data_bytes),
                    seed=SEED)
    names = [f"node{i:02d}" for i in range(N_NODES)]
    plan = fault_plan(["standard"], names, clean.execution_time)
    faulty = run_job(
        westmere_cluster(N_NODES),
        "ipoib",
        _conf(engine, data_bytes, fault_plan=plan, **CHAOS_KNOBS),
        seed=SEED,
    )
    counters = {
        key: faulty.counters.get(key, 0.0) for key in _EXPORT_COUNTERS
    }
    return {
        "clean_seconds": clean.execution_time,
        "faulty_seconds": faulty.execution_time,
        "slowdown": faulty.execution_time / clean.execution_time,
        "clean_output_bytes": clean.counters.get("reduce.output_bytes", 0.0),
        "faulty_output_bytes": faulty.counters.get("reduce.output_bytes", 0.0),
        "committed_output_bytes": faulty.counters.get(
            "reduce.committed_output_bytes", 0.0
        ),
        "counters": counters,
    }


def _check(engine: str, r: dict) -> None:
    rel = abs(r["faulty_output_bytes"] - r["clean_output_bytes"])
    assert rel <= 1e-6 * max(1.0, r["clean_output_bytes"]), (
        f"{engine}: faulty run lost output bytes"
    )
    assert r["committed_output_bytes"] >= r["clean_output_bytes"] * (1 - 1e-9), (
        f"{engine}: committed bytes fell short of the fault-free total"
    )
    assert r["slowdown"] <= MAX_SLOWDOWN, (
        f"{engine}: chaos slowdown {r['slowdown']:.2f}x exceeds {MAX_SLOWDOWN}x"
    )
    c = r["counters"]
    assert c["shuffle.retry.attempts"] > 0, f"{engine}: no fetch retries recorded"
    assert c["map.reexecuted"] > 0, f"{engine}: no map re-execution recorded"
    assert c["faults.node_crashes"] == 1 and c["faults.link_flaps"] == 2
    if engine in ("hadoopa", "rdma"):
        assert c["ucr.teardowns"] > 0, f"{engine}: no UCR endpoint teardowns"
        assert c["ucr.downgrades"] > 0, (
            f"{engine}: no verbs->IPoIB downgrade despite repeated flap failures"
        )


def test_fault_recovery_all_engines(benchmark):
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
        "benchmark": "faults",
        "figure": "faults",
        "scale": scale,
        "slowdowns": {engine: r["slowdown"] for engine, r in engines.items()},
        "engines": engines,
    }
    write_json_atomic(payload, os.path.join(out_dir, "BENCH_faults.json"))
