"""Master-resilience benchmark: a mid-job JobTracker crash on every engine.

Runs each engine clean, then under the ``master`` family of
:func:`repro.faults.fault_plan` (one JobTracker crash at 45% of the
fault-free runtime) on a 3-node cluster, and checks the full failover
story end to end:

* every engine recovers and commits exactly the fault-free output bytes
  (the journal's commit-once protocol across the crash);
* the crashed run costs at most ``MAX_SLOWDOWN`` x the clean run —
  recovery re-registers surviving map outputs from TaskTracker storage
  instead of re-running the whole map phase;
* the machinery actually fired — a second epoch, parked TaskTrackers,
  and at least one fenced zombie write rejected.

Exports ``BENCH_master.json`` (slowdowns + recovery counters per engine)
so ``tools/bench_trend.py`` gates recovery overhead across PRs
(one-sided: recovering faster is fine).
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
MAX_SLOWDOWN = 2.0

#: Counters exported per engine (the failover fingerprint).
_EXPORT_COUNTERS = (
    "journal.appends",
    "journal.fenced_appends",
    "journal.commits",
    "journal.fenced_commits",
    "journal.double_commits_prevented",
    "journal.flushes",
    "journal.completions_unreported",
    "journal.replay.outputs_lost",
    "journal.replay.outputs_unjournaled",
    "master.epochs",
    "master.tt_parked",
    "reduce.commit_rejected",
    "reduce.master_lost",
    "faults.master_crashes",
)


def _conf(engine: str, data_bytes: float, **overrides):
    # 64 MB blocks: enough map tasks that the mid-job crash leaves a mix
    # of committed (recovered from TT storage) and in-flight (rescheduled)
    # maps behind.
    return terasort_job(
        data_bytes, N_NODES, engine, block_bytes=64 * MB, **overrides
    )


def _run_engine(engine: str, data_bytes: float) -> dict:
    clean = run_job(
        westmere_cluster(N_NODES), "ipoib", _conf(engine, data_bytes), seed=SEED
    )
    names = [f"node{i:02d}" for i in range(N_NODES)]
    plan = fault_plan(["master"], names, clean.execution_time)
    crashed = run_job(
        westmere_cluster(N_NODES),
        "ipoib",
        _conf(engine, data_bytes, fault_plan=plan),
        seed=SEED,
    )
    counters = {key: crashed.counters.get(key, 0.0) for key in _EXPORT_COUNTERS}
    clean_bytes = clean.counters.get("reduce.output_bytes", 0.0)
    committed = crashed.counters.get("reduce.committed_output_bytes", 0.0)
    return {
        "clean_seconds": clean.execution_time,
        "crashed_seconds": crashed.execution_time,
        "slowdown": crashed.execution_time / clean.execution_time,
        "clean_output_bytes": clean_bytes,
        "committed_output_bytes": committed,
        "output_bytes_agree": abs(committed - clean_bytes)
        <= 1e-6 * max(1.0, clean_bytes),
        "counters": counters,
    }


def _check(engine: str, r: dict) -> None:
    assert r["output_bytes_agree"], (
        f"{engine}: committed bytes {r['committed_output_bytes']} != "
        f"fault-free output {r['clean_output_bytes']}"
    )
    assert r["slowdown"] <= MAX_SLOWDOWN, (
        f"{engine}: master-crash slowdown {r['slowdown']:.2f}x exceeds "
        f"{MAX_SLOWDOWN}x"
    )
    c = r["counters"]
    assert c["faults.master_crashes"] == 1, f"{engine}: crash never fired"
    assert c["master.epochs"] == 2, f"{engine}: no failover epoch"
    assert c["journal.fenced_commits"] >= 1, (
        f"{engine}: the fencing epoch never rejected a zombie write"
    )
    assert c["journal.double_commits_prevented"] == 0, (
        f"{engine}: a reduce tried to commit twice"
    )
    assert c["master.tt_parked"] >= 1, (
        f"{engine}: no TaskTracker parked on master silence"
    )


def test_master_crash_recovery_all_engines(benchmark):
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
        "benchmark": "master",
        "figure": "master",
        "scale": scale,
        "slowdowns": {engine: r["slowdown"] for engine, r in engines.items()},
        "output_bytes_agree": all(
            r["output_bytes_agree"] for r in engines.values()
        ),
        "engines": engines,
    }
    write_json_atomic(payload, os.path.join(out_dir, "BENCH_master.json"))
