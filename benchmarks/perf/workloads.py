"""The benchmark's four workloads: seeded inputs and the jobs that run them.

Every input -- JobConfs, TeraGen records, chaos victim nodes -- is made
from the workload seed before timing starts; the program only receives
them.  A *pass* runs a workload's jobs back to back, in order.  Each job
has three phases, timed separately by the worker: ``build`` (the
program's cluster or runner objects), ``run`` (the job itself) and
``outcome`` (checks and fingerprint, outside host time).
"""

from __future__ import annotations

import dataclasses
import hashlib
import statistics
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

import numpy as np

from checks import committed_bytes, engine_failures, fingerprint, sim_failures, sim_fingerprint
from repro.cluster.builder import build_cluster
from repro.cluster.presets import westmere_cluster
from repro.core.packets import (
    FixedPairsPacketizer,
    SizeAwarePacketizer,
    WholeFilePacketizer,
    record_size,
)
from repro.engine import EngineConfig, LocalJobRunner
from repro.experiments.calibration import PAPER_CLAIMS
from repro.experiments.report import improvement
from repro.faults import (
    DiskCorruption,
    DiskSlowdown,
    FaultPlan,
    LinkFlap,
    MasterCrash,
    NodeCrash,
    NodeSlowdown,
    WireCorruption,
)
from repro.mapreduce.driver import run_job_on
from repro.mapreduce.job import JobConf, sort_job, terasort_job
from repro.workloads import teragen, teravalidate

GB = 1024.0**3
MB = 1024 * 1024
#: Disk request granularity ``run_job`` uses; ``build`` mirrors it.
CHUNK = 4 * MB
ENGINES = ("http", "hadoopa", "rdma")


@dataclass
class Outcome:
    """What a finished job leaves once its raw result is dropped."""

    sim_s: float
    fingerprint: str
    #: Program counters (simulator) or engine statistics, for compare.py.
    counters: dict[str, float]
    #: Additive per-layer tallies (summed over a pass by metrics.py).
    counts: dict[str, float]
    failures: list[str]


@dataclass
class SimJob:
    """One simulated job; a faulted job scales its plan off a clean run."""

    id: str
    label: str
    nodes: list
    conf: JobConf
    seed: int
    #: id of the clean job whose runtime and output this job is held to.
    clean: str | None = None
    plan: Callable[[float], FaultPlan] | None = None
    families: tuple[str, ...] = ()

    @property
    def engine(self) -> str:
        return self.conf.shuffle_engine

    def build(self, prior: dict[str, Outcome]) -> tuple[Any, JobConf]:
        conf = self.conf
        if self.plan is not None:
            conf = dataclasses.replace(conf, fault_plan=self.plan(prior[self.clean].sim_s))
        cluster = build_cluster(self.nodes, "ipoib", chunk_bytes=CHUNK, seed=self.seed)
        return cluster, conf

    def run(self, built: tuple[Any, JobConf]):
        cluster, conf = built
        return run_job_on(cluster, conf)

    def outcome(self, result, prior: dict[str, Outcome]) -> Outcome:
        c = result.counters
        expected = (
            committed_bytes(prior[self.clean].counters)
            if self.clean is not None
            else self.conf.data_bytes
        )
        return Outcome(
            sim_s=result.execution_time,
            fingerprint=sim_fingerprint(result.execution_time, c),
            counters=dict(c),
            counts=sim_counts(c, result.metrics),
            failures=sim_failures(c, self.conf.n_reduces, expected, self.families),
        )


def sim_counts(c: dict[str, float], m: dict[str, float]) -> dict[str, float]:
    """Per-layer work tallies of one simulated job (all additive)."""
    disk_util = [v for k, v in m.items() if k.startswith("disk.") and k.endswith(".utilization")]
    return {
        "events": m.get("sim.events", 0.0),
        "rerates": m.get("net.rerates", 0.0),
        "rerate_touched": m.get("net.rerate_touched_flows", 0.0),
        "dead_wakeups": m.get("net.dead_wakeups", 0.0),
        "flows_started": m.get("net.flows_started", 0.0),
        "disk_requests": _sum(m, "disk.", ".requests"),
        "disk_seeks": _sum(m, "disk.", ".seeks"),
        "disk_util_sum": sum(disk_util),
        "disks": float(len(disk_util)),
        "shuffle_bytes": c.get("shuffle.bytes", 0.0),
        "retry_attempts": c.get("shuffle.retry.attempts", 0.0),
        "tt_disk_read_bytes": c.get("shuffle.tt_disk_read_bytes", 0.0),
        "cache_hits": c.get("cache.hits", 0.0),
        "cache_misses": c.get("cache.misses", 0.0),
        "cache_evictions": _sum(m, "cache.", ".evictions"),
        "prefetched_bytes": c.get("cache.prefetched_bytes", 0.0),
        "integrity_detected": c.get("integrity.detected", 0.0),
        "integrity_recovered": c.get("integrity.recovered", 0.0),
        "spec_backups": c.get("speculation.map_backups", 0.0)
        + c.get("speculation.reduce_backups", 0.0),
        "spec_wins": c.get("speculation.wins", 0.0),
        "maps_reexecuted": c.get("map.reexecuted", 0.0),
        "master_failovers": max(0.0, c.get("master.epochs", 1.0) - 1.0),
        "control_actions": c.get("control.retunes", 0.0)
        + c.get("control.steered", 0.0)
        + c.get("control.migrations", 0.0),
    }


def _sum(m: dict[str, float], prefix: str, suffix: str) -> float:
    return sum(v for k, v in m.items() if k.startswith(prefix) and k.endswith(suffix))


@dataclass
class EngineJob:
    """One functional-engine TeraSort over real records."""

    id: str
    label: str
    engine: str
    config: EngineConfig
    records: list
    in_bytes: int

    def build(self, prior: dict[str, Outcome]) -> LocalJobRunner:
        return LocalJobRunner(config=self.config)

    def run(self, runner: LocalJobRunner):
        return runner.run(self.records)

    def outcome(self, out, prior: dict[str, Outcome]) -> Outcome:
        validation = teravalidate(out.partitions, expected_rows=len(self.records))
        s = out.shuffle_stats
        cache = out.cache_stats
        stats = {
            "packets": float(s.packets),
            "bytes": float(s.bytes),
            "records": float(s.records),
            "cache_hits": float(s.cache_hits),
            "cache_misses": float(s.cache_misses),
            "cache_evictions": float(cache.evictions) if cache is not None else 0.0,
        }
        out_bytes = sum(record_size(r) for part in out.partitions for r in part)
        keys = hashlib.sha256(b"".join(k for part in out.partitions for k, _v in part))
        return Outcome(
            sim_s=0.0,
            fingerprint=fingerprint(keys.hexdigest(), sorted(stats.items())),
            counters=stats,
            counts={
                "records": stats["records"],
                "packets": stats["packets"],
                "engine_cache_hits": stats["cache_hits"],
                "engine_cache_misses": stats["cache_misses"],
            },
            failures=engine_failures(validation, out_bytes, self.in_bytes),
        )


@dataclass(frozen=True)
class Workload:
    """A named pass of jobs; why each workload exists is in BENCHMARK.json."""

    name: str
    #: (seed, smoke) -> the jobs of one pass, inputs already generated.
    make_jobs: Callable[[int, bool], list]
    #: seed -> the workload's first cluster or runner (the setup_s probe).
    setup: Callable[[int], Any]
    #: (figure, x) whose PAPER_CLAIMS entries this workload reproduces.
    claims: tuple[str, float] | None = None


# -- terasort-hdd: Fig. 4(a), 40 GB on 4 compute nodes x 2 HDDs ---------------

FIG4A_LABELS = {
    "http": "IPoIB (32Gbps)-2disks",
    "hadoopa": "HadoopA-IB (32Gbps)-2disks",
    "rdma": "OSU-IB (32Gbps)-2disks",
}


def terasort_hdd_jobs(seed: int, smoke: bool) -> list[SimJob]:
    size = (0.5 if smoke else 40) * GB
    nodes = westmere_cluster(4, n_disks=2)
    return [
        SimJob(engine, FIG4A_LABELS[engine], nodes, terasort_job(size, 4, engine), seed)
        for engine in ENGINES
    ]


# -- sort-ssd: Figs. 7/8, 20 GB Sort on 4 SSD nodes, caching off and on ---------


def sort_ssd_jobs(seed: int, smoke: bool) -> list[SimJob]:
    size = (0.25 if smoke else 20) * GB
    nodes = westmere_cluster(4, node_kind="ssd")
    rows = [
        ("http", "IPoIB", "http", {}),
        ("hadoopa", "HadoopA-IB (32Gbps)", "hadoopa", {}),
        ("rdma-nocache", "OSU-IB (Without Caching Enabled)", "rdma", {"caching_enabled": False}),
        ("rdma", "OSU-IB (With Caching Enabled)", "rdma", {}),
    ]
    return [
        SimJob(job_id, label, nodes, sort_job(size, 4, engine, **overrides), seed)
        for job_id, label, engine, overrides in rows
    ]


# -- chaos-8n: every fault family, 8 GB TeraSort on 8 nodes x 1 HDD -------------
#
# Each engine runs clean, then under two plans scaled off the clean
# runtime.  The families are split so that silent corruption never shares
# a plan with a worker or master crash: those combinations leave integrity
# detections pending on the http engine (a known bug, see README.md), and
# a workload must not fail by construction.

#: Chaos job knobs: LATE speculation for both task kinds and the
#: closed-loop control plane, so their bookkeeping runs under faults.
CHAOS_KNOBS = dict(speculative_execution=True, speculative_reduces=True, control_interval=5.0)


def corruption_plan(victims: list[str], hint: float) -> FaultPlan:
    """Silent disk + wire corruption, a link flap @0.35 and a 6x CPU / 4x disk
    slow node."""
    return FaultPlan(
        disk_corruptions=(DiskCorruption(node=victims[2], rate=0.1, rot_rate=0.1),),
        wire_corruptions=(WireCorruption(node=victims[3], rate=0.01),),
        flaps=(LinkFlap(at=0.35 * hint, node=victims[1], duration=0.06 * hint),),
        slowdowns=(NodeSlowdown(at=0.05 * hint, node=victims[4], duration=2 * hint, factor=6.0),),
        disk_slowdowns=(
            DiskSlowdown(at=0.05 * hint, node=victims[4], duration=2 * hint, factor=4.0),
        ),
        name="chaos-corruption",
    )


def crash_plan(victims: list[str], hint: float) -> FaultPlan:
    """A master crash @0.40, then a worker crash @0.55."""
    return FaultPlan(
        crashes=(NodeCrash(at=0.55 * hint, node=victims[0]),),
        master_crashes=(MasterCrash(at=0.40 * hint),),
        name="chaos-crash",
    )


CHAOS_PLANS = (
    (
        "corrupt",
        corruption_plan,
        ("disk_corruption", "wire_corruption", "link_flap", "cpu_slowdown", "disk_slowdown"),
    ),
    ("crash", crash_plan, ("master_crash", "worker_crash")),
)


def chaos_victims(seed: int, names: list[str]) -> list[str]:
    """Five distinct victim nodes drawn from the seed."""
    order = np.random.default_rng(seed).permutation(len(names))
    return [names[int(i)] for i in order[:5]]


def chaos_jobs(seed: int, smoke: bool) -> list[SimJob]:
    nodes = westmere_cluster(8)
    victims = chaos_victims(seed, [n.name for n in nodes])
    size = (2 if smoke else 8) * GB
    block = {"block_bytes": 64 * MB} if smoke else {}
    jobs: list[SimJob] = []
    for engine in ENGINES:
        conf = terasort_job(size, 8, engine, **block, **CHAOS_KNOBS)
        clean = f"{engine}.clean"
        jobs.append(SimJob(clean, clean, nodes, conf, seed))
        for plan_id, builder, families in CHAOS_PLANS:
            jobs.append(
                SimJob(
                    f"{engine}.{plan_id}",
                    f"{engine}.{plan_id}",
                    nodes,
                    conf,
                    seed,
                    clean=clean,
                    plan=lambda hint, b=builder: b(victims, hint),
                    families=families,
                )
            )
    return jobs


# -- engine-terasort: the functional engine on real TeraGen records -----------

ENGINE_DESIGNS = (
    ("http", "vanilla: whole-segment responses", WholeFilePacketizer(), 0),
    ("hadoopa", "Hadoop-A: fixed pairs per packet", FixedPairsPacketizer(1310), 0),
    ("rdma", "OSU-IB: size-aware packets + PrefetchCache", SizeAwarePacketizer(128 * 1024), 16 << 20),
)


def engine_config(n_records: int, packetizer, cache_bytes: int) -> EngineConfig:
    """16 map splits -> 8 range-partitioned reducers."""
    return EngineConfig(
        n_reducers=8,
        split_records=max(1, n_records // 16),
        packetizer=packetizer,
        partitioning="range",
        cache_bytes=cache_bytes,
    )


def engine_jobs(seed: int, smoke: bool) -> list[EngineJob]:
    n = 5_000 if smoke else 250_000
    records = teragen(np.random.default_rng(seed), n)
    in_bytes = sum(record_size(r) for r in records)
    return [
        EngineJob(engine, label, engine, engine_config(n, packetizer, cache), records, in_bytes)
        for engine, label, packetizer, cache in ENGINE_DESIGNS
    ]


def _setup_cluster(n_nodes: int, **kind):
    return lambda seed: build_cluster(
        westmere_cluster(n_nodes, **kind), "ipoib", chunk_bytes=CHUNK, seed=seed
    )


def _setup_runner(seed: int) -> LocalJobRunner:
    _engine, _label, packetizer, cache_bytes = ENGINE_DESIGNS[-1]
    return LocalJobRunner(config=engine_config(1, packetizer, cache_bytes))


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "terasort-hdd",
            terasort_hdd_jobs,
            _setup_cluster(4, n_disks=2),
            claims=("fig4a", 40),
        ),
        Workload(
            "sort-ssd",
            sort_ssd_jobs,
            _setup_cluster(4, node_kind="ssd"),
            claims=("fig8", 20),
        ),
        Workload(
            "chaos-8n",
            chaos_jobs,
            _setup_cluster(8),
        ),
        Workload(
            "engine-terasort",
            engine_jobs,
            _setup_runner,
        ),
    )
}


def claim_gaps(workload: Workload, sim_times: dict[str, float]) -> list[dict]:
    """Measured vs paper improvement for each PAPER_CLAIMS entry covered.

    ``sim_times`` maps job labels to simulated execution times.
    """
    if workload.claims is None:
        return []
    figure, x = workload.claims
    rows = []
    for cx, ours, base, paper in PAPER_CLAIMS[figure]:
        if cx == x and ours in sim_times and base in sim_times:
            measured = improvement(sim_times[ours], sim_times[base])
            rows.append(
                {
                    "claim": f"{figure} @{x:g}GB {ours} vs {base}",
                    "measured": measured,
                    "paper": paper,
                    "gap_pp": 100.0 * abs(measured - paper),
                }
            )
    return rows


def mean_gap_pp(rows: list[dict]) -> float | None:
    return statistics.fmean(r["gap_pp"] for r in rows) if rows else None
