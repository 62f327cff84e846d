"""Module-to-layer map, cProfile folding, and the per-layer metric catalog.

A *layer* is a group of ``src/repro`` modules.  The traced benchmark
run folds cProfile ``tottime`` by the source file of each function into
these layers.  Time spent in code outside ``src/repro`` (builtins, the
standard library, numpy, the benchmark itself) is charged to the layer
of the repro function that called it, split by the caller shares pstats
records on each call edge, recursively through non-repro callers.
"""

from __future__ import annotations

import os
from collections import defaultdict
from collections.abc import Callable, Mapping

LAYERS = (
    "sim",
    "network",
    "storage",
    "hdfs",
    "ucr",
    "core",
    "shuffle",
    "mapreduce",
    "robustness",
    "engine",
    "obs",
    "workloads",
    "other",
)

#: ``src/repro``-relative file or directory prefix -> layer.  The longest
#: matching prefix wins, so a file entry overrides its directory.
MODULE_LAYERS: dict[str, str] = {
    "sim/": "sim",
    "network/": "network",
    "storage/": "storage",
    "hdfs/": "hdfs",
    "ucr/": "ucr",
    "core/": "core",
    "mapreduce/shuffle/": "shuffle",
    "mapreduce/": "mapreduce",
    "faults.py": "robustness",
    "integrity.py": "robustness",
    "control.py": "robustness",
    "mapreduce/journal.py": "robustness",
    "mapreduce/speculation.py": "robustness",
    "engine/": "engine",
    "obs/": "obs",
    "tools/": "obs",
    "workloads/": "workloads",
    "cluster/": "other",
    "parallel.py": "other",
    "experiments/": "other",
    "__init__.py": "other",
}


def layer_of_relpath(rel: str) -> str | None:
    """Layer of a ``src/repro``-relative path (``/``-separated), or None."""
    best = None
    for prefix, layer in MODULE_LAYERS.items():
        matches = rel.startswith(prefix) if prefix.endswith("/") else rel == prefix
        if matches and (best is None or len(prefix) > len(best[0])):
            best = (prefix, layer)
    return best[1] if best else None


def layer_resolver(repro_dir: str) -> Callable[[str], str | None]:
    """Map a code object's filename to its layer; None outside ``repro_dir``."""
    root = os.path.realpath(repro_dir)
    cache: dict[str, str | None] = {}

    def resolve(filename: str) -> str | None:
        if filename not in cache:
            path = os.path.realpath(filename) if os.path.isabs(filename) else ""
            rel = os.path.relpath(path, root) if path else os.pardir
            if rel.startswith(os.pardir):
                cache[filename] = None
            else:
                cache[filename] = layer_of_relpath(rel.replace(os.sep, "/"))
        return cache[filename]

    return resolve


# pstats key: (filename, line, function name); value: (cc, nc, tottime,
# cumtime, callers) where callers maps caller key -> (cc, nc, tt, ct).
StatsDict = Mapping[tuple, tuple]


def fold_profile(
    stats: StatsDict, resolve: Callable[[str], str | None]
) -> dict[str, float]:
    """Fold per-function self time into per-layer seconds.

    Every second of ``tottime`` lands in exactly one layer, so the
    result sums to the profile's total self time.  A non-repro function
    with no recorded caller (a profile root), or reached again through a
    cycle of non-repro callers, is charged to ``other``.
    """
    memo: dict[tuple, dict[str, float]] = {}

    def caller_shares(func: tuple, path: frozenset) -> dict[str, float]:
        if func in memo:
            return memo[func]
        callers = stats[func][4] if func in stats else {}
        # Split by the self time each caller edge accounts for; fall back
        # to call counts when the function's self time rounds to zero.
        weights = {c: edge[2] for c, edge in callers.items()}
        total = sum(weights.values())
        if total <= 0:
            weights = {c: edge[1] for c, edge in callers.items()}
            total = sum(weights.values())
        out: dict[str, float] = defaultdict(float)
        if total <= 0:
            out["other"] = 1.0
        for caller, weight in weights.items():
            if weight <= 0:
                continue
            share = weight / total
            layer = resolve(caller[0])
            if layer is not None:
                out[layer] += share
            elif caller in path:
                out["other"] += share
            else:
                for up, frac in caller_shares(caller, path | {caller}).items():
                    out[up] += share * frac
        memo[func] = out
        return out

    seconds = dict.fromkeys(LAYERS, 0.0)
    for func, (_cc, _nc, tottime, _ct, _callers) in stats.items():
        layer = resolve(func[0])
        if layer is not None:
            seconds[layer] += tottime
        else:
            for up, frac in caller_shares(func, frozenset([func])).items():
                seconds[up] += tottime * frac
    return seconds


_ALL = ["terasort-hdd", "sort-ssd", "chaos-8n", "engine-terasort"]
_SIM = ["terasort-hdd", "sort-ssd", "chaos-8n"]
_ROBUST_FLAT = ["terasort-hdd", "sort-ssd"]
_NOT_ENGINE = ["engine-terasort"]


def _row(unit: str, better: str, moves, mostly_on, no_change_on) -> dict:
    return {
        "unit": unit,
        "better": better,
        "moves": list(moves),
        "mostly_on": list(mostly_on),
        "no_change_on": list(no_change_on),
    }


#: layer -> (end-to-end metrics its self time should move, workloads
#: where it moves most, workloads where it should not move).
_LAYER_TARGETS = {
    "sim": (["host_s.http"], ["terasort-hdd"], _NOT_ENGINE),
    "network": (["host_s.rdma"], ["sort-ssd"], _NOT_ENGINE),
    "storage": (["host_s.http"], ["terasort-hdd"], _NOT_ENGINE),
    "hdfs": (["host_s"], ["terasort-hdd"], _NOT_ENGINE),
    "ucr": (["host_s.rdma", "host_s.hadoopa"], ["terasort-hdd"], _NOT_ENGINE),
    "core": (["host_s.hadoopa"], ["terasort-hdd"], []),
    "shuffle": (["host_s.hadoopa"], ["terasort-hdd"], _NOT_ENGINE),
    "mapreduce": (["host_s"], ["terasort-hdd"], _NOT_ENGINE),
    "robustness": (["host_s"], ["chaos-8n"], _ROBUST_FLAT),
    "engine": (["host_s", "peak_rss_mb"], ["engine-terasort"], _SIM),
    "obs": (["host_s"], ["terasort-hdd"], []),
    "workloads": (["setup_s", "peak_rss_mb"], ["engine-terasort"], []),
    "other": (["host_s"], ["terasort-hdd"], []),
}

#: Per-layer metric catalog: unit, direction, the end-to-end metric(s) it
#: should move, the workload(s) where it moves most, and the workloads on
#: which it should stay (about) unchanged.  ``BENCHMARK.json`` lists the
#: same names; ``test_schema.py`` keeps the two in step.
PER_LAYER: dict[str, dict] = {
    **{
        f"{layer}.{kind}": _row(unit, "lower", *_LAYER_TARGETS[layer])
        for layer in LAYERS
        for kind, unit in (("self_s", "s"), ("share", "ratio"))
    },
    "trace.overhead": _row("ratio", "lower", ["host_s"], _ALL, []),
    "span.build_s": _row("s", "lower", ["host_s"], _ALL, []),
    "span.run_s": _row("s", "lower", ["host_s"], _ALL, []),
    "span.check_s": _row("s", "lower", ["host_s"], ["engine-terasort"], []),
    "sim.events": _row("count", "lower", ["host_s.http"], ["terasort-hdd"], _NOT_ENGINE),
    "sim.self_us_per_event": _row("us", "lower", ["host_s.http"], ["terasort-hdd"], _NOT_ENGINE),
    "network.rerates": _row("count", "lower", ["host_s.rdma"], ["sort-ssd"], _NOT_ENGINE),
    "network.touched_per_rerate": _row("count", "lower", ["host_s.rdma"], ["sort-ssd"], _NOT_ENGINE),
    "network.dead_wakeups": _row("count", "lower", ["host_s.rdma"], ["sort-ssd"], _NOT_ENGINE),
    "network.flows_started": _row("count", "lower", ["host_s.rdma"], ["sort-ssd"], _NOT_ENGINE),
    "network.self_us_per_rerate": _row("us", "lower", ["host_s.rdma"], ["sort-ssd"], _NOT_ENGINE),
    "storage.disk_requests": _row("count", "lower", ["host_s.http"], ["terasort-hdd"], ["sort-ssd"]),
    "storage.disk_seeks": _row("count", "lower", ["host_s.http"], ["terasort-hdd"], ["sort-ssd"]),
    "storage.disk_util": _row("ratio", "higher", ["host_s.http"], ["terasort-hdd"], ["sort-ssd"]),
    "shuffle.bytes": _row("B", "lower", ["host_s.hadoopa"], ["terasort-hdd"], _NOT_ENGINE),
    "shuffle.retry_attempts": _row("count", "lower", ["host_s.hadoopa"], ["chaos-8n"], _ROBUST_FLAT),
    "shuffle.tt_disk_read_bytes": _row("B", "lower", ["host_s.hadoopa"], ["terasort-hdd"], _NOT_ENGINE),
    "core.cache_hit_rate": _row("ratio", "higher", ["host_s.rdma"], ["sort-ssd"], ["terasort-hdd"]),
    "core.cache_evictions": _row("count", "lower", ["host_s.rdma"], ["sort-ssd"], ["terasort-hdd"]),
    "core.prefetched_bytes": _row("B", "higher", ["host_s.rdma"], ["sort-ssd"], ["terasort-hdd"]),
    "robustness.integrity_detected": _row("count", "lower", ["host_s"], ["chaos-8n"], _ROBUST_FLAT),
    "robustness.integrity_recovered_frac": _row("ratio", "higher", ["host_s"], ["chaos-8n"], _ROBUST_FLAT),
    "robustness.spec_backups": _row("count", "lower", ["host_s"], ["chaos-8n"], _ROBUST_FLAT),
    "robustness.spec_win_frac": _row("ratio", "higher", ["host_s"], ["chaos-8n"], _ROBUST_FLAT),
    "robustness.maps_reexecuted": _row("count", "lower", ["host_s"], ["chaos-8n"], _ROBUST_FLAT),
    "robustness.master_failovers": _row("count", "lower", ["host_s"], ["chaos-8n"], _ROBUST_FLAT),
    "robustness.control_actions": _row("count", "lower", ["host_s"], ["chaos-8n"], _ROBUST_FLAT),
    "engine.records_per_s": _row("1/s", "higher", ["host_s", "peak_rss_mb"], ["engine-terasort"], _SIM),
    "engine.packets": _row("count", "lower", ["host_s", "peak_rss_mb"], ["engine-terasort"], _SIM),
    "engine.cache_hit_rate": _row("ratio", "higher", ["host_s", "peak_rss_mb"], ["engine-terasort"], _SIM),
}
