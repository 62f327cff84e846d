"""Turn one worker result into the benchmark's named metrics."""

from __future__ import annotations

import statistics
from collections import Counter

from layers import LAYERS, PER_LAYER
from refclock import to_reference

ENGINES = ("http", "hadoopa", "rdma")

#: End-to-end metric -> unit.  Direction and bound live in BENCHMARK.json.
END_TO_END = {
    "host_s": "s",
    **{f"host_s.{engine}": "s" for engine in ENGINES},
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def summarize(samples: list[float], unit: str) -> dict:
    """Median, quartiles and sample count of one metric."""
    xs = sorted(samples)
    # Inclusive quartiles stay inside the samples; the default method
    # extrapolates past them at the small n of one run.
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else (xs[0],) * 3
    return {
        "value": statistics.median(xs),
        "q1": q1,
        "q3": q3,
        "n": len(xs),
        "unit": unit,
        "samples": xs,
    }


def run_chunk_s(result: dict) -> float:
    """The run's machine speed: median reference window of its untraced passes.

    One figure per run follows drift over minutes without importing the
    noise of a single window into every job.
    """
    return statistics.median(
        w for p in result["passes"] if not p["traced"] for w in p["windows"]
    )


def ref_s(jobs: list[dict], chunk_s: float, *phases: str) -> float:
    """Reference seconds some jobs spent in the given phases (build, run, check)."""
    return to_reference(sum(j[f"{p}_s"] for j in jobs for p in phases), chunk_s)


def end_to_end(result: dict, setup_samples: list[float]) -> dict[str, dict]:
    """Every end-to-end metric, over the untraced passes of one run.

    Host times are reference seconds of build plus run.  ``setup_s`` is
    scaled by the same run-level window; its probes run just before the
    worker.
    """
    chunk = run_chunk_s(result)
    passes = [p["jobs"] for p in result["passes"] if not p["traced"]]
    out = {"host_s": summarize([ref_s(jobs, chunk, "build", "run") for jobs in passes], "s")}
    for engine in ENGINES:
        out[f"host_s.{engine}"] = summarize(
            [
                ref_s([j for j in jobs if j["engine"] == engine], chunk, "build", "run")
                for jobs in passes
            ],
            "s",
        )
    out["setup_s"] = summarize([to_reference(s, chunk) for s in setup_samples], "s")
    out["peak_rss_mb"] = summarize([result["peak_rss_mb"]], "MB")
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(result: dict) -> dict[str, dict]:
    """Every per-layer metric: traced self time plus the first pass's tallies.

    Self times and shares need the traced pass (``result["ledger"]``);
    without it only the deterministic tallies are filled in.
    """
    chunk = run_chunk_s(result)
    jobs = next(p["jobs"] for p in result["passes"] if not p["traced"])
    t: Counter = Counter()
    for job in jobs:
        t.update(job["counts"])

    values: dict[str, float] = {
        "span.build_s": ref_s(jobs, chunk, "build"),
        "span.run_s": ref_s(jobs, chunk, "run"),
        "span.check_s": ref_s(jobs, chunk, "check"),
        "sim.events": t["events"],
        "network.rerates": t["rerates"],
        "network.touched_per_rerate": _ratio(t["rerate_touched"], t["rerates"]),
        "network.dead_wakeups": t["dead_wakeups"],
        "network.flows_started": t["flows_started"],
        "storage.disk_requests": t["disk_requests"],
        "storage.disk_seeks": t["disk_seeks"],
        "storage.disk_util": _ratio(t["disk_util_sum"], t["disks"]),
        "shuffle.bytes": t["shuffle_bytes"],
        "shuffle.retry_attempts": t["retry_attempts"],
        "shuffle.tt_disk_read_bytes": t["tt_disk_read_bytes"],
        "core.cache_hit_rate": _ratio(t["cache_hits"], t["cache_hits"] + t["cache_misses"]),
        "core.cache_evictions": t["cache_evictions"],
        "core.prefetched_bytes": t["prefetched_bytes"],
        "robustness.integrity_detected": t["integrity_detected"],
        "robustness.integrity_recovered_frac": _ratio(
            t["integrity_recovered"], t["integrity_detected"]
        ),
        "robustness.spec_backups": t["spec_backups"],
        "robustness.spec_win_frac": _ratio(t["spec_wins"], t["spec_backups"]),
        "robustness.maps_reexecuted": t["maps_reexecuted"],
        "robustness.master_failovers": t["master_failovers"],
        "robustness.control_actions": t["control_actions"],
        "engine.records_per_s": _ratio(
            t["records"], ref_s([j for j in jobs if j["counts"].get("records")], chunk, "run")
        ),
        "engine.packets": t["packets"],
        "engine.cache_hit_rate": _ratio(
            t["engine_cache_hits"], t["engine_cache_hits"] + t["engine_cache_misses"]
        ),
    }
    profile = result.get("ledger")
    if profile is not None:
        traced = next(p["jobs"] for p in result["passes"] if p["traced"])
        # Profiled wall seconds -> reference seconds, like every host time.
        ledger = {layer: to_reference(s, chunk) for layer, s in profile.items()}
        total = sum(ledger.values())
        for layer in LAYERS:
            values[f"{layer}.self_s"] = ledger[layer]
            values[f"{layer}.share"] = _ratio(ledger[layer], total)
        values["trace.overhead"] = _ratio(
            ref_s(traced, chunk, "build", "run"), ref_s(jobs, chunk, "build", "run")
        )
        values["sim.self_us_per_event"] = _ratio(1e6 * ledger["sim"], t["events"])
        values["network.self_us_per_rerate"] = _ratio(1e6 * ledger["network"], t["rerates"])
    return {
        name: {"value": float(values[name]), "unit": PER_LAYER[name]["unit"]}
        for name in PER_LAYER
        if name in values
    }
