"""Parallel-sweep benchmark: serial vs fanned-out fig4a grid.

Runs the fig4a sweep (24 independent seeded jobs: six engine/fabric
series at four data sizes) twice — once in-process (``workers=1``) and
once fanned across ``REPRO_SWEEP_BENCH_WORKERS`` worker processes
(default 4) via :class:`repro.parallel.SweepExecutor` — and checks the
two contracts the executor makes:

* **bit-identity** — every per-point :class:`JobResult` fingerprint
  (sha256 of the canonical-JSON serialization) matches between the
  serial and parallel runs, unconditionally;
* **pinned results** — a per-point digest of the fault-free simulated
  outcome (execution time and counters, not the ``JobConf``) is exported
  as ``digests`` and must match the committed baseline exactly, so a
  refactor that moves any fault-free result fails the trend gate;
* **speedup** — wall-clock improves by at least
  ``REPRO_SWEEP_MIN_SPEEDUP`` (default 3x with 4 workers), asserted
  only when the machine actually has at least as many CPUs as workers.
  On an undersized box the speedup is still *recorded* — measuring the
  machine is fine, gating on it is not.

Exports ``BENCH_sweep.json`` (speedup, per-run seconds, CPU/worker
counts, fingerprint verdict) so ``tools/bench_trend.py`` gates the
sweep throughput across PRs (one-sided; bit-identity is enforced on
every machine, the speedup only where ``cpus >= workers``).
"""

import os
import time

from repro.experiments.figures import fig4a
from repro.obs.export import write_json_atomic
from repro.parallel import fingerprint

from .conftest import bench_scale


def _workers() -> int:
    return int(os.environ.get("REPRO_SWEEP_BENCH_WORKERS", 4))


def _min_speedup() -> float:
    return float(os.environ.get("REPRO_SWEEP_MIN_SPEEDUP", 3.0))


def _point_fingerprints(fig, view=lambda result: result) -> dict[str, str]:
    """``{"<series>@<x>": sha256 of view(result)}`` for every job in the figure."""
    out = {}
    for series in fig.series:
        for x, result in sorted(series.results.items()):
            out[f"{series.label}@{x:g}"] = fingerprint(view(result))
    return out


def _outcome(result):
    """A job's simulated outcome only (no JobConf: its fields come and go)."""
    return (result.execution_time, sorted(result.counters.items()))


def test_parallel_sweep_is_bit_identical_and_faster(benchmark):
    # Pinned to the CI bench scale (REPRO_BENCH_SCALE=0.05) like the
    # control benchmark: the committed baseline records this scale.
    scale = bench_scale(0.05)
    workers = _workers()
    cpus = os.cpu_count() or 1

    t0 = time.perf_counter()
    serial = fig4a(scale=scale, workers=1)
    serial_seconds = time.perf_counter() - t0

    def _parallel():
        return fig4a(scale=scale, workers=workers)

    t0 = time.perf_counter()
    parallel = benchmark.pedantic(_parallel, rounds=1, iterations=1)
    parallel_seconds = time.perf_counter() - t0

    serial_prints = _point_fingerprints(serial)
    parallel_prints = _point_fingerprints(parallel)
    fingerprints_equal = serial_prints == parallel_prints
    assert fingerprints_equal, (
        "parallel sweep diverged from serial: "
        + ", ".join(
            k
            for k in serial_prints
            if parallel_prints.get(k) != serial_prints[k]
        )
    )

    speedup = serial_seconds / parallel_seconds
    speedup_enforced = cpus >= workers
    if speedup_enforced:
        floor = _min_speedup()
        assert speedup >= floor, (
            f"{workers}-worker sweep sped up only {speedup:.2f}x "
            f"(serial {serial_seconds:.2f}s, parallel {parallel_seconds:.2f}s; "
            f"floor {floor}x on a {cpus}-CPU machine)"
        )

    out_dir = os.environ.get("REPRO_BENCH_OUT", ".")
    payload = {
        "benchmark": "sweep",
        "figure": "fig4a",
        "scale": scale,
        "workers": workers,
        "cpus": cpus,
        "points": len(serial_prints),
        "serial_seconds": serial_seconds,
        "parallel_seconds": parallel_seconds,
        "speedup": speedup,
        "speedup_enforced": speedup_enforced,
        "fingerprints_equal": fingerprints_equal,
        "digests": _point_fingerprints(serial, _outcome),
    }
    write_json_atomic(payload, os.path.join(out_dir, "BENCH_sweep.json"))
