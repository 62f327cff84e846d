"""Output checks and determinism fingerprints for benchmark jobs.

A job counts as failed when any of these holds:

* it raised;
* ``reduce.completed`` differs from the job's ``n_reduces``;
* its committed output bytes differ from the input bytes -- for a
  faulted chaos job, from its clean run's committed bytes -- by more than
  a relative 1e-9 (float summation noise stays far below that);
* its integrity ledger did not settle (``integrity.detected`` !=
  ``integrity.recovered``);
* a fault family its plan schedules never fired;
* TeraValidate rejected its output (functional engine);
* its fingerprint differs between passes of the same run.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Iterable, Mapping

OUTPUT_REL_TOL = 1e-9

#: Fault family -> "did it act?" test over a faulted job's counters.
FAMILY_FIRED = {
    "worker_crash": lambda c: c.get("faults.node_crashes", 0.0) > 0,
    "link_flap": lambda c: c.get("faults.link_flaps", 0.0) > 0,
    "disk_corruption": lambda c: (
        c.get("integrity.disk_flips", 0.0)
        + c.get("integrity.disk_rot", 0.0)
        + c.get("integrity.hdfs_corruptions", 0.0)
    )
    > 0,
    "wire_corruption": lambda c: c.get("integrity.wire_corruptions", 0.0) > 0,
    "cpu_slowdown": lambda c: c.get("faults.node_slowdowns", 0.0) > 0,
    "disk_slowdown": lambda c: c.get("faults.disk_slowdowns", 0.0) > 0,
    "master_crash": lambda c: c.get("faults.master_crashes", 0.0) > 0
    and c.get("master.epochs", 1.0) >= 2,
}


def fingerprint(*parts) -> str:
    """sha256 over the canonical JSON of ``parts`` (first 16 hex digits)."""
    blob = json.dumps(parts, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def sim_fingerprint(execution_time: float, counters: Mapping[str, float]) -> str:
    """A simulated job's fingerprint: its execution time and sorted counters."""
    return fingerprint(execution_time, sorted(counters.items()))


def committed_bytes(counters: Mapping[str, float]) -> float:
    """Output bytes the job committed (raw output when nothing raced)."""
    return counters.get(
        "reduce.committed_output_bytes", counters.get("reduce.output_bytes", 0.0)
    )


def sim_failures(
    counters: Mapping[str, float],
    n_reduces: int,
    expected_bytes: float,
    families: Iterable[str] = (),
) -> list[str]:
    """Invariants a finished simulated job violates (empty when it passed)."""
    failed = []
    if counters.get("reduce.completed", 0.0) != n_reduces:
        failed.append("reduce_completed")
    out = committed_bytes(counters)
    if abs(out - expected_bytes) > OUTPUT_REL_TOL * max(abs(expected_bytes), 1.0):
        failed.append("output_bytes")
    if counters.get("integrity.detected", 0.0) != counters.get("integrity.recovered", 0.0):
        failed.append("integrity_settled")
    failed.extend(
        f"fault_family_fired:{family}"
        for family in families
        if not FAMILY_FIRED[family](counters)
    )
    return failed


def engine_failures(validation: Mapping, out_bytes: int, in_bytes: int) -> list[str]:
    """Invariants a functional-engine job violates (empty when it passed)."""
    failed = []
    if not validation.get("valid", False):
        failed.append("teravalidate")
    if out_bytes != in_bytes:
        failed.append("output_bytes")
    return failed


def drift_failures(passes: list[dict]) -> list[tuple[str, str]]:
    """(job, invariant) for every job whose fingerprint moved between passes."""
    seen: dict[str, str] = {}
    failed = []
    for p in passes:
        for job in p["jobs"]:
            fp = job["fingerprint"]
            if fp is None:
                continue
            first = seen.setdefault(job["job"], fp)
            if fp != first and (job["job"], "fingerprint_drift") not in failed:
                failed.append((job["job"], "fingerprint_drift"))
    return failed
