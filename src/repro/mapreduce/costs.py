"""CPU and framework cost model for Hadoop 0.20.2 tasks.

Per-byte compute costs for the map/sort/merge/reduce stages plus fixed
framework overheads.  All values are calibration constants with provenance
documented in :mod:`repro.experiments.calibration`; they are *uniform
across all four designs* (only the shuffle/merge structure and the
transport physics differ between the compared systems), so they set the
absolute scale of job times without affecting which design wins.

Rationale for the defaults (2.67 GHz Westmere core, JDK 1.7 JVM):

* ``map``: TeraSort's map is identity plus record parse/collect —
  era-measured Hadoop map throughput for trivial maps is ~150-250 MB/s
  per core including serialization.
* ``sort``: quicksort of ~1M 100-byte records per io.sort.mb buffer,
  ~0.5-1 s per 100 MB in Java.
* ``merge``: streaming k-way merge costs a heap op per record.
* ``reduce``: identity reduce plus output serialization.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CostModel", "DEFAULT_COSTS"]

MB = 1e6


@dataclass(frozen=True)
class CostModel:
    """Per-stage CPU costs (seconds per byte) and framework overheads."""

    #: Map function + input parse + collect, s/byte.
    map_cpu_per_byte: float = 5.0e-9  # ~200 MB/s per core
    #: Map-side buffer sort, s/byte.
    sort_cpu_per_byte: float = 8.0e-9  # ~125 MB/s per core
    #: Merge (map-side spill merge and reduce-side merge), s/byte.
    merge_cpu_per_byte: float = 2.5e-9  # ~400 MB/s per core
    #: Reduce function + output serialization, s/byte.
    reduce_cpu_per_byte: float = 4.0e-9  # ~250 MB/s per core
    #: JVM launch + task init (no JVM reuse in 0.20.2 defaults), seconds.
    task_startup: float = 1.2
    #: Job setup + cleanup tasks and JobTracker bookkeeping, seconds.
    job_overhead: float = 6.0
    #: Delay until a reducer learns a map finished (TaskTracker heartbeat
    #: plus the reducer's completion-event poll), seconds.
    map_completion_notify: float = 2.0
    #: Per-task JVM heap (mapred.child.java.opts), bytes.
    task_heap_bytes: float = 1024 * 1024 * 1024
    #: Relative jitter applied to task compute times (deterministic RNG).
    cpu_jitter: float = 0.03

    def cpu_seconds(self, stage: str, nbytes: float) -> float:
        """CPU seconds for ``stage`` over ``nbytes`` of data."""
        rate = {
            "map": self.map_cpu_per_byte,
            "sort": self.sort_cpu_per_byte,
            "merge": self.merge_cpu_per_byte,
            "reduce": self.reduce_cpu_per_byte,
        }.get(stage)
        if rate is None:
            raise KeyError(f"unknown stage {stage!r}")
        return rate * nbytes


DEFAULT_COSTS = CostModel()
