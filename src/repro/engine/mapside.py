"""Map-side execution: splits, the sort buffer, spills, and the spill merge.

Mirrors the 0.20.2 structure the simulator models: each split's records
run through the user map function into a bounded collect buffer; a full
buffer sorts and spills a run; a multi-spill map merges its spill runs
(with the real :class:`~repro.core.merge.KWayMerger`) into one final
output, partitioned per reducer with each partition internally sorted.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any

from repro.core.merge import merge_sorted_runs
from repro.core.packets import Record, record_size

__all__ = ["MapOutput", "run_map_side"]

Mapper = Callable[[Any, Any], Iterable[Record]]
Combiner = Callable[[Any, list[Any]], Iterable[Record]]


@dataclass
class MapOutput:
    """One map task's final output: per-partition sorted record lists."""

    map_id: int
    partitions: list[list[Record]]
    spills: int = 0
    #: reduce_id -> serialized bytes, filled on first use (outputs are final).
    _bytes: dict[int, int] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def partition_bytes(self, reduce_id: int) -> int:
        if reduce_id not in self._bytes:
            self._bytes[reduce_id] = sum(map(record_size, self.partitions[reduce_id]))
        return self._bytes[reduce_id]

    @property
    def total_records(self) -> int:
        return sum(len(p) for p in self.partitions)


def _sort_and_partition(
    buffer: list[Record],
    partitioner: Any,
    n_reducers: int,
    combiner: Combiner | None = None,
) -> list[list[Record]]:
    parts: list[list[Record]] = [[] for _ in range(n_reducers)]
    partition = partitioner.partition
    for rec in buffer:
        parts[partition(rec[0])].append(rec)
    first = itemgetter(0)
    for i, p in enumerate(parts):
        p.sort(key=first)
        if combiner is not None and p:
            # The 0.20.2 combiner runs over each sorted spill before it
            # hits disk, shrinking the shuffle volume.
            combined: list[Record] = []
            for key, group in itertools.groupby(p, key=first):
                combined.extend(combiner(key, [v for _k, v in group]))
            combined.sort(key=first)
            parts[i] = combined
    return parts


def run_map_side(
    map_id: int,
    split: Sequence[Record],
    mapper: Mapper,
    partitioner: Any,
    n_reducers: int,
    sort_buffer_bytes: int,
    combiner: Combiner | None = None,
) -> MapOutput:
    """Execute one map task over its split."""
    if sort_buffer_bytes <= 0:
        raise ValueError("sort_buffer_bytes must be positive")
    spill_runs: list[list[list[Record]]] = []  # per spill: per-partition runs
    buffer: list[Record] = []
    used = 0

    def spill() -> None:
        nonlocal buffer, used
        if not buffer:
            return
        spill_runs.append(
            _sort_and_partition(buffer, partitioner, n_reducers, combiner)
        )
        buffer, used = [], 0

    for key, value in split:
        for out in mapper(key, value):
            buffer.append(out)
            used += record_size(out)
            if used >= sort_buffer_bytes:
                spill()
    spill()

    if not spill_runs:
        return MapOutput(map_id, [[] for _ in range(n_reducers)], spills=0)
    if len(spill_runs) == 1:
        return MapOutput(map_id, spill_runs[0], spills=1)

    # Multi-spill: merge each partition's spill runs with the real k-way
    # merger (spill runs are sorted, so this is the on-disk merge pass).
    merged: list[list[Record]] = []
    for reduce_id in range(n_reducers):
        runs = {i: spill[reduce_id] for i, spill in enumerate(spill_runs)}
        merged.append(merge_sorted_runs(runs))
    return MapOutput(map_id, merged, spills=len(spill_runs))
