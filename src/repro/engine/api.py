"""The functional engine's public API: configure and run a job on records."""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any

from repro.core.merge import DataToReduceQueue
from repro.core.packets import Packetizer, Record, SizeAwarePacketizer
from repro.engine.mapside import MapOutput, run_map_side
from repro.engine.partition import HashPartitioner, RangePartitioner
from repro.engine.shuffleside import SegmentServer, ShuffleStats, shuffle_and_merge

__all__ = [
    "EngineConfig",
    "JobOutput",
    "LocalJobRunner",
    "identity_mapper",
    "identity_reducer",
]

Mapper = Callable[[Any, Any], Iterable[Record]]
Reducer = Callable[[Any, list[Any]], Iterable[Record]]


def identity_mapper(key: Any, value: Any) -> Iterable[Record]:
    """The TeraSort/Sort map function: emit the record unchanged."""
    yield (key, value)


def identity_reducer(key: Any, values: list[Any]) -> Iterable[Record]:
    """The TeraSort/Sort reduce function: emit each value unchanged."""
    for value in values:
        yield (key, value)


@dataclass(frozen=True)
class EngineConfig:
    """Functional-engine knobs (a small slice of JobConf)."""

    n_reducers: int = 4
    #: Records per map split (None: one split per reducer's worth).
    split_records: int | None = None
    #: Map-side collect buffer, bytes (spills when full).
    sort_buffer_bytes: int = 1 << 20
    #: Shuffle packetisation policy (the paper's configurable packet size).
    packetizer: Packetizer = field(default_factory=lambda: SizeAwarePacketizer(64 * 1024))
    #: "range" (TeraSort total order) or "hash" (Hadoop default).
    partitioning: str = "range"
    #: TaskTracker-side PrefetchCache capacity (0 disables caching).
    cache_bytes: float = 64 << 20
    #: Bound on the DataToReduceQueue (records). None: unbounded (the
    #: seed behaviour); set, the reducer consumes incrementally under the
    #: shuffle-memory budget and the queue's high_water stays <= bound.
    max_queue_records: int | None = None

    def __post_init__(self) -> None:
        if self.n_reducers < 1:
            raise ValueError("need at least one reducer")
        if self.partitioning not in ("range", "hash"):
            raise ValueError(f"unknown partitioning {self.partitioning!r}")
        if self.max_queue_records is not None and self.max_queue_records < 1:
            raise ValueError("max_queue_records must be >= 1")


@dataclass
class JobOutput:
    """Results of a functional run."""

    #: Reducer outputs, index = reduce id; concatenation is totally ordered
    #: under range partitioning.
    partitions: list[list[Record]]
    map_outputs: list[MapOutput]
    shuffle_stats: ShuffleStats
    cache_stats: Any

    @property
    def records(self) -> list[Record]:
        return [r for part in self.partitions for r in part]

    @property
    def total_records(self) -> int:
        return sum(len(p) for p in self.partitions)


class LocalJobRunner:
    """Run a MapReduce job on in-memory records through the real data path."""

    def __init__(
        self,
        mapper: Mapper = identity_mapper,
        reducer: Reducer = identity_reducer,
        config: EngineConfig | None = None,
        combiner: Reducer | None = None,
    ):
        self.mapper = mapper
        self.reducer = reducer
        self.combiner = combiner
        self.config = config or EngineConfig()

    # -- pipeline ---------------------------------------------------------

    def _splits(self, records: Sequence[Record]) -> list[Sequence[Record]]:
        cfg = self.config
        per = cfg.split_records or max(1, len(records) // max(1, cfg.n_reducers))
        return [records[i : i + per] for i in range(0, len(records), per)] or [[]]

    def _partitioner(self, records: Sequence[Record]) -> Any:
        cfg = self.config
        if cfg.partitioning == "hash":
            return HashPartitioner(cfg.n_reducers)
        # TeraSort-style: sample up to 1000 keys across the input.
        step = max(1, len(records) // 1000)
        sample = [records[i][0] for i in range(0, len(records), step)]
        return RangePartitioner.from_sample(sample, cfg.n_reducers)

    def run(self, records: Sequence[Record]) -> JobOutput:
        cfg = self.config
        partitioner = self._partitioner(records)

        # Map phase.
        map_outputs = [
            run_map_side(
                map_id,
                split,
                self.mapper,
                partitioner,
                cfg.n_reducers,
                cfg.sort_buffer_bytes,
                combiner=self.combiner,
            )
            for map_id, split in enumerate(self._splits(records))
        ]
        by_id = {m.map_id: m for m in map_outputs}

        # Shuffle + merge + reduce per reducer.
        server = SegmentServer(by_id, cfg.packetizer, cache_bytes=cfg.cache_bytes)
        partitions: list[list[Record]] = []
        for reduce_id in range(cfg.n_reducers):
            queue = DataToReduceQueue()
            if cfg.max_queue_records is None:
                shuffle_and_merge(reduce_id, server, sorted(by_id), sink=queue)
                partitions.append(self._reduce(queue))
            else:
                partitions.append(
                    self._reduce_bounded(reduce_id, server, by_id, queue)
                )

        return JobOutput(
            partitions=partitions,
            map_outputs=map_outputs,
            shuffle_stats=server.stats,
            cache_stats=server.cache.stats if server.cache is not None else None,
        )

    def _reduce(self, queue: DataToReduceQueue) -> list[Record]:
        """Group the sorted stream by key and apply the reduce function."""
        return self._reduce_records(queue.drain())

    def _reduce_records(self, stream: list[Record]) -> list[Record]:
        out: list[Record] = []
        for key, group in itertools.groupby(stream, key=itemgetter(0)):
            values = [v for _k, v in group]
            out.extend(self.reducer(key, values))
        return out

    def _reduce_bounded(
        self,
        reduce_id: int,
        server: SegmentServer,
        by_id: dict[int, MapOutput],
        queue: DataToReduceQueue,
    ) -> list[Record]:
        """Shuffle/merge/reduce with a bounded DataToReduceQueue.

        The merge drains into ``queue`` in capped batches; whenever the
        queue fills, the reducer consumes every *complete* key group (the
        trailing group may continue in the next batch, so its records stay
        pending — groups are never split across reduce calls and the
        output is identical to the unbounded run).
        """
        out: list[Record] = []
        pending: list[Record] = []

        def flush_complete_groups() -> None:
            if not pending:
                return
            last_key = pending[-1][0]
            cut = len(pending)
            while cut > 0 and pending[cut - 1][0] == last_key:
                cut -= 1
            if cut > 0:
                out.extend(self._reduce_records(pending[:cut]))
                del pending[:cut]

        def consume(q: DataToReduceQueue) -> None:
            pending.extend(q.drain())
            flush_complete_groups()

        shuffle_and_merge(
            reduce_id,
            server,
            sorted(by_id),
            sink=queue,
            max_queue_records=self.config.max_queue_records,
            consume=consume,
        )
        pending.extend(queue.drain())
        out.extend(self._reduce_records(pending))
        return out
