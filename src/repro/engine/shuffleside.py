"""Reduce-side shuffle on real data: packetized fetch, cache, PQ merge.

This is the paper's data path executed for real:

* the "TaskTracker" (:class:`SegmentServer`) serves map-output segments
  packet by packet through a :class:`~repro.core.packets.Packetizer`,
  answering from a :class:`~repro.core.cache.PrefetchCache` when the
  segment is resident (misses "read from disk" — here, the authoritative
  store — and demand-promote the segment);
* the reducer (:func:`shuffle_and_merge`) drives the
  :class:`~repro.core.merge.KWayMerger` refill protocol: it requests the
  next packet of exactly the runs the merge is starving on, and emits the
  globally sorted stream into a :class:`~repro.core.merge.
  DataToReduceQueue`.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass

from repro.core.cache import PrefetchCache
from repro.core.merge import DataToReduceQueue, KWayMerger
from repro.core.packets import Packetizer, Record
from repro.engine.mapside import MapOutput

__all__ = ["SegmentServer", "ShuffleStats", "shuffle_and_merge"]


@dataclass
class ShuffleStats:
    packets: int = 0
    bytes: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    records: int = 0


class SegmentServer:
    """TaskTracker side: packetized segment service with a prefetch cache."""

    def __init__(
        self,
        outputs: dict[int, MapOutput],
        packetizer: Packetizer,
        cache_bytes: float = 0.0,
    ):
        self.outputs = outputs
        self.packetizer = packetizer
        self.cache = PrefetchCache(cache_bytes) if cache_bytes > 0 else None
        #: (map_id, reduce_id) -> (packet iterator, next packet).  The
        #: one-packet lookahead lets eof ride the last packet.
        self._streams: dict[
            tuple[int, int], tuple[Iterator[list[Record]], list[Record] | None]
        ] = {}
        #: Segments already served to eof: asked again, they stay done.
        self._finished: set[tuple[int, int]] = set()
        self.stats = ShuffleStats()
        if self.cache is not None:
            # MapOutputPrefetcher: cache fresh outputs immediately.
            for map_id, out in outputs.items():
                for reduce_id in range(len(out.partitions)):
                    nbytes = out.partition_bytes(reduce_id)
                    if nbytes:
                        self.cache.insert((map_id, reduce_id), nbytes)

    def open(self, map_id: int, reduce_id: int) -> None:
        output = self.outputs[map_id]
        packets = self.packetizer.packets(output.partitions[reduce_id])
        self._streams[(map_id, reduce_id)] = (packets, next(packets, None))
        # Every opened segment is served to eof: count its bytes once.
        self.stats.bytes += output.partition_bytes(reduce_id)

    def next_packet(self, map_id: int, reduce_id: int) -> tuple[list[Record], bool]:
        """The next packet of a segment and whether the segment is done."""
        key = (map_id, reduce_id)
        if key not in self._streams:
            if key in self._finished:
                return [], True
            self.open(map_id, reduce_id)
        packets, packet = self._streams.pop(key)
        if packet is None:
            self._finished.add(key)
            return [], True  # an empty segment: nothing to fetch or cache
        if self.cache is not None:
            nbytes = self.outputs[map_id].partition_bytes(reduce_id)
            if self.cache.hit(key, nbytes):
                self.stats.cache_hits += 1
            else:
                self.stats.cache_misses += 1
                # Disk fetch + demand-promoted re-insert (§III-B.3).
                self.cache.insert(key, nbytes)
        self.stats.packets += 1
        self.stats.records += len(packet)
        lookahead = next(packets, None)
        if lookahead is not None:
            self._streams[key] = (packets, lookahead)
            return packet, False
        if self.cache is not None:
            self.cache.evict(key)  # sole consumer is done with it
        self._finished.add(key)
        return packet, True


def shuffle_and_merge(
    reduce_id: int,
    server: SegmentServer,
    map_ids: list[int],
    sink: DataToReduceQueue | None = None,
    max_queue_records: int | None = None,
    consume: Callable[[DataToReduceQueue], None] | None = None,
) -> list[Record]:
    """Fetch all segments for ``reduce_id`` and merge them, packet-driven.

    Implements the paper's loop: first packet of every run builds the
    priority queue; extraction runs until some run's pairs hit zero; that
    run's next packet is requested; repeat until every run is exhausted.

    With ``max_queue_records`` set (requires a ``sink``), the
    DataToReduceQueue is bounded: each drain batch is capped so the queue
    never exceeds the budget, and ``consume`` is invoked to let the reduce
    side pull records out whenever the queue is full — the backpressure
    path of a memory-constrained reducer.  When ``consume`` is given the
    sorted stream flows through it and the return value is empty (nothing
    is double-buffered).
    """
    if max_queue_records is not None:
        if sink is None:
            raise ValueError("max_queue_records requires a sink queue")
        if max_queue_records < 1:
            raise ValueError("max_queue_records must be >= 1")
    merger = KWayMerger()
    for map_id in map_ids:
        merger.add_run(map_id)
        packet, eof = server.next_packet(map_id, reduce_id)
        merger.feed(map_id, packet, eof=eof)
    out: list[Record] = []
    collect = consume is None
    while not merger.exhausted:
        limit = None
        if max_queue_records is not None:
            if len(sink) >= max_queue_records:
                if consume is None:
                    raise RuntimeError(
                        "DataToReduceQueue full and no consumer to drain it"
                    )
                consume(sink)
            limit = max(1, max_queue_records - len(sink))
        drained = merger.drain_ready(sink=sink, max_records=limit)
        if collect:
            out.extend(drained)
        if limit is not None and merger.ready():
            # The cap stopped the drain early; the merge is not stalled —
            # give the consumer a chance and keep extracting.
            continue
        starving = merger.starving()
        if not starving:
            if merger.exhausted:
                break
            raise RuntimeError("merge stalled without starving runs")
        for map_id in starving:
            packet, eof = server.next_packet(map_id, reduce_id)
            merger.feed(map_id, packet, eof=eof)
    return out
