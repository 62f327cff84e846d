"""OSU-IB: the paper's RDMA shuffle engine (§III-B).

TaskTracker side (:class:`RdmaShuffleProvider`):

* **RDMAListener** — endpoint establishment is handled by the UCR runtime
  (connections are set up on first contact by the RDMACopier);
* **RDMAReceiver** — :meth:`QueueingProvider.submit` places incoming
  requests on the **DataRequestQueue**;
* **RDMAResponder** — a pool of light-weight threads waiting on the queue;
  each response is served *cache-first*: a PrefetchCache hit skips the
  disk entirely; a miss reads from disk on the critical path and asks the
  MapOutputPrefetcher to re-cache that segment with elevated priority so
  the segment's remaining waves hit;
* **MapOutputPrefetcher** — caches freshly-finished map outputs in the
  background (:mod:`repro.mapreduce.shuffle.prefetch`).

ReduceTask side (:class:`RdmaShuffleConsumer`): the **RDMACopier** streams
size-aware packets eagerly (push) as map-completion events arrive, keeping
a double-buffered read-ahead per run; merge and reduce are fully pipelined
through the DataToReduceQueue (Figure 3 bottom).
"""

from __future__ import annotations

from collections.abc import Generator
from functools import cached_property
from typing import TYPE_CHECKING, Any

from repro.core.cache import PrefetchCache
from repro.core.packets import Packetizer, SizeAwarePacketizer
from repro.core.protocol import DataRequest, MapOutputMeta
from repro.mapreduce.shuffle.levitated import (
    FetchState,
    QueueingProvider,
    StreamingConsumer,
)
from repro.mapreduce.shuffle.prefetch import MapOutputPrefetcher
from repro.sim.core import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.mapreduce.context import JobContext
    from repro.mapreduce.tasktracker import TaskTracker

__all__ = ["RdmaShuffleConsumer", "RdmaShuffleProvider"]


class RdmaShuffleProvider(QueueingProvider):
    """Listener/Receiver/DataRequestQueue/Responder + prefetch cache."""

    def __init__(self, ctx: "JobContext", tt: "TaskTracker"):
        self._packetizer = SizeAwarePacketizer(ctx.conf.rdma_packet_bytes)
        caching = ctx.conf.caching_enabled
        capacity = ctx.cache_capacity_bytes(tt.node) if caching else 0.0
        self.cache = PrefetchCache(capacity)
        super().__init__(ctx, tt)
        self.prefetcher = (
            MapOutputPrefetcher(ctx, tt, self.cache) if caching and capacity > 0 else None
        )
        ctx.metrics.register(f"cache.{tt.name}", self.cache.stats)

    def responder_threads(self) -> int:
        return self.ctx.conf.rdma_responder_threads

    def packetizer(self) -> Packetizer:
        return self._packetizer

    def on_map_output(self, meta: MapOutputMeta, file: Any) -> None:
        """§III-B.3: cache intermediate output as soon as it is available."""
        if self.prefetcher is not None:
            self.prefetcher.on_map_output(meta, file)

    def backlog(self) -> float:
        """Responder pressure plus cache-miss pressure.

        A deep prefetch queue means responders are (or soon will be)
        taking the disk path on the critical path — for placement
        purposes that tracker is as congested as one with a deep
        DataRequestQueue.
        """
        depth = super().backlog()
        if self.prefetcher is not None:
            depth += float(len(self.prefetcher.queue))
        return depth

    def fetch_payload(
        self, req: DataRequest, meta: MapOutputMeta, file: Any, take: float
    ) -> Generator[Event, Any, bool]:
        seg_id = (req.map_id, req.reduce_id)
        integ = self.ctx.integrity
        poisoned = False
        if integ is not None and self.prefetcher is not None and seg_id in self.cache:
            # Verify the cached copy *before* trusting the hit: a load that
            # was silently corrupted sits here with a bad digest.
            poisoned = integ.check_cache_hit(
                self.tt.name,
                seg_id,
                self.cache.checksum_of(seg_id),
                meta.segment_checksum(req.reduce_id),
            )
            if poisoned:
                # Recover: invalidate the poisoned entry and fall through
                # to the authoritative on-disk copy.
                self.cache.evict(seg_id)
        if (
            not poisoned
            and self.prefetcher is not None
            and self.cache.hit(seg_id, take)
        ):
            # Pin for the duration of the send: eviction (explicit or by
            # pressure) must not drop the segment mid-stream.  Released in
            # :meth:`after_serve`.
            self.cache.pin(seg_id)
            self.ctx.counters.add("cache.hit_bytes", take)
            self.ctx.counters.add("cache.hits", 1)
            return True
        # Miss (or caching disabled): the TaskTracker "fetches data directly
        # from disk itself without waiting for caching" — critical path.
        yield from self.tt.node.fs.read(
            file,
            take,
            stream_id=f"serve-m{req.map_id}-r{req.reduce_id}",
            priority=0.0,
        )
        self.ctx.counters.add("shuffle.tt_disk_read_bytes", take)
        if poisoned:
            # The disk re-read completing is the recovery for the poisoned
            # cache entry (its own disk verification is the caller's job).
            integ.settle_cache_recovery(self.tt.name, seg_id)
        if self.prefetcher is not None:
            self.ctx.counters.add("cache.misses", 1)
            self.ctx.counters.add("cache.miss_bytes", take)
            # "...after disk fetch, it requests MapOutputPrefetcher to cache
            # this particular map output data with more priority."
            self.prefetcher.demand_load(meta, file, req.reduce_id)
        return False

    def on_output_lost(self, meta: MapOutputMeta) -> None:
        """Drop every cached segment of a condemned map output.

        Re-executed replacements live on another node; serving the stale
        copy from this cache would hide the loss.  Pinned segments (a
        responder is mid-send) are evicted as soon as they unpin.
        """
        if self.prefetcher is None:
            return
        for reduce_id in range(self.ctx.conf.n_reduces):
            self.cache.evict((meta.map_id, reduce_id))

    def on_quarantine(self) -> None:
        """This tracker crossed the integrity failure threshold.

        Its cached segments are no longer trusted speculatively: drop all
        unpinned entries (in-flight sends finish; fresh demand re-reads
        disk, where every serve is verified).
        """
        if self.prefetcher is None:
            return
        freed = self.cache.shed(self.cache.used_bytes)
        if freed > 0:
            self.ctx.counters.add("cache.quarantine_dropped_bytes", freed)

    def on_memory_pressure(self, nbytes: float) -> None:
        """A co-located reducer spilled: shed low-priority cached segments.

        The PrefetchCache's speculative contents are the most expendable
        use of node RAM; dropping them frees roughly the bytes the spilling
        reducer is short by (shed entries re-cache on later demand).
        """
        if self.prefetcher is None:
            return
        freed = self.cache.shed(nbytes)
        if freed > 0:
            self.ctx.counters.add("cache.shed_bytes", freed)

    def after_serve(
        self, req: DataRequest, meta: MapOutputMeta, eof: bool, cached: bool = False
    ) -> None:
        if self.prefetcher is None:
            return
        seg_id = (req.map_id, req.reduce_id)
        if cached:
            # Release the streaming pin taken in fetch_payload; this also
            # completes any eviction deferred while we were sending.
            self.cache.unpin(seg_id)
        if eof:
            # The segment's sole consumer has everything: free the space
            # ("adjust caching based on data availability and necessity").
            # If another responder still streams it, evict() defers until
            # that responder's unpin.
            self.cache.evict(seg_id)


class RdmaShuffleConsumer(StreamingConsumer):
    """The RDMACopier + pipelined merge/reduce (push model)."""

    def eager(self) -> bool:
        return True  # copiers stream as soon as each map completes

    def fetch_threads(self) -> int:
        return self.ctx.conf.rdma_fetch_threads

    @cached_property
    def _packet_bytes(self) -> float:
        """Size-aware packets: the tuned RDMA packet size regardless of the
        record-size distribution (never split below one max-size pair)."""
        conf = self.ctx.conf
        return max(float(conf.rdma_packet_bytes), conf.record_model.max_pair_bytes)

    def min_fetch_bytes(self, state: FetchState) -> float:
        return min(state.seg_bytes, self._packet_bytes)

    def wave_cap_bytes(self) -> float:
        return float(self.ctx.conf.rdma_wave_bytes)

    def buffer_waves(self) -> float:
        return 2.0  # double-buffered read-ahead per run
