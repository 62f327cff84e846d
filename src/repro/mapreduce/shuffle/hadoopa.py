"""Hadoop-A (Wang et al., SC'11): network-levitated merge over IB verbs.

Modelled per the SC'11 design and this paper's §III-C comparison:

* **verbs transport, C plug-in** — same UCR-class physics as OSU-IB;
* **DataEngine without caching** — every fetch reads the map output from
  the TaskTracker's disk ("DataEngine doesn't provide data caching to
  decrease the disk access", §III-C.1);
* **fixed pairs-per-packet** — the release's tuning (1310 pairs ~ 128 KB
  for TeraSort's 100-byte records).  For Sort's up-to-21 KB records the
  same setting produces ~14 MB minimum messages, which blows past the
  per-run head budget of the levitated merge and forces the staging
  fallback — the paper's "inefficiency in number of key-value pairs
  transferred each time that also affects proper overlapping between all
  the stages" (§IV-C);
* **pull model** — fetching is demand-driven by the merge: nothing moves
  until all map outputs are known, and each run keeps only a single
  packet of read-ahead (no eager push, no double buffering) — this is
  the "less overlapping" §III-C.1 contrasts with OSU-IB's design;
* **merge gate** — the levitated merge starts once its header set is
  complete, i.e. after any staged runs have finished staging.
"""

from __future__ import annotations

from functools import cached_property

from repro.core.packets import FixedPairsPacketizer, Packetizer
from repro.mapreduce.shuffle.levitated import (
    FetchState,
    QueueingProvider,
    StreamingConsumer,
)

__all__ = ["HadoopAConsumer", "HadoopAProvider"]


class HadoopAProvider(QueueingProvider):
    """DataEngine: responder pool reading from disk for every request."""

    def responder_threads(self) -> int:
        return self.ctx.conf.rdma_responder_threads

    def packetizer(self) -> Packetizer:
        return FixedPairsPacketizer(self.ctx.conf.hadoopa_pairs_per_packet)

    # fetch_payload: inherited — always reads from disk (no cache).


class HadoopAConsumer(StreamingConsumer):
    """Pull-driven levitated merge with fixed-pairs packets."""

    def eager(self) -> bool:
        return False  # fetch only once the merge demands data

    def fetch_threads(self) -> int:
        return self.ctx.conf.hadoopa_fetch_threads

    @cached_property
    def _packet_bytes(self) -> float:
        """Expected message size: a fixed number of pairs per message, so
        for variable-size records it scales with the mean pair size."""
        conf = self.ctx.conf
        return conf.hadoopa_pairs_per_packet * conf.record_model.avg_pair_bytes

    def min_fetch_bytes(self, state: FetchState) -> float:
        return min(state.seg_bytes, self._packet_bytes)

    def wave_cap_bytes(self) -> float:
        # Pulls are batched to a couple of packets at most; with TeraSort's
        # 128 KB packets that is ~2 MB of staging granularity, with Sort's
        # ~14 MB packets the packet itself dominates.
        return max(float(self.ctx.conf.rdma_wave_bytes), self._packet_bytes)

    def buffer_waves(self) -> float:
        return 1.0  # no read-ahead beyond the head packet (pull model)

    def packets_in(self, nbytes: float) -> float:
        # Fixed pairs per packet: the wire exposure of an exchange scales
        # with the expected packet size, not the RDMA-tuned one.
        return max(1.0, -(-nbytes // max(1.0, self._packet_bytes)))

    def merge_gate_open(self) -> bool:
        """Merge begins when all runs are known and staging has finished."""
        return (
            self.vm.all_declared
            and self._staged_pending == 0
            and self._staging_active == 0
        )

    def control_signals(self) -> dict[str, float]:
        """Add staging pressure: Hadoop-A's oversized packets routinely
        force the disk-staging fallback, and a reducer with staging still
        in flight is memory/disk-bound even when its merge buffers look
        calm (the merge gate is closed until staging drains)."""
        signals = super().control_signals()
        if signals:
            signals["staging"] = float(self._staged_pending + self._staging_active)
        return signals
