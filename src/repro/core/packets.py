"""Shuffle packetisation policies.

The three designs the paper compares differ in *how a map-output segment is
cut into shuffle messages*:

* **Vanilla Hadoop** (:class:`WholeFilePacketizer`) — one HTTP response per
  segment; the servlet streams the entire file (the wire then fragments it
  into 64 KB socket packets, which the transport model accounts for).
  Consequence: the reducer cannot start merging a segment until the whole
  segment has arrived, and big segments monopolise memory.

* **Hadoop-A** (:class:`FixedPairsPacketizer`) — a fixed *count* of
  key-value pairs per message regardless of their size.  For TeraSort's
  fixed 100-byte records this yields uniform packets; for Sort, where a
  pair can reach ~20 KB, packet sizes vary by orders of magnitude.  The
  paper attributes Hadoop-A's loss to IPoIB on Sort to precisely this
  "inefficiency in number of key-value pairs transferred each time"
  (§IV-C).

* **OSU-IB** (:class:`SizeAwarePacketizer`) — packs pairs until a byte
  budget is reached, never splitting a pair; packet sizes stay near the
  tuned RDMA packet size for any record-size distribution.

Each policy exposes two faces:

* :meth:`Packetizer.packets` — cut an iterable of real ``(key, value)``
  records into packets (used by the functional engine and tests);
* :meth:`Packetizer.plan` — compute the packet-size *plan* for a segment
  described only by aggregate statistics (used by the simulator at
  100 GB scale).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from typing import Any

__all__ = [
    "FixedPairsPacketizer",
    "PacketPlan",
    "Packetizer",
    "SizeAwarePacketizer",
    "WholeFilePacketizer",
]

Record = tuple[Any, Any]


def _serialized_len(obj: Any) -> int:
    """Bytes an object occupies serialized: its length if it has one,
    otherwise a fixed 8-byte scalar encoding (ints, floats, ...)."""
    try:
        return len(obj)
    except TypeError:
        return 8


def record_size(record: Record) -> int:
    """Serialized size of a record: key bytes + value bytes + 8-byte lengths."""
    key, value = record
    try:
        return len(key) + len(value) + 8
    except TypeError:
        return _serialized_len(key) + _serialized_len(value) + 8


@dataclass(frozen=True)
class PacketPlan:
    """Analytic description of how a segment splits into packets."""

    #: Number of shuffle messages.
    n_packets: int
    #: Mean payload bytes per packet.
    avg_packet_bytes: float
    #: Largest packet the policy can emit for this segment.
    max_packet_bytes: float
    #: Total payload bytes (== segment size).
    total_bytes: float

    def __post_init__(self) -> None:
        if self.n_packets < 0:
            raise ValueError("n_packets must be >= 0")


class Packetizer:
    """Base class: cuts runs of records into shuffle messages."""

    name = "abstract"

    def packets(self, records: Iterable[Record]) -> Iterator[list[Record]]:
        """Yield packets (lists of records) covering ``records`` in order."""
        raise NotImplementedError

    def plan(
        self, total_bytes: float, n_pairs: int, avg_pair_bytes: float, max_pair_bytes: float
    ) -> PacketPlan:
        """Packet plan for a segment known only by aggregate statistics."""
        raise NotImplementedError

    # -- shared helpers ---------------------------------------------------

    @staticmethod
    def _empty_plan() -> PacketPlan:
        return PacketPlan(0, 0.0, 0.0, 0.0)


class SizeAwarePacketizer(Packetizer):
    """OSU-IB: pack pairs up to a byte budget, never splitting a pair.

    A pair larger than the budget travels alone in an oversized packet
    (the protocol always makes progress).
    """

    name = "size-aware"

    def __init__(self, packet_bytes: int = 128 * 1024):
        if packet_bytes <= 0:
            raise ValueError(f"packet_bytes must be positive, got {packet_bytes}")
        self.packet_bytes = packet_bytes

    def packets(self, records: Iterable[Record]) -> Iterator[list[Record]]:
        packet: list[Record] = []
        used = 0
        for rec in records:
            size = record_size(rec)
            if packet and used + size > self.packet_bytes:
                yield packet
                packet, used = [], 0
            packet.append(rec)
            used += size
        if packet:
            yield packet

    def plan(
        self, total_bytes: float, n_pairs: int, avg_pair_bytes: float, max_pair_bytes: float
    ) -> PacketPlan:
        if total_bytes <= 0 or n_pairs <= 0:
            return self._empty_plan()
        n = max(1, int(-(-total_bytes // self.packet_bytes)))
        max_pkt = max(float(self.packet_bytes), float(max_pair_bytes))
        return PacketPlan(n, total_bytes / n, max_pkt, total_bytes)


class FixedPairsPacketizer(Packetizer):
    """Hadoop-A: a fixed number of key-value pairs per message."""

    name = "fixed-pairs"

    def __init__(self, pairs_per_packet: int = 1310):
        # Default tuned for TeraSort's ~100 B records: 1310 pairs ≈ 128 KB,
        # matching the Hadoop-A release's TeraSort tuning (§IV-C notes all
        # tunables were set to the release's optimum values).
        if pairs_per_packet <= 0:
            raise ValueError(f"pairs_per_packet must be positive, got {pairs_per_packet}")
        self.pairs_per_packet = pairs_per_packet

    def packets(self, records: Iterable[Record]) -> Iterator[list[Record]]:
        packet: list[Record] = []
        for rec in records:
            packet.append(rec)
            if len(packet) >= self.pairs_per_packet:
                yield packet
                packet = []
        if packet:
            yield packet

    def plan(
        self, total_bytes: float, n_pairs: int, avg_pair_bytes: float, max_pair_bytes: float
    ) -> PacketPlan:
        if total_bytes <= 0 or n_pairs <= 0:
            return self._empty_plan()
        n = max(1, -(-n_pairs // self.pairs_per_packet))
        # A full packet of worst-case pairs bounds the largest message —
        # this is the quantity that blows up for Sort's ~20 KB pairs.
        max_pkt = min(float(total_bytes), self.pairs_per_packet * float(max_pair_bytes))
        return PacketPlan(n, total_bytes / n, max_pkt, total_bytes)


class WholeFilePacketizer(Packetizer):
    """Vanilla Hadoop: the entire segment is one response message."""

    name = "whole-file"

    def packets(self, records: Iterable[Record]) -> Iterator[list[Record]]:
        everything = list(records)
        if everything:
            yield everything

    def plan(
        self, total_bytes: float, n_pairs: int, avg_pair_bytes: float, max_pair_bytes: float
    ) -> PacketPlan:
        if total_bytes <= 0 or n_pairs <= 0:
            return self._empty_plan()
        return PacketPlan(1, total_bytes, total_bytes, total_bytes)


def validate_packets(
    packets: Sequence[list[Record]], records: Sequence[Record]
) -> bool:
    """True iff ``packets`` is an order-preserving partition of ``records``.

    Test/verification helper shared by unit and property tests.
    """
    flat = [rec for pkt in packets for rec in pkt]
    return flat == list(records) and all(len(p) > 0 for p in packets)
