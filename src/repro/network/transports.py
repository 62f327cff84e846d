"""Interconnect transport models.

A :class:`TransportSpec` captures what actually differentiates the paper's
four interconnect options at the level that determines job execution time:

* ``effective_stream_bw`` — the throughput a *single* connection achieves.
  Socket stacks (1GigE, 10GigE, IPoIB) never reach line rate because of
  TCP/IP processing and copies; native verbs gets close to wire speed.
* ``line_rate`` — NIC capacity shared by all concurrent streams.
* ``latency`` — one-way small-message latency (sockets: tens of µs through
  the kernel; verbs: single-digit µs, OS-bypassed).
* ``cpu_send_per_byte`` / ``cpu_recv_per_byte`` — host CPU seconds burned
  per transferred byte.  This is the cost of socket buffer copies and
  protocol processing; it runs on the *same cores* as map/sort/merge/
  reduce work, which is how a fast-but-CPU-hungry transport slows a busy
  Hadoop node.  TCP Offload Engines (the Chelsio T320) cut it; RDMA verbs
  eliminate it (true OS bypass — the HCA moves the bytes).
* ``framing_overhead`` — wire bytes per payload byte beyond 1.0 (headers).
* ``packet_overhead`` — per-packet serial processing cost (syscall /
  doorbell + completion handling).
* ``setup_latency`` — connection establishment (TCP handshake vs. queue
  pair + endpoint exchange).

Default constants are documented in :mod:`repro.experiments.calibration`;
the presets here are the physical layer of that calibration.
"""

from __future__ import annotations

from collections.abc import Generator
from dataclasses import dataclass
from typing import Any

from repro.sim.core import Event, Simulator

__all__ = [
    "GIGE",
    "IB_VERBS",
    "IPOIB",
    "TENGIGE_TOE",
    "Transport",
    "TransportSpec",
    "transport_by_name",
]

MB = 1e6
US = 1e-6


@dataclass(frozen=True)
class TransportSpec:
    """Immutable description of an interconnect + protocol stack."""

    name: str
    #: NIC line rate, bytes/s (shared by all streams on the port).
    line_rate: float
    #: Max throughput of one stream/connection, bytes/s.
    effective_stream_bw: float
    #: One-way per-message latency, seconds.
    latency: float
    #: Host CPU cost per byte on the sender, seconds.
    cpu_send_per_byte: float
    #: Host CPU cost per byte on the receiver, seconds.
    cpu_recv_per_byte: float
    #: Extra wire bytes per payload byte (protocol headers).
    framing_overhead: float
    #: Serial per-packet processing cost, seconds.
    packet_overhead: float
    #: Connection establishment latency, seconds.
    setup_latency: float
    #: Wire MTU-level packet size used to count per-packet overheads.
    wire_packet_bytes: float
    #: True when the data path bypasses the OS (RDMA).
    os_bypass: bool

    def wire_bytes(self, payload: float) -> float:
        """Bytes that actually cross the link for ``payload`` bytes."""
        return payload * (1.0 + self.framing_overhead)


# ---------------------------------------------------------------------------
# Presets.  Sources: paper §II-B and §IV-A (QDR ConnectX, 32 Gbps signalling;
# Chelsio T320 TOE), plus OSU-era microbenchmark figures for effective
# throughput and latency of each stack.  See repro/experiments/calibration.py
# for the consolidated provenance table.
# ---------------------------------------------------------------------------

#: 1 Gigabit Ethernet — on-board NIC, plain kernel TCP.
GIGE = TransportSpec(
    name="1GigE",
    line_rate=125 * MB,
    effective_stream_bw=112 * MB,
    latency=50 * US,
    cpu_send_per_byte=3.0e-9,
    cpu_recv_per_byte=5.0e-9,
    framing_overhead=0.055,  # Ethernet+IP+TCP headers on ~1500B MTU
    packet_overhead=4 * US,
    setup_latency=250 * US,
    wire_packet_bytes=1448.0,
    os_bypass=False,
)

#: 10 Gigabit Ethernet with TCP Offload Engine (Chelsio T320).
TENGIGE_TOE = TransportSpec(
    name="10GigE",
    line_rate=1250 * MB,
    effective_stream_bw=1150 * MB,
    latency=13 * US,
    cpu_send_per_byte=1.8e-9,  # TOE offloads segmentation; JVM copies+CRC remain
    cpu_recv_per_byte=3.0e-9,
    framing_overhead=0.022,  # 9000B jumbo frames
    packet_overhead=1.5 * US,
    setup_latency=200 * US,
    wire_packet_bytes=8948.0,
    os_bypass=False,
)

#: IP-over-InfiniBand on the QDR HCA (socket API, kernel IP stack).
#: The HCA signals at 32 Gbps but IPoIB connected mode sustains roughly
#: 10 Gb/s per stream at this era due to the IP stack and copies.
IPOIB = TransportSpec(
    name="IPoIB",
    line_rate=3500 * MB,
    effective_stream_bw=1250 * MB,
    latency=20 * US,
    cpu_send_per_byte=2.0e-9,
    cpu_recv_per_byte=3.5e-9,
    framing_overhead=0.012,  # 64KB IPoIB-CM MTU amortises headers
    packet_overhead=2.5 * US,
    setup_latency=220 * US,
    wire_packet_bytes=65520.0,
    os_bypass=False,
)

#: Native InfiniBand verbs (RDMA) through UCR on the QDR HCA.
IB_VERBS = TransportSpec(
    name="IB-verbs",
    line_rate=3500 * MB,
    effective_stream_bw=3200 * MB,
    latency=2.2 * US,
    cpu_send_per_byte=0.0,  # HCA moves the bytes; CPU posts descriptors only
    cpu_recv_per_byte=0.0,
    framing_overhead=0.003,
    packet_overhead=0.7 * US,  # post WQE + poll CQE
    setup_latency=120 * US,  # QP bring-up + endpoint exchange
    wire_packet_bytes=2048.0 * 16,
    os_bypass=True,
)

_PRESETS = {t.name: t for t in (GIGE, TENGIGE_TOE, IPOIB, IB_VERBS)}
_ALIASES = {
    "gige": GIGE,
    "1gige": GIGE,
    "10gige": TENGIGE_TOE,
    "tengige": TENGIGE_TOE,
    "ipoib": IPOIB,
    "ib": IB_VERBS,
    "verbs": IB_VERBS,
    "ib-verbs": IB_VERBS,
    "rdma": IB_VERBS,
}


def transport_by_name(name: str) -> TransportSpec:
    """Look up a preset by canonical name or alias (case-insensitive)."""
    spec = _PRESETS.get(name) or _ALIASES.get(name.lower())
    if spec is None:
        raise KeyError(
            f"unknown transport {name!r}; known: {sorted(_PRESETS)} "
            f"(aliases {sorted(_ALIASES)})"
        )
    return spec


class Transport:
    """Executes transfers per a :class:`TransportSpec` on a fabric.

    ``send`` is a generator to be driven with ``yield from`` inside a
    process: it starts the fluid flow, charges per-byte CPU on both hosts
    concurrently, and completes when the slowest of {wire, sender CPU,
    receiver CPU} finishes, plus per-message latency and per-packet
    processing overheads.
    """

    def __init__(self, sim: Simulator, flows: "Any", spec: TransportSpec):
        # ``flows`` is a repro.network.flows.FlowNetwork (typed loosely to
        # keep this module import-light).
        self.sim = sim
        self.flows = flows
        self.spec = spec

    def packets_for(self, nbytes: float) -> int:
        """Number of wire packets a payload occupies."""
        if nbytes <= 0:
            return 0
        return max(1, int(-(-nbytes // self.spec.wire_packet_bytes)))

    def send(
        self,
        src: "Any",
        dst: "Any",
        nbytes: float,
        messages: int = 1,
    ) -> Generator[Event, Any, float]:
        """Transfer ``nbytes`` from host ``src`` to host ``dst``.

        ``src``/``dst`` must expose ``.nic`` (a NetworkInterface) and
        ``.cpu`` (a Resource).  ``messages`` is the number of distinct
        protocol messages the payload is split into (each pays latency
        once in a pipelined fashion: one full latency plus per-message
        processing overhead).

        Returns the elapsed time (also the generator's value).
        """
        spec = self.spec
        start = self.sim.now
        wire = spec.wire_bytes(nbytes)
        flow_done = self.flows.transfer(
            (src.nic.tx, dst.nic.rx), wire, rate_cap=spec.effective_stream_bw
        )
        waits = [flow_done]
        npackets = self.packets_for(nbytes)
        if not spec.os_bypass and nbytes > 0:
            # Protocol processing overlaps the wire transfer but occupies
            # host cores: per-byte copy/checksum cost plus per-wire-packet
            # interrupt/segment handling, split across the two ends.
            pkt_cpu = npackets * spec.packet_overhead / 2.0
            cpu_s = spec.cpu_send_per_byte * nbytes + pkt_cpu
            cpu_r = spec.cpu_recv_per_byte * nbytes + pkt_cpu
            if cpu_s > 0:
                waits.append(self.sim.process(_burn_cpu(self.sim, src.cpu, cpu_s)))
            if cpu_r > 0:
                waits.append(self.sim.process(_burn_cpu(self.sim, dst.cpu, cpu_r)))
        if len(waits) == 1:
            yield flow_done
        else:
            yield self.sim.all_of(waits)
        # Serial tail: one propagation latency, plus per-message descriptor
        # handling (verbs doorbell/CQE per message; HTTP per response).
        tail = spec.latency + messages * spec.packet_overhead
        if spec.os_bypass:
            tail += npackets * spec.packet_overhead  # WQE/CQE per HCA packet
        if tail > 0:
            yield self.sim.timeout(tail)
        return self.sim.now - start

    def connect(self, src: "Any", dst: "Any") -> Generator[Event, Any, None]:
        """Connection establishment (TCP handshake / QP + endpoint setup)."""
        yield self.sim.timeout(self.spec.setup_latency + 2 * self.spec.latency)


def _burn_cpu(sim: Simulator, cpu: "Any", seconds: float) -> Generator[Event, Any, None]:
    """Occupy one core of ``cpu`` for ``seconds`` (protocol processing)."""
    with cpu.request() as req:
        yield req
        yield sim.timeout(seconds)
