"""Cluster fabric: NICs attached to a non-blocking switch.

The paper's testbed interconnects all nodes through one Mellanox QDR switch
(and equivalently a GigE/10GigE switch for the Ethernet runs), so the
topology reduces to: every host owns a full-duplex NIC modelled as two
directed links (tx, rx); a flow from A to B crosses ``A.tx`` and ``B.rx``.
The switch backplane is assumed non-blocking (true for the 36-port QDR
switches of the era at this node count).
"""

from __future__ import annotations

from typing import Any

from repro.network.flows import FlowNetwork, Link
from repro.network.transports import Transport, TransportSpec
from repro.sim.core import Simulator

__all__ = ["Fabric", "NetworkInterface"]


class NetworkInterface:
    """A host NIC: a tx link and an rx link of the port's line rate."""

    __slots__ = ("host_name", "tx", "rx")

    def __init__(self, host_name: str, line_rate: float):
        self.host_name = host_name
        self.tx = Link(f"{host_name}.tx", line_rate)
        self.rx = Link(f"{host_name}.rx", line_rate)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<NIC {self.host_name} {self.tx.capacity/1e6:.0f} MB/s>"


class Fabric:
    """All NICs of a cluster plus the shared flow network.

    One fabric instance exists per simulated cluster; all transports share
    its :class:`FlowNetwork` so cross-traffic contends realistically.
    """

    def __init__(self, sim: Simulator, spec: TransportSpec):
        self.sim = sim
        self.spec = spec
        self.flows = FlowNetwork(sim)
        self.transport = Transport(sim, self.flows, spec)
        self.interfaces: dict[str, NetworkInterface] = {}

    def attach(self, host_name: str) -> NetworkInterface:
        """Create (or return) the NIC for ``host_name`` at the fabric's line rate."""
        nic = self.interfaces.get(host_name)
        if nic is None:
            nic = NetworkInterface(host_name, self.spec.line_rate)
            self.interfaces[host_name] = nic
        return nic

    def send(self, src: Any, dst: Any, nbytes: float, messages: int = 1):
        """Generator: transfer ``nbytes`` between two hosts (``yield from``)."""
        return self.transport.send(src, dst, nbytes, messages)

    def metrics_snapshot(self) -> dict[str, float]:
        """Fabric-level counters: the flow network's re-rating/wake stats
        plus the attached-NIC population (``net.*`` namespace)."""
        out = self.flows.metrics_snapshot()
        out["interfaces"] = float(len(self.interfaces))
        return out
