"""Block-device models with a serial request queue.

Each :class:`DiskDevice` services one request at a time from a priority
queue (the elevator is abstracted to a *stream-switch* seek penalty: when
the device alternates between independent sequential streams — a map task
spilling while a servlet reads another map's output — every switch costs a
seek + half-rotation, which is what collapses HDD throughput under
concurrent Hadoop I/O; SSDs make the switch nearly free).

Callers submit requests already chunked (the local filesystem chunks at a
few MB) so that concurrent streams interleave at realistic granularity
instead of convoying behind whole-file operations.
"""

from __future__ import annotations

import itertools
from collections.abc import Generator
from dataclasses import dataclass
from typing import Any

from repro.sim.core import Event, Simulator
from repro.sim.monitor import UtilizationTracker
from repro.sim.resources import PriorityStore

__all__ = [
    "DiskDevice",
    "DiskSpec",
    "HDD_160GB",
    "HDD_1TB",
    "SSD_SATA",
    "disk_by_name",
]

MB = 1e6
MS = 1e-3


@dataclass(frozen=True)
class DiskSpec:
    """Physical characteristics of a drive."""

    name: str
    #: Sequential read bandwidth, bytes/s.
    read_bw: float
    #: Sequential write bandwidth, bytes/s.
    write_bw: float
    #: Average seek + rotational latency paid on a stream switch, seconds.
    seek_time: float
    #: Fixed per-request overhead (controller/command), seconds.
    per_request_overhead: float


# Presets for the paper's testbed (§IV-A).  Era-typical sequential rates:
# the compute nodes' 160 GB 7.2k SATA drives sustain ~110/95 MB/s; the
# storage nodes' 1 TB drives ~135/125 MB/s; SATA-2/3 SSDs of 2012 read
# ~480 MB/s and write ~330 MB/s with sub-100 µs access latency.
HDD_160GB = DiskSpec("hdd-160gb", 110 * MB, 95 * MB, 8.5 * MS, 0.25 * MS)
HDD_1TB = DiskSpec("hdd-1tb", 135 * MB, 125 * MB, 8.0 * MS, 0.25 * MS)
SSD_SATA = DiskSpec("ssd-sata", 480 * MB, 330 * MB, 0.08 * MS, 0.04 * MS)

_PRESETS = {d.name: d for d in (HDD_160GB, HDD_1TB, SSD_SATA)}
_ALIASES = {"hdd": HDD_160GB, "hdd-storage": HDD_1TB, "ssd": SSD_SATA}


def disk_by_name(name: str) -> DiskSpec:
    spec = _PRESETS.get(name) or _ALIASES.get(name.lower())
    if spec is None:
        raise KeyError(f"unknown disk {name!r}; known: {sorted(_PRESETS)}")
    return spec


@dataclass(eq=False, slots=True)
class _DiskRequest:
    stream_id: str
    nbytes: float
    kind: str  # "read" | "write"
    done: Event


class DiskDevice:
    """A single drive with a serial, priority-ordered request queue."""

    def __init__(self, sim: Simulator, spec: DiskSpec, name: str = ""):
        self.sim = sim
        self.spec = spec
        self.name = name or spec.name
        # Items are ``(priority, submission number, request)``: the heap
        # orders by priority, then submission, comparing only numbers.
        self._queue: PriorityStore = PriorityStore(sim, name=f"{self.name}.q")
        self._submitted = itertools.count()
        self._last_stream: str | None = None
        self.utilization = UtilizationTracker(sim, self.name)
        self.bytes_read = 0.0
        self.bytes_written = 0.0
        self.seeks = 0
        self.requests = 0
        #: Set by ``FaultInjector.bind`` only when a DiskSlowdown window
        #: names this device's node; healthy disks pay one None test.
        self.faults = None
        self.fault_node = ""
        self.fault_index = -1
        sim.process(self._server(), name=f"disk:{self.name}")

    # -- public API ---------------------------------------------------------

    def submit(
        self, kind: str, nbytes: float, stream_id: str, priority: float = 0.0
    ) -> Event:
        """Enqueue one I/O request; the event fires at completion."""
        if kind not in ("read", "write"):
            raise ValueError(f"kind must be 'read' or 'write', got {kind!r}")
        if nbytes < 0:
            raise ValueError(f"negative request size {nbytes}")
        done = Event(self.sim)
        req = _DiskRequest(stream_id, nbytes, kind, done)
        self._queue.put((priority, next(self._submitted), req))
        return done

    def read(self, nbytes: float, stream_id: str, priority: float = 0.0) -> Event:
        return self.submit("read", nbytes, stream_id, priority)

    def write(self, nbytes: float, stream_id: str, priority: float = 0.0) -> Event:
        return self.submit("write", nbytes, stream_id, priority)

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    def metrics_snapshot(self) -> dict[str, float]:
        """Flat view for :class:`repro.obs.registry.MetricsRegistry`."""
        return {
            "utilization": self.utilization.utilization(),
            "busy_seconds": self.utilization.busy_time,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
            "seeks": float(self.seeks),
            "requests": float(self.requests),
        }

    # -- internals ----------------------------------------------------------

    def _service_time(self, req: _DiskRequest) -> float:
        bw = self.spec.read_bw if req.kind == "read" else self.spec.write_bw
        t = self.spec.per_request_overhead + req.nbytes / bw
        if req.stream_id != self._last_stream:
            t += self.spec.seek_time
            self.seeks += 1
            self._last_stream = req.stream_id
        if self.faults is not None:
            # Requests arrive pre-chunked (a few MB), so sampling the
            # DiskSlowdown window once per request is fine-grained enough.
            t *= self.faults.disk_factor(self.fault_node, self.fault_index)
        return t

    def _server(self) -> Generator[Event, Any, None]:
        while True:
            _prio, _n, req = yield self._queue.get()
            self.utilization.acquire()
            yield self.sim.timeout(self._service_time(req))
            self.utilization.release()
            self.requests += 1
            if req.kind == "read":
                self.bytes_read += req.nbytes
            else:
                self.bytes_written += req.nbytes
            req.done.succeed(req.nbytes)
