"""Frozen global water-filling flow network: the reference for ``repro.network.flows``.

This is the flow network's original re-rating mode.  Every flow start,
finish or capacity change first drains every active flow at its old rate,
then re-rates all of them with one water-fill and arms a wake-up at the
earliest completion; a wake-up armed before a later re-rate is ignored
(its generation is stale).  A rate cap is a private single-flow link.
Tests swap it in for ``repro.network.fabric.FlowNetwork`` (``monkeypatch``)
or drive it directly, and require the production network's rate vectors
to equal its own.  Do not optimise or fix it: its value is that it does
not change.
"""

from __future__ import annotations

from repro.network.flows import Link
from repro.sim.core import Event, Simulator

__all__ = ["ReferenceFlowNetwork"]

_EPSILON_BYTES = 1e-6
_EPSILON_RATE = 1e-9
_MIN_TICK = 1e-6


class _Flow:
    """An in-flight fluid transfer; ``own`` is its private cap link."""

    __slots__ = ("id", "links", "shared", "own", "remaining", "size", "rate", "event", "started_at")

    def __init__(self, fid, shared, nbytes, event, now, own=None):
        self.id = fid
        self.links = shared if own is None else shared + (own,)
        self.shared = shared
        self.own = own
        self.remaining = float(nbytes)
        self.size = float(nbytes)
        self.rate = 0.0
        self.event = event
        self.started_at = now


class ReferenceFlowNetwork:
    """Global re-rating on every change; same public surface as ``FlowNetwork``."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._flows: dict[_Flow, None] = {}
        self._next_fid = 0
        self._last_update = sim.now
        self._generation = 0
        self.total_bytes = 0.0
        self.flow_count = 0
        self._stats = {
            "rerates": 0,
            "rerate_touched_flows": 0,
            "fastpath_rerates": 0,
            "fastpath_admits": 0,
            "fastpath_removals": 0,
            "advanced_flows": 0,
            "wakes": 0,
            "spurious_wakes": 0,
            "dead_wakeups": 0,
            "completions": 0,
            "eta_compactions": 0,
            "changes": 0,
            "flushes": 0,
        }

    def transfer(self, links, nbytes, rate_cap=None) -> Event:
        if nbytes < 0:
            raise ValueError(f"negative transfer size {nbytes}")
        event = Event(self.sim)
        if nbytes == 0:
            event.succeed(0.0)
            return event
        fid = self._next_fid
        self._next_fid += 1
        own = None
        if rate_cap is not None:
            if rate_cap <= 0:
                raise ValueError(f"rate_cap must be positive, got {rate_cap}")
            own = Link(f"rate-cap {fid}", rate_cap)
        flow = _Flow(fid, tuple(links), nbytes, event, self.sim.now, own)
        self._advance_progress()
        self._admit(flow)
        self._rerate()
        return event

    def set_capacity(self, link: Link, capacity: float) -> None:
        if capacity <= 0:
            raise ValueError(f"link {link.name!r}: capacity must be positive")
        if capacity == link.capacity:
            return
        self._advance_progress()
        link.capacity = float(capacity)
        self._rerate()

    @property
    def active_flows(self) -> int:
        return len(self._flows)

    def metrics_snapshot(self) -> dict[str, float]:
        out = {name: float(value) for name, value in self._stats.items()}
        rerates = self._stats["rerates"]
        out["touched_per_rerate"] = (
            self._stats["rerate_touched_flows"] / rerates if rerates else 0.0
        )
        out["flows_started"] = float(self.flow_count)
        out["active_flows"] = float(len(self._flows))
        out["bytes_total"] = float(self.total_bytes)
        return out

    def _admit(self, flow: _Flow) -> None:
        self._flows[flow] = None
        for link in flow.links:
            link.flows[flow] = None
        self.total_bytes += flow.size
        self.flow_count += 1
        self._stats["changes"] += 1

    def _finish(self, flow: _Flow) -> None:
        self._flows.pop(flow, None)
        for link in flow.links:
            link.flows.pop(flow, None)
        self._stats["completions"] += 1
        self._stats["changes"] += 1
        flow.event.succeed(self.sim.now - flow.started_at)

    def _water_fill(self, flows: list[_Flow]) -> list[float]:
        """Max-min fair rates for ``flows``, in ``flows`` order.

        Links are numbered in first-seen order (each flow's links in turn,
        its cap link last); each level picks the smallest ``residual /
        unfixed`` share, ties to the lowest number.  Only shared links are
        scanned; the cap links wait in a list sorted by ``(cap, flow
        index)`` whose head meets the scan's winner under that tie-break.
        """
        eps = _EPSILON_RATE
        link_index: dict[Link, int] = {}
        residual: list[float] = []
        members: list[list[int]] = []
        first: list[int] = []
        caps: list[tuple[float, int]] = []
        for fi, flow in enumerate(flows):
            for link in flow.shared:
                li = link_index.get(link)
                if li is None:
                    link_index[link] = len(residual)
                    residual.append(link.capacity)
                    members.append([fi])
                    first.append(fi)
                else:
                    members[li].append(fi)
            if flow.own is not None:
                caps.append((flow.own.capacity, fi))
        caps.sort()
        unfixed_count = [len(m) for m in members]

        n_links = len(residual)
        n_caps = len(caps)
        head = 0
        remaining = len(flows)
        fixed = bytearray(remaining)
        rates = [0.0] * remaining
        inf = float("inf")
        while remaining:
            bottleneck = -1
            best_share = inf
            for li in range(n_links):
                n = unfixed_count[li]
                if n <= 0:
                    continue
                share = residual[li] / n
                if share < best_share:
                    best_share = share
                    bottleneck = li
            while head < n_caps and fixed[caps[head][1]]:
                head += 1
            if head < n_caps and (
                caps[head][0] < best_share
                or (
                    bottleneck >= 0
                    and caps[head][0] == best_share
                    and caps[head][1] < first[bottleneck]
                )
            ):
                best_share, fi = caps[head]
                fixing: list[int] | tuple[int] = (fi,)
            elif bottleneck < 0:
                break
            else:
                fixing = members[bottleneck]
            if best_share < eps:
                best_share = eps
            for fi in fixing:
                if fixed[fi]:
                    continue
                fixed[fi] = 1
                rates[fi] = best_share
                remaining -= 1
                for link in flows[fi].shared:
                    li = link_index[link]
                    r = residual[li] - best_share
                    residual[li] = r if r > 0.0 else 0.0
                    unfixed_count[li] -= 1
        return rates

    def _advance_progress(self) -> None:
        """Drain bytes at current rates for the time since the last change."""
        dt = self.sim.now - self._last_update
        self._last_update = self.sim.now
        if dt <= 0 or not self._flows:
            return
        for flow in self._flows:
            drained = flow.rate * dt
            flow.remaining -= drained
            for link in flow.shared:
                link.bytes_carried += drained

    def _rerate(self) -> None:
        """Recompute max-min fair rates and schedule the next completion."""
        self._generation += 1
        if not self._flows:
            return
        self._stats["rerates"] += 1
        self._stats["rerate_touched_flows"] += len(self._flows)
        flows = list(self._flows)
        for flow, rate in zip(flows, self._water_fill(flows)):
            flow.rate = rate

        soonest = float("inf")
        for flow in self._flows:
            if flow.rate > _EPSILON_RATE:
                eta = flow.remaining / flow.rate
                soonest = min(soonest, eta)
        if soonest != float("inf"):
            generation = self._generation
            wake = self.sim.timeout(max(_MIN_TICK, soonest))
            wake.add_callback(lambda _e, g=generation: self._on_wake(g))

    def _on_wake(self, generation: int) -> None:
        if generation != self._generation:
            self._stats["dead_wakeups"] += 1
            return
        self._stats["wakes"] += 1
        self._advance_progress()
        finished = [
            f
            for f in self._flows
            if f.remaining <= max(_EPSILON_BYTES, f.rate * _MIN_TICK)
        ]
        if not finished:
            self._stats["spurious_wakes"] += 1
            self._rerate()
            return
        for flow in finished:
            self._finish(flow)
        self._rerate()
