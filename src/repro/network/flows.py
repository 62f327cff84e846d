"""Progressive max-min fair bandwidth sharing.

Each active transfer is a :class:`Flow` crossing a set of capacity-bounded
:class:`Link` s.  Whenever a flow starts or finishes, affected flows'
progress is advanced at their previous rates and the rate vector is
recomputed with the classic water-filling algorithm:

1. every link divides its residual capacity evenly among its unfixed flows;
2. the most contended link (smallest fair share) pins its flows at that
   share;
3. pinned bandwidth is subtracted and the process repeats.

A per-flow rate cap (the transport's effective single-stream bandwidth) is
a number on the flow.  It acts as a single-flow link would, with share
``cap / 1``, so the water-fill keeps the caps in a sorted list next to its
per-level link scan.

Re-rating
---------
Max-min fairness decomposes over connected components of the
flow/link-sharing graph: fixing a flow during water-filling only ever
drains residual capacity on links that flow crosses, so the sequence of
(bottleneck, fair-share) decisions inside one component is independent of
every other component.  The network exploits that:

* **component-scoped re-rating** — a flow arrival or departure re-rates
  only the connected component of flows that share a link (transitively)
  with the changed flow; untouched components keep their rates.
* **lazy per-flow progress** — each flow carries its own ``advanced_at``
  timestamp and is drained only when its component is touched, so a
  change never scans unrelated flows.
* **single-flow fast path** — an uncontended flow (every one of its links
  carries only it) is rated at its bottleneck capacity and given the
  closed-form completion ``remaining / rate``, with no water-filling at
  all.
* **cap-pinned fast path** — when every flow on the touched links carries
  a rate cap and each link's sum of caps stays below its capacity (with
  margin), no link can ever become the bottleneck:
  water-filling provably pins every flow at exactly its cap (the
  ``cap/1`` division is bit-exact).  An arrival or departure in that
  regime changes no other flow's rate, so it skips the component scan
  and the re-rate altogether.  This is the dominant regime in the
  paper's figures, where single-stream transport caps sit below NIC
  line rate.
* **wakeup hygiene** — completions are tracked in a lazily-invalidated
  per-flow ETA heap; the simulator calendar holds at most one live wake
  timer, which is :meth:`~repro.sim.core.Event.cancel` led when a
  re-rating moves the next completion earlier.  Superseded wake-ups no
  longer transit the event heap as dead events.

The tests hold a frozen global water-filling network (every change drains
and re-rates every flow) as the reference and require identical rate
vectors.  Re-rate work, touched flows, and dead wake-ups are counted and
exposed via :meth:`FlowNetwork.metrics_snapshot` for registration under
``net.*`` in a job's ``MetricsRegistry``.

The module is deliberately independent of nodes/NICs — :mod:`repro.network.
fabric` maps topology onto link sets.
"""

from __future__ import annotations

import heapq
import itertools
import math
from operator import attrgetter

from repro.sim.core import Event, Simulator, Timeout

__all__ = ["FlowNetwork", "Flow", "Link"]

#: Bytes below which a flow is considered drained (guards float error).
_EPSILON_BYTES = 1e-6
#: Rate below which a share is considered zero.
_EPSILON_RATE = 1e-9
#: Smallest wake-up delay; also, flows within this much time of completion
#: are finished eagerly.  Guards against the float trap where a flow's ETA
#: is below the clock's representable tick (now + eta == now), which would
#: spin the wake loop at zero time forever.  One microsecond is far below
#: the fidelity of the model.
_MIN_TICK = 1e-6
#: Rebuild the lazily-invalidated ETA heap once it exceeds this many
#: entries beyond four per active flow.
_ETA_COMPACT_SLACK = 64
#: Head-room margin for the cap-pinned fast path: a link only counts as
#: saturation-free when its flows' caps sum to below ``capacity * (1 -
#: margin)``.  The slack (~1 byte/s at GB/s capacities) dwarfs the float
#: rounding of the water-filling residual arithmetic, so the "this link
#: can never bottleneck" proof is robust to last-ulp noise.
_CAP_FIT_MARGIN = 1e-9


class Link:
    """A directed, capacity-bounded network resource (bytes/second)."""

    __slots__ = ("name", "capacity", "flows", "bytes_carried", "transparent")

    def __init__(self, name: str, capacity: float):
        if not capacity > 0:
            raise ValueError(f"link {name!r}: capacity must be positive, got {capacity}")
        self.name = name
        self.capacity = float(capacity)
        # Insertion-ordered (dict-as-set): deterministic float accumulation.
        self.flows: dict["Flow", None] = {}
        #: Bytes drained across this link.
        self.bytes_carried = 0.0
        #: Cached :meth:`FlowNetwork._transparent` verdict; ``None`` once
        #: the population or this capacity changes.
        self.transparent: bool | None = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Link {self.name} {self.capacity/1e6:.0f} MB/s {len(self.flows)} flows>"


class Flow:
    """An in-flight fluid transfer."""

    __slots__ = (
        "id",
        "links",
        "remaining",
        "_rate",
        "event",
        "started_at",
        "size",
        "advanced_at",
        "eta_gen",
        "net",
        "cap",
    )

    def __init__(
        self,
        fid: int,
        links: tuple[Link, ...],
        nbytes: float,
        event: Event,
        now: float,
        cap: float | None = None,
    ):
        self.id = fid
        self.links = links
        #: The flow's own throughput bound (bytes/second), or ``None``.
        self.cap = cap
        self.remaining = float(nbytes)
        self.size = float(nbytes)
        self._rate = 0.0
        self.event = event
        self.started_at = now
        #: Simulation time up to which ``remaining`` reflects drained bytes
        #: (lazy progress: advanced only when this flow's component changes).
        self.advanced_at = now
        #: Bumped whenever a new ETA is computed; stale heap entries carry
        #: an older generation and are discarded when they surface.
        self.eta_gen = 0
        #: Owning network, set at admission (lazy rate materialisation).
        self.net: "FlowNetwork | None" = None

    @property
    def rate(self) -> float:
        """Current max-min fair rate.

        Re-rating is batched per simulation timestamp (see
        :meth:`FlowNetwork._flush`); reading a rate while a batch is
        pending forces the flush first, so callers always observe the
        same post-re-rate values an unbatched re-rate would produce.
        """
        net = self.net
        if net is not None and net._dirty_links:
            net._flush()
        return self._rate

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Flow {self.id} rem={self.remaining:.0f}B rate={self._rate/1e6:.1f}MB/s>"


class FlowNetwork:
    """The set of active flows plus the re-rating machinery."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._flows: dict[Flow, None] = {}  # insertion-ordered set
        self._fids = itertools.count()
        self.total_bytes = 0.0
        self.flow_count = 0
        # Lazily-invalidated (eta, flow_id, gen, flow) min-heap plus the
        # single live wake timer.
        self._eta_heap: list[tuple[float, int, int, Flow]] = []
        self._wake: Timeout | None = None
        self._wake_at = float("inf")
        # Links whose flow population changed since the last re-rate; the
        # union of their components is re-rated once per timestamp by an
        # end-of-timestamp hook (batched re-rating, no calendar entry).
        self._dirty_links: list[Link] = []
        self._flush_hooked = False
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

    # -- public API ---------------------------------------------------------

    def transfer(self, links: tuple[Link, ...], nbytes: float, rate_cap: float | None = None) -> Event:
        """Start a flow of ``nbytes`` across ``links``.

        ``rate_cap`` bounds the flow's own throughput (single-stream
        transport limit).  The returned event fires when the last byte has
        drained; the value is the flow's elapsed transfer time.  A flow
        needs a link or a cap to bound its rate.
        """
        if not 0 <= nbytes < math.inf:
            raise ValueError(f"transfer size must be finite and >= 0, got {nbytes}")
        if rate_cap is not None:
            if not rate_cap > 0:
                raise ValueError(f"rate_cap must be positive, got {rate_cap}")
            rate_cap = float(rate_cap)
        links = tuple(links)
        if not links and rate_cap is None:
            raise ValueError("a transfer needs at least one link or a rate_cap")
        event = Event(self.sim)
        if nbytes == 0:
            event.succeed(0.0)
            return event
        flow = Flow(next(self._fids), links, nbytes, event, self.sim.now, rate_cap)
        flow.net = self
        self._admit(flow)
        if not links or self._cap_pinned(flow):
            # Cap-pinned fast path: no link can bottleneck, so the newcomer
            # is pinned at exactly its cap and nobody else moves.  A
            # linkless flow has only its cap, a share that the water-fill
            # would clamp at the rate floor like any other.
            flow._rate = max(rate_cap, _EPSILON_RATE)  # type: ignore[type-var]
            self._stats["fastpath_admits"] += 1
            self._stats["rerate_touched_flows"] += 1
            self._push_eta(flow)
            self._schedule_wake()
            return event
        # Otherwise admission marks the touched links dirty; the actual
        # (component-scoped) re-rate is batched into one flush per
        # timestamp, since intermediate rate vectors exist for zero
        # simulated time and can never drain a byte.  Only opaque links
        # are seeded: a link transparent *with* the newcomer admitted was
        # transparent before it too, so it carries no influence in either
        # equilibrium and its other flows provably keep their rates.
        dirty = [link for link in flow.links if not self._transparent(link)]
        self._mark_dirty(dirty if dirty else flow.links)
        return event

    def set_capacity(self, link: Link, capacity: float) -> None:
        """Change a link's capacity mid-run and re-rate everyone affected.

        The degradation-fault actuator (:class:`repro.faults.LinkDegrade`):
        bandwidth is cut or restored without the link flapping, so
        in-flight flows neither fail nor restart — they just re-rate.  The
        link seeds its own dirty component; seed links are traversed
        unconditionally by ``_flush``, so even a link that was transparent
        at the old capacity re-rates its flows.
        """
        if not capacity > 0:
            raise ValueError(f"link {link.name!r}: capacity must be positive, got {capacity}")
        if capacity == link.capacity:
            return
        link.transparent = None
        # Rates drained at flush time use each flow's stored _rate, so
        # mutating the capacity now (before the deferred flush advances
        # progress) still bills the pre-change interval at the old rates.
        link.capacity = float(capacity)
        self._mark_dirty([link])

    @property
    def active_flows(self) -> int:
        return len(self._flows)

    def metrics_snapshot(self) -> dict[str, float]:
        """Re-rating / wake-hygiene counters for the ``net.*`` namespace."""
        out = {name: float(value) for name, value in self._stats.items()}
        rerates = self._stats["rerates"]
        out["touched_per_rerate"] = (
            self._stats["rerate_touched_flows"] / rerates if rerates else 0.0
        )
        out["flows_started"] = float(self.flow_count)
        out["active_flows"] = float(len(self._flows))
        out["bytes_total"] = float(self.total_bytes)
        return out

    # -- internals -----------------------------------------------------------

    def _admit(self, flow: Flow) -> None:
        self._flows[flow] = None
        for link in flow.links:
            link.flows[flow] = None
            link.transparent = None
        self.total_bytes += flow.size
        self.flow_count += 1
        self._stats["changes"] += 1

    def _finish(self, flow: Flow) -> None:
        """Remove a drained flow and fire its completion event."""
        self._flows.pop(flow, None)
        flow.eta_gen += 1  # invalidate any live ETA entry
        for link in flow.links:
            link.flows.pop(flow, None)
            link.transparent = None
        self._stats["completions"] += 1
        self._stats["changes"] += 1
        flow.event.succeed(self.sim.now - flow.started_at)

    def _water_fill(self, flows: list[Flow]) -> list[float]:
        """Max-min fair rates for ``flows`` (a union of whole components,
        no link repeated within a route), returned in ``flows`` order.

        Restricted to one component this is the exact arithmetic a global
        pass does for that component's flows.  Constraints are numbered in
        first-seen order (each flow's links in turn, then its cap); each
        level picks the smallest ``residual / unfixed`` share, ties to the
        lowest number, pins the bottleneck's unfixed flows at it (all at
        one share, so their order is immaterial) and drains it from every
        link they cross.  Links are scanned over flat index arrays.  A
        cap's share is the bit-exact ``cap / 1`` until its flow is pinned,
        so the caps wait in a list sorted by ``(cap, flow index)`` whose
        head meets the scan's winner under the same tie-break (flow
        ``i``'s cap is numbered after its links, before any first seen by
        a later flow).
        """
        eps = _EPSILON_RATE
        link_index: dict[Link, int] = {}
        residual: list[float] = []
        members: list[list[int]] = []  # flow indices crossing each link
        first: list[int] = []  # the flow each link was first seen on
        caps: list[tuple[float, int]] = []  # (cap, flow index)
        for fi, flow in enumerate(flows):
            for link in flow.links:
                li = link_index.get(link)
                if li is None:
                    link_index[link] = len(residual)
                    residual.append(link.capacity)
                    members.append([fi])
                    first.append(fi)
                else:
                    members[li].append(fi)
            if flow.cap is not None:
                caps.append((flow.cap, fi))
        caps.sort()
        unfixed_count = [len(m) for m in members]

        n_links = len(residual)
        n_caps = len(caps)
        head = 0  # caps[head]: the smallest cap whose flow may be unfixed
        remaining = len(flows)
        fixed = bytearray(remaining)
        rates = [0.0] * remaining
        inf = float("inf")
        while remaining:
            # Smallest fair share across links still carrying unfixed flows.
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
            elif bottleneck < 0:  # pragma: no cover - defensive
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
                for link in flows[fi].links:
                    li = link_index[link]
                    r = residual[li] - best_share
                    residual[li] = r if r > 0.0 else 0.0
                    unfixed_count[li] -= 1
        return rates

    def _transparent(self, link: Link) -> bool:
        """True when ``link`` can never be a water-filling bottleneck.

        Holds when every flow on it is capped and the caps sum to below
        capacity (with :data:`_CAP_FIT_MARGIN` head-room): the link's fair
        share then always exceeds its smallest unfixed cap — the residual
        (capacity minus already-fixed rates, each at most its cap) stays
        above the sum of unfixed caps — so the link is never selected and
        never fixes a flow.  Influence cannot propagate through such a
        link, which both enables the cap-pinned fast path and lets the
        component walk prune it (transparency depends only on the link's
        population, so a non-seed link that is transparent now was
        transparent at the previous equilibrium too).

        The verdict is cached on the link until ``_admit``, ``_finish`` or
        ``set_capacity`` invalidates it; a miss sums the caps afresh in
        admission order.
        """
        verdict = link.transparent
        if verdict is None:
            total = 0.0
            for peer in link.flows:
                peer_cap = peer.cap
                if peer_cap is None:
                    link.transparent = False
                    return False
                total += peer_cap
            verdict = total <= link.capacity * (1.0 - _CAP_FIT_MARGIN)
            link.transparent = verdict
        return verdict

    def _cap_pinned(self, flow: Flow) -> bool:
        """True when ``flow``'s arrival/departure provably leaves every
        other rate unchanged (and pins ``flow`` itself at exactly its cap).

        Requires a cap plus every link transparent: then ``flow`` can only
        be fixed via its cap, at the bit-exact ``cap / 1`` share a global
        water-fill would compute, and no other flow's fixing sequence
        changes.
        """
        cap = flow.cap
        if cap is None or cap < _EPSILON_RATE:
            return False
        for link in flow.links:
            verdict = link.transparent
            if verdict is None:
                verdict = self._transparent(link)
            if not verdict:
                return False
        return True

    def _mark_dirty(self, links: tuple[Link, ...] | list[Link]) -> None:
        """Queue ``links`` for the per-timestamp batched re-rate.

        The flush runs as an end-of-timestamp hook (:meth:`Simulator.
        defer`), after every event at the current simulated time — so a
        burst of admissions (and completions that immediately trigger the
        next pipelined send) costs one component re-rate instead of one
        per change, and the flush itself occupies no calendar entry.
        Rates read before the flush fires are materialised on demand by
        the :attr:`Flow.rate` property.
        """
        self._dirty_links.extend(links)
        if not self._flush_hooked:
            self._flush_hooked = True
            self.sim.defer(self._on_flush_hook)

    def _on_flush_hook(self) -> None:
        self._flush_hooked = False
        self._flush()

    def _flush(self) -> None:
        """Re-rate the union of components touched since the last flush.

        The component is every active flow whose rate may change given a
        population change on the dirty links, taken in admission order
        (a global water-fill's iteration order).  Dirty links are traversed
        unconditionally (their population changed, so their flows' rates
        are in question), but the walk only expands through links that
        could actually carry influence: a transparent link never
        bottlenecks in either the old or the new equilibrium, so flows
        beyond it provably keep their rates and are pruned.  This splits
        the all-to-all shuffle pattern into per-contended-link components
        instead of one giant component spanning the whole fabric.

        One pass over the component then drains each flow at its old rate
        since its own last advance (lazy per-flow progress), installs the
        new rate and pushes the new ETA entry.
        """
        if not self._dirty_links:
            return
        pending, self._dirty_links = self._dirty_links, []
        stats = self._stats
        stats["flushes"] += 1
        transparent = self._transparent
        found: set[Flow] = set()
        seen_links: set[Link] = set()
        while pending:
            link = pending.pop()
            if link in seen_links:
                continue
            seen_links.add(link)
            for flow in link.flows:
                if flow not in found:
                    found.add(flow)
                    for nxt in flow.links:
                        if nxt not in seen_links and not transparent(nxt):
                            pending.append(nxt)
        if found:
            component = sorted(found, key=attrgetter("id"))
            stats["rerates"] += 1
            stats["rerate_touched_flows"] += len(component)
            if len(component) == 1 and all(
                len(link.flows) == 1 for link in component[0].links
            ):
                # Analytic fast path: an uncontended flow owns every link
                # it crosses, so its max-min rate is its tightest bound.
                flow = component[0]
                bounds = [link.capacity for link in flow.links]
                if flow.cap is not None:
                    bounds.append(flow.cap)
                rates = [max(min(bounds), _EPSILON_RATE)]
                stats["fastpath_rerates"] += 1
            else:
                rates = self._water_fill(component)
            now = self.sim.now
            heap = self._eta_heap
            push = heapq.heappush
            compact_above = _ETA_COMPACT_SLACK + 4 * len(self._flows)
            advanced = 0
            for flow, rate in zip(component, rates):
                dt = now - flow.advanced_at
                if dt > 0:
                    flow.advanced_at = now
                    drained = flow._rate * dt
                    if drained:
                        flow.remaining -= drained
                        for link in flow.links:
                            link.bytes_carried += drained
                    advanced += 1
                flow._rate = rate
                gen = flow.eta_gen = flow.eta_gen + 1
                # Every rate is at least _EPSILON_RATE (the water-fill
                # clamps shares there), so a starved flow still completes.
                left = flow.remaining
                eta = now + (0.0 if left < 0.0 else left) / rate
                push(heap, (eta, flow.id, gen, flow))
                if len(heap) > compact_above:
                    self._compact_eta()
                    heap = self._eta_heap
            stats["advanced_flows"] += advanced
        self._schedule_wake()

    def _advance(self, flows: list[Flow]) -> None:
        """Drain bytes for ``flows`` at their current rates since each
        flow's own last advance (lazy per-flow progress)."""
        now = self.sim.now
        stats = self._stats
        for flow in flows:
            dt = now - flow.advanced_at
            if dt <= 0:
                continue
            flow.advanced_at = now
            drained = flow._rate * dt
            if drained:
                flow.remaining -= drained
                for link in flow.links:
                    link.bytes_carried += drained
            stats["advanced_flows"] += 1

    def _push_eta(self, flow: Flow) -> None:
        gen = flow.eta_gen = flow.eta_gen + 1
        eta = self.sim.now + max(flow.remaining, 0.0) / flow._rate
        heap = self._eta_heap
        heapq.heappush(heap, (eta, flow.id, gen, flow))
        if len(heap) > _ETA_COMPACT_SLACK + 4 * len(self._flows):
            self._compact_eta()

    def _compact_eta(self) -> None:
        """Drop stale ETA entries (the heap has outgrown the live flows)."""
        live = [
            entry
            for entry in self._eta_heap
            if entry[3] in self._flows and entry[2] == entry[3].eta_gen
        ]
        heapq.heapify(live)
        self._eta_heap = live
        self._stats["eta_compactions"] += 1

    def _schedule_wake(self) -> None:
        """Maintain the single live wake timer at the next completion time.

        A pending wake that fires *earlier* than needed is kept (it will
        re-arm itself as spurious); one that would fire *late* is
        cancelled and replaced, so the calendar never holds a wake that
        could miss a completion — and never accumulates dead ones.  Stale
        heads are purged first: ``_finish`` bumps a flow's ``eta_gen``,
        so the generation alone tells a live entry.
        """
        heap = self._eta_heap
        while heap:
            head = heap[0]
            if head[2] == head[3].eta_gen:
                break
            heapq.heappop(heap)
        else:
            if self._wake is not None:
                self._wake.cancel()
                self._stats["dead_wakeups"] += 1
                self._wake = None
                self._wake_at = float("inf")
            return
        sim = self.sim
        now = sim.now
        target = max(now + _MIN_TICK, head[0])
        wake = self._wake
        if wake is not None:
            if self._wake_at <= target:
                return
            wake.cancel()
            self._stats["dead_wakeups"] += 1
        wake = self._wake = Timeout(sim, target - now)
        self._wake_at = target
        wake.callbacks.append(self._on_wake)  # type: ignore[union-attr]

    def _on_wake(self, wake: Event) -> None:
        if wake is not self._wake:  # pragma: no cover - cancel() prevents this
            self._stats["dead_wakeups"] += 1
            return
        self._wake = None
        self._wake_at = float("inf")
        self._stats["wakes"] += 1
        now = self.sim.now
        horizon = now + _MIN_TICK

        # Flows whose latest ETA falls within one tick of now.
        heap = self._eta_heap
        due: list[Flow] = []
        while heap:
            eta, _fid, gen, flow = heap[0]
            if gen != flow.eta_gen:
                heapq.heappop(heap)
                continue
            if eta > horizon:
                break
            heapq.heappop(heap)
            due.append(flow)
        if not due:
            self._stats["spurious_wakes"] += 1
            self._schedule_wake()
            return

        if len(due) > 1:
            due.sort(key=attrgetter("id"))
        self._advance(due)
        finished: list[Flow] = []
        for flow in due:
            if flow.remaining <= max(_EPSILON_BYTES, flow._rate * _MIN_TICK):
                finished.append(flow)
            else:
                self._push_eta(flow)  # woke a hair early: re-arm, same rate
        if not finished:
            self._stats["spurious_wakes"] += 1
            self._schedule_wake()
            return

        seed_links: list[Link] = []
        for flow in finished:
            # Cap-pinned departures free no bandwidth anyone was waiting
            # for (the links could never bottleneck with the flow present,
            # let alone without it): survivors keep their rates, no
            # re-rate needed.  Otherwise only the links that were opaque
            # *with* the departing flow still aboard are seeded — a link
            # transparent pre-departure stays transparent after it and
            # carries no influence either way.  Both checks run before
            # removal so the sum-of-caps reflects the pre-departure state.
            if self._cap_pinned(flow):
                self._stats["fastpath_removals"] += 1
            else:
                seed_links.extend(
                    link for link in flow.links if not self._transparent(link)
                )
            self._finish(flow)
        if seed_links:
            # Survivors sharing links with the departed flows are re-rated
            # by the batched flush — which also absorbs any follow-on
            # sends the completion events trigger at this same timestamp
            # (the classic pipelined next-packet pattern), merging what
            # used to be two or more global re-rates into one
            # component-scoped pass.  The flush re-arms the wake timer.
            self._mark_dirty(seed_links)
        else:
            self._schedule_wake()
