"""Shared-resource primitives for the DES kernel.

These model the contended components of a Hadoop node:

* :class:`Resource` — a counted resource with FIFO queueing (CPU cores,
  map/reduce slots, HTTP servlet threads, RDMA responder threads).
* :class:`PriorityResource` — same, but requests carry a priority (disk
  queues that favour foreground reads over background spills, etc.).
* :class:`Container` — a continuous quantity with blocking put/get (heap
  bytes for shuffle buffers, PrefetchCache capacity).
* :class:`Store` / :class:`PriorityStore` / :class:`FilterStore` — object
  queues (DataRequestQueue, DataToMergeQueue, DataToReduceQueue,
  mailboxes keyed by a predicate).

All acquisition methods return events; processes ``yield`` them.  Resource
requests are context managers so the canonical pattern is::

    with node.cpu.request() as req:
        yield req
        yield sim.timeout(work)
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from collections.abc import Callable
from typing import Any

from repro.sim.core import URGENT, Event, SimulationError, Simulator

__all__ = [
    "Container",
    "FilterStore",
    "PriorityResource",
    "PriorityStore",
    "Resource",
    "Store",
]


class Request(Event):
    """A pending claim on a :class:`Resource` (context manager)."""

    __slots__ = ("resource", "priority", "_key")

    def __init__(self, resource: "Resource", priority: float = 0.0):
        super().__init__(resource.sim)
        self.resource = resource
        self.priority = priority
        self._key = (priority, next(resource._tiebreak))

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.cancel()

    def cancel(self) -> None:
        """Release the slot if held; withdraw from the queue otherwise."""
        self.resource._cancel(self)


class Resource:
    """A counted resource with ``capacity`` interchangeable slots."""

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.users: list[Request] = []
        self._queue: deque[Request] | list[Request] = deque()
        self._tiebreak = itertools.count()

    # -- public API ---------------------------------------------------------

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self.users)

    @property
    def queue_len(self) -> int:
        """Number of requests waiting."""
        return len(self._queue)

    def request(self, priority: float = 0.0) -> Request:
        """Claim one slot; the returned event fires once granted."""
        req = Request(self, priority)
        self._enqueue(req)
        self._grant()
        return req

    def release(self, request: Request) -> None:
        """Return a granted slot."""
        try:
            self.users.remove(request)
        except ValueError:
            raise SimulationError(f"{request!r} does not hold {self.name or self!r}")
        self._grant()

    # -- internals ----------------------------------------------------------

    def _enqueue(self, req: Request) -> None:
        self._queue.append(req)  # type: ignore[union-attr]

    def _pop_next(self) -> Request:
        return self._queue.popleft()  # type: ignore[union-attr]

    def _grant(self) -> None:
        while self._queue and len(self.users) < self.capacity:
            req = self._pop_next()
            self.users.append(req)
            req.succeed(req, priority=URGENT)

    def _cancel(self, req: Request) -> None:
        if req in self.users:
            self.release(req)
        elif not req.triggered:
            try:
                self._queue.remove(req)
            except ValueError:
                pass


class PriorityResource(Resource):
    """A :class:`Resource` whose queue is ordered by request priority.

    Lower ``priority`` values are served first; FIFO among equals.
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = ""):
        super().__init__(sim, capacity, name)
        self._queue = []  # heap of requests keyed by Request._key

    def _enqueue(self, req: Request) -> None:
        heapq.heappush(self._queue, (req._key, req))  # type: ignore[arg-type]

    def _pop_next(self) -> Request:
        return heapq.heappop(self._queue)[1]  # type: ignore[arg-type]

    def _cancel(self, req: Request) -> None:
        if req in self.users:
            self.release(req)
        elif not req.triggered:
            entry = (req._key, req)
            try:
                self._queue.remove(entry)  # type: ignore[arg-type]
                heapq.heapify(self._queue)  # type: ignore[arg-type]
            except ValueError:
                pass


class Container:
    """A continuous quantity between 0 and ``capacity``.

    ``put`` blocks while full; ``get`` blocks while insufficient.  Used for
    byte-counted buffers (shuffle heap, cache capacity, flow-control
    credits).
    """

    def __init__(
        self,
        sim: Simulator,
        capacity: float = float("inf"),
        init: float = 0.0,
        name: str = "",
    ):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if not 0 <= init <= capacity:
            raise ValueError(f"init {init} outside [0, {capacity}]")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._level = float(init)
        self._puts: deque[tuple[Event, float]] = deque()
        self._gets: deque[tuple[Event, float]] = deque()

    @property
    def level(self) -> float:
        return self._level

    def put(self, amount: float) -> Event:
        """Add ``amount``; fires once it fits."""
        if amount < 0:
            raise ValueError(f"negative amount {amount}")
        evt = Event(self.sim)
        self._puts.append((evt, amount))
        self._settle()
        return evt

    def get(self, amount: float) -> Event:
        """Remove ``amount``; fires once available."""
        if amount < 0:
            raise ValueError(f"negative amount {amount}")
        evt = Event(self.sim)
        self._gets.append((evt, amount))
        self._settle()
        return evt

    def try_get(self, amount: float) -> bool:
        """Non-blocking get; True on success."""
        if self._gets or amount > self._level:
            return False
        self._level -= amount
        self._settle()
        return True

    def _settle(self) -> None:
        progress = True
        while progress:
            progress = False
            if self._puts:
                evt, amount = self._puts[0]
                if self._level + amount <= self.capacity:
                    self._puts.popleft()
                    self._level += amount
                    evt.succeed(amount, priority=URGENT)
                    progress = True
            if self._gets:
                evt, amount = self._gets[0]
                if amount <= self._level:
                    self._gets.popleft()
                    self._level -= amount
                    evt.succeed(amount, priority=URGENT)
                    progress = True


class Store:
    """A FIFO queue of arbitrary items with blocking put/get."""

    def __init__(
        self, sim: Simulator, capacity: float = float("inf"), name: str = ""
    ):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.items: Any = deque()
        self._puts: deque[tuple[Event, Any]] = deque()
        self._gets: deque[Event] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> Event:
        """Insert ``item``; fires once there is room."""
        evt = Event(self.sim)
        self._puts.append((evt, item))
        self._settle()
        return evt

    def get(self) -> Event:
        """Remove the next item; fires with the item as value."""
        evt = Event(self.sim)
        self._gets.append(evt)
        self._settle()
        return evt

    # -- ordering hooks -------------------------------------------------

    def _insert(self, item: Any) -> None:
        self.items.append(item)

    def _take(self) -> Any:
        """Remove and return the next item (``items`` is non-empty)."""
        return self.items.popleft()

    def _settle(self) -> None:
        # Getters never skip here, so each is served in FIFO order while
        # items last; FilterStore overrides this with a scanning loop.
        puts, gets = self._puts, self._gets
        progress = True
        while progress:
            progress = False
            while puts and len(self.items) < self.capacity:
                evt, item = puts.popleft()
                self._insert(item)
                evt.succeed(item, priority=URGENT)
                progress = True
            while gets and self.items:
                gets.popleft().succeed(self._take(), priority=URGENT)
                progress = True


class PriorityStore(Store):
    """A :class:`Store` that yields the smallest item first.

    Items must be orderable; use ``(priority, payload)`` tuples or
    dataclasses with ``order=True``.
    """

    def __init__(
        self, sim: Simulator, capacity: float = float("inf"), name: str = ""
    ):
        super().__init__(sim, capacity, name)
        self.items: list[Any] = []
        self._seq = itertools.count()

    def _insert(self, item: Any) -> None:
        heapq.heappush(self.items, (item, next(self._seq)))

    def _take(self) -> Any:
        return heapq.heappop(self.items)[0]

    def __len__(self) -> int:
        return len(self.items)


class _FilterGet(Event):
    """A get event carrying its selection predicate."""

    __slots__ = ("_filter",)

    def __init__(self, sim: Simulator, predicate: Callable[[Any], bool] | None):
        super().__init__(sim)
        self._filter = predicate


class FilterStore(Store):
    """A :class:`Store` whose getters select items with a predicate."""

    def __init__(
        self, sim: Simulator, capacity: float = float("inf"), name: str = ""
    ):
        super().__init__(sim, capacity, name)
        self.items: list[Any] = []

    def get(self, predicate: Callable[[Any], bool] | None = None) -> Event:
        evt = _FilterGet(self.sim, predicate)
        self._gets.append(evt)
        self._settle()
        return evt

    def _insert(self, item: Any) -> None:
        self.items.append(item)

    def _settle(self) -> None:
        progress = True
        while progress:
            progress = False
            while self._puts and len(self.items) < self.capacity:
                evt, item = self._puts.popleft()
                self._insert(item)
                evt.succeed(item, priority=URGENT)
                progress = True
            # Scan getters; a getter whose predicate matches nothing waits.
            pending: deque[_FilterGet] = deque()
            while self._gets:
                getter: _FilterGet = self._gets.popleft()  # type: ignore[assignment]
                predicate = getter._filter
                for i, item in enumerate(self.items):
                    if predicate is None or predicate(item):
                        del self.items[i]
                        getter.succeed(item, priority=URGENT)
                        progress = True
                        break
                else:
                    pending.append(getter)
            self._gets = pending  # type: ignore[assignment]
