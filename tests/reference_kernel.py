"""Frozen single-heap event kernel: the reference for ``repro.sim.core``.

This is the kernel as it was before the zero-delay lanes: every event,
whatever its delay, is one ``(time, priority, sequence, event)`` tuple on a
binary heap, and ``now`` is a property.  ``tests/test_sim_kernel_reference.py``
runs the same random process programs through this module and through
``repro.sim.core`` and requires identical dispatch traces and event counts.
Do not optimise or fix it: its value is that it does not change.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Callable, Generator, Iterable
from typing import Any

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "Interrupted",
    "Process",
    "SimulationError",
    "Simulator",
    "Timeout",
]

#: Calendar priority for "urgent" events (resource bookkeeping) — processed
#: before normal events scheduled at the same timestamp.
URGENT = 0
#: Default calendar priority.
NORMAL = 1

_PENDING = object()  # sentinel: event not yet triggered


class SimulationError(Exception):
    """Raised for kernel-level misuse (double trigger, bad yield, ...)."""


class Interrupted(Exception):
    """Thrown into a process generator by :meth:`Process.interrupt`.

    ``cause`` carries the value supplied by the interrupter.
    """

    @property
    def cause(self) -> Any:
        return self.args[0] if self.args else None


class Event:
    """A one-shot occurrence that processes can wait on.

    Lifecycle::

        e = sim.event()     # pending
        e.succeed(value)    # triggered (scheduled on the calendar)
        ...                 # simulator pops it: processed, callbacks run

    Attributes
    ----------
    callbacks:
        List of ``fn(event)`` invoked exactly once when the event is
        processed.  ``None`` after processing.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_defused", "_cancelled")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: list[Callable[["Event"], None]] | None = []
        self._value: Any = _PENDING
        self._ok: bool = True
        self._defused = False
        self._cancelled = False

    # -- inspection --------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has a value and is on the calendar."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (valid only once triggered)."""
        if not self.triggered:
            raise SimulationError(f"{self!r} has not been triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception instance if it failed)."""
        if self._value is _PENDING:
            raise SimulationError(f"{self!r} has not been triggered")
        return self._value

    # -- triggering --------------------------------------------------------

    def succeed(self, value: Any = None, *, priority: int = NORMAL) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.sim._schedule(self, 0.0, priority)
        return self

    def fail(self, exception: BaseException, *, priority: int = NORMAL) -> "Event":
        """Trigger the event with an exception.

        The exception is thrown into every waiting process; if none exists
        it re-raises from :meth:`Simulator.run` unless :meth:`defuse` was
        called.
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        self.sim._schedule(self, 0.0, priority)
        return self

    def trigger(self, event: "Event") -> None:
        """Copy the state of ``event`` onto this event (callback helper)."""
        if self._value is not _PENDING:
            return
        self._ok = event._ok
        self._value = event._value
        self.sim._schedule(self, 0.0, NORMAL)

    def defuse(self) -> "Event":
        """Mark a potential failure of this event as intentionally ignored."""
        self._defused = True
        return self

    @property
    def cancelled(self) -> bool:
        """True once :meth:`cancel` has withdrawn the event."""
        return self._cancelled

    def cancel(self) -> "Event":
        """Withdraw a scheduled event: its callbacks will never run.

        This is the hygiene primitive for maintained wake-ups (see
        :mod:`repro.network.flows`): instead of letting a superseded timer
        transit the calendar as a dead event — paying a pop, an
        ``event_count`` tick, and a callback dispatch — the owner cancels
        it.  The calendar entry is skipped silently when it surfaces, and
        the queue is compacted opportunistically when cancelled entries
        pile up, so dead wake-ups no longer accumulate in
        ``Simulator._queue``.

        Cancelling an already-processed event is an error; cancelling
        twice is a no-op.  Processes must not wait on a cancelled event
        (it will never fire).
        """
        if self.callbacks is None:
            raise SimulationError(f"cannot cancel {self!r}: already processed")
        if not self._cancelled:
            self._cancelled = True
            self.sim._note_cancel()
        return self

    # -- composition -------------------------------------------------------

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Run ``fn(self)`` when processed; immediately if already processed."""
        if self.callbacks is None:
            fn(self)
        else:
            self.callbacks.append(fn)

    def __and__(self, other: "Event") -> "AllOf":
        return AllOf(self.sim, [self, other])

    def __or__(self, other: "Event") -> "AnyOf":
        return AnyOf(self.sim, [self, other])

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = (
            "pending"
            if not self.triggered
            else ("processed" if self.processed else "triggered")
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` time units after construction."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        super().__init__(sim)
        self.delay = delay
        self._ok = True
        self._value = value
        sim._schedule(self, delay, NORMAL)


class Process(Event):
    """Wraps a generator; fires (as an Event) when the generator returns.

    The generator must yield :class:`Event` instances.  The value sent back
    into the generator is the event's value; failed events are thrown in as
    exceptions so processes can ``try/except`` around ``yield``.
    """

    __slots__ = ("_generator", "_waiting_on", "name")

    def __init__(
        self,
        sim: "Simulator",
        generator: Generator[Event, Any, Any],
        name: str | None = None,
    ):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"process() needs a generator, got {generator!r}")
        super().__init__(sim)
        self._generator = generator
        self._waiting_on: Event | None = None
        self.name = name or getattr(generator, "__name__", "process")
        # Bootstrap: resume at the current time via an already-successful
        # initialisation event.
        init = Event(sim)
        init._ok = True
        init._value = None
        init.callbacks.append(self._resume)
        sim._schedule(init, 0.0, URGENT)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not terminated."""
        return self._value is _PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupted` into the process at the current time.

        The event the process is waiting on remains pending; the process
        may re-wait on it after handling the interrupt.  As in SimPy, an
        interrupt still pending when the process terminates is dropped, so
        two kills landing in the same instant cannot crash the kernel.
        """
        if not self.is_alive:
            raise SimulationError(f"{self!r} already terminated")
        if self._waiting_on is self:
            raise SimulationError("a process cannot interrupt itself")
        interrupt_evt = Event(self.sim)
        interrupt_evt._ok = False
        interrupt_evt._value = Interrupted(cause)
        interrupt_evt._defused = True
        interrupt_evt.callbacks.append(self._deliver_interrupt)
        self.sim._schedule(interrupt_evt, 0.0, URGENT)

    def _deliver_interrupt(self, event: Event) -> None:
        if self._value is _PENDING:
            self._resume(event)

    def _resume(self, event: Event) -> None:
        # Detach from whatever we were officially waiting on (interrupt path).
        if self._waiting_on is not None and self._waiting_on is not event:
            try:
                self._waiting_on.callbacks.remove(self._resume)  # type: ignore[union-attr]
            except (ValueError, AttributeError):
                pass
        self._waiting_on = None
        self.sim._active_process = self
        try:
            if event._ok:
                target = self._generator.send(event._value)
            else:
                event._defused = True
                target = self._generator.throw(event._value)
        except StopIteration as stop:
            self.sim._active_process = None
            self.succeed(stop.value)
            return
        except BaseException as exc:
            self.sim._active_process = None
            self.fail(exc)
            return
        self.sim._active_process = None
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}; processes must "
                "yield Event instances"
            )
        if target.callbacks is None:
            # Already processed: resume immediately at the current time.
            relay = Event(self.sim)
            relay._ok = target._ok
            relay._value = target._value
            if not target._ok:
                relay._defused = True
            relay.callbacks.append(self._resume)
            self.sim._schedule(relay, 0.0, URGENT)
        else:
            target.callbacks.append(self._resume)
            self._waiting_on = target

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Process {self.name!r} {'alive' if self.is_alive else 'done'}>"


class _Condition(Event):
    """Base for AllOf / AnyOf composite events."""

    __slots__ = ("events", "_count")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = tuple(events)
        self._count = 0
        for e in self.events:
            if e.sim is not sim:
                raise SimulationError("condition mixes events from different simulators")
        if not self.events:
            self.succeed({})
            return
        for e in self.events:
            e.add_callback(self._check)

    def _matched(self) -> dict[Event, Any]:
        return {e: e._value for e in self.events if e.processed and e._ok}

    def _check(self, event: Event) -> None:
        if self.triggered:
            if not event._ok:
                event._defused = True
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._count += 1
        if self._satisfied():
            self.succeed(self._matched())

    def _satisfied(self) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError


class AllOf(_Condition):
    """Fires when every component event has fired; value maps event→value."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._count == len(self.events)


class AnyOf(_Condition):
    """Fires when the first component event fires; value maps event→value."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._count >= 1


class Simulator:
    """The event calendar and virtual clock.

    Parameters
    ----------
    start:
        Initial value of the clock (seconds by convention throughout this
        repository).
    """

    #: Compact the calendar once this many cancelled entries are pending
    #: *and* they outnumber live entries (amortised O(1) per cancel).
    _COMPACT_MIN_CANCELLED = 64

    def __init__(self, start: float = 0.0):
        self._now = float(start)
        self._queue: list[tuple[float, int, int, Event]] = []
        self._seq = itertools.count()
        self._active_process: Process | None = None
        self._event_count = 0
        self._cancel_pending = 0
        self._deferred: list[Callable[[], None]] = []

    # -- clock -------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    @property
    def active_process(self) -> Process | None:
        """The process currently being resumed, if any."""
        return self._active_process

    @property
    def event_count(self) -> int:
        """Total number of events processed so far (diagnostics).

        Cancelled events are skipped without counting: they were work the
        simulation never performed.
        """
        return self._event_count

    @property
    def queue_size(self) -> int:
        """Calendar entries currently scheduled, including cancelled ones
        not yet purged (diagnostics / heap-hygiene tests)."""
        return len(self._queue)

    @property
    def cancelled_pending(self) -> int:
        """Cancelled entries still sitting in the calendar (diagnostics)."""
        return self._cancel_pending

    # -- factories ---------------------------------------------------------

    def event(self) -> Event:
        """A new pending event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing ``delay`` from now."""
        return Timeout(self, delay, value)

    def process(
        self, generator: Generator[Event, Any, Any], name: str | None = None
    ) -> Process:
        """Launch ``generator`` as a process; returns its join event."""
        return Process(self, generator, name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def defer(self, fn: Callable[[], None]) -> None:
        """Run ``fn()`` once, at the end of the current timestamp.

        End-of-timestamp hooks fire after every already-scheduled event at
        the current simulated time has been processed, just before the
        clock advances (or when the calendar drains).  Unlike a zero-delay
        timeout, a deferred hook occupies no calendar entry, is not an
        event (no ``event_count`` tick, no callback plumbing), and is
        guaranteed to see the *final* state of the timestamp — which is
        exactly what batched bookkeeping like the flow network's
        per-timestamp re-rate needs.

        Hooks run in registration order.  A hook may schedule new events
        (including at the current time) or register further hooks; the
        kernel keeps draining events and hooks until the timestamp is
        quiescent.  A hook that unconditionally re-registers itself will
        therefore spin the simulation at the current time, just as a
        zero-delay timeout loop would.
        """
        self._deferred.append(fn)

    def _run_deferred(self) -> None:
        deferred, self._deferred = self._deferred, []
        for fn in deferred:
            fn()

    # -- scheduling --------------------------------------------------------

    def _schedule(self, event: Event, delay: float, priority: int) -> None:
        heapq.heappush(
            self._queue, (self._now + delay, priority, next(self._seq), event)
        )

    def _note_cancel(self) -> None:
        """Record a cancellation; compact the calendar if dead entries dominate."""
        self._cancel_pending += 1
        if (
            self._cancel_pending > self._COMPACT_MIN_CANCELLED
            and self._cancel_pending * 2 > len(self._queue)
        ):
            self._queue = [e for e in self._queue if not e[3]._cancelled]
            heapq.heapify(self._queue)
            self._cancel_pending = 0

    def peek(self) -> float:
        """Time of the next live scheduled event, or ``inf`` if none.

        Cancelled entries surfacing at the head of the calendar are purged
        as a side effect.
        """
        queue = self._queue
        while queue and queue[0][3]._cancelled:
            heapq.heappop(queue)
            self._cancel_pending -= 1
        return queue[0][0] if queue else float("inf")

    def step(self) -> None:
        """Process exactly one (non-cancelled) event.

        If end-of-timestamp hooks are pending and the next event lies in
        the future (or the calendar is empty), the hooks run instead.
        """
        queue = self._queue
        if self._deferred and self.peek() > self._now:
            self._run_deferred()
            return
        while True:
            time, _prio, _seq, event = heapq.heappop(queue)
            if event._cancelled:
                self._cancel_pending -= 1
                if not queue:
                    return  # calendar held only cancelled entries
                continue
            break
        if time < self._now:  # pragma: no cover - heap guarantees order
            raise SimulationError("time went backwards")
        self._now = time
        self._event_count += 1
        callbacks, event.callbacks = event.callbacks, None
        assert callbacks is not None
        for fn in callbacks:
            fn(event)
        if not event._ok and not event._defused:
            exc = event._value
            raise exc

    def run(self, until: float | Event | None = None) -> Any:
        """Run the simulation.

        ``until`` may be:

        * ``None`` — run until the calendar drains;
        * a number — run until the clock reaches that time;
        * an :class:`Event` — run until that event is processed, returning
          its value (raising its exception if it failed).
        """
        stop_at = float("inf")
        stop_event: Event | None = None
        if isinstance(until, Event):
            stop_event = until
        elif until is not None:
            stop_at = float(until)
            if stop_at < self._now:
                raise ValueError(f"until={stop_at} is in the past (now={self._now})")

        # Hot loop.  This is step()/peek() inlined so each event pays one
        # heap pop and one head inspection instead of two full peek()
        # calls plus a method dispatch.  ``self._queue`` must be re-read
        # every iteration: a callback may cancel events and trigger
        # _note_cancel() compaction, which REPLACES the queue list.
        heappop = heapq.heappop
        inf = float("inf")
        while self._queue or self._deferred:
            if stop_event is not None and stop_event.callbacks is None:
                break
            queue = self._queue
            # Purge cancelled entries surfacing at the head (peek()).
            while queue and queue[0][3]._cancelled:
                heappop(queue)
                self._cancel_pending -= 1
            nxt = queue[0][0] if queue else inf
            if self._deferred and nxt > self._now:
                # The current timestamp is quiescent: run end-of-timestamp
                # hooks before the clock moves (they may schedule events).
                self._run_deferred()
                continue
            if nxt > stop_at:
                self._now = stop_at
                break
            if not queue:
                break  # calendar emptied by the cancelled-entry purge
            time, _prio, _seq, event = heappop(queue)
            self._now = time
            self._event_count += 1
            callbacks, event.callbacks = event.callbacks, None
            for fn in callbacks:  # type: ignore[union-attr]
                fn(event)
            if not event._ok and not event._defused:
                raise event._value
        else:
            if stop_at != float("inf"):
                self._now = stop_at

        if stop_event is not None:
            if not stop_event.processed:
                raise SimulationError(
                    "simulation ended before the awaited event fired "
                    f"(now={self._now})"
                )
            if not stop_event._ok:
                raise stop_event._value
            return stop_event._value
        return None
