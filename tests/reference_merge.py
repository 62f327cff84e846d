"""Frozen record-at-a-time k-way merger: the reference for ``repro.core.merge``.

This is the merger as it was before its refill loop ran inline: ``pop``
pops the heap head and pushes the run's next record, ``drain_ready`` calls
``pop`` once per record and pushes each one into the sink.  The heap is
ordered by ``(key, seq)``, where ``seq`` is handed out when a record
becomes its run's head.  ``tests/test_merge_reference.py`` drives this
module and ``repro.core.merge`` with the same packets and requires
identical emitted records and identical merger and queue state after
every drain.  Do not optimise or fix it: its value is that it does not
change.
"""

from __future__ import annotations

import heapq
from collections import deque
from collections.abc import Iterable
from typing import Any

__all__ = ["DataToReduceQueue", "KWayMerger", "MergeError"]


class MergeError(Exception):
    """Raised on contract violations (unsorted feed, unknown run, ...)."""


class DataToReduceQueue:
    """The FIFO between the merger and the reduce function (§III-B.2)."""

    def __init__(self) -> None:
        self._items: deque[Any] = deque()
        self.total_enqueued = 0
        #: Largest queue length ever observed (memory-budget accounting).
        self.high_water = 0

    def push(self, record: Any) -> None:
        self._items.append(record)
        self.total_enqueued += 1
        if len(self._items) > self.high_water:
            self.high_water = len(self._items)

    def pop(self) -> Any:
        return self._items.popleft()

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def drain(self) -> list[Any]:
        out = list(self._items)
        self._items.clear()
        return out


class _Run:
    __slots__ = ("run_id", "buffer", "eof", "last_key", "in_heap")

    def __init__(self, run_id: Any):
        self.run_id = run_id
        self.buffer: deque[Any] = deque()
        self.eof = False
        self.last_key: Any = None
        self.in_heap = False

    @property
    def blocking(self) -> bool:
        """True when this run stalls extraction (nothing buffered, more coming)."""
        return not self.in_heap and not self.buffer and not self.eof


class KWayMerger:
    """Streaming k-way merge over packetized, individually-sorted runs.

    Parameters
    ----------
    key:
        Extracts the sort key from a record; defaults to ``record[0]``
        (the key of a ``(key, value)`` pair).
    """

    def __init__(self, key: Any = None):
        self._key = key or (lambda record: record[0])
        self._runs: dict[Any, _Run] = {}
        self._heap: list[tuple[Any, int, Any, Any]] = []  # (key, seq, run_id, record)
        self._seq = 0
        self._blocking = 0  # number of runs currently blocking extraction
        self.records_out = 0
        self.records_in = 0

    # -- run management ---------------------------------------------------

    def add_run(self, run_id: Any) -> None:
        """Declare a run (a map-output segment) that will feed the merge."""
        if run_id in self._runs:
            raise MergeError(f"run {run_id!r} already declared")
        run = _Run(run_id)
        self._runs[run_id] = run
        self._blocking += 1  # empty and not eof until the first feed

    def feed(self, run_id: Any, records: Iterable[Any], eof: bool = False) -> None:
        """Deliver the next packet of ``run_id`` (records must be sorted)."""
        run = self._runs.get(run_id)
        if run is None:
            raise MergeError(f"feed() for undeclared run {run_id!r}")
        if run.eof:
            raise MergeError(f"feed() after eof on run {run_id!r}")
        was_blocking = run.blocking
        for rec in records:
            k = self._key(rec)
            if run.last_key is not None and k < run.last_key:
                raise MergeError(
                    f"run {run_id!r} is not sorted: {k!r} after {run.last_key!r}"
                )
            run.last_key = k
            run.buffer.append(rec)
            self.records_in += 1
        if eof:
            run.eof = True
        if not run.in_heap and run.buffer:
            self._push_head(run)
        if was_blocking and not run.blocking:
            self._blocking -= 1

    def finish_run(self, run_id: Any) -> None:
        """Mark ``run_id`` complete with no further packets."""
        run = self._runs.get(run_id)
        if run is None:
            raise MergeError(f"finish_run() for undeclared run {run_id!r}")
        if not run.eof:
            was_blocking = run.blocking
            run.eof = True
            if was_blocking:
                self._blocking -= 1

    # -- extraction ---------------------------------------------------------

    @property
    def n_runs(self) -> int:
        return len(self._runs)

    @property
    def exhausted(self) -> bool:
        """True when every run hit EOF and every buffered record was popped."""
        return not self._heap and all(
            r.eof and not r.buffer for r in self._runs.values()
        )

    @property
    def buffered_records(self) -> int:
        """Records held inside the merge (run buffers + heap heads).

        This is the reducer-side memory the shuffle budget bounds: fed but
        not yet extracted.
        """
        return self.records_in - self.records_out

    def starving(self) -> list[Any]:
        """Runs whose buffer is empty but that have more data coming.

        A non-empty result means extraction is stalled on a refill — the
        paper's "get next set of key-value pairs from that particular map".
        """
        if self._blocking == 0:
            return []
        return [r.run_id for r in self._runs.values() if r.blocking]

    def ready(self) -> bool:
        """True when the global minimum is determined (no blocking run)."""
        return bool(self._heap) and self._blocking == 0

    def pop(self) -> Any:
        """Extract the globally-smallest record (requires :meth:`ready`)."""
        if not self.ready():
            raise MergeError("pop() while a run is starving or merge is empty")
        _k, _seq, run_id, record = heapq.heappop(self._heap)
        run = self._runs[run_id]
        run.in_heap = False
        if run.buffer:
            self._push_head(run)
        elif not run.eof:
            self._blocking += 1
        self.records_out += 1
        return record

    def drain_ready(
        self, sink: DataToReduceQueue | None = None, max_records: int | None = None
    ) -> list[Any]:
        """Extract as many records as the refill protocol allows right now.

        ``max_records`` bounds one drain batch so a budget-constrained
        driver can cap DataToReduceQueue growth and let the reduce side
        consume between batches (remaining ready records stay buffered).
        """
        out: list[Any] = []
        while self.ready():
            if max_records is not None and len(out) >= max_records:
                break
            rec = self.pop()
            if sink is not None:
                sink.push(rec)
            out.append(rec)
        return out

    # -- internals ----------------------------------------------------------

    def _push_head(self, run: _Run) -> None:
        record = run.buffer.popleft()
        self._seq += 1
        heapq.heappush(self._heap, (self._key(record), self._seq, run.run_id, record))
        run.in_heap = True
