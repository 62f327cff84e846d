"""Frozen coverage-heap VirtualMerger: the reference for ``repro.core.virtualmerge``.

This is the aggregate merger as it was before its exact coverage index:
runs sit in a lazily refreshed ``(coverage, run_id)`` min-heap, every
feed pushes a fresh entry and leaves the old one behind, and
``bottlenecks``/``frontier`` treat an entry within ``_EPS`` of its run's
coverage as current.  ``tests/test_virtualmerge_reference.py`` drives this
module and ``repro.core.virtualmerge`` with the same operations and
requires identical results on its domain.  Do not optimise or fix it: its
value is that it does not change.
"""

from __future__ import annotations

import heapq
from typing import Hashable

__all__ = ["VirtualMerger"]

_EPS = 1e-9


class _VRun:
    __slots__ = ("run_id", "total", "delivered", "eof")

    def __init__(self, run_id: Hashable, total: float):
        self.run_id = run_id
        self.total = total
        self.delivered = 0.0
        self.eof = total <= 0.0

    @property
    def coverage(self) -> float:
        if self.total <= 0:
            return 1.0
        if self.eof and self.delivered >= self.total - _EPS:
            return 1.0
        return min(1.0, self.delivered / self.total)


class VirtualMerger:
    """Coverage-based k-way merge progress model."""

    def __init__(self, expected_runs: int | None = None):
        #: When set, extraction is blocked until this many runs are declared.
        self.expected_runs = expected_runs
        self._runs: dict[Hashable, _VRun] = {}
        #: min-heap of (coverage_at_push, run_id) — lazily refreshed.
        self._heap: list[tuple[float, Hashable]] = []
        self._emitted_q = 0.0
        self.total_bytes = 0.0
        self.emitted_bytes = 0.0
        self._total_delivered = 0.0

    # -- run management ---------------------------------------------------

    def add_run(self, run_id: Hashable, total_bytes: float) -> None:
        if run_id in self._runs:
            raise ValueError(f"run {run_id!r} already declared")
        run = _VRun(run_id, float(total_bytes))
        self._runs[run_id] = run
        self.total_bytes += run.total
        heapq.heappush(self._heap, (run.coverage, run_id))

    def feed(self, run_id: Hashable, nbytes: float) -> None:
        """Deliver ``nbytes`` more of run ``run_id`` to the reducer side."""
        run = self._runs[run_id]
        if nbytes < 0:
            raise ValueError(f"negative feed {nbytes}")
        before = run.delivered
        run.delivered = min(run.total, run.delivered + nbytes)
        self._total_delivered += run.delivered - before
        if run.delivered >= run.total - _EPS:
            run.eof = True
        heapq.heappush(self._heap, (run.coverage, run_id))

    def remaining(self, run_id: Hashable) -> float:
        """Bytes of ``run_id`` not yet delivered."""
        run = self._runs[run_id]
        return max(0.0, run.total - run.delivered)

    def delivered(self, run_id: Hashable) -> float:
        return self._runs[run_id].delivered

    def coverage(self, run_id: Hashable) -> float:
        return self._runs[run_id].coverage

    def buffered_of(self, run_id: Hashable) -> float:
        """Delivered-but-unextracted bytes held for one run."""
        run = self._runs[run_id]
        return max(0.0, run.delivered - self._emitted_q * run.total)

    # -- state -------------------------------------------------------------

    @property
    def n_runs(self) -> int:
        return len(self._runs)

    @property
    def all_declared(self) -> bool:
        return self.expected_runs is None or len(self._runs) >= self.expected_runs

    def frontier(self) -> float:
        """The global quantile up to which the merge could have emitted.

        O(log n) amortised via the lazily-refreshed coverage heap
        (coverage only grows, so stale heap entries are lower bounds).
        """
        if not self._runs or not self.all_declared:
            return 0.0
        while self._heap:
            cov, run_id = self._heap[0]
            actual = self._runs[run_id].coverage
            if actual - cov > _EPS:
                heapq.heapreplace(self._heap, (actual, run_id))
            else:
                # Return the heap entry, not ``actual``: every entry is a
                # lower bound on its run's coverage, so the top is <= the
                # true minimum — ``actual`` can exceed another run's
                # coverage by up to _EPS, and that overshoot scales to
                # whole emitted-but-undelivered bytes at GB totals.
                return cov
        return 1.0  # pragma: no cover - heap never empties while runs exist

    def drainable_bytes(self) -> float:
        """Bytes extractable right now beyond what was already drained."""
        q = self.frontier()
        if q <= self._emitted_q:
            return 0.0
        return (q - self._emitted_q) * self.total_bytes

    def drain(self, max_bytes: float | None = None) -> float:
        """Extract up to ``max_bytes`` (default: all drainable); returns bytes."""
        available = self.drainable_bytes()
        take = available if max_bytes is None else min(available, max_bytes)
        if take <= 0:
            return 0.0
        if self.total_bytes > 0:
            self._emitted_q += take / self.total_bytes
        self.emitted_bytes += take
        return take

    def buffered_bytes(self) -> float:
        """Delivered-but-not-yet-extracted bytes (reducer memory held).

        Since ``q = min coverage``, every run satisfies ``delivered_r >=
        q * bytes_r``, so the held total is exactly
        ``sum(delivered) - q * total_bytes`` — O(1).
        """
        return max(0.0, self._total_delivered - self._emitted_q * self.total_bytes)

    @property
    def exhausted(self) -> bool:
        """All runs fully delivered and every byte extracted."""
        return (
            self.all_declared
            and all(r.eof for r in self._runs.values())
            and self.emitted_bytes >= self.total_bytes - 1.0  # float slack at GB scale
        )

    def bottlenecks(self, k: int = 1) -> list[Hashable]:
        """The ``k`` runs with the lowest coverage that still have data coming.

        These are the runs whose refill unblocks the merge — the fetch
        scheduler targets them first.  Lazily cleans stale heap entries.
        """
        out: list[Hashable] = []
        seen: set[Hashable] = set()
        stale: list[tuple[float, Hashable]] = []
        while self._heap and len(out) < k:
            cov, run_id = heapq.heappop(self._heap)
            run = self._runs[run_id]
            if run.eof or run_id in seen:
                continue
            if abs(cov - run.coverage) > _EPS:
                stale.append((run.coverage, run_id))
                continue
            seen.add(run_id)
            out.append(run_id)
            stale.append((cov, run_id))
        for entry in stale:
            heapq.heappush(self._heap, entry)
        return out
