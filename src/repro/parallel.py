"""Parallel sweep execution: fan independent seeded runs across processes.

Every experiment grid in this repository — the paper figures, the
calibration claim checks, the static-control benchmark grid — is a loop of *independent* simulations: each point
builds its own cluster, its own :class:`~repro.sim.core.Simulator`, and
its own RNG streams from an explicit seed.  Nothing is shared, so the
points can run in worker processes with **bit-identical** results; only
wall-clock changes.

Determinism contract
--------------------
:class:`SweepExecutor` guarantees that ``run(points)`` returns exactly
what the serial loop ``[p() for p in points]`` would return, in the same
order, regardless of ``workers``:

* each point is a :class:`SweepPoint` — a *spawn-safe payload
  descriptor*: a module-level callable plus picklable args, so the
  ``spawn`` start method (fresh interpreter, fresh hash seed) can
  reconstruct it by qualified name;
* results are collected **in submission order**, never in completion
  order;
* a point's work must depend only on its arguments (every simulation
  entry point here takes an explicit seed), never on global mutable
  state, iteration order of hash-randomised containers, or wall time —
  the property tests in ``tests/test_parallel.py`` and the
  ``benchmarks/test_sweep.py`` fingerprint check enforce this end to
  end;
* worker processes inherit ``os.environ`` (so environment settings
  behave identically in workers and in-process).

Failure policy: every point runs to completion even when another point
raises; the failure surfaces afterwards as a :class:`SweepPointError`
carrying the failing point's descriptor (``on_error="return"`` instead
returns the error object in that point's slot).

``workers <= 1``, an unavailable ``multiprocessing`` (some sandboxes
lack ``sem_open``), or running *inside* a sweep worker all fall back to
a plain in-process loop — same results, same failure policy, no pool.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "SweepExecutor",
    "SweepPoint",
    "SweepPointError",
    "derive_seed",
    "fingerprint",
    "resolve_workers",
]

#: Set in worker processes so nested sweeps degrade to in-process loops
#: instead of forking a pool per worker.
_WORKER_ENV = "REPRO_SWEEP_IN_WORKER"


@dataclass(frozen=True)
class SweepPoint:
    """One point of a sweep: a spawn-safe payload descriptor.

    ``fn`` must be a **module-level** callable (pickled by qualified
    name under the ``spawn`` start method); ``args``/``kwargs`` must be
    picklable.  ``key`` is an arbitrary caller-side identifier echoed in
    error messages — never sent to workers, so it may be anything.
    """

    fn: Callable[..., Any]
    args: tuple = ()
    kwargs: dict[str, Any] = field(default_factory=dict)
    key: Any = None

    def describe(self) -> str:
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        if self.key is not None:
            return f"{self.key!r} ({name})"
        return f"{name}{self.args!r}"


class SweepPointError(RuntimeError):
    """One sweep point failed; the rest of the sweep still completed."""

    def __init__(self, point: SweepPoint, index: int, cause: BaseException):
        super().__init__(
            f"sweep point #{index} {point.describe()} failed: "
            f"{type(cause).__name__}: {cause}"
        )
        self.point = point
        self.index = index
        self.__cause__ = cause


def derive_seed(base: int, *coords: Any) -> int:
    """A per-point seed derived from a base seed and the point's coordinates.

    Stable across processes, platforms, and hash randomisation (no
    ``hash()``): sweeps that want distinct-but-reproducible seeds per
    grid point derive them as ``derive_seed(seed, label, x)`` instead of
    hand-rolling ``seed + i`` arithmetic that collides between grids.
    """
    payload = repr((int(base),) + coords).encode("utf-8")
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")


def fingerprint(value: Any) -> str:
    """A stable content digest of a sweep result.

    Objects exposing ``to_dict()`` (e.g. :class:`~repro.mapreduce.job.
    JobResult`) are canonicalised through it; everything else must be
    JSON-serialisable or have a stable ``repr``.  Bit-identical results
    produce identical fingerprints (``repr`` round-trips float bits).
    """
    if hasattr(value, "to_dict"):
        value = value.to_dict()
    try:
        blob = json.dumps(value, sort_keys=True, default=repr)
    except (TypeError, ValueError):
        blob = repr(value)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def resolve_workers(workers: int | None) -> int:
    """Worker-count policy shared by every grid entry point.

    ``None`` reads ``REPRO_SWEEP_WORKERS`` (default 1 — serial, the
    bit-for-bit reference); ``0`` or negative means "all CPUs".  Inside
    a sweep worker the answer is always 1.
    """
    if os.environ.get(_WORKER_ENV):
        return 1
    if workers is None:
        raw = os.environ.get("REPRO_SWEEP_WORKERS", "").strip()
        workers = int(raw) if raw else 1
    if workers <= 0:
        workers = os.cpu_count() or 1
    return workers


def _call_point(fn: Callable[..., Any], args: tuple, kwargs: dict) -> Any:
    return fn(*args, **kwargs)


def _init_worker() -> None:
    os.environ[_WORKER_ENV] = "1"


class SweepExecutor:
    """Run independent sweep points, optionally across worker processes.

    Parameters
    ----------
    workers:
        Process count (see :func:`resolve_workers`).  ``1`` runs
        in-process.
    mp_context:
        ``multiprocessing`` start method.  Defaults to
        ``REPRO_SWEEP_MP`` or ``"fork"`` where available (cheap, no
        re-import) and ``"spawn"`` elsewhere; payloads must stay
        spawn-safe either way.
    """

    def __init__(self, workers: int | None = None, mp_context: str | None = None):
        self.workers = resolve_workers(workers)
        if mp_context is None:
            mp_context = os.environ.get("REPRO_SWEEP_MP", "").strip() or None
        self.mp_context = mp_context

    # -- public API ---------------------------------------------------------

    def run(
        self, points: Sequence[SweepPoint], on_error: str = "raise"
    ) -> list[Any]:
        """Execute every point; return their results in input order.

        ``on_error="raise"`` (default) raises the first (by input index)
        :class:`SweepPointError` after *all* points have completed;
        ``"return"`` leaves the error object in the failed point's slot.
        """
        if on_error not in ("raise", "return"):
            raise ValueError(f"on_error must be 'raise' or 'return', got {on_error!r}")
        points = list(points)
        if self.workers <= 1 or len(points) <= 1:
            results = self._run_serial(points)
        else:
            results = self._run_pool(points)
        if on_error == "raise":
            for result in results:
                if isinstance(result, SweepPointError):
                    raise result
        return results

    def map(self, fn: Callable[..., Any], argses: Sequence[tuple]) -> list[Any]:
        """Convenience: ``run`` over ``[SweepPoint(fn, args) for args in argses]``."""
        return self.run([SweepPoint(fn, args=tuple(args)) for args in argses])

    # -- backends -----------------------------------------------------------

    def _run_serial(self, points: list[SweepPoint]) -> list[Any]:
        results: list[Any] = []
        for index, point in enumerate(points):
            try:
                results.append(point.fn(*point.args, **point.kwargs))
            except Exception as exc:
                results.append(SweepPointError(point, index, exc))
        return results

    def _run_pool(self, points: list[SweepPoint]) -> list[Any]:
        try:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            if self.mp_context is not None:
                ctx = multiprocessing.get_context(self.mp_context)
            else:
                methods = multiprocessing.get_all_start_methods()
                ctx = multiprocessing.get_context(
                    "fork" if "fork" in methods else "spawn"
                )
            pool = ProcessPoolExecutor(
                max_workers=min(self.workers, len(points)),
                mp_context=ctx,
                initializer=_init_worker,
            )
        except (ImportError, OSError, ValueError, NotImplementedError):
            # No usable multiprocessing here (restricted sandbox, missing
            # sem_open, unknown start method): degrade to the serial loop.
            return self._run_serial(points)

        results: list[Any] = [None] * len(points)
        with pool:
            futures = [
                pool.submit(_call_point, point.fn, point.args, point.kwargs)
                for point in points
            ]
            for index, (point, future) in enumerate(zip(points, futures)):
                try:
                    results[index] = future.result()
                except Exception as exc:
                    # Includes BrokenProcessPool from a hard worker death:
                    # every not-yet-collected point then reports against
                    # its own descriptor rather than one opaque crash.
                    results[index] = SweepPointError(point, index, exc)
        return results
