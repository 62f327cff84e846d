"""repro.parallel — the sweep executor's determinism and failure contracts.

The load-bearing property: for ANY grid and ANY worker count, ``run``
returns byte-identical results in the same order as the serial loop.
Everything else (seed derivation, fingerprints, worker policy, crash
surfacing, pool fallback) supports that contract.
"""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel import (
    SweepExecutor,
    SweepPoint,
    SweepPointError,
    derive_seed,
    fingerprint,
    resolve_workers,
)

# -- module-level point functions (spawn-safe: pickled by qualified name) ----


def _mix(seed: int, x: int) -> dict:
    """A deterministic, order-sensitive computation with float content."""
    rng_seed = derive_seed(seed, "mix", x)
    acc = 0.0
    for i in range(1, 50):
        acc += ((rng_seed >> (i % 32)) & 0xFF) / (i * 1.000001)
    return {"x": x, "seed": rng_seed, "acc": acc}


def _in_worker(_x: int) -> bool:
    return bool(os.environ.get("REPRO_SWEEP_IN_WORKER"))


def _boom(x: int) -> int:
    if x == 13:
        raise ValueError(f"unlucky {x}")
    return x * x


def _ident(x):
    return x


# -- seeds and fingerprints ---------------------------------------------------


def test_derive_seed_is_stable_and_distinct():
    # Golden value: must never change across PRs (seeds feed simulations).
    assert derive_seed(0, "fig4a", 30) == derive_seed(0, "fig4a", 30)
    seen = {derive_seed(0, label, x) for label in ("a", "b") for x in range(50)}
    assert len(seen) == 100  # no collisions across a small grid
    assert derive_seed(1, "a", 0) != derive_seed(0, "a", 0)
    assert isinstance(derive_seed(3, "z"), int)


def test_fingerprint_canonicalises_dict_order_and_float_bits():
    assert fingerprint({"a": 1, "b": 2.5}) == fingerprint({"b": 2.5, "a": 1})
    assert fingerprint({"v": 0.1 + 0.2}) != fingerprint({"v": 0.3})

    class WithDict:
        def to_dict(self):
            return {"k": 7}

    assert fingerprint(WithDict()) == fingerprint({"k": 7})


# -- worker policy ------------------------------------------------------------


def test_resolve_workers_policy(monkeypatch):
    monkeypatch.delenv("REPRO_SWEEP_WORKERS", raising=False)
    monkeypatch.delenv("REPRO_SWEEP_IN_WORKER", raising=False)
    assert resolve_workers(None) == 1  # serial is the reference default
    assert resolve_workers(3) == 3
    assert resolve_workers(0) == (os.cpu_count() or 1)
    monkeypatch.setenv("REPRO_SWEEP_WORKERS", "5")
    assert resolve_workers(None) == 5
    # Inside a sweep worker nested sweeps always degrade to serial.
    monkeypatch.setenv("REPRO_SWEEP_IN_WORKER", "1")
    assert resolve_workers(8) == 1


# -- the determinism property -------------------------------------------------


@settings(max_examples=15, deadline=None)
@given(
    xs=st.lists(st.integers(min_value=-100, max_value=100), min_size=0, max_size=8),
    seed=st.integers(min_value=0, max_value=2**31),
    workers=st.integers(min_value=2, max_value=4),
)
def test_parallel_run_is_byte_identical_to_serial(xs, seed, workers):
    points = [SweepPoint(_mix, args=(seed, x), key=x) for x in xs]
    serial = SweepExecutor(workers=1).run(points)
    parallel = SweepExecutor(workers=workers, mp_context="fork").run(points)
    # repr round-trips float bits: byte-identity, not approximate equality.
    assert [repr(r) for r in parallel] == [repr(r) for r in serial]
    assert [fingerprint(r) for r in parallel] == [fingerprint(r) for r in serial]


def test_spawn_context_matches_serial():
    # spawn = fresh interpreter + fresh hash seed: catches any hidden
    # dependence on hash randomisation or inherited interpreter state.
    points = [SweepPoint(_mix, args=(7, x)) for x in range(4)]
    serial = SweepExecutor(workers=1).run(points)
    spawned = SweepExecutor(workers=2, mp_context="spawn").run(points)
    assert [repr(r) for r in spawned] == [repr(r) for r in serial]


def test_real_sweep_matches_serial():
    from repro.experiments.figures import _grid_point

    points = [
        SweepPoint(
            _grid_point,
            args=("terasort", 64 << 20, 2, "rdma", "ipoib", "compute", 1, 0),
            kwargs={"overrides": {"rdma_packet_bytes": packet}},
        )
        for packet in (32 << 10, 1 << 20)
    ]
    serial = SweepExecutor(workers=1).run(points)
    parallel = SweepExecutor(workers=2).run(points)
    assert [fingerprint(r) for r in parallel] == [fingerprint(r) for r in serial]
    assert serial[0].execution_time != serial[1].execution_time


# -- failure policy -----------------------------------------------------------


@pytest.mark.parametrize("workers", [1, 2])
def test_crashing_point_surfaces_with_descriptor(workers):
    points = [SweepPoint(_boom, args=(x,), key=f"pt{x}") for x in (2, 13, 4)]
    executor = SweepExecutor(workers=workers, mp_context="fork")

    # on_error="return": the other points still completed.
    results = executor.run(points, on_error="return")
    assert results[0] == 4 and results[2] == 16
    err = results[1]
    assert isinstance(err, SweepPointError)
    assert err.index == 1 and err.point.key == "pt13"
    assert "'pt13'" in str(err) and "ValueError" in str(err)

    # on_error="raise": first-by-index error, after everything completed.
    with pytest.raises(SweepPointError) as exc_info:
        executor.run(points)
    assert exc_info.value.index == 1
    assert isinstance(exc_info.value.__cause__, ValueError)


def test_on_error_validation():
    with pytest.raises(ValueError):
        SweepExecutor(workers=1).run([], on_error="ignore")


# -- fallbacks ----------------------------------------------------------------


def test_unknown_start_method_falls_back_to_serial():
    points = [SweepPoint(_mix, args=(1, x)) for x in range(3)]
    reference = SweepExecutor(workers=1).run(points)
    # get_context("not-a-method") raises ValueError at pool creation; the
    # executor must degrade to the in-process loop, not crash.
    degraded = SweepExecutor(workers=4, mp_context="not-a-method").run(points)
    assert [repr(r) for r in degraded] == [repr(r) for r in reference]


def test_single_point_stays_in_process():
    # One point never pays pool startup; the worker env marker is unset.
    [result] = SweepExecutor(workers=4).run([SweepPoint(_in_worker, args=(1,))])
    assert result is False
    # Two points with workers >= 2 do land in marked worker processes.
    marked = SweepExecutor(workers=2, mp_context="fork").run(
        [SweepPoint(_in_worker, args=(x,)) for x in (1, 2)]
    )
    assert marked == [True, True]


def test_map_convenience():
    assert SweepExecutor(workers=1).map(_ident, [(1,), (2,), (3,)]) == [1, 2, 3]
