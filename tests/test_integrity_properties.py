"""Property tests: seeded silent corruption never changes the answer.

For arbitrary seeded draws of the ``corruption`` family of
:func:`repro.faults.fault_plan` on a small cluster the job must (a) run
to completion with exactly the clean total of reduce output bytes, (b)
settle its integrity ledger (``detected == recovered``), and (c) be
bit-repeatable under the same seed.  Plus pure-function properties of the digest scheme itself.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import westmere_cluster
from repro.faults import fault_plan
from repro.integrity import CORRUPTION_MASK, fingerprint, fnv1a64
from repro.mapreduce import run_job, terasort_job

GB = 1024**3
MB = 1024**2

N_NODES = 2
ENGINE = "rdma"


def _run(fault_plan=None):
    conf = terasort_job(
        1 * GB,
        N_NODES,
        ENGINE,
        block_bytes=64 * MB,
        fault_plan=fault_plan,
        fetch_backoff_base=0.2,
        fetch_backoff_max=1.5,
        penalty_box_secs=1.5,
    )
    return run_job(westmere_cluster(N_NODES), "ipoib", conf, seed=7)


#: One corruption-free reference for the whole test run (the conf is fixed).
_CLEAN = None


def clean_result():
    global _CLEAN
    if _CLEAN is None:
        _CLEAN = _run()
    return _CLEAN


# ---------------------------------------------------------------------------
# Digest scheme
# ---------------------------------------------------------------------------


@given(data=st.binary(max_size=256))
def test_fnv1a64_is_a_stable_64_bit_digest(data):
    h = fnv1a64(data)
    assert 0 <= h < 1 << 64
    assert h == fnv1a64(data)


@given(
    fields=st.lists(
        st.one_of(st.integers(), st.text(max_size=20), st.floats(allow_nan=False)),
        min_size=1,
        max_size=5,
    )
)
def test_fingerprint_deterministic_and_mask_always_perturbs(fields):
    fp = fingerprint(*fields)
    assert fp == fingerprint(*fields)
    # The corruption mask can never be an identity: a flipped artifact
    # always fails verification.
    assert fp ^ CORRUPTION_MASK != fp


@given(a=st.integers(), b=st.integers())
def test_fingerprint_field_order_matters(a, b):
    if a != b:
        assert fingerprint(a, b) != fingerprint(b, a)


# ---------------------------------------------------------------------------
# Seeded corruption plans
# ---------------------------------------------------------------------------


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=10, deadline=None)
def test_seeded_corruption_completes_with_exact_output(seed):
    clean = clean_result()
    plan = fault_plan(
        ["corruption"],
        [f"node{i:02d}" for i in range(N_NODES)],
        clean.execution_time,
        seed=seed,
    )
    result = _run(fault_plan=plan)
    assert result.counters["reduce.completed"] == result.conf.n_reduces
    assert result.counters["reduce.output_bytes"] == clean.counters[
        "reduce.output_bytes"
    ]
    if plan.has_corruption:
        c = result.counters
        assert c["integrity.detected"] == c["integrity.recovered"]
        assert result.phase_report["integrity"]["pending"] == 0.0
    else:
        # An (unlikely) all-empty draw must cost nothing at all.
        assert result.execution_time == clean.execution_time


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=5, deadline=None)
def test_same_seed_same_corruption(seed):
    names = [f"node{i:02d}" for i in range(N_NODES)]
    hint = clean_result().execution_time
    plan_a = fault_plan(["corruption"], names, hint, seed=seed)
    plan_b = fault_plan(["corruption"], names, hint, seed=seed)
    assert plan_a == plan_b
    a = _run(fault_plan=plan_a)
    b = _run(fault_plan=plan_b)
    assert a.execution_time == b.execution_time
    assert a.counters == b.counters
