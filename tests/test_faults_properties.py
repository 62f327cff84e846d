"""Property tests: any seeded fault plan still yields a correct, repeatable job.

For arbitrary seeded draws of the ``standard`` family of
:func:`repro.faults.fault_plan` (crashes, flaps, stalls, disk errors) on a
small cluster the job must (a) run to completion, (b) produce exactly the
fault-free total of reduce output bytes, and (c) be bit-repeatable under
the same seed — fault injection is deterministic chaos, not randomness.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import westmere_cluster
from repro.faults import fault_plan
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


#: One fault-free reference for the whole test run (the conf is fixed).
_CLEAN = None


def clean_result():
    global _CLEAN
    if _CLEAN is None:
        _CLEAN = _run()
    return _CLEAN


@given(seed=st.integers(min_value=0, max_value=10_000))
@example(seed=323)  # a re-executed map's host crashes under it
@settings(max_examples=10, deadline=None)
def test_seeded_plan_completes_with_exact_output(seed):
    clean = clean_result()
    plan = fault_plan(
        ["standard"],
        [f"node{i:02d}" for i in range(N_NODES)],
        clean.execution_time,
        seed=seed,
    )
    result = _run(fault_plan=plan)
    assert result.counters["reduce.completed"] == result.conf.n_reduces
    assert result.counters["reduce.output_bytes"] == clean.counters[
        "reduce.output_bytes"
    ]
    if plan.empty:
        assert result.execution_time == clean.execution_time


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=5, deadline=None)
def test_same_seed_same_chaos(seed):
    clean = clean_result()
    names = [f"node{i:02d}" for i in range(N_NODES)]
    plan_a = fault_plan(["standard"], names, clean.execution_time, seed=seed)
    plan_b = fault_plan(["standard"], names, clean.execution_time, seed=seed)
    assert plan_a == plan_b
    a = _run(fault_plan=plan_a)
    b = _run(fault_plan=plan_b)
    assert a.execution_time == b.execution_time
    assert a.counters == b.counters
