"""The exact coverage index against the frozen coverage heap.

``repro.core.virtualmerge`` keeps the runs still waiting for data in one
sorted ``(coverage, run_id)`` list that every feed updates.
``tests/reference_virtualmerge.py`` is the earlier merger: a lazily
refreshed heap in which a feed leaves its run's old entry behind.  Driven
with the same random ``add_run``/``feed``/``drain``/``bottlenecks``/
``frontier`` sequences, both must return the same values and report the
same ``buffered_bytes()``, ``exhausted``, ``emitted_bytes`` and per-run
coverage after every step.  Run totals are zero, tiny and GB-scale; feeds
include zero and over-delivering ones.

Domain: every feed leaves its run's coverage unchanged, moves it by more
than ``_EPS`` or finishes the run.  The heap takes an entry within
``_EPS`` of its run's coverage as current, so a smaller move does not
reorder it there; the index orders runs by exact coverage.  That one
intended difference is pinned by
``test_feed_below_eps_reorders_by_exact_coverage``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.virtualmerge as index
import tests.reference_virtualmerge as reference

_EPS = index._EPS

totals = st.one_of(
    st.just(0.0),
    st.floats(1e-12, 1e-6),  # tiny: any feed finishes or barely moves them
    st.floats(1.0, 1e6),
    st.floats(1e9, 1e11),  # GB-scale: the simulator's segment sizes
)
#: A feed as a fraction of its run's total (0 = empty, > 1 over-delivers)
#: or as an absolute byte count.
feeds = st.one_of(
    st.tuples(st.just("frac"), st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0])),
    st.tuples(st.just("frac"), st.floats(0.0, 1.5)),
    st.tuples(st.just("abs"), st.floats(0.0, 1e6)),
)
ops = st.one_of(
    st.tuples(st.just("add"), totals),
    st.tuples(st.just("feed"), st.integers(0, 15), feeds),
    st.tuples(st.just("drain"), st.one_of(st.none(), st.floats(0.0, 1e10))),
    st.tuples(st.just("bottlenecks"), st.integers(0, 12)),
    st.tuples(st.just("frontier")),
)


def _feed_in_domain(vm, run_id, nbytes) -> bool:
    """True when feeding ``nbytes`` leaves the coverage of ``run_id``
    unchanged, moves it by more than ``_EPS`` or finishes the run."""
    run = vm._runs[run_id]
    if run.eof or run.total <= 0:
        return True
    delivered = min(run.total, run.delivered + nbytes)
    if delivered >= run.total - _EPS:
        return True
    move = min(1.0, delivered / run.total) - run.coverage
    return move == 0.0 or move > _EPS


def _state(vm, run_ids):
    return (
        vm.buffered_bytes(),
        vm.exhausted,
        vm.emitted_bytes,
        vm.total_bytes,
        vm.n_runs,
        vm.all_declared,
        [vm.coverage(r) for r in run_ids],
        [vm.buffered_of(r) for r in run_ids],
        [vm.remaining(r) for r in run_ids],
    )


@given(
    expected=st.one_of(st.none(), st.integers(0, 10)),
    initial=st.lists(totals, max_size=8),
    steps=st.lists(ops, max_size=80),
)
@settings(max_examples=300, deadline=None)
def test_index_matches_reference_heap(expected, initial, steps):
    new = index.VirtualMerger(expected_runs=expected)
    old = reference.VirtualMerger(expected_runs=expected)
    run_ids: list[int] = []
    for total in initial:
        for vm in (new, old):
            vm.add_run(len(run_ids), total)
        run_ids.append(len(run_ids))
    assert _state(new, run_ids) == _state(old, run_ids)
    for op in steps:
        kind = op[0]
        if kind == "add":
            for vm in (new, old):
                vm.add_run(len(run_ids), op[1])
            run_ids.append(len(run_ids))
        elif kind == "feed":
            if not run_ids:
                continue
            run_id = run_ids[op[1] % len(run_ids)]
            how, amount = op[2]
            nbytes = amount * old._runs[run_id].total if how == "frac" else amount
            if not _feed_in_domain(old, run_id, nbytes):
                continue
            for vm in (new, old):
                vm.feed(run_id, nbytes)
        elif kind == "drain":
            assert new.drain(op[1]) == old.drain(op[1])
        elif kind == "bottlenecks":
            assert new.bottlenecks(op[1]) == old.bottlenecks(op[1])
        else:
            assert new.frontier() == old.frontier()
            assert new.drainable_bytes() == old.drainable_bytes()
        assert _state(new, run_ids) == _state(old, run_ids)
    # Deliver everything and drain: both end exhausted on the same bytes.
    for vm in (new, old):
        for run_id in run_ids:
            vm.feed(run_id, old._runs[run_id].total)  # finishes every run
    assert new.drain() == old.drain()
    assert _state(new, run_ids) == _state(old, run_ids)


def test_feed_below_eps_reorders_by_exact_coverage():
    """A coverage move of at most ``_EPS`` is a tie for the heap (the run
    keeps its old place) and a real move for the index."""
    new, old = index.VirtualMerger(), reference.VirtualMerger()
    for vm in (new, old):
        vm.add_run(0, 1.0)
        vm.add_run(1, 1.0)
        vm.feed(0, 0.5)
        vm.feed(1, 0.5 + 2e-10)
        vm.feed(0, 4e-10)  # run 0 now ahead of run 1, by less than _EPS
    assert new.coverage(0) > new.coverage(1)
    assert new.bottlenecks(2) == [1, 0]
    assert old.bottlenecks(2) == [0, 1]
    # The heap's frontier is run 0's stale entry; the index's is exact.
    assert old.frontier() == 0.5
    assert new.frontier() == new.coverage(1) == 0.5 + 2e-10
