"""Tests for the KWayMerger refill protocol and DataToReduceQueue."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.merge import DataToReduceQueue, KWayMerger, MergeError, merge_sorted_runs


def make_runs(spec: dict) -> dict:
    """spec: run_id -> list of int keys; returns records (key, value)."""
    return {rid: [(k, f"v{rid}") for k in keys] for rid, keys in spec.items()}


# ---------------------------------------------------------------------------
# Basic contract
# ---------------------------------------------------------------------------


def test_merge_two_runs_full():
    runs = make_runs({"a": [1, 3, 5], "b": [2, 4, 6]})
    out = merge_sorted_runs(runs)
    assert [r[0] for r in out] == [1, 2, 3, 4, 5, 6]


def test_merge_preserves_all_records():
    runs = make_runs({"a": [1, 1, 2], "b": [1, 3], "c": []})
    out = merge_sorted_runs(runs)
    assert len(out) == 5
    assert sorted(r[0] for r in out) == [1, 1, 1, 2, 3]


def test_duplicate_run_rejected():
    m = KWayMerger()
    m.add_run("a")
    with pytest.raises(MergeError):
        m.add_run("a")


def test_feed_undeclared_run_rejected():
    m = KWayMerger()
    with pytest.raises(MergeError):
        m.feed("ghost", [(1, "x")])


def test_feed_after_eof_rejected():
    m = KWayMerger()
    m.add_run("a")
    m.feed("a", [(1, "x")], eof=True)
    with pytest.raises(MergeError):
        m.feed("a", [(2, "y")])


def test_unsorted_feed_rejected():
    m = KWayMerger()
    m.add_run("a")
    with pytest.raises(MergeError, match="not sorted"):
        m.feed("a", [(3, "x"), (1, "y")])


def test_unsorted_across_packets_rejected():
    m = KWayMerger()
    m.add_run("a")
    m.feed("a", [(5, "x")])
    with pytest.raises(MergeError, match="not sorted"):
        m.feed("a", [(2, "y")])


def test_rejected_packet_leaves_merger_unchanged():
    """An unsorted packet is refused whole: nothing of it is buffered or
    counted, and the run can still be fed and merged to the end."""
    m = KWayMerger()
    m.add_run("a")
    m.add_run("b")
    m.feed("a", [(1, "x")], eof=True)
    with pytest.raises(MergeError, match="not sorted"):
        m.feed("b", [(2, "y"), (4, "y"), (3, "z")])
    assert m.records_in == 1 and m.buffered_records == 1
    assert m.starving() == ["b"] and not m.ready()
    m.feed("b", [(2, "y")])  # 2 is acceptable again: no key of the packet stuck
    m.finish_run("b")
    assert m.drain_ready() == [(1, "x"), (2, "y")]
    assert m.exhausted


def test_pop_before_all_runs_have_data_raises():
    m = KWayMerger()
    m.add_run("a")
    m.add_run("b")
    m.feed("a", [(1, "x")])
    assert not m.ready()
    with pytest.raises(MergeError):
        m.pop()


# ---------------------------------------------------------------------------
# The refill protocol (§III-B.2)
# ---------------------------------------------------------------------------


def test_extraction_stalls_exactly_when_run_buffer_empties():
    m = KWayMerger()
    for rid in ("a", "b"):
        m.add_run(rid)
    m.feed("a", [(1, "x"), (10, "x")])
    m.feed("b", [(2, "y"), (3, "y"), (4, "y")])
    out = m.drain_ready()
    # Can emit 1, 2, 3, 4 — then "a"'s buffered pairs are exhausted after
    # its head 10 remains, and b is empty (not eof) -> stall on b.
    assert [r[0] for r in out] == [1, 2, 3, 4]
    assert m.starving() == ["b"]
    m.feed("b", [(20, "y")], eof=True)
    out2 = m.drain_ready()
    assert [r[0] for r in out2] == [10]  # a's head, then stall on a
    assert m.starving() == ["a"]
    m.finish_run("a")
    assert [r[0] for r in m.drain_ready()] == [20]
    assert m.exhausted


def test_starving_is_empty_before_any_extraction_possible():
    m = KWayMerger()
    m.add_run("a")
    m.add_run("b")
    m.feed("a", [(1, "x")])
    assert m.starving() == ["b"]


def test_finish_run_unblocks_merge():
    m = KWayMerger()
    m.add_run("a")
    m.add_run("empty")
    m.feed("a", [(1, "x")], eof=True)
    assert not m.ready()
    m.finish_run("empty")
    assert m.ready()
    assert [r[0] for r in m.drain_ready()] == [1]


def test_records_counters():
    runs = make_runs({"a": [1, 2], "b": [3]})
    m = KWayMerger()
    for rid, recs in runs.items():
        m.add_run(rid)
        m.feed(rid, recs, eof=True)
    m.drain_ready()
    assert m.records_in == 3
    assert m.records_out == 3


def test_data_to_reduce_queue_fifo():
    q = DataToReduceQueue()
    q.push(1)
    q.push(2)
    assert len(q) == 2 and bool(q)
    assert q.pop() == 1
    assert q.drain() == [2]
    assert not q and q.total_enqueued == 2


def test_drain_ready_into_sink():
    q = DataToReduceQueue()
    runs = make_runs({"a": [1, 3], "b": [2]})
    m = KWayMerger()
    for rid, recs in runs.items():
        m.add_run(rid)
        m.feed(rid, recs, eof=True)
    m.drain_ready(sink=q)
    assert [r[0] for r in q.drain()] == [1, 2, 3]


# ---------------------------------------------------------------------------
# Property-based: packetized merge == full sort, for any packetization
# ---------------------------------------------------------------------------


@given(
    data=st.lists(
        st.lists(st.integers(min_value=0, max_value=1000), min_size=0, max_size=50),
        min_size=1,
        max_size=8,
    ),
    packet=st.integers(min_value=1, max_value=7),
)
@settings(max_examples=150, deadline=None)
def test_packetized_merge_equals_sorted_concat(data, packet):
    """Feeding runs packet-by-packet through the refill protocol yields the
    globally sorted multiset, regardless of packet size."""
    runs = {i: sorted(keys) for i, keys in enumerate(data)}
    m = KWayMerger(key=lambda r: r)
    packets = {}
    for rid, keys in runs.items():
        m.add_run(rid)
        chunks = [keys[j : j + packet] for j in range(0, len(keys), packet)] or [[]]
        packets[rid] = chunks
    index = {rid: 0 for rid in runs}

    def feed_next(rid):
        i = index[rid]
        chunks = packets[rid]
        m.feed(rid, chunks[i], eof=(i == len(chunks) - 1))
        index[rid] = i + 1

    for rid in runs:
        feed_next(rid)
    out = []
    stuck = 0
    while not m.exhausted:
        drained = m.drain_ready()
        out.extend(drained)
        for rid in m.starving():
            feed_next(rid)
        stuck = stuck + 1 if not drained else 0
        assert stuck < 10_000, "merge made no progress"
    expected = sorted(k for keys in runs.values() for k in keys)
    assert out == expected


@given(
    data=st.lists(
        st.lists(st.binary(min_size=1, max_size=6), min_size=1, max_size=20),
        min_size=1,
        max_size=5,
    )
)
@settings(max_examples=75, deadline=None)
def test_merge_bytes_keys(data):
    """Byte keys (the real record type) merge correctly."""
    runs = {i: [(k, b"") for k in sorted(keys)] for i, keys in enumerate(data)}
    out = merge_sorted_runs(runs)
    assert [r[0] for r in out] == sorted(k for keys in data for k in keys)


@given(
    keys=st.lists(st.integers(), min_size=0, max_size=100),
    n_runs=st.integers(min_value=1, max_value=6),
)
@settings(max_examples=100, deadline=None)
def test_merge_is_permutation_invariant(keys, n_runs):
    """However records are partitioned into runs, the merge output is the
    same sorted sequence."""
    runs = {i: sorted(keys[i::n_runs]) for i in range(n_runs)}
    out = merge_sorted_runs(runs, key=lambda r: r)
    assert out == sorted(keys)
