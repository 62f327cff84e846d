"""The inline-refill merger against the frozen record-at-a-time merger.

``repro.core.merge`` runs the refill loop inline: one ``heapreplace`` when
the popped run has a buffered successor, one batch hand-off to the
DataToReduceQueue.  ``tests/reference_merge.py`` is the earlier merger that
popped and pushed one record at a time.  Driven with the same packets,
both must emit the same records in the same order and report the same
state after every step: which runs starve (this decides the order of
packet requests, and with it the PrefetchCache statistics), the record
counters and the queue's ``total_enqueued`` and ``high_water``.

Keys come from a small range so ties within and across runs are common;
values tag each record with its run and position, so a reordering of
equal keys shows.
"""

import heapq

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.merge as inline
import tests.reference_merge as reference


class Harness:
    """One merger, its optional sink and its runs' remaining packets."""

    def __init__(self, module, runs, use_sink):
        self.merger = module.KWayMerger()
        self.sink = module.DataToReduceQueue() if use_sink else None
        self.pending = {rid: list(packets) for rid, (packets, _eof) in runs.items()}
        self.eof_on_last = {rid: eof for rid, (_packets, eof) in runs.items()}
        for rid in runs:
            self.merger.add_run(rid)

    def refill(self, rid):
        """Feed ``rid``'s next packet, or finish it when none is left."""
        packets = self.pending[rid]
        if not packets:
            self.merger.finish_run(rid)
            return
        packet = packets.pop(0)
        self.merger.feed(rid, packet, eof=not packets and self.eof_on_last[rid])

    def has_more(self, rid):
        return bool(self.pending[rid]) or not self.merger._runs[rid].eof

    def state(self):
        m, q = self.merger, self.sink
        return (
            m.starving(),
            m.ready(),
            m.exhausted,
            m.records_in,
            m.records_out,
            m.buffered_records,
            None if q is None else (len(q), q.total_enqueued, q.high_water),
        )


@st.composite
def run_specs(draw):
    """run_id -> (packets, eof rides the last packet)."""
    n_runs = draw(st.integers(min_value=1, max_value=6))
    runs = {}
    for rid in range(n_runs):
        keys = sorted(draw(st.lists(st.integers(0, 6), max_size=25)))
        records = [(k, (rid, i)) for i, k in enumerate(keys)]
        packets, i = [], 0
        while i < len(records):
            cut = draw(st.integers(min_value=1, max_value=6))
            packets.append(records[i : i + cut])
            i += cut
        if draw(st.booleans()):
            packets.append([])  # an empty packet, possibly carrying eof
        runs[rid] = (packets, draw(st.booleans()))
    return runs


@given(runs=run_specs(), use_sink=st.booleans(), data=st.data())
@settings(max_examples=300, deadline=None)
def test_inline_merger_matches_reference(runs, use_sink, data):
    a = Harness(inline, runs, use_sink)
    b = Harness(reference, runs, use_sink)
    for rid in runs:
        a.refill(rid)
        b.refill(rid)
    assert a.state() == b.state()
    for _step in range(1_000):
        if a.merger.exhausted:
            break
        action = data.draw(st.sampled_from(("drain", "drain", "pop", "ahead", "consume")))
        if action == "drain":
            cap = data.draw(st.none() | st.integers(min_value=0, max_value=5))
            assert a.merger.drain_ready(a.sink, cap) == b.merger.drain_ready(b.sink, cap)
        elif action == "pop" and b.merger.ready():
            assert a.merger.pop() == b.merger.pop()
        elif action == "ahead":
            # Feed a run that is not starving (its head is still queued).
            live = [rid for rid in runs if a.has_more(rid)]
            if live:
                rid = data.draw(st.sampled_from(live))
                a.refill(rid)
                b.refill(rid)
        elif action == "consume" and a.sink is not None:
            assert a.sink.drain() == b.sink.drain()
        assert a.state() == b.state()
        starving = a.merger.starving()
        if starving and not a.merger.ready():
            chosen = data.draw(st.lists(st.sampled_from(starving), min_size=1, unique=True))
            for rid in chosen:
                a.refill(rid)
                b.refill(rid)
            assert a.state() == b.state()
    assert a.merger.exhausted and b.merger.exhausted
    if a.sink is not None:
        assert a.sink.drain() == b.sink.drain()


def test_equal_keys_follow_head_order_not_run_order():
    """``seq`` is handed out when a record becomes its run's head, so on
    equal keys the earlier head wins, whatever the run index."""
    runs = {"a": [(1, "a1"), (2, "a2")], "b": [(0, "b0"), (2, "b2")]}
    expected = ["b0", "a1", "b2", "a2"]
    for module in (inline, reference):
        m = module.KWayMerger()
        for rid, records in runs.items():
            m.add_run(rid)
            m.feed(rid, records, eof=True)
        assert [v for _k, v in m.drain_ready()] == expected
    # heapq.merge breaks the tie by run order instead: a different stream.
    merged = [v for _k, v in heapq.merge(*runs.values(), key=lambda r: r[0])]
    assert merged == ["b0", "a1", "a2", "b2"]

