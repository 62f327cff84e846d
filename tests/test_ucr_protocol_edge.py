"""Edge-case tests: context sizing, completion board, and misc paths."""

import dataclasses

import pytest

from repro.cluster import build_cluster, westmere_cluster
from repro.cluster.presets import storage_node, westmere_node
from repro.core.protocol import MapOutputMeta
from repro.mapreduce.context import JobContext
from repro.mapreduce.job import terasort_job

GB = 1024**3


def make_ctx(node_specs=None, **overrides):
    cluster = build_cluster(node_specs or westmere_cluster(2), "ipoib")
    conf = terasort_job(1 * GB, 2, "rdma", **overrides)
    return cluster, JobContext(cluster, conf)


# ---------------------------------------------------------------------------
# Memory sizing (the Figure-5 mechanism)
# ---------------------------------------------------------------------------


def test_cache_capacity_larger_on_storage_nodes():
    """24 GB storage nodes leave far more heap for the PrefetchCache than
    12 GB compute nodes — the paper's Figure 5 commentary."""
    _c1, ctx1 = make_ctx([westmere_node("a"), westmere_node("b")])
    _c2, ctx2 = make_ctx([storage_node("a", 1), storage_node("b", 1)])
    compute_cache = ctx1.cache_capacity_bytes(_c1.nodes[0])
    storage_cache = ctx2.cache_capacity_bytes(_c2.nodes[0])
    assert storage_cache > compute_cache + 10 * GB


def test_cache_capacity_never_negative():
    tiny = dataclasses.replace(westmere_node("t"), ram_bytes=2.0 * GB)
    cluster = build_cluster([tiny, westmere_node("u")], "ipoib")
    ctx = JobContext(cluster, terasort_job(1 * GB, 2, "rdma"))
    assert ctx.cache_capacity_bytes(cluster.nodes[0]) == 0.0


def test_shuffle_buffer_follows_heap_fraction():
    _c, ctx = make_ctx()
    expected = ctx.conf.costs.task_heap_bytes * ctx.conf.shuffle_input_buffer_percent
    assert ctx.shuffle_buffer_bytes() == pytest.approx(expected)


def test_jitter_bounded_and_deterministic():
    _c, ctx = make_ctx()
    j = ctx.jitter("map-1")
    assert 1 - ctx.conf.costs.cpu_jitter <= j <= 1 + ctx.conf.costs.cpu_jitter
    _c2, ctx2 = make_ctx()
    assert ctx2.jitter("map-1") == j


def test_jitter_disabled():
    _c, ctx = make_ctx(costs=dataclasses.replace(terasort_job(1 * GB, 2, "rdma").costs, cpu_jitter=0.0))
    assert ctx.jitter("anything") == 1.0


# ---------------------------------------------------------------------------
# CompletionBoard
# ---------------------------------------------------------------------------


def _meta(map_id):
    return MapOutputMeta("j", map_id, "node00", partitions=((10.0, 1),))


def test_board_delivers_after_notify_delay():
    cluster, ctx = make_ctx()
    inbox = ctx.board.subscribe()
    received = []

    def listener(sim):
        meta = yield inbox.get()
        received.append((sim.now, meta.map_id))

    cluster.sim.process(listener(cluster.sim))
    ctx.board.publish(_meta(7))
    cluster.sim.run()
    assert received == [(ctx.conf.costs.map_completion_notify, 7)]


def test_board_late_subscriber_gets_backlog():
    cluster, ctx = make_ctx()
    ctx.board.publish(_meta(1))
    cluster.sim.run()  # delivery completes
    late = ctx.board.subscribe()
    got = []

    def listener(sim):
        meta = yield late.get()
        got.append(meta.map_id)

    cluster.sim.process(listener(cluster.sim))
    cluster.sim.run()
    assert got == [1]
    assert ctx.board.published_count == 1


def test_board_fans_out_to_all_subscribers():
    cluster, ctx = make_ctx()
    inboxes = [ctx.board.subscribe() for _ in range(3)]
    counts = []

    def listener(sim, inbox):
        meta = yield inbox.get()
        counts.append(meta.map_id)

    for inbox in inboxes:
        cluster.sim.process(listener(cluster.sim, inbox))
    ctx.board.publish(_meta(4))
    cluster.sim.run()
    assert counts == [4, 4, 4]
