"""Component-level tests of the shuffle engines' TaskTracker halves and
the reducer's fetch scheduler.

These build a minimal job context and drive a single provider (or
consumer) directly — no full job — to pin down the request/response,
cache, prefetcher and run-picking semantics the integration tests rely on.
"""

import pytest

from repro.cluster import build_cluster, westmere_cluster
from repro.core.protocol import (
    ConnectRequest,
    DataRequest,
    DataResponse,
    MapOutputMeta,
)
from repro.mapreduce.context import JobContext
from repro.mapreduce.job import terasort_job
from repro.core.virtualmerge import VirtualMerger
from repro.faults import FaultPlan, LinkFlap
from repro.network.transports import IB_VERBS
from repro.mapreduce.shuffle.hadoopa import HadoopAConsumer, HadoopAProvider
from repro.mapreduce.shuffle.http import HttpShuffleProvider
from repro.mapreduce.shuffle.levitated import FetchState
from repro.mapreduce.shuffle.rdma import RdmaShuffleConsumer, RdmaShuffleProvider
from repro.mapreduce.tasktracker import TaskTracker
from repro.sim.core import Event

GB = 1024**3
MB = 1024 * 1024


def make_ctx(engine="rdma", **overrides):
    cluster = build_cluster(westmere_cluster(2), "ipoib")
    conf = terasort_job(1 * GB, 2, engine, **overrides)
    ctx = JobContext(cluster, conf)
    return cluster, ctx


def publish_output(ctx, tt, map_id=0, total=64 * MB):
    """Register a fake finished map output on the tracker."""
    n_red = ctx.conf.n_reduces
    per = total / n_red
    pairs = int(per / ctx.conf.record_model.avg_pair_bytes)
    meta = MapOutputMeta(
        job_id=ctx.conf.job_id,
        map_id=map_id,
        host=tt.name,
        partitions=tuple((per, pairs) for _ in range(n_red)),
    )
    f = tt.node.fs.create(f"mapout/m{map_id}")
    f.size = total
    tt.map_outputs[map_id] = (meta, f)
    if tt.provider is not None:
        tt.provider.on_map_output(meta, f)
    return meta, f


# ---------------------------------------------------------------------------
# Protocol messages
# ---------------------------------------------------------------------------


def test_protocol_message_sizes():
    assert ConnectRequest("j", 0, "n:1").serialized_size() == 64
    assert DataRequest("j", 1, 2, 0.0, 1024.0).serialized_size() == 96
    assert DataResponse("j", 1, 2, 10, 1024.0, eof=True).serialized_size() == 96


def test_map_output_meta_accessors():
    meta = MapOutputMeta("j", 3, "node00", partitions=((100.0, 2), (50.0, 1)))
    assert meta.segment(0) == (100.0, 2)
    assert meta.segment(1) == (50.0, 1)
    assert meta.total_bytes == 150.0
    assert meta.total_pairs == 3


# ---------------------------------------------------------------------------
# OSU-IB provider: DataRequestQueue + responder + cache
# ---------------------------------------------------------------------------


def _fetch(ctx, provider, requester, req):
    """Drive a request through the provider; returns bytes served."""

    def go(sim):
        if not ctx.ucr.is_connected(requester, provider.tt.node):
            yield from ctx.ucr.connect(requester, provider.tt.node)
            yield from ctx.ucr.connect(provider.tt.node, requester)
        done = Event(sim)
        provider.submit(req, done, requester)
        got = yield done
        return got

    return ctx.sim.run(ctx.sim.process(go(ctx.sim)))


def test_rdma_responder_serves_wave_and_hits_cache():
    cluster, ctx = make_ctx("rdma")
    tt = TaskTracker(ctx, cluster.nodes[0])
    tt.provider = provider = RdmaShuffleProvider(ctx, tt)
    ctx.trackers[tt.name] = tt
    publish_output(ctx, tt)
    cluster.sim.run(until=cluster.sim.now + 1.0)  # let the prefetcher copy

    req = DataRequest(ctx.conf.job_id, 0, 0, offset=0.0, max_bytes=1 * MB)
    got = _fetch(ctx, provider, cluster.nodes[1], req)
    assert got == 1 * MB
    assert ctx.counters.get("cache.hits", 0) == 1
    assert ctx.counters.get("shuffle.tt_disk_read_bytes", 0) == 0


def test_rdma_responder_miss_reads_disk_and_demands():
    cluster, ctx = make_ctx("rdma")
    tt = TaskTracker(ctx, cluster.nodes[0])
    tt.provider = provider = RdmaShuffleProvider(ctx, tt)
    ctx.trackers[tt.name] = tt
    meta, f = publish_output(ctx, tt)
    # Do NOT give the prefetcher time: first request must miss.
    provider.cache.evict((0, 0))
    req = DataRequest(ctx.conf.job_id, 0, 0, offset=0.0, max_bytes=1 * MB)
    got = _fetch(ctx, provider, cluster.nodes[1], req)
    assert got == 1 * MB
    assert ctx.counters.get("shuffle.tt_disk_read_bytes", 0) >= 1 * MB


def test_rdma_short_read_at_segment_end():
    cluster, ctx = make_ctx("rdma")
    tt = TaskTracker(ctx, cluster.nodes[0])
    tt.provider = provider = RdmaShuffleProvider(ctx, tt)
    ctx.trackers[tt.name] = tt
    meta, _ = publish_output(ctx, tt)
    seg_bytes, _ = meta.segment(0)
    req = DataRequest(
        ctx.conf.job_id, 0, 0, offset=seg_bytes - 100.0, max_bytes=1 * MB
    )
    got = _fetch(ctx, provider, cluster.nodes[1], req)
    assert got == pytest.approx(100.0)


def test_rdma_eof_evicts_cached_segment():
    cluster, ctx = make_ctx("rdma")
    tt = TaskTracker(ctx, cluster.nodes[0])
    tt.provider = provider = RdmaShuffleProvider(ctx, tt)
    ctx.trackers[tt.name] = tt
    meta, _ = publish_output(ctx, tt)
    cluster.sim.run(until=cluster.sim.now + 1.0)
    assert (0, 0) in provider.cache
    seg_bytes, _ = meta.segment(0)
    req = DataRequest(ctx.conf.job_id, 0, 0, offset=0.0, max_bytes=seg_bytes)
    _fetch(ctx, provider, cluster.nodes[1], req)
    assert (0, 0) not in provider.cache  # sole consumer done -> freed


def test_rdma_failed_cached_send_releases_its_pin():
    """A cache hit pins its segment for the send; a send that fails must
    unpin it, or the entry can never be evicted, shed or invalidated.

    The pair's endpoint was torn down, so the responder re-connects after
    the hit; a link flap starting mid-connect fails the send.
    """
    setup = IB_VERBS.setup_latency + 2 * IB_VERBS.latency
    flap = LinkFlap(at=1.0 + setup / 2, node="node01", duration=1.0)
    cluster, ctx = make_ctx("rdma", fault_plan=FaultPlan(flaps=(flap,), name="flap"))
    tt = TaskTracker(ctx, cluster.nodes[0])
    tt.provider = provider = RdmaShuffleProvider(ctx, tt)
    ctx.trackers[tt.name] = tt
    publish_output(ctx, tt)
    cluster.sim.run(until=1.0)  # let the prefetcher copy
    assert (0, 0) in provider.cache
    requester = cluster.nodes[1]
    assert not ctx.ucr.is_connected(tt.node, requester)
    req = DataRequest(ctx.conf.job_id, 0, 0, offset=0.0, max_bytes=1 * MB)
    done = Event(cluster.sim)
    provider.submit(req, done, requester)
    cluster.sim.run(until=1.0 + 2 * setup)
    assert done.triggered and not done.ok
    assert done.value.kind == "link"
    assert ctx.counters.get("cache.hits", 0) == 1
    assert provider.cache._entries[(0, 0)].pinned == 0
    assert provider.cache.evict((0, 0))


def test_rdma_caching_disabled_has_no_prefetcher():
    cluster, ctx = make_ctx("rdma", caching_enabled=False)
    tt = TaskTracker(ctx, cluster.nodes[0])
    provider = RdmaShuffleProvider(ctx, tt)
    assert provider.prefetcher is None
    assert provider.cache.capacity == 0.0


def test_request_beyond_segment_returns_zero():
    cluster, ctx = make_ctx("rdma")
    tt = TaskTracker(ctx, cluster.nodes[0])
    tt.provider = provider = RdmaShuffleProvider(ctx, tt)
    ctx.trackers[tt.name] = tt
    meta, _ = publish_output(ctx, tt)
    seg_bytes, _ = meta.segment(0)
    req = DataRequest(ctx.conf.job_id, 0, 0, offset=seg_bytes, max_bytes=1 * MB)
    got = _fetch(ctx, provider, cluster.nodes[1], req)
    assert got == 0.0


# ---------------------------------------------------------------------------
# Hadoop-A provider: disk on every request
# ---------------------------------------------------------------------------


def test_hadoopa_provider_always_reads_disk():
    cluster, ctx = make_ctx("hadoopa")
    tt = TaskTracker(ctx, cluster.nodes[0])
    tt.provider = provider = HadoopAProvider(ctx, tt)
    ctx.trackers[tt.name] = tt
    publish_output(ctx, tt)
    cluster.sim.run(until=cluster.sim.now + 1.0)
    for _ in range(2):  # repeat fetch of the same wave: no caching ever
        req = DataRequest(ctx.conf.job_id, 0, 0, offset=0.0, max_bytes=1 * MB)
        _fetch(ctx, provider, cluster.nodes[1], req)
    assert ctx.counters.get("shuffle.tt_disk_read_bytes", 0) == 2 * MB
    assert ctx.counters.get("cache.hits", 0) == 0


# ---------------------------------------------------------------------------
# HTTP provider: servlet pool + streamed response
# ---------------------------------------------------------------------------


def test_http_provider_serves_whole_segment():
    cluster, ctx = make_ctx("http")
    tt = TaskTracker(ctx, cluster.nodes[0])
    tt.provider = provider = HttpShuffleProvider(ctx, tt)
    ctx.trackers[tt.name] = tt
    meta, _ = publish_output(ctx, tt)
    seg_bytes, _ = meta.segment(3)

    def go(sim):
        got = yield from provider.serve(cluster.nodes[1], 0, 3)
        return got

    got = cluster.sim.run(cluster.sim.process(go(cluster.sim)))
    assert got == pytest.approx(seg_bytes)
    assert provider.bytes_served == pytest.approx(seg_bytes)
    assert ctx.counters.get("shuffle.tt_disk_read_bytes") == pytest.approx(seg_bytes)


def test_http_servlet_pool_bounds_concurrency():
    """With one servlet thread, a second concurrent request queues."""
    cluster, ctx = make_ctx("http", http_server_threads=1)
    tt = TaskTracker(ctx, cluster.nodes[0])
    tt.provider = provider = HttpShuffleProvider(ctx, tt)
    ctx.trackers[tt.name] = tt
    publish_output(ctx, tt)
    assert provider.servlets.capacity == 1

    def one(sim, rid):
        yield from provider.serve(cluster.nodes[1], 0, rid)

    procs = [cluster.sim.process(one(cluster.sim, r)) for r in (0, 1)]
    saw_queueing = False
    while not all(p.processed for p in procs):
        cluster.sim.step()
        if provider.servlets.queue_len > 0:
            saw_queueing = True
    assert saw_queueing


# ---------------------------------------------------------------------------
# Fetch scheduling (reducer side)
# ---------------------------------------------------------------------------


def _consumer_with_runs(engine, delivered):
    """A consumer whose merge knows one 16 MB run per entry of
    ``delivered`` (bytes already fed), every run queued for work."""
    cluster, ctx = make_ctx(engine)
    tt = TaskTracker(ctx, cluster.nodes[0])
    consumer_cls = {"hadoopa": HadoopAConsumer, "rdma": RdmaShuffleConsumer}[engine]
    consumer = consumer_cls(ctx, tt, reduce_id=0)
    consumer.vm = VirtualMerger()  # every run declared
    for map_id, got in enumerate(delivered):
        meta, _file = publish_output(ctx, tt, map_id, total=16 * MB * ctx.conf.n_reduces)
        seg_bytes, seg_pairs = meta.segment(0)
        state = FetchState(meta=meta, seg_bytes=seg_bytes, seg_pairs=seg_pairs)
        state.offset = got
        consumer.states[map_id] = state
        consumer.vm.add_run(map_id, seg_bytes)
        consumer.vm.feed(map_id, got)
        consumer._enqueue(state)
    return consumer


def _eager_bottleneck(consumer):
    """The bottleneck pick as a full ``bottlenecks(k)`` list would make it."""
    for run_id in consumer.vm.bottlenecks(2 * consumer.fetch_threads()):
        state = consumer.states[run_id]
        if not state.in_flight and not state.lost and consumer._has_work(state):
            return state
    return None


def _descending_coverage(n_runs):
    """Delivered bytes per run, falling with the run id (all far below a
    read-ahead target): the bottleneck order is the reverse of the work
    queue's."""
    return [(n_runs - 1 - i) * 1024.0 for i in range(n_runs)]


@pytest.mark.parametrize("engine", ["hadoopa", "rdma"])
@pytest.mark.parametrize(
    "in_flight, lost",
    [((), ()), ((23,), ()), ((23, 22, 21), (20,)), ((22, 18, 16), (23, 21)), ((), (23, 19, 17))],
)
def test_pick_walk_matches_eager_bottleneck_list(engine, in_flight, lost):
    consumer = _consumer_with_runs(engine, _descending_coverage(24))
    for map_id in in_flight:
        consumer.states[map_id].in_flight = True
    for map_id in lost:
        consumer.states[map_id].lost = True
    expected = _eager_bottleneck(consumer)
    assert expected is not None
    assert consumer._pick() is expected


@pytest.mark.parametrize("engine", ["hadoopa", "rdma"])
def test_pick_falls_through_to_work_queue_when_bottlenecks_busy(engine):
    consumer = _consumer_with_runs(engine, _descending_coverage(24))
    k = 2 * consumer.fetch_threads()
    for map_id in range(24 - k, 24):  # the k worst bottlenecks
        consumer.states[map_id].in_flight = True
    assert _eager_bottleneck(consumer) is None
    # Not the next bottleneck (run 23 - k): the head of the work queue.
    assert consumer._pick() is consumer.states[0]
