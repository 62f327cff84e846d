"""Tests for transport presets, the Transport send path, UCR, and Fabric."""

import dataclasses

import pytest

from repro.cluster import build_cluster, westmere_cluster
from repro.network.transports import (
    GIGE,
    IB_VERBS,
    IPOIB,
    TENGIGE_TOE,
    transport_by_name,
)
from repro.ucr.runtime import UCRRuntime

MB = 1e6


def test_preset_lookup_and_aliases():
    assert transport_by_name("IPoIB") is IPOIB
    assert transport_by_name("rdma") is IB_VERBS
    assert transport_by_name("verbs") is IB_VERBS
    assert transport_by_name("10gige") is TENGIGE_TOE
    assert transport_by_name("1GigE") is GIGE
    with pytest.raises(KeyError):
        transport_by_name("carrier-pigeon")


def test_preset_physics_sanity():
    # Effective throughput never exceeds line rate.
    for spec in (GIGE, TENGIGE_TOE, IPOIB, IB_VERBS):
        assert spec.effective_stream_bw <= spec.line_rate
        assert spec.latency > 0
    # Verbs is the only OS-bypass transport and the fastest/lowest-latency.
    assert IB_VERBS.os_bypass and not IPOIB.os_bypass
    assert IB_VERBS.effective_stream_bw > IPOIB.effective_stream_bw
    assert IB_VERBS.latency < IPOIB.latency < GIGE.latency
    assert IB_VERBS.cpu_recv_per_byte == 0.0
    assert IPOIB.cpu_recv_per_byte > 0.0


def test_spec_scaled_override():
    faster = dataclasses.replace(IPOIB, effective_stream_bw=2000 * MB)
    assert faster.effective_stream_bw == 2000 * MB
    assert faster.latency == IPOIB.latency
    assert IPOIB.effective_stream_bw == 1250 * MB  # original untouched


def test_wire_bytes_includes_framing():
    assert GIGE.wire_bytes(1000) == pytest.approx(1055.0)


def _one_transfer(transport_name: str, nbytes: float) -> float:
    cluster = build_cluster(westmere_cluster(2), transport_name)
    src, dst = cluster.nodes

    def send(sim):
        yield from cluster.fabric.send(src, dst, nbytes)

    cluster.sim.run(cluster.sim.process(send(cluster.sim)))
    return cluster.sim.now


def test_transfer_time_ordering_across_transports():
    times = {name: _one_transfer(name, 100 * MB) for name in
             ("gige", "tengige", "ipoib")}
    assert times["gige"] > times["tengige"] > 0
    assert times["gige"] > times["ipoib"]


def test_transfer_time_scales_with_size():
    t1 = _one_transfer("ipoib", 10 * MB)
    t2 = _one_transfer("ipoib", 100 * MB)
    assert t2 > t1 * 5


def test_gige_transfer_close_to_analytic():
    t = _one_transfer("gige", 112 * MB)  # 1 second at effective stream bw
    assert t == pytest.approx(1.0 * 1.055, rel=0.05)  # + framing + latency


# ---------------------------------------------------------------------------
# UCR
# ---------------------------------------------------------------------------


def test_ucr_requires_connect_before_endpoint():
    cluster = build_cluster(westmere_cluster(2), "ipoib")
    ucr = UCRRuntime(cluster.sim, cluster.fabric.flows)
    with pytest.raises(KeyError):
        ucr.endpoint(cluster.nodes[0], cluster.nodes[1])


def test_ucr_connect_is_bidirectional_and_idempotent():
    cluster = build_cluster(westmere_cluster(2), "ipoib")
    ucr = UCRRuntime(cluster.sim, cluster.fabric.flows)
    a, b = cluster.nodes

    def conn(sim):
        yield from ucr.connect(a, b)
        yield from ucr.connect(a, b)  # no-op

    cluster.sim.run(cluster.sim.process(conn(cluster.sim)))
    assert ucr.is_connected(a, b) and ucr.is_connected(b, a)
    assert ucr.connections_established == 1


def test_ucr_send_counts_traffic():
    cluster = build_cluster(westmere_cluster(2), "ipoib")
    ucr = UCRRuntime(cluster.sim, cluster.fabric.flows)
    a, b = cluster.nodes

    def go(sim):
        ep = yield from ucr.connect(a, b)
        yield from ep.send(10 * MB, messages=4)

    cluster.sim.run(cluster.sim.process(go(cluster.sim)))
    ep = ucr.endpoint(a, b)
    assert ep.bytes_sent == 10 * MB
    assert ep.messages_sent == 4


def test_ucr_verbs_faster_than_fabric_socket():
    """The same payload moves faster over UCR verbs than over IPoIB."""
    cluster = build_cluster(westmere_cluster(2), "ipoib")
    ucr = UCRRuntime(cluster.sim, cluster.fabric.flows)
    a, b = cluster.nodes
    marks = {}

    def go(sim):
        ep = yield from ucr.connect(a, b)
        t0 = sim.now
        yield from ep.send(200 * MB)
        marks["verbs"] = sim.now - t0
        t1 = sim.now
        yield from cluster.fabric.send(a, b, 200 * MB)
        marks["socket"] = sim.now - t1

    cluster.sim.run(cluster.sim.process(go(cluster.sim)))
    assert marks["verbs"] < marks["socket"] / 2


def test_ucr_reverse_endpoint():
    cluster = build_cluster(westmere_cluster(2), "ipoib")
    ucr = UCRRuntime(cluster.sim, cluster.fabric.flows)
    a, b = cluster.nodes

    def go(sim):
        ep = yield from ucr.connect(a, b)
        back = ep.reverse()
        assert back.local is b and back.remote is a
        yield sim.timeout(0)

    cluster.sim.run(cluster.sim.process(go(cluster.sim)))


# ---------------------------------------------------------------------------
# Fabric
# ---------------------------------------------------------------------------


def test_fabric_attach_idempotent():
    cluster = build_cluster(westmere_cluster(2), "ipoib")
    nic1 = cluster.fabric.attach("node00")
    nic2 = cluster.fabric.attach("node00")
    assert nic1 is nic2


def test_fabric_nic_line_rate_matches_transport():
    cluster = build_cluster(westmere_cluster(2), "gige")
    assert cluster.nodes[0].nic.tx.capacity == GIGE.line_rate


def test_concurrent_streams_share_nic():
    """Two concurrent sends from one node share its tx link fairly."""
    cluster = build_cluster(westmere_cluster(3), "gige")
    src, d1, d2 = cluster.nodes

    def send(sim, dst):
        yield from cluster.fabric.send(src, dst, 56 * MB)

    p1 = cluster.sim.process(send(cluster.sim, d1))
    p2 = cluster.sim.process(send(cluster.sim, d2))
    cluster.sim.run(cluster.sim.all_of([p1, p2]))
    solo = _one_transfer("gige", 56 * MB)
    assert cluster.sim.now > solo * 1.6  # ~2x slower when sharing
