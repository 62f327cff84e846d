"""Tests for cluster presets, node construction, and the builder."""

import dataclasses

import pytest

from repro.cluster import (
    Cluster,
    ClusterSpec,
    build_cluster,
    ssd_node,
    storage_node,
    westmere_cluster,
    westmere_node,
)
from repro.cluster.node import GB
from repro.network.transports import IPOIB
from repro.storage.disk import HDD_1TB, HDD_160GB, SSD_SATA


def test_westmere_node_matches_testbed():
    """§IV-A: dual quad-core 2.67 GHz, 12 GB RAM, 160 GB HDD."""
    spec = westmere_node("n")
    assert spec.cores == 8
    assert spec.ram_bytes == 12 * GB
    assert spec.disks == (HDD_160GB,)


def test_storage_node_matches_testbed():
    """§IV-A: storage nodes have 24 GB RAM and two 1 TB HDDs."""
    spec = storage_node("s")
    assert spec.ram_bytes == 24 * GB
    assert spec.disks == (HDD_1TB, HDD_1TB)


def test_ssd_node():
    spec = ssd_node("s")
    assert spec.disks == (SSD_SATA,)
    assert spec.ram_bytes == 24 * GB


def test_westmere_cluster_kinds():
    nodes = westmere_cluster(3, n_disks=2, node_kind="compute")
    assert len(nodes) == 3
    assert all(len(n.disks) == 2 for n in nodes)
    assert len({n.name for n in nodes}) == 3
    with pytest.raises(KeyError):
        westmere_cluster(2, node_kind="quantum")
    with pytest.raises(ValueError):
        westmere_cluster(0)
    with pytest.raises(ValueError):
        westmere_node("n", n_disks=0)


def test_usable_ram_subtracts_os_reserve():
    spec = westmere_node("n")
    cluster = build_cluster([spec], "ipoib")
    node = cluster.nodes[0]
    assert node.usable_ram_bytes == spec.ram_bytes - spec.os_reserve_bytes


def test_cluster_spec_rejects_duplicate_names():
    with pytest.raises(ValueError):
        ClusterSpec(
            nodes=(westmere_node("same"), westmere_node("same")),
            transport=IPOIB,
        )


def test_build_cluster_wires_everything():
    cluster = build_cluster(westmere_cluster(2), "ipoib")
    assert isinstance(cluster, Cluster)
    assert cluster.n_nodes == 2
    node = cluster.node("node00")
    assert node.cpu.capacity == 8
    assert node.nic.tx.capacity == IPOIB.line_rate
    assert len(node.fs.disks) == 1


def test_node_compute_holds_core():
    cluster = build_cluster([westmere_node("n", 1)], "ipoib")
    node = cluster.nodes[0]

    def work(sim):
        yield from node.compute(2.0)

    cluster.sim.run(cluster.sim.process(work(cluster.sim)))
    assert cluster.sim.now == pytest.approx(2.0)


def test_node_compute_contention():
    """More work than cores serialises."""
    spec = dataclasses.replace(westmere_node("n"), cores=2)
    cluster = build_cluster([spec], "ipoib")
    node = cluster.nodes[0]

    procs = [
        cluster.sim.process(node.compute(1.0)) for _ in range(4)
    ]
    cluster.sim.run(cluster.sim.all_of(procs))
    assert cluster.sim.now == pytest.approx(2.0)


def test_with_disks_override():
    spec = westmere_node("n").with_disks((SSD_SATA,))
    assert spec.disks == (SSD_SATA,)
