"""Micro-benchmarks of the core data structures and the DES kernel.

These quantify the building blocks the figure benchmarks compose:
merge throughput (one all-eof drain, and the reducer's packetized refill
loop), the aggregate merger's bottleneck query, packetizer throughput,
cache operation rate, DES event rate (positive timeouts and zero-delay
hand-offs), and flow re-rating cost — useful when profiling model
changes.
"""

import numpy as np

from repro.core.cache import PrefetchCache
from repro.core.merge import DataToReduceQueue, KWayMerger
from repro.core.packets import FixedPairsPacketizer, SizeAwarePacketizer
from repro.core.virtualmerge import VirtualMerger
from repro.network.flows import FlowNetwork, Link
from repro.sim import Simulator, Store
from repro.workloads import TERASORT_RECORDS


def _sorted_runs(n_runs: int, n_records: int) -> dict:
    rng = np.random.default_rng(0)
    return {
        i: sorted(
            TERASORT_RECORDS.generate(rng, n_records), key=lambda r: r[0]
        )
        for i in range(n_runs)
    }


def test_kway_merge_throughput(benchmark):
    runs = _sorted_runs(16, 500)

    def merge():
        m = KWayMerger()
        for rid, recs in runs.items():
            m.add_run(rid)
            m.feed(rid, recs, eof=True)
        out = m.drain_ready()
        assert len(out) == 16 * 500
        return out

    benchmark(merge)


def test_kway_refill_throughput(benchmark):
    """The reducer's refill protocol: 16 runs fed in 50-record packets,
    drained into a DataToReduceQueue in batches capped at 256 records,
    every starving run refilled with its next packet (record-only)."""
    runs = _sorted_runs(16, 500)
    packets = {
        rid: [recs[i : i + 50] for i in range(0, len(recs), 50)]
        for rid, recs in runs.items()
    }

    def merge():
        m, q = KWayMerger(), DataToReduceQueue()
        fed = dict.fromkeys(packets, 0)

        def refill(rid):
            i = fed[rid]
            fed[rid] = i + 1
            m.feed(rid, packets[rid][i], eof=i + 1 == len(packets[rid]))

        for rid in packets:
            m.add_run(rid)
            refill(rid)
        refills = 0
        while not m.exhausted:
            m.drain_ready(q, max_records=256)
            q.drain()
            for rid in m.starving():
                refill(rid)
                refills += 1
        assert q.total_enqueued == 16 * 500
        assert refills == 16 * (10 - 1)
        return refills

    benchmark(merge)


def test_virtual_merger_throughput(benchmark):
    def run():
        vm = VirtualMerger(expected_runs=400)
        for i in range(400):
            vm.add_run(i, 8e6)
        total = 0.0
        while not vm.exhausted:
            for rid in vm.bottlenecks(8):
                vm.feed(rid, 1e6)
            total += vm.drain()
        assert total > 0
        return total

    benchmark(run)


def test_virtual_merger_bottleneck_query(benchmark):
    """The levitated fetch scheduler's query at the shape of a 40 GB
    TeraSort reducer: 320 runs, the 8 lowest-coverage ones asked for, one
    128 KB feed to the first of them per query (record-only)."""

    def run():
        vm = VirtualMerger(expected_runs=320)
        for i in range(320):
            vm.add_run(i, 8 * 1024 * 1024)
        queries = 0
        while runs := vm.bottlenecks(8):
            vm.feed(runs[0], 128 * 1024)
            queries += 1
        assert queries == 320 * 64
        return queries

    benchmark(run)


def test_size_aware_packetizer_throughput(benchmark):
    rng = np.random.default_rng(1)
    records = TERASORT_RECORDS.generate(rng, 20_000)
    p = SizeAwarePacketizer(64 * 1024)
    benchmark(lambda: sum(len(pkt) for pkt in p.packets(records)))


def test_fixed_pairs_packetizer_throughput(benchmark):
    rng = np.random.default_rng(1)
    records = TERASORT_RECORDS.generate(rng, 20_000)
    p = FixedPairsPacketizer(1310)
    benchmark(lambda: sum(len(pkt) for pkt in p.packets(records)))


def test_prefetch_cache_ops(benchmark):
    def churn():
        c = PrefetchCache(1 << 20)
        for i in range(2000):
            c.insert(i, 4096)
            c.hit(i % 500)
        return c.stats.lookups

    benchmark(churn)


def test_des_event_rate(benchmark):
    """Raw kernel throughput: ping-pong processes through a timeout chain."""

    def run():
        sim = Simulator()

        def ticker(sim, n):
            for _ in range(n):
                yield sim.timeout(1.0)

        for _ in range(10):
            sim.process(ticker(sim, 2000))
        sim.run()
        return sim.event_count

    events = benchmark(run)
    assert events >= 20_000


def test_des_zero_delay_handoff_rate(benchmark):
    """Kernel throughput on zero-delay hand-offs, which dominate the
    simulated jobs: a Store put/get ping-pong plus a ``succeed`` chain,
    all at one simulated instant (record-only)."""

    def run():
        sim = Simulator()
        ping, pong = Store(sim), Store(sim)

        def server(n):
            for _ in range(n):
                item = yield ping.get()
                pong.put(item)

        def client(n):
            for i in range(n):
                ping.put(i)
                yield pong.get()

        def chain(n):
            for i in range(n):
                yield sim.event().succeed(i)

        sim.process(server(5000))
        sim.process(client(5000))
        sim.process(chain(10_000))
        sim.run()
        assert sim.now == 0.0
        return sim.event_count

    events = benchmark(run)
    assert events >= 30_000


def test_flow_network_rerate_rate(benchmark):
    """Cost of progressive re-rating with a churning flow population."""

    def run():
        sim = Simulator()
        net = FlowNetwork(sim)
        links = [Link(f"l{i}", 1e9) for i in range(16)]

        def burst(sim, net, i):
            yield sim.timeout(i * 1e-4)
            yield net.transfer((links[i % 16], links[(i * 7 + 1) % 16]), 1e6)

        for i in range(300):
            sim.process(burst(sim, net, i))
        sim.run()
        return net.flow_count

    assert benchmark(run) == 300
