"""The functional engine's shuffle path: segment service, cache, full output.

* ``SegmentServer`` serves a segment in time linear in its packet count:
  counted in ``record_size`` calls and packet-stream steps, not timed.
* An empty segment is answered without a cache lookup.
* Eight ``LocalJobRunner`` configurations pin sha256 digests of their full
  output (keys and values), ``ShuffleStats`` and ``CacheStats``.  The
  digests were recorded from the record-at-a-time merger and the
  re-summing segment server that preceded the inline refill loop; they
  hold the data path to identical output, record for record.
"""

import dataclasses
import hashlib
import itertools

import numpy as np
import pytest

import repro.core.packets as packets_mod
import repro.engine.mapside as mapside_mod
from repro.core.packets import (
    FixedPairsPacketizer,
    Packetizer,
    SizeAwarePacketizer,
    WholeFilePacketizer,
)
from repro.engine import EngineConfig, LocalJobRunner
from repro.engine.mapside import MapOutput
from repro.engine.shuffleside import SegmentServer
from repro.workloads import random_writer, teragen

# ---------------------------------------------------------------------------
# Linear-time segment service
# ---------------------------------------------------------------------------


class Budget:
    """A step counter that fails the test as soon as it passes its limit,
    so a quadratic server fails fast instead of running for minutes."""

    def __init__(self) -> None:
        self.count = 0
        self.limit = 0

    def step(self) -> None:
        self.count += 1
        if self.count > self.limit:
            raise AssertionError(f"more than {self.limit} steps")


class CountingPacketizer(Packetizer):
    """One record per packet; counts every step of every packet stream."""

    name = "counting"

    def __init__(self, steps: Budget):
        self.inner = SizeAwarePacketizer(1)  # every record travels alone
        self.steps = steps

    def packets(self, records):
        for packet in self.inner.packets(records):
            self.steps.step()
            yield packet


def serve_segment(n_records: int, cache_bytes: float, monkeypatch) -> tuple[int, int]:
    """Serve one ``n_records``-packet segment to eof; return the number of
    ``record_size`` calls and packet-stream steps it took."""
    sizes, steps = Budget(), Budget()
    sizes.limit = 4 * n_records
    steps.limit = 2 * n_records + 2
    real_record_size = packets_mod.record_size

    def counted_record_size(record):
        sizes.step()
        return real_record_size(record)

    class CountedChain(itertools.chain):
        # Any stream re-wrapped with itertools.chain counts its steps too.
        def __next__(self):
            steps.step()
            return super().__next__()

    for module in (packets_mod, mapside_mod):
        monkeypatch.setattr(module, "record_size", counted_record_size)
    monkeypatch.setattr(itertools, "chain", CountedChain)
    segment = [(b"k%08d" % i, b"v") for i in range(n_records)]
    server = SegmentServer(
        {0: MapOutput(0, [segment])}, CountingPacketizer(steps), cache_bytes=cache_bytes
    )
    served, done = 0, False
    while not done:
        packet, done = server.next_packet(0, 0)
        served += len(packet)
    assert served == n_records
    monkeypatch.undo()
    return sizes.count, steps.count


@pytest.mark.parametrize("cache_bytes", [0, 1 << 30], ids=["uncached", "cached"])
def test_segment_service_is_linear_in_packets(cache_bytes, monkeypatch):
    counts = [serve_segment(n, cache_bytes, monkeypatch) for n in (5_000, 10_000, 20_000)]
    for metric in (0, 1):
        c5, c10, c20 = (c[metric] for c in counts)
        # Exactly affine in the packet count: each doubling adds the same
        # cost per packet.
        assert c20 - c10 == 2 * (c10 - c5), counts
    sizes, steps = counts[-1]
    assert steps <= 20_000 + 1
    assert sizes <= 3 * 20_000


# ---------------------------------------------------------------------------
# Empty segments
# ---------------------------------------------------------------------------


def test_empty_segment_is_not_a_cache_miss():
    # Two distinct keys hash to two of 8 reducers: of the 3 splits x 8
    # reducers = 24 segments, 18 are empty.
    records = [(b"a", b"1"), (b"b", b"2")] * 150
    out = LocalJobRunner(
        config=EngineConfig(
            n_reducers=8, split_records=100, partitioning="hash", cache_bytes=1 << 20
        )
    ).run(records)
    cache = out.cache_stats
    assert (cache.hits, cache.misses) == (6, 0)
    assert (cache.inserts, cache.invalidations, cache.promotions) == (6, 6, 0)
    assert cache.bytes_missed == 0.0
    assert out.shuffle_stats.packets == 6
    assert (out.shuffle_stats.cache_hits, out.shuffle_stats.cache_misses) == (6, 0)
    assert out.total_records == 300


def test_empty_segment_served_as_done():
    server = SegmentServer(
        {0: MapOutput(0, [[], [(b"k", b"v")]])}, SizeAwarePacketizer(64), cache_bytes=1024
    )
    assert server.next_packet(0, 0) == ([], True)
    assert server.cache.stats.lookups == 0 and len(server.cache) == 1
    assert server.next_packet(0, 1) == ([(b"k", b"v")], True)
    assert server.cache.stats.hits == 1 and len(server.cache) == 0


def test_finished_segment_stays_done():
    r1, r2 = (b"k1", b"v1"), (b"k2", b"v2")
    server = SegmentServer(
        {0: MapOutput(0, [[r1, r2]])}, SizeAwarePacketizer(1), cache_bytes=1024
    )
    calls = [server.next_packet(0, 0) for _ in range(4)]
    assert calls == [([r1], False), ([r2], True), ([], True), ([], True)]
    assert server.stats.records == 2 and server.stats.packets == 2
    assert server.cache.stats.lookups == 2


# ---------------------------------------------------------------------------
# Full-output digests
# ---------------------------------------------------------------------------


def sum_values(key, values):
    yield (key, sum(values))


def words(n: int) -> list:
    rng = np.random.default_rng(11)
    vocab = [b"w%02d" % i for i in range(40)]
    return [(vocab[i], 1) for i in rng.integers(0, len(vocab), n)]


def teragen_records(seed: int, n: int) -> list:
    return teragen(np.random.default_rng(seed), n)


#: id -> (records, runner kwargs, expected sha256 of output and stats).
DIGEST_CASES = {
    "range-size-aware-cached": (
        lambda: teragen_records(20, 3000),
        dict(config=EngineConfig(n_reducers=4, split_records=500,
                                 packetizer=SizeAwarePacketizer(4096), cache_bytes=64 << 20)),
        "d0a97bb990d79c0cff25dcc1378cf032f47cc2b1db3c5f4421634b05ca519091",
    ),
    "range-whole-file-evicting": (
        lambda: teragen_records(21, 3000),
        dict(config=EngineConfig(n_reducers=4, split_records=400,
                                 packetizer=WholeFilePacketizer(), cache_bytes=40_000)),
        "c8e8b26e9ef501786bc7cd3c916724687f6bd65b62bfaea379012903779f91f2",
    ),
    "range-small-packets-evicting": (
        lambda: teragen_records(22, 2400),
        dict(config=EngineConfig(n_reducers=6, split_records=300,
                                 packetizer=SizeAwarePacketizer(512), cache_bytes=16_000)),
        "140865a287466874a79c97425e2b4f24ecc918ca41e6946d6c8c3b2d1b072aab",
    ),
    "hash-fixed-pairs-uncached": (
        lambda: teragen_records(23, 2500),
        dict(config=EngineConfig(n_reducers=5, split_records=350, partitioning="hash",
                                 packetizer=FixedPairsPacketizer(37), cache_bytes=0)),
        "e6d35c5c37daf53016bfe142bc308f270f794aa74dab971b192a6ce6345ed7af",
    ),
    "hash-combiner-scalar-values": (
        lambda: words(3000),
        dict(reducer=sum_values, combiner=sum_values,
             config=EngineConfig(n_reducers=3, split_records=250, partitioning="hash",
                                 sort_buffer_bytes=600,
                                 packetizer=SizeAwarePacketizer(256), cache_bytes=1 << 20)),
        "2c9846e1e6aa946d47394431855aa176a482c08718ab691aaa18d08e2b20edca",
    ),
    "range-bounded-queue-cached": (
        lambda: teragen_records(24, 2000),
        dict(config=EngineConfig(n_reducers=4, split_records=300, max_queue_records=50,
                                 packetizer=FixedPairsPacketizer(13), cache_bytes=1 << 20)),
        "84f1bfc618bc685d8eece54facfe220f58375c1edece8e93f17f36e1bd79b9fd",
    ),
    "hash-bounded-queue-whole-file": (
        lambda: teragen_records(25, 1500),
        dict(config=EngineConfig(n_reducers=3, split_records=200, partitioning="hash",
                                 max_queue_records=7, packetizer=WholeFilePacketizer(),
                                 cache_bytes=0)),
        "b7ba0074577f83da21146f9fc2f69f724b95ac80c38cf2ab4178ceff4472a552",
    ),
    "range-multi-spill-variable-records": (
        lambda: random_writer(np.random.default_rng(26), 600),
        dict(config=EngineConfig(n_reducers=4, split_records=150, sort_buffer_bytes=1 << 15,
                                 packetizer=SizeAwarePacketizer(1 << 14), cache_bytes=1 << 17)),
        "49bb3bf03fd33703c21521bfeb058308853e8ddfae25fc90f9bb2a4b80360f85",
    ),
}


def job_digest(records, kwargs) -> str:
    out = LocalJobRunner(**kwargs).run(records)
    cache = None if out.cache_stats is None else dataclasses.asdict(out.cache_stats)
    blob = repr((out.partitions, dataclasses.asdict(out.shuffle_stats), cache))
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(DIGEST_CASES))
def test_engine_output_digest(case):
    make_records, kwargs, expected = DIGEST_CASES[case]
    assert job_digest(make_records(), kwargs) == expected
