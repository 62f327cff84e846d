"""``FlowNetwork._water_fill`` against a frozen copy of its flat-array loop.

The production water-fill scans the links and keeps every rate cap
(share ``cap / 1``) in a sorted candidate list.  The reference below is
the earlier loop that scanned every constraint in first-seen order, each
cap as one more single-flow constraint numbered after its flow's links.
Both must pick the same bottleneck at every level, so the rates must be
equal bit for bit (``==``, no tolerance) — including the tie cases the
benchmark workloads rarely reach: a cap equal to a shared link's share, many equal caps, ``n * cap``
equal to a capacity, and caps that bind.

Also checks the per-link transparency cache: after any sequence of
admissions, completions and ``set_capacity`` calls, every cached verdict
equals a recomputation from scratch.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.flows import _CAP_FIT_MARGIN, _EPSILON_RATE, FlowNetwork, Link
from repro.sim import Simulator


def reference_water_fill(flows):
    """The all-links flat-array water-fill loop, kept as the reference.

    ``flows`` are in admission order, so each link's members come out in
    its own admission order.
    """
    eps = _EPSILON_RATE
    link_index = {}
    residual = []
    members = []
    flow_links = []
    for fi, flow in enumerate(flows):
        idxs = []
        for link in flow.links:
            li = link_index.get(link)
            if li is None:
                li = link_index[link] = len(residual)
                residual.append(link.capacity)
                members.append([])
            members[li].append(fi)
            idxs.append(li)
        if flow.cap is not None:
            idxs.append(len(residual))
            residual.append(flow.cap)
            members.append([fi])
        flow_links.append(idxs)
    unfixed_count = [len(m) for m in members]

    n_links = len(residual)
    remaining = len(flows)
    fixed = bytearray(remaining)
    rates = [0.0] * remaining
    inf = float("inf")
    while remaining:
        bottleneck = -1
        best_share = inf
        for li in range(n_links):
            n = unfixed_count[li]
            if n <= 0:
                continue
            share = residual[li] / n
            if share < best_share:
                best_share = share
                bottleneck = li
        if bottleneck < 0:
            break
        if best_share < eps:
            best_share = eps
        for fi in members[bottleneck]:
            if fixed[fi]:
                continue
            fixed[fi] = 1
            rates[fi] = best_share
            remaining -= 1
            for li in flow_links[fi]:
                r = residual[li] - best_share
                residual[li] = r if r > 0.0 else 0.0
                unfixed_count[li] -= 1
    return rates


def _component(capacities, specs):
    """Admit one flow per ``(link indices, cap)`` spec; return the flows.

    The simulator never runs, so no flush re-rates anything: the flows
    are simply admitted onto their links, in order.
    """
    sim = Simulator()
    net = FlowNetwork(sim)
    links = [Link(f"l{i}", cap) for i, cap in enumerate(capacities)]
    for route, cap in specs:
        net.transfer(tuple(links[i] for i in route), 1e9, rate_cap=cap)
    return net, list(net._flows)


def _assert_bit_equal(capacities, specs):
    net, flows = _component(capacities, specs)
    got = net._water_fill(flows)
    want = reference_water_fill(flows)
    assert got == want, f"rates {got} != reference {want}"
    return got


#: Small value pools make ties (equal caps, cap == share) common.
_CAPACITIES = st.sampled_from([100.0, 300.0, 400.0, 1000.0, 1e9, 3.2e9])
_SOME_CAPS = st.one_of(
    st.sampled_from([25.0, 50.0, 100.0, 133.0, 250.0, 1e9, 1.25e9]),
    st.floats(min_value=1.0, max_value=2e9),
)
_CAPS = st.one_of(st.none(), _SOME_CAPS)


@st.composite
def _components(draw, caps=_CAPS):
    n_links = draw(st.integers(min_value=1, max_value=6))
    capacities = draw(
        st.lists(
            st.one_of(_CAPACITIES, st.floats(min_value=1.0, max_value=5e9)),
            min_size=n_links,
            max_size=n_links,
        )
    )
    specs = draw(
        st.lists(
            st.tuples(
                st.lists(
                    st.integers(min_value=0, max_value=n_links - 1),
                    min_size=1,
                    max_size=3,
                    unique=True,
                ),
                caps,
            ),
            min_size=1,
            max_size=24,
        )
    )
    return capacities, specs


@given(_components())
@settings(max_examples=300, deadline=None)
def test_mixed_components_match_reference(component):
    _assert_bit_equal(*component)


@given(_components(caps=st.none()))
@settings(max_examples=100, deadline=None)
def test_uncapped_components_match_reference(component):
    _assert_bit_equal(*component)


@given(_components(caps=_SOME_CAPS))
@settings(max_examples=200, deadline=None)
def test_capped_components_match_reference(component):
    _assert_bit_equal(*component)


def test_cap_equal_to_shared_share_ties_to_the_lower_link_number():
    # Flow 0's cap is numbered before link 1 (first seen by flow 1),
    # so on a tie the cap wins; link 0 is numbered before every cap.
    _assert_bit_equal([300.0, 200.0], [((0,), 100.0), ((1,), None), ((1,), None)])
    _assert_bit_equal([300.0], [((0,), 100.0), ((0,), None), ((0,), None)])
    _assert_bit_equal([300.0, 300.0], [((1,), None), ((0, 1), 100.0), ((0,), 150.0)])
    # Where the tie-break shows in the bits: the link wins, pinning all
    # three flows at 1e9/3.  Had the cap won, the other two would get
    # (1e9 - 1e9/3) / 2, one ulp off.
    third = 1e9 / 3
    rates = _assert_bit_equal([1e9], [((0,), third), ((0,), None), ((0,), None)])
    assert rates == [third] * 3


def test_many_equal_caps():
    rates = _assert_bit_equal([1000.0], [((0,), 50.0)] * 12)
    assert rates == [50.0] * 12


def test_caps_summing_exactly_to_capacity():
    rates = _assert_bit_equal([400.0], [((0,), 100.0)] * 4)
    assert rates == [100.0] * 4
    _assert_bit_equal([400.0, 400.0], [((0, 1), 100.0)] * 4 + [((1,), None)])


def test_binding_caps():
    rates = _assert_bit_equal([1000.0], [((0,), 100.0), ((0,), 200.0), ((0,), None)])
    assert rates == [100.0, 200.0, 700.0]
    _assert_bit_equal(
        [1000.0, 600.0],
        [((0,), 100.0), ((0, 1), None), ((1,), 50.0), ((0,), None), ((1,), 250.0)],
    )


def test_tiny_caps_clamp_like_the_reference():
    _assert_bit_equal([100.0], [((0,), 1e-12), ((0,), None)])


# -- transparency cache ---------------------------------------------------


def _fresh_transparent(link):
    total = 0.0
    for flow in link.flows:
        if flow.cap is None:
            return False
        total += flow.cap
    return total <= link.capacity * (1.0 - _CAP_FIT_MARGIN)


@given(
    capacities=st.lists(
        st.sampled_from([100.0, 250.0, 400.0, 1000.0]), min_size=3, max_size=3
    ),
    steps=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=5),  # time (s)
            st.sampled_from(["admit", "admit", "degrade"]),
            st.integers(min_value=0, max_value=2),  # link
            st.one_of(st.none(), st.sampled_from([50.0, 100.0, 125.0])),
            st.sampled_from([0.5, 2.0, 4.0]),  # capacity factor
        ),
        min_size=1,
        max_size=30,
    ),
)
@settings(max_examples=150, deadline=None)
def test_cached_transparency_matches_recomputation(capacities, steps):
    sim = Simulator()
    net = FlowNetwork(sim)
    links = [Link(f"l{i}", cap) for i, cap in enumerate(capacities)]

    def check(_event=None):
        # A stale verdict is caught here; then fill every cache, so the
        # next mutation must invalidate the right ones.
        for flow in net._flows:
            for link in flow.links:
                if link.transparent is not None:
                    assert link.transparent == _fresh_transparent(link), link
        for link in links:
            if link.transparent is not None:
                assert link.transparent == _fresh_transparent(link), link
            net._transparent(link)
        for flow in net._flows:
            _ = flow.rate  # run the batched re-rate, which reads the caches

    def step(delay, action, li, cap, factor):
        yield sim.timeout(delay)
        link = links[li]
        if action == "admit":
            route = (link, links[(li + 1) % 3]) if factor > 1 else (link,)
            done = net.transfer(route, 150.0 * factor, rate_cap=cap)
            done.add_callback(check)
        else:
            net.set_capacity(link, link.capacity * factor)
        check()

    for delay, action, li, cap, factor in steps:
        sim.process(step(delay, action, li, cap, factor))
    sim.run()
    assert net.active_flows == 0
