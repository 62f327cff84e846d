"""Tests for the max-min fair flow network."""

import pytest

from repro.network.flows import _EPSILON_RATE, FlowNetwork, Link
from repro.sim import Simulator


def make_net():
    sim = Simulator()
    return sim, FlowNetwork(sim)


def test_link_validation():
    with pytest.raises(ValueError):
        Link("bad", 0)


def test_single_flow_takes_full_capacity():
    sim, net = make_net()
    link = Link("l", 100.0)  # 100 B/s
    done = net.transfer((link,), 500.0)
    sim.run(done)
    assert sim.now == pytest.approx(5.0, rel=1e-6)


def test_zero_byte_transfer_completes_immediately():
    sim, net = make_net()
    link = Link("l", 100.0)
    done = net.transfer((link,), 0.0)
    assert done.triggered
    sim.run()
    assert sim.now == 0.0


def test_negative_transfer_rejected():
    sim, net = make_net()
    link = Link("l", 100.0)
    with pytest.raises(ValueError):
        net.transfer((link,), -1.0)


def test_two_equal_flows_share_fairly():
    sim, net = make_net()
    link = Link("l", 100.0)
    d1 = net.transfer((link,), 500.0)
    d2 = net.transfer((link,), 500.0)
    sim.run(sim.all_of([d1, d2]))
    # Each gets 50 B/s -> both finish at t=10.
    assert sim.now == pytest.approx(10.0, rel=1e-5)


def test_short_flow_finishes_then_long_speeds_up():
    sim, net = make_net()
    link = Link("l", 100.0)
    long = net.transfer((link,), 1000.0)
    short = net.transfer((link,), 100.0)
    sim.run(short)
    # Sharing 50/50: short's 100 B at 50 B/s -> t=2.
    assert sim.now == pytest.approx(2.0, rel=1e-5)
    sim.run(long)
    # Long had 900 B left at t=2, then full 100 B/s -> t=11.
    assert sim.now == pytest.approx(11.0, rel=1e-5)


def test_rate_cap_limits_single_flow():
    sim, net = make_net()
    link = Link("l", 100.0)
    done = net.transfer((link,), 100.0, rate_cap=10.0)
    sim.run(done)
    assert sim.now == pytest.approx(10.0, rel=1e-5)


def test_rate_cap_validation():
    sim, net = make_net()
    link = Link("l", 100.0)
    with pytest.raises(ValueError):
        net.transfer((link,), 10.0, rate_cap=0.0)


NAN = float("nan")


@pytest.mark.parametrize(
    "links, nbytes, rate_cap",
    [
        ("one", NAN, 5.0),  # NaN size: the wake loop never drains it
        ("one", float("inf"), 5.0),  # its ETA is NaN: the kernel raises later
        ("one", 10.0, NAN),
        ("none", 10.0, None),  # nothing bounds the rate: never completes
        ("none", 0.0, None),
    ],
)
def test_transfer_rejects_bad_inputs_at_the_call(links, nbytes, rate_cap):
    sim, net = make_net()
    route = (Link("l", 100.0),) if links == "one" else ()
    with pytest.raises(ValueError):
        net.transfer(route, nbytes, rate_cap=rate_cap)
    assert net.active_flows == 0
    assert sim.queue_size == 0


@pytest.mark.parametrize("capacity", [NAN, 0.0])
def test_link_and_set_capacity_reject_bad_capacities(capacity):
    with pytest.raises(ValueError):
        Link("bad", capacity)
    sim, net = make_net()
    link = Link("l", 100.0)
    net.transfer((link,), 100.0)
    with pytest.raises(ValueError):
        net.set_capacity(link, capacity)
    assert link.capacity == 100.0


def test_capped_flow_without_links_runs_at_its_cap():
    sim, net = make_net()
    done = net.transfer((), 100.0, rate_cap=10.0)
    sim.run(done)
    assert sim.now == pytest.approx(10.0, rel=1e-9)
    assert net.active_flows == 0


@pytest.mark.parametrize("links", [1, 0])
def test_flow_capped_below_the_rate_floor_completes_at_the_floor(links):
    """A share below ``_EPSILON_RATE`` is clamped to it, and the flow
    still completes at that rate instead of staying active forever."""
    sim, net = make_net()
    done = net.transfer((Link("l", 100.0),) * links, 10.0, rate_cap=1e-12)
    sim.run()
    assert done.triggered
    assert net.active_flows == 0
    assert sim.now == pytest.approx(10.0 / _EPSILON_RATE, rel=1e-9)


def test_capped_flow_leaves_bandwidth_for_others():
    sim, net = make_net()
    link = Link("l", 100.0)
    capped = net.transfer((link,), 100.0, rate_cap=10.0)  # 10 B/s
    free = net.transfer((link,), 450.0)  # gets the remaining 90 B/s
    sim.run(free)
    assert sim.now == pytest.approx(5.0, rel=1e-5)
    sim.run(capped)
    assert sim.now == pytest.approx(10.0, rel=1e-5)


def test_multi_link_bottleneck():
    sim, net = make_net()
    fast = Link("fast", 1000.0)
    slow = Link("slow", 10.0)
    done = net.transfer((fast, slow), 100.0)
    sim.run(done)
    assert sim.now == pytest.approx(10.0, rel=1e-5)


def test_cross_traffic_on_disjoint_links_is_independent():
    sim, net = make_net()
    a = Link("a", 100.0)
    b = Link("b", 100.0)
    d1 = net.transfer((a,), 100.0)
    d2 = net.transfer((b,), 100.0)
    sim.run(sim.all_of([d1, d2]))
    assert sim.now == pytest.approx(1.0, rel=1e-5)


def test_shared_middle_link_constrains_both():
    sim, net = make_net()
    a = Link("a", 1000.0)
    b = Link("b", 1000.0)
    mid = Link("mid", 100.0)
    d1 = net.transfer((a, mid), 100.0)
    d2 = net.transfer((b, mid), 100.0)
    sim.run(sim.all_of([d1, d2]))
    # Both share mid at 50 B/s.
    assert sim.now == pytest.approx(2.0, rel=1e-5)


def test_max_min_unbalanced_share():
    """A flow capped elsewhere frees share for its link peers (water-filling)."""
    sim, net = make_net()
    shared = Link("shared", 100.0)
    private = Link("private", 20.0)
    d1 = net.transfer((shared, private), 200.0)  # bottlenecked at 20 B/s
    d2 = net.transfer((shared,), 800.0)  # should get 80 B/s
    sim.run(sim.all_of([d1, d2]))
    assert sim.now == pytest.approx(10.0, rel=1e-4)


def test_flow_event_value_is_elapsed_time():
    sim, net = make_net()
    link = Link("l", 100.0)
    done = net.transfer((link,), 200.0)
    value = sim.run(done)
    assert value == pytest.approx(2.0, rel=1e-5)


def test_bytes_accounting():
    sim, net = make_net()
    link = Link("l", 100.0)
    net.transfer((link,), 300.0)
    sim.run()
    assert net.total_bytes == 300.0
    assert net.flow_count == 1
    assert link.bytes_carried == pytest.approx(300.0, abs=1.0)


def test_staggered_flows_progressive_rerating():
    """Flow arriving mid-transfer slows the incumbent correctly."""
    sim, net = make_net()
    link = Link("l", 100.0)
    first = net.transfer((link,), 1000.0)

    result = {}

    def late_flow(sim, net, link):
        yield sim.timeout(5)  # first has 500 B left
        done = net.transfer((link,), 250.0)
        yield done
        result["late_done"] = sim.now

    sim.process(late_flow(sim, net, link))
    sim.run(first)
    # From t=5: both at 50 B/s. Late finishes its 250 B at t=10; first then
    # has 250 B left at full rate -> t=12.5.
    assert result["late_done"] == pytest.approx(10.0, rel=1e-5)
    assert sim.now == pytest.approx(12.5, rel=1e-5)


def test_many_flows_terminate():
    """Stress: dozens of staggered flows over shared links all finish."""
    sim, net = make_net()
    links = [Link(f"l{i}", 100.0) for i in range(4)]

    done = []

    def burst(sim, net, i):
        yield sim.timeout(i * 0.1)
        ev = net.transfer((links[i % 4], links[(i + 1) % 4]), 50.0 + i)
        yield ev
        done.append(i)

    for i in range(40):
        sim.process(burst(sim, net, i))
    sim.run()
    assert sorted(done) == list(range(40))
    assert net.active_flows == 0
