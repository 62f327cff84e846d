"""The lane-based event kernel against the frozen single-heap kernel.

``repro.sim.core`` keeps URGENT events and zero-delay NORMAL events in two
FIFO lanes and only positive delays on its heap.  ``tests/reference_kernel.py``
is the earlier kernel that put everything on one heap keyed
``(time, priority, sequence)``.  Both must dispatch the same events in the
same order, so random process programs must leave identical
``(now, label)`` traces and identical event counts on both.

The programs mix zero and positive timeouts, ``succeed``/``fail`` on
shared events, URGENT resource grants, interrupts, cancels (enough of them
to trigger compaction), end-of-timestamp hooks that schedule at ``now``,
yields of already-processed events and joins, under four drivers: plain
``run()``, ``run(until=t)``, ``run(until=event)`` and ``step()`` loops.
Constructed cases below pin the corners the benchmark rarely reaches.
"""

from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.core as lanes
import tests.reference_kernel as reference

KERNELS = (lanes, reference)
N_SHARED = 4
# 1e-12 vanishes against a clock of 1e6 (it rounds to ``now``).
DELAYS = (0.0, 0.0, 1e-12, 0.25, 0.5, 1.0, 1e6)


class MiniResource:
    """A one-or-two-slot resource granting with URGENT ``succeed``, the way
    ``repro.sim.resources`` does, but built from kernel-agnostic events."""

    def __init__(self, k, sim, capacity):
        self.k, self.sim, self.capacity = k, sim, capacity
        self.users = 0
        self.queue = deque()

    def request(self):
        req = self.sim.event()
        self.queue.append(req)
        self._grant()
        return req

    def cancel(self, req):
        if req.triggered:
            self.users -= 1
            self._grant()
        else:
            self.queue.remove(req)

    def _grant(self):
        while self.queue and self.users < self.capacity:
            self.users += 1
            self.queue.popleft().succeed("granted", priority=self.k.URGENT)


class Program:
    """One random program run on one kernel; ``trace`` is its output."""

    def __init__(self, k, scripts, capacity):
        self.k = k
        self.sim = sim = k.Simulator()
        self.trace = []
        self.shared = [sim.event() for _ in range(N_SHARED)]
        for i, e in enumerate(self.shared):
            e.add_callback(self._recorder(f"shared{i}"))
        self.res = MiniResource(k, sim, capacity)
        self.procs = [
            sim.process(self._body(pid, script), name=f"p{pid}")
            for pid, script in enumerate(scripts)
        ]

    def _state(self):
        return self.sim.queue_size, self.sim.cancelled_pending

    def _recorder(self, label):
        return lambda event: self.trace.append((self.sim.now, label))

    def _hook(self, label, i):
        def hook():
            self.trace.append((self.sim.now, label + ".hook"))
            e = self.shared[i]
            if not e.triggered and not e.cancelled:
                e.succeed(label)
            self.sim.timeout(0.0).add_callback(self._recorder(label + ".after"))

        return hook

    def _body(self, pid, script):
        sim, shared = self.sim, self.shared
        for step, op in enumerate(script):
            kind, a, b = op
            label = f"p{pid}.{step}.{kind}"
            try:
                if kind == "wait":
                    got = yield sim.timeout(DELAYS[a], value=label)
                elif kind == "await":
                    got = yield shared[a]
                elif kind == "join":
                    other = self.procs[a % len(self.procs)]
                    if other is self.procs[pid]:
                        continue
                    got = yield other
                elif kind == "all":
                    got = yield sim.all_of([sim.timeout(DELAYS[a]), sim.timeout(DELAYS[b])])
                    got = len(got)
                elif kind == "any":
                    got = yield sim.any_of([sim.timeout(DELAYS[a]), shared[b]])
                    got = len(got)
                elif kind == "grant":
                    req = self.res.request()
                    try:
                        got = yield req
                        yield sim.timeout(DELAYS[b])
                    finally:
                        self.res.cancel(req)
                elif kind == "succeed":
                    if not shared[a].triggered:
                        shared[a].succeed(label)
                    got = None
                elif kind == "fail":
                    if not shared[a].triggered:
                        shared[a].fail(ValueError(label)).defuse()
                    got = None
                elif kind == "interrupt":
                    other = self.procs[a % len(self.procs)]
                    if other is self.procs[pid] or not other.is_alive:
                        continue
                    other.interrupt(label)
                    got = None
                elif kind == "cancel":
                    # ``a`` dead timers (lane or heap) plus a dead lane entry.
                    for i in range(a):
                        t = sim.timeout(DELAYS[(b + i) % len(DELAYS)])
                        t.add_callback(self._recorder(label + ".dead"))
                        t.cancel()
                    sim.event().succeed(label).cancel()
                    got = None
                elif kind == "cancel_shared":
                    if not shared[a].processed:
                        shared[a].cancel()
                    got = None
                else:  # "defer"
                    sim.defer(self._hook(label, a))
                    got = None
                self.trace.append((sim.now, label, repr(got), self._state()))
            except self.k.Interrupted as exc:
                self.trace.append((sim.now, label, f"interrupted by {exc.cause}"))
            except ValueError as exc:
                self.trace.append((sim.now, label, f"failed: {exc}"))
        self.trace.append((sim.now, f"p{pid}.end"))
        return pid

    def drive(self, driver, arg):
        sim = self.sim
        try:
            if driver == "run":
                sim.run()
            elif driver == "until_t":
                for t in sorted(arg):
                    sim.run(until=max(t, sim.now))
                    self.trace.append(("stopped", sim.now, self._state()))
                sim.run()
            elif driver == "until_event":
                target = (self.shared + self.procs)[arg[0] % (N_SHARED + len(self.procs))]
                try:
                    sim.run(until=target)
                except (self.k.SimulationError, ValueError, self.k.Interrupted) as exc:
                    self.trace.append(("until_event", type(exc).__name__))
                self.trace.append(("stopped", sim.now, self._state()))
                sim.run()
            else:  # "step"
                for _ in range(20_000):
                    nxt = sim.peek()
                    self.trace.append(("peek", nxt, self._state()))
                    if nxt == float("inf") and not sim._deferred:
                        break
                    sim.step()
                    self.trace.append(("step", sim.now, sim.event_count, self._state()))
        except Exception as exc:  # both kernels must fail the same way
            self.trace.append(("raised", type(exc).__name__))
        self.trace.append(("end", sim.now, sim.event_count, self._state()))
        return self.trace


OP = st.one_of(
    st.tuples(st.just("wait"), st.integers(0, len(DELAYS) - 2), st.just(0)),
    st.tuples(
        st.sampled_from(["await", "succeed", "fail", "cancel_shared", "defer"]),
        st.integers(0, N_SHARED - 1),
        st.just(0),
    ),
    st.tuples(st.sampled_from(["join", "interrupt"]), st.integers(0, 5), st.just(0)),
    st.tuples(
        st.sampled_from(["all", "any", "grant"]),
        st.integers(0, len(DELAYS) - 2),
        st.integers(0, N_SHARED - 1),
    ),
    st.tuples(st.just("cancel"), st.integers(0, 80), st.integers(0, len(DELAYS) - 1)),
)
SCRIPTS = st.lists(st.lists(OP, max_size=10), min_size=1, max_size=5)
DRIVER = st.one_of(
    st.tuples(st.just("run"), st.just(())),
    st.tuples(
        st.just("until_t"),
        st.lists(st.sampled_from([0.0, 1e-12, 0.25, 0.5, 0.75, 1.0, 2.0]), max_size=3),
    ),
    st.tuples(st.just("until_event"), st.tuples(st.integers(0, 8))),
    st.tuples(st.just("step"), st.just(())),
)


def traces(scripts, capacity, driver):
    return [Program(k, scripts, capacity).drive(*driver) for k in KERNELS]


@settings(max_examples=300, deadline=None)
@given(scripts=SCRIPTS, capacity=st.integers(1, 2), driver=DRIVER)
def test_random_programs_dispatch_identically(scripts, capacity, driver):
    new, ref = traces(scripts, capacity, driver)
    assert new == ref


def test_a_program_reaching_compaction_matches():
    scripts = [
        [("cancel", 80, 3), ("wait", 3, 0), ("cancel", 80, 0), ("succeed", 0, 0)],
        [("await", 0, 0), ("wait", 1, 0), ("grant", 2, 1)],
        [("grant", 0, 3), ("interrupt", 1, 0), ("defer", 1, 0), ("await", 1, 0)],
    ]
    for driver in (("run", ()), ("step", ()), ("until_t", [0.25, 0.5])):
        new, ref = traces(scripts, 1, driver)
        assert new == ref


def _sub_ulp_program(k):
    """At ``now = 1e6`` a 1e-12 timeout lands on ``now`` in the heap,
    between two zero-delay lane entries: sequence order must decide."""
    sim = k.Simulator(start=1e6)
    order = []
    first, last = sim.event(), sim.event()
    for e, name in ((first, "first"), (last, "last")):
        e.add_callback(lambda e, name=name: order.append((sim.now, name)))
    first.succeed()
    tiny = sim.timeout(1e-12)
    tiny.add_callback(lambda e: order.append((sim.now, "tiny")))
    last.succeed()
    sim.timeout(0.0).add_callback(lambda e: order.append((sim.now, "zero")))
    sim.run()
    return order, sim.event_count


def test_sub_ulp_delay_runs_between_lane_entries():
    new, ref = (_sub_ulp_program(k) for k in KERNELS)
    assert new == ref
    assert new[0] == [(1e6, "first"), (1e6, "tiny"), (1e6, "last"), (1e6, "zero")]


def _cancelled_lane_head_program(k):
    sim = k.Simulator()
    order = []
    events = [sim.event() for _ in range(3)]
    for i, e in enumerate(events):
        e.add_callback(lambda e, i=i: order.append(i))
        e.succeed()
    events[0].cancel()
    urgent = sim.event()
    urgent.add_callback(lambda e: order.append("urgent"))
    urgent.succeed(priority=k.URGENT)
    urgent.cancel()
    peeked = sim.peek()
    pending = (sim.queue_size, sim.cancelled_pending)
    sim.run()
    return order, peeked, pending, sim.event_count, sim.queue_size


def test_cancelled_lane_head_is_skipped():
    new, ref = (_cancelled_lane_head_program(k) for k in KERNELS)
    assert new == ref
    assert new[0] == [1, 2] and new[1] == 0.0 and new[3] == 2


def _until_with_lane_pending(k):
    sim = k.Simulator()
    log = []
    a, b, c = (sim.event() for _ in range(3))
    for e, name in ((a, "a"), (b, "b"), (c, "c")):
        e.add_callback(lambda e, name=name: log.append((sim.now, name)))

    def proc():
        yield sim.timeout(1.0)
        a.succeed()
        b.succeed()
        c.succeed()
        yield sim.timeout(5.0)
        log.append((sim.now, "late"))

    sim.process(proc())
    sim.run(until=a)  # stops with b and c still in the zero-delay lane
    log.append(("after until=a", sim.now, sim.queue_size))
    sim.run(until=3.0)  # b and c run at t=1 before the clock moves
    log.append(("after until=3", sim.now, sim.queue_size))
    late = sim.event()
    late.add_callback(lambda e: log.append((sim.now, "late-succeed")))
    late.succeed()  # scheduled between runs, at the stopped clock
    sim.run(until=3.0)
    log.append(("after until=3 again", sim.now, sim.queue_size))
    sim.run()
    return log, sim.event_count


def test_run_until_stops_with_lane_entries_pending():
    new, ref = (_until_with_lane_pending(k) for k in KERNELS)
    assert new == ref
    log = new[0]
    assert log[1][0] == "after until=a" and log[1][2] == 3  # b, c, and the 5 s timeout
    assert (1.0, "b") in log[:4] and (1.0, "c") in log[:4]
    assert (3.0, "late-succeed") in log and (6.0, "late") in log
