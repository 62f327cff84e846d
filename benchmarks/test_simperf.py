"""Simulator-throughput benchmark: incremental re-rating vs the oracle.

Runs the fig4a sweep twice — once with the production (incremental) flow
network and once with the frozen global water-filling oracle
(``tests/reference_flownet.py``, monkeypatched into
``repro.network.fabric``) — and records, per mode, the aggregated
``net.*`` re-rating counters, ``sim.*`` event-kernel counters, wall-clock
and events/sec.  The deterministic counters back the hard assertions:

* re-rate work (touched flows per flow-population change) drops by at
  least 2x vs the oracle;
* the event kernel processes fewer events (superseded wake-ups no longer
  transit the calendar as dead events);
* figure outputs are unchanged — series times match the oracle to within
  float accumulation noise (rates are bit-identical; lazy per-flow
  progress drains bytes in fewer, larger chunks, so completion
  timestamps may drift by last-ulp rounding).

Wall-clock and events/sec are recorded in ``BENCH_simperf.json`` (not
hard-asserted: they are machine-dependent) so the perf trajectory is a
tracked series across PRs.  The incremental mode's deterministic re-rate
counters (every ``net.*`` counter but ``net.eta_compactions``, whose
count depends on when stale ETA entries get swept, plus ``sim.events``)
are exported as ``rerate_counters``; ``tools/bench_trend.py`` requires
them to equal the committed baseline exactly, so an optimisation of the
flow network that re-rates different flows, or at different times, fails
CI however fast it is.

The comparison runs at ``REPRO_SIMPERF_SCALE`` (default 0.04) rather
than the figure benchmarks' ``REPRO_BENCH_SCALE``: the dual-mode sweep
costs two full fig4a runs, and 0.04 keeps that under ~10 s while still
exercising the dense all-to-all shuffle regime.
"""

import os
import time

import repro.network.fabric as fabric_mod
from repro.experiments.figures import fig4a
from repro.network.flows import FlowNetwork, Link
from repro.obs.export import write_json_atomic
from repro.sim.core import Simulator
from tests.reference_flownet import ReferenceFlowNetwork

#: Relative tolerance for series-time equivalence between modes.  Rates
#: are bit-identical; only byte-drain accumulation order differs.
_SERIES_RTOL = 1e-6


def _simperf_scale() -> float:
    return float(os.environ.get("REPRO_SIMPERF_SCALE", 0.04))


def _run_mode(mode: str, scale: float, monkeypatch) -> dict:
    """One fig4a sweep on the ``incremental`` (production) or ``global``
    (reference) flow network; aggregated counters.

    The global sweep runs in-process (``workers=1``), so the patched
    ``Fabric`` is the one every point builds.
    """
    with monkeypatch.context() as patch:
        workers = None
        if mode == "global":
            patch.setattr(fabric_mod, "FlowNetwork", ReferenceFlowNetwork)
            workers = 1
        t0 = time.perf_counter()
        fig = fig4a(scale=scale, workers=workers)
        wall = time.perf_counter() - t0

    counters: dict[str, float] = {}
    jobs = 0
    for series in fig.series:
        for result in series.results.values():
            jobs += 1
            for key, value in result.metrics.items():
                if key.startswith(("net.", "sim.")):
                    counters[key] = counters.get(key, 0.0) + value
    series_times = {
        s.label: {f"{x:g}": t for x, t in sorted(s.points.items())}
        for s in fig.series
    }
    return {
        "mode": mode,
        "jobs": jobs,
        "wall_seconds": wall,
        "events_per_second": counters.get("sim.events", 0.0) / wall,
        "counters": counters,
        "touched_per_change": (
            counters["net.rerate_touched_flows"] / counters["net.changes"]
        ),
        "series": series_times,
    }


def _waterfill_micro(
    n_nodes: int = 8, iterations: int = 50, rate_cap: float | None = None
) -> dict:
    """Raw ``_water_fill`` throughput on a dense all-to-all component.

    ``n_nodes**2`` flows, each crossing one sender uplink and one
    receiver downlink — the shuffle's worst-case single component.  With
    ``rate_cap`` every flow also carries a rate cap, as ``Transport.send``
    gives every transfer; a cap above the links' fair share keeps the
    component contended (the links bottleneck, the caps never bind), the
    regime the caching OSU-IB job spends its re-rates in.  The numbers are machine-dependent (recorded for the
    trend series, never asserted or baselined); the per-level arithmetic
    itself is gated by the bit-identity oracle tests.
    """
    sim = Simulator()
    net = FlowNetwork(sim)
    up = [Link(f"up{i}", 1e9) for i in range(n_nodes)]
    down = [Link(f"down{i}", 1e9) for i in range(n_nodes)]
    for i in range(n_nodes):
        for j in range(n_nodes):
            net.transfer((up[i], down[j]), 1e12, rate_cap=rate_cap)
    flows = list(net._flows)
    t0 = time.perf_counter()
    for _ in range(iterations):
        net._water_fill(flows)
    wall = time.perf_counter() - t0
    return {
        "flows": len(flows),
        "links": 2 * n_nodes,
        "rate_cap": rate_cap,
        "iterations": iterations,
        "wall_seconds": wall,
        "flow_rates_per_second": len(flows) * iterations / wall,
    }


def _worst_series_delta(a: dict, b: dict) -> float:
    worst = 0.0
    for label, points in a["series"].items():
        for x, t in points.items():
            ref = b["series"][label][x]
            worst = max(worst, abs(t - ref) / ref if ref else abs(t - ref))
    return worst


def test_simperf_incremental_vs_oracle(monkeypatch):
    scale = _simperf_scale()
    incr = _run_mode("incremental", scale, monkeypatch)
    glob = _run_mode("global", scale, monkeypatch)

    # Figure outputs unchanged: every series time matches the oracle.
    worst = _worst_series_delta(incr, glob)
    assert worst <= _SERIES_RTOL, (
        f"incremental series times drifted from the oracle by {worst:.3e}"
    )

    # >= 2x less re-rate work per flow-population change (deterministic).
    reduction = glob["touched_per_change"] / incr["touched_per_change"]
    assert reduction >= 2.0, (
        f"re-rate work reduction {reduction:.2f}x < 2x "
        f"(incremental {incr['touched_per_change']:.2f} vs "
        f"oracle {glob['touched_per_change']:.2f} touched flows/change)"
    )

    # Wake-up hygiene: fewer calendar events overall, and far fewer
    # superseded wake-ups (deterministic).
    assert incr["counters"]["sim.events"] < glob["counters"]["sim.events"], (
        "incremental mode should process fewer simulator events"
    )
    assert (
        incr["counters"]["net.dead_wakeups"]
        < 0.5 * glob["counters"]["net.dead_wakeups"]
    ), "cancellable wakes should eliminate most dead wake-ups"

    out_dir = os.environ.get("REPRO_BENCH_OUT", ".")
    os.makedirs(out_dir, exist_ok=True)
    payload = {
        "benchmark": "simperf",
        "figure": "fig4a",
        "scale": scale,
        "modes": {m["mode"]: m for m in (incr, glob)},
        "rerate_work_reduction": reduction,
        "event_reduction": (
            glob["counters"]["sim.events"] / incr["counters"]["sim.events"]
        ),
        "wall_speedup": glob["wall_seconds"] / incr["wall_seconds"],
        "worst_series_delta": worst,
        "waterfill_micro": _waterfill_micro(),
        "waterfill_micro_capped": _waterfill_micro(rate_cap=4e8),
        "rerate_counters": {
            key: value
            for key, value in sorted(incr["counters"].items())
            if (key.startswith("net.") and key != "net.eta_compactions")
            or key == "sim.events"
        },
    }
    write_json_atomic(payload, os.path.join(out_dir, "BENCH_simperf.json"))
