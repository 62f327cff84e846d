"""Layer map and profile folding.

    PYTHONPATH=src python -m pytest benchmarks/perf
"""

import cProfile
import pstats
from pathlib import Path

import pytest

from layers import LAYERS, MODULE_LAYERS, fold_profile, layer_of_relpath, layer_resolver

REPRO = Path(__file__).resolve().parents[2] / "src" / "repro"
SOURCES = sorted(p.relative_to(REPRO).as_posix() for p in REPRO.rglob("*.py"))


def _matches(rel: str) -> list[str]:
    return [
        prefix
        for prefix in MODULE_LAYERS
        if (rel.startswith(prefix) if prefix.endswith("/") else rel == prefix)
    ]


def test_every_repro_module_maps_to_exactly_one_layer():
    assert SOURCES, f"no sources under {REPRO}"
    for rel in SOURCES:
        matches = _matches(rel)
        assert matches, f"{rel} maps to no layer"
        longest = max(len(p) for p in matches)
        assert [len(p) for p in matches].count(longest) == 1, rel
        assert layer_of_relpath(rel) in LAYERS


def test_every_layer_pattern_matches_a_module():
    for prefix in MODULE_LAYERS:
        assert any(prefix in _matches(rel) for rel in SOURCES), f"dead pattern {prefix}"


@pytest.mark.parametrize(
    "rel, layer",
    [
        ("sim/core.py", "sim"),
        ("network/flows.py", "network"),
        ("core/virtualmerge.py", "core"),
        ("mapreduce/shuffle/levitated.py", "shuffle"),
        ("mapreduce/jobtracker.py", "mapreduce"),
        ("mapreduce/journal.py", "robustness"),
        ("mapreduce/speculation.py", "robustness"),
        ("integrity.py", "robustness"),
        ("tools/profiling.py", "obs"),
        ("parallel.py", "other"),
        ("experiments/figures.py", "other"),
    ],
)
def test_layer_map_examples(rel, layer):
    assert layer_of_relpath(rel) == layer


SIM = (str(REPRO / "sim" / "core.py"), 1, "run")
NET = (str(REPRO / "network" / "flows.py"), 1, "_water_fill")
HEAP = ("~", 0, "<built-in method _heapq.heappush>")
STDLIB = ("/usr/lib/python3/statistics.py", 10, "fmean")
ROOT_FRAME = ("/elsewhere/harness.py", 1, "main")


def test_non_repro_frames_are_charged_to_their_callers():
    stats = {
        SIM: (1, 1, 2.0, 5.0, {}),
        NET: (1, 1, 1.0, 2.0, {SIM: (1, 1, 1.0, 2.0)}),
        # heappush: 3/4 of its self time from sim, 1/4 via a stdlib helper
        # that network called.
        HEAP: (4, 4, 1.0, 1.0, {SIM: (3, 3, 0.75, 0.75), STDLIB: (1, 1, 0.25, 0.25)}),
        STDLIB: (1, 1, 0.5, 0.75, {NET: (1, 1, 0.5, 0.75)}),
        ROOT_FRAME: (1, 1, 0.1, 8.0, {}),
    }
    got = fold_profile(stats, layer_resolver(str(REPRO)))
    assert got["sim"] == pytest.approx(2.0 + 0.75)
    assert got["network"] == pytest.approx(1.0 + 0.25 + 0.5)
    assert got["other"] == pytest.approx(0.1)
    assert sum(got.values()) == pytest.approx(sum(v[2] for v in stats.values()))


def test_cycle_of_non_repro_callers_is_charged_to_other():
    a = ("/lib/a.py", 1, "a")
    b = ("/lib/b.py", 1, "b")
    stats = {
        SIM: (1, 1, 1.0, 3.0, {}),
        a: (2, 2, 1.0, 2.0, {SIM: (1, 1, 0.5, 1.0), b: (1, 1, 0.5, 1.0)}),
        b: (1, 1, 1.0, 1.5, {a: (1, 1, 1.0, 1.5)}),
    }
    got = fold_profile(stats, layer_resolver(str(REPRO)))
    assert sum(got.values()) == pytest.approx(3.0)
    assert got["sim"] > 1.0 and got["other"] > 0.0


def test_tiny_traced_run_shares_sum_to_one():
    import worker
    import workloads

    jobs = workloads.WORKLOADS["terasort-hdd"].make_jobs(0, True)[:1]
    profiler = cProfile.Profile()
    record, _ = worker.run_pass(jobs, 0, 0.0, profiler=profiler)
    assert record["jobs"][0]["failures"] == []
    stats = pstats.Stats(profiler).stats
    ledger = fold_profile(stats, layer_resolver(str(REPRO)))
    total = sum(ledger.values())
    assert total == pytest.approx(sum(v[2] for v in stats.values()))
    assert sum(v / total for v in ledger.values()) == pytest.approx(1.0, abs=0.01)
    assert ledger["sim"] > 0 and ledger["engine"] == 0
