"""tools/bench_trend.py — benchmark trend gate used by CI."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_trend.py"
spec = importlib.util.spec_from_file_location("bench_trend", _TOOL)
bench_trend = importlib.util.module_from_spec(spec)
sys.modules["bench_trend"] = bench_trend  # dataclasses resolve via sys.modules
spec.loader.exec_module(bench_trend)


def _figure_doc(factor: float, scale: float = 0.05) -> dict:
    return {
        "benchmark": "figure",
        "figure": "fig4a",
        "scale": scale,
        "improvements": {
            "20": {"OSU-IB (QDR)": {"10GigE": factor, "IPoIB (QDR)": factor / 2}}
        },
    }


def _simperf_doc(rerate: float, events: float, scale: float = 0.04) -> dict:
    return {
        "benchmark": "simperf",
        "figure": "fig4a",
        "scale": scale,
        "rerate_work_reduction": rerate,
        "event_reduction": events,
        "wall_speedup": 1.1,
    }


def _write(directory: Path, name: str, doc: dict) -> None:
    (directory / name).write_text(json.dumps(doc))


@pytest.fixture()
def dirs(tmp_path):
    fresh = tmp_path / "bench-out"
    base = tmp_path / "baselines"
    fresh.mkdir()
    base.mkdir()
    return fresh, base


def test_matching_documents_pass(dirs):
    fresh, base = dirs
    _write(base, "BENCH_fig4a.json", _figure_doc(0.40))
    _write(fresh, "BENCH_fig4a.json", _figure_doc(0.42))
    problems, notes = bench_trend.check(fresh, base, tolerance=0.05)
    assert problems == []
    assert any("compared at scale" in n for n in notes)


def test_figure_drift_beyond_tolerance_fails(dirs):
    fresh, base = dirs
    _write(base, "BENCH_fig4a.json", _figure_doc(0.40))
    _write(fresh, "BENCH_fig4a.json", _figure_doc(0.55))
    problems, _ = bench_trend.check(fresh, base, tolerance=0.05)
    assert problems and "drifted" in problems[0]


def test_missing_improvement_key_fails(dirs):
    fresh, base = dirs
    _write(base, "BENCH_fig4a.json", _figure_doc(0.40))
    doc = _figure_doc(0.40)
    del doc["improvements"]["20"]["OSU-IB (QDR)"]["IPoIB (QDR)"]
    _write(fresh, "BENCH_fig4a.json", doc)
    problems, _ = bench_trend.check(fresh, base, tolerance=0.05)
    assert problems and "missing improvement" in problems[0]


def test_scale_mismatch_skips_with_note(dirs):
    fresh, base = dirs
    _write(base, "BENCH_fig4a.json", _figure_doc(0.40, scale=0.05))
    _write(fresh, "BENCH_fig4a.json", _figure_doc(0.90, scale=0.01))
    problems, notes = bench_trend.check(fresh, base, tolerance=0.05)
    assert problems == []
    assert any("scale mismatch" in n for n in notes)


def test_baselined_benchmark_without_fresh_doc_fails(dirs):
    fresh, base = dirs
    _write(base, "BENCH_fig4a.json", _figure_doc(0.40))
    problems, _ = bench_trend.check(fresh, base, tolerance=0.05)
    assert problems and "no fresh document" in problems[0]


def test_fresh_doc_without_baseline_is_a_note_not_a_problem(dirs):
    fresh, base = dirs
    _write(base, "BENCH_fig4a.json", _figure_doc(0.40))
    _write(fresh, "BENCH_fig4a.json", _figure_doc(0.40))
    _write(fresh, "BENCH_fig9.json", _figure_doc(0.30))
    problems, notes = bench_trend.check(fresh, base, tolerance=0.05)
    assert problems == []
    assert any("new trend point" in n for n in notes)


def test_simperf_regression_is_one_sided(dirs):
    fresh, base = dirs
    _write(base, "BENCH_simperf.json", _simperf_doc(2.2, 1.03))
    # Faster than baseline: fine.
    _write(fresh, "BENCH_simperf.json", _simperf_doc(3.0, 1.20))
    problems, _ = bench_trend.check(fresh, base, tolerance=0.05)
    assert problems == []
    # Losing the speedup: gated.
    _write(fresh, "BENCH_simperf.json", _simperf_doc(1.4, 1.03))
    problems, _ = bench_trend.check(fresh, base, tolerance=0.05)
    assert problems and "rerate_work_reduction" in problems[0]


def test_update_baselines_prunes_noise(dirs):
    fresh, base = dirs
    doc = _simperf_doc(2.28, 1.03)
    doc["wall_seconds"] = 3.63  # machine-dependent, must not be committed
    _write(fresh, "BENCH_simperf.json", doc)
    written = bench_trend.update_baselines(fresh, base)
    assert written == [str(base / "BENCH_simperf.json")]
    committed = json.loads((base / "BENCH_simperf.json").read_text())
    assert committed["rerate_work_reduction"] == 2.28
    assert "wall_seconds" not in committed and "wall_speedup" not in committed
    problems, _ = bench_trend.check(fresh, base, tolerance=0.05)
    assert problems == []


def test_simperf_rerate_counters_must_match_exactly(dirs):
    fresh, base = dirs
    counters = {"net.rerates": 6398.0, "net.flushes": 7219.0, "sim.events": 328606.0}
    doc = {**_simperf_doc(2.28, 1.03), "rerate_counters": counters}
    _write(fresh, "BENCH_simperf.json", doc)
    bench_trend.update_baselines(fresh, base)
    committed = json.loads((base / "BENCH_simperf.json").read_text())
    assert committed["rerate_counters"] == counters
    problems, _ = bench_trend.check(fresh, base, tolerance=0.05)
    assert problems == []
    # Faster ratios do not excuse one re-rate more.
    moved = {**counters, "net.rerates": 6399.0}
    _write(fresh, "BENCH_simperf.json", {**_simperf_doc(3.0, 1.2), "rerate_counters": moved})
    problems, _ = bench_trend.check(fresh, base, tolerance=0.05)
    assert len(problems) == 1
    assert "rerate_counters" in problems[0] and "net.rerates" in problems[0]
    assert "sim.events" not in problems[0]


def _slowdown_doc(benchmark: str, rdma: float, scale: float = 0.05) -> dict:
    return {
        "benchmark": benchmark,
        "figure": "fig4a",
        "scale": scale,
        "slowdowns": {"rdma": rdma, "ipoib": rdma + 0.1},
    }


def _sweep_doc(
    speedup: float,
    fingerprints_equal: bool = True,
    cpus: int = 4,
    workers: int = 4,
    scale: float = 0.05,
    digests: dict | None = None,
) -> dict:
    return {
        "benchmark": "sweep",
        "figure": "fig4a",
        "scale": scale,
        "speedup": speedup,
        "cpus": cpus,
        "workers": workers,
        "points": 24,
        "fingerprints_equal": fingerprints_equal,
        "serial_seconds": 4.0,
        "parallel_seconds": 4.0 / speedup,
        "digests": digests or {"IPoIB@20": "a1", "OSU-IB@20": "b2"},
    }


def test_gate_registry_covers_every_non_figure_benchmark():
    assert set(bench_trend.GATES) == {
        "simperf",
        "faults",
        "skew",
        "integrity",
        "master",
        "control",
        "stragglers",
        "sweep",
    }
    kinds = {gate.kind for gate in bench_trend.GATES.values()}
    assert kinds <= set(bench_trend._GATE_KINDS)


def test_slowdown_gates_are_registry_driven(dirs):
    fresh, base = dirs
    for benchmark in ("faults", "skew", "integrity"):
        name = f"BENCH_{benchmark}.json"
        _write(base, name, _slowdown_doc(benchmark, 1.5))
        _write(fresh, name, _slowdown_doc(benchmark, 1.55))
    problems, _ = bench_trend.check(fresh, base, tolerance=0.05)
    assert problems == []
    # A clear regression in any one of them fails through the same gate.
    _write(fresh, "BENCH_integrity.json", _slowdown_doc("integrity", 2.5))
    problems, _ = bench_trend.check(fresh, base, tolerance=0.05)
    assert problems and all(
        "BENCH_integrity.json" in p and "corruption slowdown rose" in p
        for p in problems
    )


def _master_doc(rdma: float, agree: bool = True) -> dict:
    return {**_slowdown_doc("master", rdma), "output_bytes_agree": agree}


def test_master_gate_requires_identical_output(dirs):
    fresh, base = dirs
    _write(base, "BENCH_master.json", _master_doc(1.2))
    # Even a faster recovery fails if the commit protocol broke the bytes.
    _write(fresh, "BENCH_master.json", _master_doc(1.1, agree=False))
    problems, _ = bench_trend.check(fresh, base, tolerance=0.5)
    assert problems and "output_bytes_agree" in problems[0]
    # With byte-identity intact only a clear slowdown regression fails.
    _write(fresh, "BENCH_master.json", _master_doc(1.1))
    problems, _ = bench_trend.check(fresh, base, tolerance=0.5)
    assert problems == []
    _write(fresh, "BENCH_master.json", _master_doc(2.5))
    problems, _ = bench_trend.check(fresh, base, tolerance=0.5)
    assert problems and "master-crash slowdown rose" in problems[0]


def test_control_floor_is_absolute(dirs):
    fresh, base = dirs
    doc = {"benchmark": "control", "figure": "fig4a", "scale": 0.05, "speedup": 1.02}
    _write(base, "BENCH_control.json", doc)
    _write(fresh, "BENCH_control.json", {**doc, "speedup": 0.97})
    problems, _ = bench_trend.check(fresh, base, tolerance=0.05)
    assert problems and "lost to the best static" in problems[0]


def _stragglers_doc(speedup: float, agree: bool = True) -> dict:
    return {
        "benchmark": "stragglers",
        "figure": "stragglers",
        "scale": 0.05,
        "speedup": speedup,
        "no_speculation_seconds": 100.0,
        "speculation_seconds": 100.0 / speedup,
        "output_bytes_agree": agree,
    }


def test_stragglers_floor_is_absolute(dirs):
    fresh, base = dirs
    _write(base, "BENCH_stragglers.json", _stragglers_doc(1.05))
    # Within tolerance of the baseline, but below 1: speculation must win.
    _write(fresh, "BENCH_stragglers.json", _stragglers_doc(0.98))
    problems, _ = bench_trend.check(fresh, base, tolerance=0.15)
    assert problems and "lost to no-speculation" in problems[0]


def test_stragglers_gate_requires_identical_output(dirs):
    fresh, base = dirs
    _write(base, "BENCH_stragglers.json", _stragglers_doc(1.5))
    # Even a faster run fails if commit-once broke the output bytes.
    _write(fresh, "BENCH_stragglers.json", _stragglers_doc(2.0, agree=False))
    problems, _ = bench_trend.check(fresh, base, tolerance=0.15)
    assert problems and "output_bytes_agree" in problems[0]


def test_sweep_gate_passes_when_identical_and_fast(dirs):
    fresh, base = dirs
    _write(base, "BENCH_sweep.json", _sweep_doc(3.0))
    _write(fresh, "BENCH_sweep.json", _sweep_doc(3.4))
    problems, _ = bench_trend.check(fresh, base, tolerance=0.05)
    assert problems == []


def test_sweep_gate_fails_on_fingerprint_mismatch(dirs):
    fresh, base = dirs
    _write(base, "BENCH_sweep.json", _sweep_doc(3.0))
    # Even a *fast* run fails if parallel results diverged from serial.
    _write(fresh, "BENCH_sweep.json", _sweep_doc(5.0, fingerprints_equal=False))
    problems, _ = bench_trend.check(fresh, base, tolerance=0.05)
    assert problems and "fingerprints_equal" in problems[0]


def test_sweep_gate_fails_when_one_digest_differs(dirs):
    fresh, base = dirs
    _write(base, "BENCH_sweep.json", _sweep_doc(3.0))
    # Serial == parallel and fast, but one point's fault-free outcome moved.
    moved = {"IPoIB@20": "a1", "OSU-IB@20": "c3"}
    _write(fresh, "BENCH_sweep.json", _sweep_doc(3.4, digests=moved))
    problems, _ = bench_trend.check(fresh, base, tolerance=0.05)
    assert len(problems) == 1
    assert "digests" in problems[0] and "OSU-IB@20" in problems[0]
    assert "IPoIB@20" not in problems[0]


def test_sweep_gate_fails_on_lost_speedup(dirs):
    fresh, base = dirs
    _write(base, "BENCH_sweep.json", _sweep_doc(3.5))
    _write(fresh, "BENCH_sweep.json", _sweep_doc(1.2))
    problems, _ = bench_trend.check(fresh, base, tolerance=0.05)
    assert problems and "speedup fell" in problems[0]


def test_sweep_gate_skips_speedup_on_undersized_machine(dirs):
    fresh, base = dirs
    _write(base, "BENCH_sweep.json", _sweep_doc(3.5))
    # 1-CPU box: a speedup "regression" is the machine, not the code ...
    _write(fresh, "BENCH_sweep.json", _sweep_doc(0.9, cpus=1, workers=4))
    problems, notes = bench_trend.check(fresh, base, tolerance=0.05)
    assert problems == []
    assert any("speedup not compared" in n for n in notes)
    # ... but bit-identity is enforced regardless of the CPU count.
    _write(
        fresh,
        "BENCH_sweep.json",
        _sweep_doc(0.9, fingerprints_equal=False, cpus=1, workers=4),
    )
    problems, _ = bench_trend.check(fresh, base, tolerance=0.05)
    assert problems and "fingerprints_equal" in problems[0]


def test_sweep_baseline_prunes_machine_dependent_fields(dirs):
    fresh, base = dirs
    _write(fresh, "BENCH_sweep.json", _sweep_doc(3.2))
    bench_trend.update_baselines(fresh, base)
    committed = json.loads((base / "BENCH_sweep.json").read_text())
    assert committed["speedup"] == 3.2
    assert committed["fingerprints_equal"] is True
    for noise in ("cpus", "serial_seconds", "parallel_seconds"):
        assert noise not in committed


def test_cli_exit_codes(dirs, capsys):
    fresh, base = dirs
    _write(base, "BENCH_fig4a.json", _figure_doc(0.40))
    _write(fresh, "BENCH_fig4a.json", _figure_doc(0.41))
    argv = ["--bench-dir", str(fresh), "--baseline-dir", str(base)]
    assert bench_trend.main(argv) == 0
    _write(fresh, "BENCH_fig4a.json", _figure_doc(0.90))
    assert bench_trend.main(argv) == 1
    assert "FAILED" in capsys.readouterr().out
