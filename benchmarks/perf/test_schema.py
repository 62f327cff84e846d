"""BENCHMARK.json against the benchmark code, plus a smoke run of every name.

    PYTHONPATH=src python -m pytest benchmarks/perf
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import bench
import metrics
import workloads
from layers import PER_LAYER

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E = [m["name"] for m in SPEC["end_to_end"]]
LAYER = [m["name"] for m in SPEC["per_layer"]]
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_top_level_keys_and_command():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/perf"]
    assert SPEC["command"] == ["python3", "benchmarks/perf/bench.py"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60


def test_names_are_well_formed_and_unique():
    assert 1 <= len(E2E) <= 16
    assert 1 <= len(LAYER) <= 128
    names = E2E + LAYER + WORKLOADS
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert len(set(names)) == len(names)


def test_workloads_match_the_code():
    assert 2 <= len(WORKLOADS) <= 8
    assert WORKLOADS == list(bench.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"}
        assert 0 < len(w["why"]) <= 200 and "\n" not in w["why"]


def test_end_to_end_metrics_have_unit_direction_and_bound():
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
        assert 0 < m["bound"] <= 0.25
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == metrics.END_TO_END
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_layer_metrics_match_catalog_and_name_real_targets():
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        row = PER_LAYER[m["name"]]
        assert (m["unit"], m["better"]) == (row["unit"], row["better"])
    assert LAYER == list(PER_LAYER)
    for name, row in PER_LAYER.items():
        assert row["moves"] and set(row["moves"]) <= set(E2E), name
        assert row["mostly_on"] and set(row["mostly_on"]) <= set(WORKLOADS), name
        assert set(row["no_change_on"]) <= set(WORKLOADS), name


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks/perf/bench.py"), "--smoke", "--seed", "0",
         "--trace", "1", "--trace-dir", str(out), "--json", str(out / "smoke.json")],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    return json.loads((out / "smoke.json").read_text()), last, out


def test_smoke_run_emits_exactly_the_declared_names(smoke):
    full, last, _ = smoke
    assert list(full["workloads"]) == WORKLOADS
    for name, report in full["workloads"].items():
        assert list(report["end_to_end"]) == E2E, name
        assert list(report["per_layer"]) == LAYER, name
        assert report["failures"] == [], (name, report["failures"])
        shares = sum(report["per_layer"][f"{layer}.share"]["value"] for layer in report["ledger"])
        assert shares == pytest.approx(1.0, abs=0.01), name
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    assert set(last["metrics"]) == {f"{w}/{m}" for w in WORKLOADS for m in LAYER}


def test_smoke_run_writes_chrome_traces(smoke):
    _, _, out = smoke
    for name in WORKLOADS:
        events = json.loads((out / f"{name}-seed0.trace.json").read_text())["traceEvents"]
        spans = [e for e in events if e.get("ph") == "X" and e["name"].startswith("span.")]
        assert {e["name"] for e in spans} == {"span.build", "span.run", "span.check"}
        assert all(e["dur"] >= 0 and "job_id" in e["args"] for e in spans)
