#!/usr/bin/env python3
"""Host-time benchmark of the simulator: four seeded workloads, outputs checked.

    python3 benchmarks/perf/bench.py --seed 0 [--workload NAME ...] [--reps R]
        [--seconds S] [--trace 0|1] [--trace-dir DIR] [--json OUT] [--smoke]

Each workload runs in its own fresh worker process, one after another
(one closed-loop client; the simulator is single-threaded, so at most
one busy process).  Before it, ``setup_s`` is probed in 7 further fresh
interpreters, also one at a time.  The worker makes the workload's
inputs from ``--seed``, then runs passes over its jobs until at least
``--reps`` passes are done and ``--seconds`` have elapsed.  Host times
are reported in reference seconds (see ``refclock.py``).

With ``--trace 1`` the worker runs one untraced pass and then one pass
under cProfile; the per-layer ledger and a Chrome trace-event file
(open it in https://ui.perfetto.dev) land in ``--trace-dir``.

Standard output lists every metric with its unit, median, quartiles and
sample count, a ``FINGERPRINT`` line per workload and a ``FAIL workload
job invariant`` line per failed check.  The last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics, or with ``--trace 1`` the per-layer ones.  With more
than one workload, metric names there are prefixed ``<workload>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from checks import fingerprint
from layers import LAYERS
from metrics import end_to_end, per_layer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
WORKLOAD_NAMES = ("terasort-hdd", "sort-ssd", "chaos-8n", "engine-terasort")
SETUP_REPS = 7
SMOKE_SETUP_REPS = 3
#: Seconds allowed per workload, setup probes included: a one-workload
#: run must exit, with or without a result, within 180 s.
WORKLOAD_TIMEOUT_S = 170.0


class HarnessError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed check)."""


def _run_worker(args: list[str], deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise HarnessError("time budget exhausted before the worker started")
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise HarnessError(f"worker {' '.join(args)} timed out") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise HarnessError(f"worker {' '.join(args)} exited {proc.returncode}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise HarnessError(f"worker {' '.join(args)} printed nothing")
    return json.loads(lines[-1])


def run_workload(name: str, args: argparse.Namespace) -> dict:
    """Probe setup time, run the worker, and derive metrics and failures."""
    deadline = time.monotonic() + WORKLOAD_TIMEOUT_S
    seed = ["--seed", str(args.seed)]
    setup_reps = SMOKE_SETUP_REPS if args.smoke else SETUP_REPS
    setup = [
        _run_worker(["--setup", name, *seed], deadline)["setup_s"] for _ in range(setup_reps)
    ]
    worker_args = ["--workload", name, *seed, "--reps", str(args.reps), "--seconds", str(args.seconds)]
    if args.trace:
        worker_args.append("--trace")
    if args.smoke:
        worker_args.append("--smoke")
    result = _run_worker(worker_args, deadline)

    failures = [
        (job["job"], invariant)
        for p in result["passes"]
        for job in p["jobs"]
        for invariant in job["failures"]
    ]
    failures += [tuple(f) for f in result["drift"]]
    attempted = sum(len(p["jobs"]) for p in result["passes"])
    failed_jobs = sum(1 for p in result["passes"] for job in p["jobs"] if job["failures"])
    first = next(p for p in result["passes"] if not p["traced"])
    layer_metrics = per_layer(result)
    return {
        "seed": args.seed,
        "smoke": args.smoke,
        "passes": len(result["passes"]),
        "attempted": attempted,
        "failed": failed_jobs + len(result["drift"]),
        "failures": failures,
        "fingerprint": _workload_fingerprint(first),
        "jobs": {
            job["job"]: {
                "fingerprint": job["fingerprint"],
                "sim_s": job["sim_s"],
                "counters": result["counters"].get(job["job"], {}),
            }
            for job in first["jobs"]
        },
        "claims": result["claims"],
        "claim_gap_pp": result["claim_gap_pp"],
        "end_to_end": end_to_end(result, setup),
        "per_layer": layer_metrics,
        "ledger": {
            layer: layer_metrics[f"{layer}.self_s"]["value"] for layer in LAYERS
        } if result["ledger"] is not None else None,
        "raw": result,
    }


def _workload_fingerprint(first_pass: dict) -> str:
    return fingerprint([(j["job"], j["fingerprint"]) for j in first_pass["jobs"]])


def chrome_trace(name: str, report: dict) -> dict:
    """Benchmark spans (pass > job > build/run/check) as Chrome trace events.

    The spans of one job attempt share ``args.job_id``.  With a ledger, a
    counter track holds the traced pass's host self time per layer.
    """
    events = [
        {"ph": "M", "name": "process_name", "pid": 1, "args": {"name": f"{name} seed {report['seed']}"}},
    ]
    for p in report["raw"]["passes"]:
        tid = p["index"] + 1
        kind = "cProfile" if p["traced"] else "untraced"
        events.append({"ph": "M", "name": "thread_name", "pid": 1, "tid": tid, "args": {"name": f"pass {p['index']} ({kind})"}})
        jobs = p["jobs"]
        if not jobs:
            continue
        start = jobs[0]["start_s"]
        end = jobs[-1]["start_s"] + jobs[-1]["build_s"] + jobs[-1]["run_s"] + jobs[-1]["check_s"]
        events.append(_span(f"pass {p['index']}", start, end - start, tid, {"pass": p["index"]}))
        for job in jobs:
            job_id = f"{name}/pass{p['index']}/{job['job']}"
            t = job["start_s"]
            total = job["build_s"] + job["run_s"] + job["check_s"]
            events.append(_span(job["job"], t, total, tid, {"job_id": job_id, "failures": job["failures"]}))
            for phase in ("build", "run", "check"):
                dur = job[f"{phase}_s"]
                events.append(_span(f"span.{phase}", t, dur, tid, {"job_id": job_id}))
                t += dur
    if report["ledger"] is not None:
        events.append({"ph": "M", "name": "process_name", "pid": 2, "args": {"name": "host self time by layer (s, traced pass)"}})
        events.append({"ph": "C", "name": "self_s", "pid": 2, "tid": 1, "ts": 0, "args": report["ledger"]})
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def _span(name: str, start_s: float, dur_s: float, tid: int, args: dict) -> dict:
    return {
        "ph": "X",
        "name": name,
        "cat": "bench",
        "pid": 1,
        "tid": tid,
        "ts": start_s * 1e6,
        "dur": dur_s * 1e6,
        "args": args,
    }


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def print_report(name: str, report: dict, traced: bool) -> None:
    print(f"== {name} (seed {report['seed']}): {report['passes']} pass(es), "
          f"{report['attempted']} jobs attempted, {report['failed']} failed")
    for metric, s in report["end_to_end"].items():
        print(f"  {metric:<16} {s['unit']:<3} median {_fmt(s['value']):>10}  "
              f"q1 {_fmt(s['q1']):>10}  q3 {_fmt(s['q3']):>10}  n={s['n']}")
    if traced:
        for metric, v in report["per_layer"].items():
            print(f"  {metric:<36} {v['unit']:<6} {_fmt(v['value'])}")
    for row in report["claims"]:
        print(f"  claim {row['claim']}: measured {row['measured']:+.1%}, "
              f"paper {row['paper']:+.1%}, gap {row['gap_pp']:.2f} pp")
    if report["claim_gap_pp"] is not None:
        print(f"  claim_gap_pp     pp  {report['claim_gap_pp']:.4f} (mean over {len(report['claims'])} claims)")
    print(f"FINGERPRINT {name} {report['fingerprint']}")
    for job, invariant in report["failures"]:
        print(f"FAIL {name} {job} {invariant}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workload", action="append", choices=WORKLOAD_NAMES,
                    help="repeatable; default: all four")
    ap.add_argument("--reps", type=int, default=1, help="minimum passes per workload")
    ap.add_argument("--seconds", type=float, default=0.0,
                    help="keep running passes until this much time has elapsed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-dir", type=Path, default=ROOT / ".perf_out")
    ap.add_argument("--json", type=Path, help="write the full results here")
    ap.add_argument("--smoke", action="store_true", help="tiny inputs (names check)")
    args = ap.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"bench.py: no program source at {SRC}/repro", file=sys.stderr)
        return 2
    names = args.workload or list(WORKLOAD_NAMES)
    reports = {}
    try:
        for name in names:
            reports[name] = run_workload(name, args)
    except HarnessError as exc:
        print(f"bench.py: {exc}", file=sys.stderr)
        return 1

    for name, report in reports.items():
        print_report(name, report, bool(args.trace))
        if args.trace:
            args.trace_dir.mkdir(parents=True, exist_ok=True)
            path = args.trace_dir / f"{name}-seed{args.seed}.trace.json"
            path.write_text(json.dumps(chrome_trace(name, report)))
            print(f"TRACE {name} {path}")
    if args.json:
        args.json.write_text(json.dumps({"seed": args.seed, "workloads": reports}, indent=1))

    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for name, report in reports.items():
        prefix = f"{name}/" if len(reports) > 1 else ""
        for metric, s in report[kind].items():
            metrics[prefix + metric] = {"value": s["value"], "unit": s["unit"]}
    failed = sum(r["failed"] for r in reports.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in reports.values()),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
