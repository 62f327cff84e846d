"""Run one workload in this fresh interpreter and print its results as JSON.

    python benchmarks/perf/worker.py --workload NAME --seed N [--seconds S]
        [--reps R] [--trace] [--smoke]
    python benchmarks/perf/worker.py --setup NAME --seed N

``bench.py`` starts this with ``PYTHONPATH`` pointing at ``src``.  The
last line of standard output is the JSON result.  Only the standard
library is imported at module level, so ``--setup`` times the import of
the program as well as building the workload's first cluster or runner.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import pstats
import resource
import sys
import time
import traceback

from refclock import chunk_seconds


def setup_seconds(name: str, seed: int) -> float:
    """Wall seconds to import the workload's modules and build its first
    cluster or runner."""
    t0 = time.perf_counter()
    import workloads

    workloads.WORKLOADS[name].setup(seed)
    return time.perf_counter() - t0


def run_pass(jobs: list, index: int, clock0: float, profiler=None) -> tuple[dict, dict]:
    """Run every job once, in order; return (pass record, first-pass counters).

    Before each job, outside the timed region, ``gc.collect()`` runs and
    then a reference-clock window; one more window follows the last job.
    With a profiler, it is enabled around ``build`` and ``run`` only.
    Times in a record are wall seconds.
    """
    prior = {}
    records = []
    counters = {}
    windows = []
    for job in jobs:
        gc.collect()
        windows.append(chunk_seconds())
        rec = {
            "job": job.id,
            "label": job.label,
            "engine": job.engine,
            "start_s": time.perf_counter() - clock0,
            "build_s": 0.0,
            "run_s": 0.0,
            "check_s": 0.0,
            "sim_s": None,
            "fingerprint": None,
            "counts": {},
            "failures": [],
        }
        t0 = time.perf_counter()
        try:
            if profiler is not None:
                profiler.enable()
            try:
                built = job.build(prior)
                t1 = time.perf_counter()
                raw = job.run(built)
            finally:
                if profiler is not None:
                    profiler.disable()
            t2 = time.perf_counter()
            rec["build_s"], rec["run_s"] = t1 - t0, t2 - t1
            outcome = job.outcome(raw, prior)
            del raw, built
            rec["check_s"] = time.perf_counter() - t2
        except Exception as exc:  # a job that raises is a failed job, not a harness error
            traceback.print_exc(file=sys.stderr)
            rec["failures"].append(f"raised:{type(exc).__name__}")
            records.append(rec)
            continue
        prior[job.id] = outcome
        rec.update(
            sim_s=outcome.sim_s,
            fingerprint=outcome.fingerprint,
            counts=outcome.counts,
            failures=list(outcome.failures),
        )
        counters[job.id] = outcome.counters
        records.append(rec)
    windows.append(chunk_seconds())
    return {"index": index, "traced": profiler is not None, "windows": windows, "jobs": records}, counters


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload")
    mode.add_argument("--setup", metavar="WORKLOAD")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--reps", type=int, default=1)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    if args.setup:
        print(json.dumps({"setup_s": setup_seconds(args.setup, args.seed)}))
        return 0

    import repro
    import workloads
    from checks import drift_failures
    from layers import fold_profile, layer_resolver

    wl = workloads.WORKLOADS[args.workload]
    jobs = wl.make_jobs(args.seed, args.smoke)

    clock0 = time.perf_counter()
    first, counters = run_pass(jobs, 0, clock0)
    passes = [first]
    while not args.trace and (
        len(passes) < args.reps or time.perf_counter() - clock0 < args.seconds
    ):
        passes.append(run_pass(jobs, len(passes), clock0)[0])

    # Taken before the traced pass, so the profiler's memory is not counted.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ledger = None
    if args.trace:
        profiler = cProfile.Profile()
        p, _ = run_pass(jobs, len(passes), clock0, profiler=profiler)
        passes.append(p)
        resolve = layer_resolver(os.path.dirname(repro.__file__))
        ledger = fold_profile(pstats.Stats(profiler).stats, resolve)

    claims = workloads.claim_gaps(
        wl, {j["label"]: j["sim_s"] for j in first["jobs"] if j["sim_s"] is not None}
    )
    print(
        json.dumps(
            {
                "workload": wl.name,
                "seed": args.seed,
                "smoke": args.smoke,
                "passes": passes,
                "counters": counters,
                "ledger": ledger,
                "claims": claims,
                "claim_gap_pp": workloads.mean_gap_pp(claims),
                "drift": drift_failures(passes),
                "peak_rss_mb": peak_rss_mb,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
