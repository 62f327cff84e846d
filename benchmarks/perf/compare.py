#!/usr/bin/env python3
"""Compare two ``bench.py --json`` outputs, workload by workload.

    python3 benchmarks/perf/compare.py A.json B.json

For each workload x end-to-end metric it prints both medians and
quartiles and a verdict, taking each metric's direction and bound from
``BENCHMARK.json``:

* ``worse`` / ``better``: B's median moved past the bound;
* ``within bound``: it did not;
* ``unresolved``: the spread (quartile distance over A's median, the
  larger of the two runs) exceeds the bound, unless every sample of one
  side beats every sample of the other.

It also flags every deterministic quantity that differs: job
fingerprints, program counters, per-layer work tallies and
``claim_gap_pp``.  Exit status 1 when any metric is worse or anything
deterministic differs.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

#: Per-layer metrics that are host-time measurements, not program tallies.
_TIMED_LAYER_SUFFIXES = ("self_s", "share", "overhead", "per_event", "per_rerate", "per_s")


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    ma, mb = statistics.median(a), statistics.median(b)
    if ma == 0:
        return "within bound" if mb == 0 else "unresolved"
    change = sign * (mb - ma) / abs(ma)  # > 0: B is worse
    spread = max(_iqr(a), _iqr(b)) / abs(ma)
    if spread > bound:
        if all(sign * y < sign * x for y in b for x in a):
            return "better"
        if all(sign * y > sign * x for y in b for x in a):
            return "worse"
        return "unresolved"
    if change > bound:
        return "worse"
    if -change > bound:
        return "better"
    return "within bound"


def _iqr(xs: list[float]) -> float:
    if len(xs) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q3 - q1


def deterministic_diffs(name: str, a: dict, b: dict) -> list[str]:
    """Every deterministic quantity of one workload that differs A -> B."""
    diffs = []
    if a["fingerprint"] != b["fingerprint"]:
        diffs.append(f"{name}: fingerprint {a['fingerprint']} -> {b['fingerprint']}")
    if a["claim_gap_pp"] != b["claim_gap_pp"]:
        diffs.append(f"{name}: claim_gap_pp {a['claim_gap_pp']} -> {b['claim_gap_pp']}")
    for job in sorted(set(a["jobs"]) | set(b["jobs"])):
        ja, jb = a["jobs"].get(job), b["jobs"].get(job)
        if ja is None or jb is None:
            diffs.append(f"{name}/{job}: only in {'B' if ja is None else 'A'}")
            continue
        ca, cb = ja["counters"], jb["counters"]
        for key in sorted(set(ca) | set(cb)):
            if ca.get(key) != cb.get(key):
                diffs.append(f"{name}/{job}: {key} {ca.get(key)} -> {cb.get(key)}")
    la, lb = a["per_layer"], b["per_layer"]
    for metric in sorted(set(la) & set(lb)):
        if metric.endswith(_TIMED_LAYER_SUFFIXES) or metric.startswith("span."):
            continue
        if la[metric]["value"] != lb[metric]["value"]:
            diffs.append(f"{name}: {metric} {la[metric]['value']} -> {lb[metric]['value']}")
    return diffs


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a_all, b_all = (json.loads(Path(p).read_text())["workloads"] for p in argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bad = False
    for name in [w for w in a_all if w in b_all]:
        a, b = a_all[name], b_all[name]
        print(f"== {name}")
        for m in spec["end_to_end"]:
            ea, eb = a["end_to_end"].get(m["name"]), b["end_to_end"].get(m["name"])
            if ea is None or eb is None:
                continue
            v = verdict(ea["samples"], eb["samples"], m["better"], m["bound"])
            bad |= v == "worse"
            print(
                f"  {m['name']:<16} {m['unit']:<3} "
                f"A {ea['value']:.6g} [{ea['q1']:.6g}, {ea['q3']:.6g}] n={ea['n']}  "
                f"B {eb['value']:.6g} [{eb['q1']:.6g}, {eb['q3']:.6g}] n={eb['n']}  "
                f"bound {m['bound']:.0%}: {v}"
            )
        diffs = deterministic_diffs(name, a, b)
        bad |= bool(diffs)
        for line in diffs:
            print(f"  DIFF {line}")
        if not diffs:
            print(f"  deterministic: identical (fingerprint {a['fingerprint']}, "
                  f"claim_gap_pp {a['claim_gap_pp']})")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
