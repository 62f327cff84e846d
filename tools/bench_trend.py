#!/usr/bin/env python
"""Cross-PR benchmark trend check.

Compares freshly produced ``BENCH_*.json`` documents (written by the
``benchmarks/`` suite, see ``REPRO_BENCH_OUT``) against the baselines
committed under ``benchmarks/baselines/``.

Every non-figure benchmark is gated by one entry in the :data:`GATES`
registry — a declarative table of *gate kinds* instead of one bespoke
compare function per benchmark:

* ``min_ratios`` (simperf) — the named ratio keys must not fall below
  baseline by more than the tolerance (one-sided: getting faster is
  fine, losing the incremental speedup is a regression).
* ``max_slowdowns`` (faults / skew / integrity) — each engine's
  slowdown ratio must not exceed the baseline by more than the gate's
  tolerance (one-sided: degrading more gracefully is fine).
* ``min_speedup`` (control / sweep) — a headline ``speedup`` must not
  fall below baseline by more than the tolerance, optionally with an
  absolute ``floor`` no tolerance ever excuses (the control plane must
  beat the best static knob) and ``require_true`` invariant keys (the
  parallel sweep must stay bit-identical to serial).  Gates marked
  ``cpu_aware`` skip the speedup comparison — with a note — when the
  fresh document reports fewer CPUs than workers, because wall-clock
  speedup on an undersized machine measures the machine, not the code;
  the invariant keys are still enforced.

Any gate may also list ``exact`` keys: values that must equal the
baseline exactly (the sweep's per-point digests of fault-free results,
simperf's incremental re-rate counters — a refactor that moves any
simulated outcome or re-rate fails here, however small).

Documents whose ``benchmark`` field has no registry entry fall back to
the figure gate: every OSU-IB improvement factor must match the
baseline within ``--tolerance`` (absolute, on the fractional
improvement) — a drift means the reproduced figure changed shape.

Comparisons are scale-matched: a document whose ``scale`` differs from
the baseline's is skipped with a warning rather than mis-compared.

Exit status is non-zero when any comparison fails or a baselined
benchmark produced no fresh document, so CI can gate on it::

    python tools/bench_trend.py --bench-dir bench-out
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

DEFAULT_TOLERANCE = 0.05


@dataclass(frozen=True)
class Gate:
    """One benchmark's trend gate, interpreted by :func:`apply_gate`.

    ``tolerance=None`` means "use the CLI ``--tolerance``"; every other
    field is meaningful only for the kinds documented above.
    ``baseline_keys`` lists the payload keys (beyond ``benchmark`` /
    ``figure`` / ``scale``) worth committing as a baseline — everything
    else (wall-clock seconds and other machine-dependent noise) is
    pruned by ``--update-baselines``.
    """

    kind: str  # "min_ratios" | "max_slowdowns" | "min_speedup"
    tolerance: float | None = None
    keys: tuple[str, ...] = ()  # min_ratios: the ratio keys
    what: str = ""  # max_slowdowns: slowdown description
    floor: float | None = None  # min_speedup: absolute floor
    floor_message: str = ""
    require_true: tuple[str, ...] = ()  # invariant keys (must be truthy)
    cpu_aware: bool = False  # min_speedup: skip when cpus < workers
    exact: tuple[str, ...] = ()  # keys that must equal the baseline exactly
    baseline_keys: tuple[str, ...] = ()


#: ``benchmark`` field -> trend gate.  Adding a benchmark to the trend
#: check is one table entry here plus a committed baseline document.
GATES: dict[str, Gate] = {
    # The incremental mode's re-rate counters are deterministic: a change
    # to the flow network that moves any of them re-rates different flows
    # or at different times, so it fails however fast it is.
    "simperf": Gate(
        kind="min_ratios",
        keys=("rerate_work_reduction", "event_reduction"),
        exact=("rerate_counters",),
        baseline_keys=("rerate_work_reduction", "event_reduction", "rerate_counters"),
    ),
    # Chaos slowdowns sit around 1.5-2x and shift with any
    # shuffle-timing change; only a clear regression fails.
    "faults": Gate(
        kind="max_slowdowns",
        tolerance=0.5,
        what="chaos",
        baseline_keys=("slowdowns",),
    ),
    # Low-memory degradation, around 1-1.3x.
    "skew": Gate(
        kind="max_slowdowns",
        tolerance=0.4,
        what="low-memory",
        baseline_keys=("slowdowns",),
    ),
    # Corruption-recovery, around 1-1.5x.
    "integrity": Gate(
        kind="max_slowdowns",
        tolerance=0.3,
        what="corruption",
        baseline_keys=("slowdowns",),
    ),
    # Master-crash failover, around 1.1-1.3x; byte-identical committed
    # output across the crash is absolute.
    "master": Gate(
        kind="max_slowdowns",
        tolerance=0.5,
        what="master-crash",
        require_true=("output_bytes_agree",),
        baseline_keys=("slowdowns", "output_bytes_agree"),
    ),
    # Best-static / controller, around 1.1x; the >= 1 floor is absolute.
    "control": Gate(
        kind="min_speedup",
        tolerance=0.15,
        floor=1.0,
        floor_message="controller lost to the best static setting",
        baseline_keys=(
            "speedup",
            "best_static_seconds",
            "controller_seconds",
            "static",
        ),
    ),
    # Speculation / no-speculation under a degraded node, around 1.5x;
    # the >= 1 floor and output byte-identity are absolute.
    "stragglers": Gate(
        kind="min_speedup",
        tolerance=0.15,
        floor=1.0,
        floor_message="speculation lost to no-speculation under the slowdown plan",
        require_true=("output_bytes_agree",),
        baseline_keys=(
            "speedup",
            "no_speculation_seconds",
            "speculation_seconds",
            "output_bytes_agree",
        ),
    ),
    # Parallel sweep: bit-identity (serial vs parallel, and every
    # point's fault-free outcome vs the baseline) is absolute; the
    # wall-clock speedup is compared only on machines with enough CPUs to
    # host the workers.
    "sweep": Gate(
        kind="min_speedup",
        tolerance=0.5,
        require_true=("fingerprints_equal",),
        cpu_aware=True,
        exact=("digests",),
        baseline_keys=(
            "speedup", "workers", "points", "fingerprints_equal", "digests"
        ),
    ),
}


def _load(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _walk_improvements(doc: dict):
    """Yield ``(x, ours, baseline_label, factor)`` from a figure payload."""
    for x, at_x in doc.get("improvements", {}).items():
        for ours, vs in at_x.items():
            for base_label, factor in vs.items():
                yield x, ours, base_label, factor


def compare_figure(name: str, fresh: dict, base: dict, tolerance: float) -> list[str]:
    problems = []
    got = {(x, o, b): f for x, o, b, f in _walk_improvements(fresh)}
    want = {(x, o, b): f for x, o, b, f in _walk_improvements(base)}
    if not want:
        problems.append(f"{name}: baseline has no improvement factors")
    for key, factor in want.items():
        x, ours, base_label = key
        if key not in got:
            problems.append(f"{name}: missing improvement {ours} vs {base_label} @ {x}")
            continue
        drift = abs(got[key] - factor)
        if drift > tolerance:
            problems.append(
                f"{name}: {ours} vs {base_label} @ {x}: improvement "
                f"{got[key]:+.3f} drifted {drift:.3f} from baseline "
                f"{factor:+.3f} (tolerance {tolerance})"
            )
    return problems


def _gate_min_ratios(
    name: str, fresh: dict, base: dict, gate: Gate, tolerance: float
) -> tuple[list[str], list[str]]:
    problems = []
    for key in gate.keys:
        if key not in base:
            continue
        if key not in fresh:
            problems.append(f"{name}: missing ratio {key}")
            continue
        if fresh[key] < base[key] - tolerance:
            problems.append(
                f"{name}: {key} fell to {fresh[key]:.3f} from baseline "
                f"{base[key]:.3f} (tolerance {tolerance})"
            )
    return problems, []


def _gate_max_slowdowns(
    name: str, fresh: dict, base: dict, gate: Gate, tolerance: float
) -> tuple[list[str], list[str]]:
    problems = []
    for key in gate.require_true:
        if not fresh.get(key):
            problems.append(
                f"{name}: {key} is {fresh.get(key)!r} (must hold unconditionally)"
            )
    want = base.get("slowdowns", {})
    got = fresh.get("slowdowns", {})
    if not want:
        problems.append(f"{name}: baseline has no slowdowns")
    for engine, slowdown in want.items():
        if engine not in got:
            problems.append(f"{name}: missing engine {engine}")
            continue
        if got[engine] > slowdown + tolerance:
            problems.append(
                f"{name}: {engine} {gate.what} slowdown rose to "
                f"{got[engine]:.2f}x from baseline {slowdown:.2f}x "
                f"(tolerance {tolerance})"
            )
    return problems, []


def _gate_min_speedup(
    name: str, fresh: dict, base: dict, gate: Gate, tolerance: float
) -> tuple[list[str], list[str]]:
    problems: list[str] = []
    notes: list[str] = []
    for key in gate.require_true:
        if not fresh.get(key):
            problems.append(
                f"{name}: {key} is {fresh.get(key)!r} (must hold unconditionally)"
            )
    want = base.get("speedup")
    got = fresh.get("speedup")
    if want is None:
        problems.append(f"{name}: baseline has no speedup")
        return problems, notes
    if got is None:
        problems.append(f"{name}: missing speedup")
        return problems, notes
    if gate.cpu_aware:
        cpus, workers = fresh.get("cpus"), fresh.get("workers")
        if cpus is not None and workers is not None and cpus < workers:
            notes.append(
                f"{name}: speedup not compared ({cpus} CPUs < {workers} "
                f"workers; wall-clock would measure the machine)"
            )
            return problems, notes
    if gate.floor is not None and got < gate.floor:
        problems.append(
            f"{name}: {gate.floor_message or 'below absolute floor'} "
            f"(speedup {got:.3f} < {gate.floor})"
        )
    elif got < want - tolerance:
        problems.append(
            f"{name}: speedup fell to {got:.3f} from baseline "
            f"{want:.3f} (tolerance {tolerance})"
        )
    return problems, notes


_GATE_KINDS = {
    "min_ratios": _gate_min_ratios,
    "max_slowdowns": _gate_max_slowdowns,
    "min_speedup": _gate_min_speedup,
}


def apply_gate(
    name: str, fresh: dict, base: dict, cli_tolerance: float
) -> tuple[list[str], list[str]]:
    """Run the registry gate for one document pair; (problems, notes)."""
    gate = GATES.get(base.get("benchmark", ""))
    if gate is None:
        return compare_figure(name, fresh, base, cli_tolerance), []
    tolerance = cli_tolerance if gate.tolerance is None else gate.tolerance
    problems, notes = _GATE_KINDS[gate.kind](name, fresh, base, gate, tolerance)
    for key in gate.exact:
        want, got = base.get(key), fresh.get(key)
        if want is None or got == want:
            continue
        if isinstance(want, dict) and isinstance(got, dict):
            drifted = sorted(
                k for k in want.keys() | got.keys() if got.get(k) != want.get(k)
            )
            problems.append(
                f"{name}: {key} differ from baseline at {', '.join(drifted)}"
            )
        else:
            problems.append(f"{name}: {key} differ from baseline")
    return problems, notes


def check(
    bench_dir: str | os.PathLike[str],
    baseline_dir: str | os.PathLike[str],
    tolerance: float = DEFAULT_TOLERANCE,
) -> tuple[list[str], list[str]]:
    """Compare every baselined benchmark; returns (problems, notes)."""
    bench_dir, baseline_dir = Path(bench_dir), Path(baseline_dir)
    problems: list[str] = []
    notes: list[str] = []
    baselines = sorted(baseline_dir.glob("BENCH_*.json"))
    if not baselines:
        problems.append(f"no baselines found under {baseline_dir}")
    for base_path in baselines:
        name = base_path.name
        fresh_path = bench_dir / name
        if not fresh_path.exists():
            problems.append(f"{name}: no fresh document in {bench_dir}")
            continue
        base = _load(base_path)
        fresh = _load(fresh_path)
        if fresh.get("scale") != base.get("scale"):
            notes.append(
                f"{name}: scale mismatch (fresh {fresh.get('scale')} vs "
                f"baseline {base.get('scale')}), skipped"
            )
            continue
        gate_problems, gate_notes = apply_gate(name, fresh, base, tolerance)
        problems += gate_problems
        notes += gate_notes
        notes.append(f"{name}: compared at scale {base.get('scale')}")
    for fresh_path in sorted(bench_dir.glob("BENCH_*.json")):
        if not (baseline_dir / fresh_path.name).exists():
            notes.append(f"{fresh_path.name}: no baseline yet (new trend point)")
    return problems, notes


def prune_baseline(doc: dict) -> dict:
    """The subset of a benchmark document worth committing as a baseline."""
    gate = GATES.get(doc.get("benchmark", ""))
    if gate is not None:
        keep = ("benchmark", "figure", "scale") + gate.baseline_keys
        return {key: doc[key] for key in keep if key in doc}
    return {
        "figure": doc.get("figure"),
        "scale": doc.get("scale"),
        "improvements": doc.get("improvements", {}),
    }


def update_baselines(
    bench_dir: str | os.PathLike[str], baseline_dir: str | os.PathLike[str]
) -> list[str]:
    """Write pruned baselines for every fresh document; returns paths."""
    bench_dir, baseline_dir = Path(bench_dir), Path(baseline_dir)
    baseline_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for fresh_path in sorted(bench_dir.glob("BENCH_*.json")):
        out = baseline_dir / fresh_path.name
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(prune_baseline(_load(fresh_path)), fh, indent=2, sort_keys=True)
            fh.write("\n")
        written.append(str(out))
    return written


def main(argv: list[str] | None = None) -> int:
    repo_root = Path(__file__).resolve().parent.parent
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bench-dir", default=".", help="fresh BENCH_*.json directory")
    parser.add_argument(
        "--baseline-dir",
        default=str(repo_root / "benchmarks" / "baselines"),
        help="committed baseline directory",
    )
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    parser.add_argument(
        "--update-baselines",
        action="store_true",
        help="rewrite the committed baselines from the fresh documents",
    )
    args = parser.parse_args(argv)

    if args.update_baselines:
        for path in update_baselines(args.bench_dir, args.baseline_dir):
            print(f"  wrote {path}")
        return 0

    problems, notes = check(args.bench_dir, args.baseline_dir, args.tolerance)
    for note in notes:
        print(f"  {note}")
    if problems:
        print(f"bench trend check FAILED ({len(problems)} problem(s)):")
        for problem in problems:
            print(f"  {problem}")
        return 1
    print("bench trend check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
