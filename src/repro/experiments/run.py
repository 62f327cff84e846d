"""CLI: regenerate the paper's figures.

Examples::

    python -m repro.experiments.run --figure fig4a
    python -m repro.experiments.run --all --scale 0.1 --workers 4
    python -m repro.experiments.run --figure fig8 --out results/
    python -m repro.experiments.run --figure fig6a --scale 0.05 --profile
    python -m repro.experiments.run --figure fig8 --fault-plan standard,master
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.experiments.calibration import PAPER_CLAIMS
from repro.experiments.figures import ALL_FIGURES
from repro.experiments.report import FigureResult
from repro.faults import FAMILIES, check_families
from repro.tools.profiling import maybe_profile


def _claims(fig: FigureResult) -> list[str]:
    """Headline improvement lines matching the paper's quoted numbers.

    The claim table itself lives in :data:`repro.experiments.calibration.
    PAPER_CLAIMS` (one source of truth for the CLI, the calibration
    re-measurement sweep, and the trend tests).
    """
    out: list[str] = []
    for x, ours, base, paper in PAPER_CLAIMS.get(fig.figure, []):
        try:
            measured = fig.improvement(x, ours, base)
        except KeyError:
            continue
        out.append(
            f"{fig.figure} @{x:g}GB: {ours} vs {base}: "
            f"measured {measured:+.1%}, paper {paper:+.1%}"
        )
    return out


def _families(text: str) -> str:
    """Check a comma-separated ``--fault-plan`` family list."""
    try:
        check_families(text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--figure", choices=sorted(ALL_FIGURES), action="append")
    parser.add_argument("--all", action="store_true", help="run every figure")
    parser.add_argument("--scale", type=float, default=1.0, help="dataset scale factor")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="sweep-point worker processes (0 = all CPUs; default: "
        "REPRO_SWEEP_WORKERS or serial); results are bit-identical",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="cProfile each figure run and print the top hotspots to stderr",
    )
    parser.add_argument(
        "--fault-plan",
        type=_families,
        metavar="FAMILY[,FAMILY...]",
        help="run every grid point under the union of these fault families' "
        f"fixed benchmark schedules ({', '.join(FAMILIES)}); each point "
        "first runs fault-free for the runtime hint the windows scale off",
    )
    parser.add_argument("--out", type=Path, help="directory for .txt tables")
    parser.add_argument(
        "--json",
        action="store_true",
        help="also write BENCH_<figure>.json next to the tables",
    )
    args = parser.parse_args(argv)

    names = sorted(ALL_FIGURES) if args.all else (args.figure or [])
    if not names:
        parser.error("pick --figure ... or --all")

    for name in names:
        t0 = time.time()
        with maybe_profile(name, enabled=args.profile):
            fig = ALL_FIGURES[name](
                scale=args.scale,
                seed=args.seed,
                workers=args.workers,
                fault_plan=args.fault_plan,
            )
        table = fig.render()
        claims = _claims(fig)
        body = table + "\n" + "\n".join(claims) + "\n"
        print(body)
        print(f"[{name} done in {time.time() - t0:.1f}s wall]", file=sys.stderr)
        if args.out:
            args.out.mkdir(parents=True, exist_ok=True)
            (args.out / f"{name}.txt").write_text(body)
        if args.json:
            from repro.obs.export import write_bench_json

            out_dir = args.out if args.out else Path(".")
            out_dir.mkdir(parents=True, exist_ok=True)
            path = write_bench_json(fig, out_dir=out_dir, scale=args.scale)
            print(f"[wrote {path}]", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
