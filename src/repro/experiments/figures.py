"""Per-figure experiment runners (§IV).

Every function regenerates one figure of the paper's evaluation, returning
a :class:`~repro.experiments.report.FigureResult` whose series carry the
same labels the paper's legends use.

``scale`` shrinks the sort sizes (not the cluster) so the sweeps can run
quickly in CI/benchmarks; the shapes were validated at ``scale=1.0``
(paper scale) and the recorded outputs live in EXPERIMENTS.md.  Buffer,
heap, and cache sizes never scale — only the dataset — so sub-scale runs
compress (but never reorder) memory-pressure effects.

``workers`` fans the grid points across processes via
:class:`repro.parallel.SweepExecutor` (``None`` reads
``REPRO_SWEEP_WORKERS``, default serial).  Every point is an independent
seeded simulation, so parallel runs are bit-identical to serial ones —
only wall-clock changes (see ``benchmarks/test_sweep.py``).
"""

from __future__ import annotations

from collections.abc import Callable

from repro.cluster.presets import westmere_cluster
from repro.experiments.report import FigureResult, Series
from repro.mapreduce.driver import run_job
from repro.mapreduce.job import JobResult, sort_job, terasort_job
from repro.parallel import SweepExecutor, SweepPoint

__all__ = [
    "ALL_FIGURES",
    "fig4a",
    "fig4b",
    "fig5",
    "fig6a",
    "fig6b",
    "fig7",
    "fig8",
]

GB = 1024.0**3

#: (series label, fabric transport, shuffle engine) rows used by figures.
#: The verbs engines ride UCR/IB on the same HCA the IPoIB fabric uses.
ROW_10GIGE = ("10GigE", "tengige", "http")
ROW_1GIGE = ("1GigE", "gige", "http")
ROW_IPOIB = ("IPoIB (32Gbps)", "ipoib", "http")
ROW_HADOOPA = ("HadoopA-IB (32Gbps)", "ipoib", "hadoopa")
ROW_OSU = ("OSU-IB (32Gbps)", "ipoib", "rdma")

_WORKLOADS = {"terasort": terasort_job, "sort": sort_job}


def _grid_point(
    workload: str,
    size_bytes: float,
    n_nodes: int,
    engine: str,
    fabric: str,
    node_kind: str,
    n_disks: int,
    seed: int,
    overrides: dict | None = None,
    fault_plan: str | None = None,
) -> JobResult:
    """One figure grid point (module-level: spawn-safe for sweep workers).

    ``fault_plan`` is a comma-separated list of fault families
    (``--fault-plan`` on the CLI): the point first runs fault-free to
    measure the runtime hint the windows scale off, then re-runs under
    the union of those families' fixed benchmark schedules.
    """
    conf = _WORKLOADS[workload](size_bytes, n_nodes, engine, **(overrides or {}))
    nodes = westmere_cluster(n_nodes, n_disks=n_disks, node_kind=node_kind)
    if fault_plan is None:
        return run_job(nodes, fabric, conf, seed=seed)
    import dataclasses

    from repro import faults

    hint = run_job(nodes, fabric, conf, seed=seed).execution_time
    plan = faults.fault_plan(fault_plan.split(","), [n.name for n in nodes], hint)
    return run_job(
        nodes, fabric, dataclasses.replace(conf, fault_plan=plan), seed=seed
    )


def _run_grid(
    fig: FigureResult,
    grid: list[tuple[str, float, SweepPoint]],
    workers: int | None,
) -> None:
    """Execute ``(series label, x, point)`` rows and assemble the series.

    Results are collected in submission order, so the assembled figure is
    identical to what the old nested serial loops produced, for any
    worker count.
    """
    results = SweepExecutor(workers).run([point for _, _, point in grid])
    by_label: dict[str, Series] = {}
    for (label, x, _), result in zip(grid, results):
        series = by_label.get(label)
        if series is None:
            series = by_label[label] = Series(label=label)
            fig.series.append(series)
        series.add(x, result)


def _sweep(
    fig: FigureResult,
    rows: list[tuple[str, str, str]],
    sizes_gb: list[float],
    workload: str,
    node_kind: str,
    n_nodes: int,
    disks_options: list[int],
    scale: float,
    seed: int,
    workers: int | None = None,
    fault_plan: str | None = None,
) -> None:
    grid: list[tuple[str, float, SweepPoint]] = []
    for n_disks in disks_options:
        suffix = f"-{n_disks}disk{'s' if n_disks > 1 else ''}" if len(disks_options) > 1 else ""
        for label, fabric, engine in rows:
            for size_gb in sizes_gb:
                grid.append(
                    (
                        f"{label}{suffix}",
                        size_gb,
                        SweepPoint(
                            _grid_point,
                            args=(
                                workload,
                                size_gb * scale * GB,
                                n_nodes,
                                engine,
                                fabric,
                                node_kind,
                                n_disks,
                                seed,
                            ),
                            kwargs=(
                                {"fault_plan": fault_plan} if fault_plan else {}
                            ),
                            key=(fig.figure, f"{label}{suffix}", size_gb),
                        ),
                    )
                )
    _run_grid(fig, grid, workers)


def fig4a(
    scale: float = 1.0,
    seed: int = 0,
    workers: int | None = None,
    fault_plan: str | None = None,
) -> FigureResult:
    """Figure 4(a): TeraSort, 4 DataNodes, 20-40 GB, 1 and 2 HDDs."""
    fig = FigureResult(
        figure="fig4a",
        title="TeraSort total job execution time, 4-node cluster (s)",
        xlabel="sort size (GB)",
    )
    _sweep(
        fig,
        rows=[ROW_10GIGE, ROW_IPOIB, ROW_HADOOPA, ROW_OSU],
        sizes_gb=[20, 30, 40],
        workload="terasort",
        node_kind="compute",
        n_nodes=4,
        disks_options=[1, 2],
        scale=scale,
        seed=seed,
        workers=workers,
        fault_plan=fault_plan,
    )
    return fig


def fig4b(
    scale: float = 1.0,
    seed: int = 0,
    workers: int | None = None,
    fault_plan: str | None = None,
) -> FigureResult:
    """Figure 4(b): TeraSort, 8 DataNodes, 60-100 GB, 1 and 2 HDDs."""
    fig = FigureResult(
        figure="fig4b",
        title="TeraSort total job execution time, 8-node cluster (s)",
        xlabel="sort size (GB)",
    )
    _sweep(
        fig,
        rows=[ROW_1GIGE, ROW_IPOIB, ROW_HADOOPA, ROW_OSU],
        sizes_gb=[60, 80, 100],
        workload="terasort",
        node_kind="compute",
        n_nodes=8,
        disks_options=[1, 2],
        scale=scale,
        seed=seed,
        workers=workers,
        fault_plan=fault_plan,
    )
    return fig


def fig5(
    scale: float = 1.0,
    seed: int = 0,
    workers: int | None = None,
    fault_plan: str | None = None,
) -> FigureResult:
    """Figure 5: TeraSort on storage nodes — 100 GB @ 12 nodes, 200 GB @ 24.

    Storage nodes carry 24 GB RAM (twice the compute nodes'), which the
    paper credits for the caching mechanism's larger working set here.
    """
    fig = FigureResult(
        figure="fig5",
        title="TeraSort with larger sort sizes on storage nodes (s)",
        xlabel="configuration (GB sorted; see notes)",
    )
    fig.notes.append("x=100 -> 100GB on 12 nodes; x=200 -> 200GB on 24 nodes")
    grid: list[tuple[str, float, SweepPoint]] = []
    for label, fabric, engine in [ROW_1GIGE, ROW_IPOIB, ROW_HADOOPA, ROW_OSU]:
        for size_gb, n_nodes in [(100, 12), (200, 24)]:
            grid.append(
                (
                    label,
                    size_gb,
                    SweepPoint(
                        _grid_point,
                        args=(
                            "terasort",
                            size_gb * scale * GB,
                            n_nodes,
                            engine,
                            fabric,
                            "storage",
                            1,
                            seed,
                        ),
                        kwargs=({"fault_plan": fault_plan} if fault_plan else {}),
                        key=("fig5", label, size_gb),
                    ),
                )
            )
    _run_grid(fig, grid, workers)
    return fig


def fig6a(
    scale: float = 1.0,
    seed: int = 0,
    workers: int | None = None,
    fault_plan: str | None = None,
) -> FigureResult:
    """Figure 6(a): Sort benchmark, 4 DataNodes, 5-20 GB, single HDD."""
    fig = FigureResult(
        figure="fig6a",
        title="Sort total job execution time, 4-node cluster (s)",
        xlabel="sort size (GB)",
    )
    _sweep(
        fig,
        rows=[ROW_1GIGE, ROW_IPOIB, ROW_HADOOPA, ROW_OSU],
        sizes_gb=[5, 10, 15, 20],
        workload="sort",
        node_kind="compute",
        n_nodes=4,
        disks_options=[1],
        scale=scale,
        seed=seed,
        workers=workers,
        fault_plan=fault_plan,
    )
    return fig


def fig6b(
    scale: float = 1.0,
    seed: int = 0,
    workers: int | None = None,
    fault_plan: str | None = None,
) -> FigureResult:
    """Figure 6(b): Sort benchmark, 8 DataNodes, 25-40 GB, single HDD."""
    fig = FigureResult(
        figure="fig6b",
        title="Sort total job execution time, 8-node cluster (s)",
        xlabel="sort size (GB)",
    )
    _sweep(
        fig,
        rows=[ROW_1GIGE, ROW_IPOIB, ROW_HADOOPA, ROW_OSU],
        sizes_gb=[25, 30, 35, 40],
        workload="sort",
        node_kind="compute",
        n_nodes=8,
        disks_options=[1],
        scale=scale,
        seed=seed,
        workers=workers,
        fault_plan=fault_plan,
    )
    return fig


def fig7(
    scale: float = 1.0,
    seed: int = 0,
    workers: int | None = None,
    fault_plan: str | None = None,
) -> FigureResult:
    """Figure 7: Sort benchmark with SSD as the HDFS data store."""
    fig = FigureResult(
        figure="fig7",
        title="Sort with SSD data store, 4 nodes (s)",
        xlabel="sort size (GB)",
    )
    _sweep(
        fig,
        rows=[ROW_1GIGE, ROW_IPOIB, ROW_HADOOPA, ROW_OSU],
        sizes_gb=[5, 10, 15, 20],
        workload="sort",
        node_kind="ssd",
        n_nodes=4,
        disks_options=[1],
        scale=scale,
        seed=seed,
        workers=workers,
        fault_plan=fault_plan,
    )
    return fig


def fig8(
    scale: float = 1.0,
    seed: int = 0,
    workers: int | None = None,
    fault_plan: str | None = None,
) -> FigureResult:
    """Figure 8: effect of the caching mechanism (Sort on SSD).

    Series: IPoIB baseline, OSU-IB with mapred.local.caching.enabled
    false, and OSU-IB with caching on — the paper's 18.39 % ablation at
    20 GB.
    """
    fig = FigureResult(
        figure="fig8",
        title="Effect of the caching mechanism: Sort on SSD, 4 nodes (s)",
        xlabel="sort size (GB)",
    )
    variants: list[tuple[str, str, str, dict]] = [
        ("IPoIB", "ipoib", "http", {}),
        ("OSU-IB (Without Caching Enabled)", "ipoib", "rdma", {"caching_enabled": False}),
        ("OSU-IB (With Caching Enabled)", "ipoib", "rdma", {}),
    ]
    grid: list[tuple[str, float, SweepPoint]] = []
    for label, fabric, engine, overrides in variants:
        for size_gb in [5, 10, 15, 20]:
            grid.append(
                (
                    label,
                    size_gb,
                    SweepPoint(
                        _grid_point,
                        args=(
                            "sort",
                            size_gb * scale * GB,
                            4,
                            engine,
                            fabric,
                            "ssd",
                            1,
                            seed,
                        ),
                        kwargs=(
                            {"overrides": overrides, "fault_plan": fault_plan}
                            if fault_plan
                            else {"overrides": overrides}
                        ),
                        key=("fig8", label, size_gb),
                    ),
                )
            )
    _run_grid(fig, grid, workers)
    return fig


#: name -> runner, for the CLI and the benchmark harness.
ALL_FIGURES: dict[str, Callable[..., FigureResult]] = {
    "fig4a": fig4a,
    "fig4b": fig4b,
    "fig5": fig5,
    "fig6a": fig6a,
    "fig6b": fig6b,
    "fig7": fig7,
    "fig8": fig8,
}
