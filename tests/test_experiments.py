"""Tests for the experiment harness: report containers, figure runners
(at tiny scale), the CLI, and the calibration registry."""

import pytest

from repro.experiments import fig8, improvement
from repro.experiments.calibration import PAPER_CLAIMS
from repro.experiments.figures import ALL_FIGURES, fig6a
from repro.experiments.report import FigureResult, Series, render_table
from repro.experiments.run import main as run_main
from repro.mapreduce import terasort_job
from repro.mapreduce.job import JobResult


def fake_result(t: float) -> JobResult:
    return JobResult(
        conf=terasort_job(1024**3, 2, "rdma"),
        transport="IPoIB",
        n_nodes=2,
        execution_time=t,
    )


def test_improvement_math():
    assert improvement(70, 100) == pytest.approx(0.30)
    assert improvement(100, 0) == 0.0


def test_series_and_figure_accessors():
    fig = FigureResult("figX", "title", "GB")
    s = Series("OSU")
    s.add(10, fake_result(50.0))
    s.add(20, fake_result(90.0))
    fig.series.append(s)
    base = Series("IPoIB")
    base.add(10, fake_result(100.0))
    fig.series.append(base)
    assert fig.xs() == [10, 20]
    assert fig.series_by_label("OSU").points[20] == 90.0
    assert fig.improvement(10, "OSU", "IPoIB") == pytest.approx(0.5)
    with pytest.raises(KeyError):
        fig.series_by_label("nope")


def test_render_table_layout():
    fig = FigureResult("figX", "demo", "GB")
    s = Series("OSU")
    s.add(10, fake_result(50.0))
    fig.series.append(s)
    fig.notes.append("hello")
    text = render_table(fig)
    assert "figX: demo" in text
    assert "OSU" in text and "50.0" in text
    assert "note: hello" in text


def test_all_figures_registry_complete():
    assert set(ALL_FIGURES) == {
        "fig4a", "fig4b", "fig5", "fig6a", "fig6b", "fig7", "fig8"
    }


def test_paper_claims_cover_every_figure():
    assert set(PAPER_CLAIMS) == set(ALL_FIGURES)
    claims = {
        (fig, x, ours, base): paper
        for fig, rows in PAPER_CLAIMS.items()
        for x, ours, base, paper in rows
    }
    key = ("fig4b", 100, "OSU-IB (32Gbps)-1disk", "IPoIB (32Gbps)-1disk")
    assert claims[key] == pytest.approx(0.32)
    (fig8_claim,) = PAPER_CLAIMS["fig8"]
    assert fig8_claim[3] == pytest.approx(0.1839)


@pytest.mark.slow
def test_fig6a_tiny_scale_runs():
    fig = fig6a(scale=0.02)
    assert len(fig.series) == 4
    assert fig.xs() == [5, 10, 15, 20]
    for s in fig.series:
        assert all(t > 0 for t in s.points.values())


@pytest.mark.slow
def test_fig8_tiny_scale_caching_never_hurts():
    fig = fig8(scale=0.05)
    on = fig.series_by_label("OSU-IB (With Caching Enabled)")
    off = fig.series_by_label("OSU-IB (Without Caching Enabled)")
    for x in fig.xs():
        assert on.points[x] <= off.points[x] * 1.02


@pytest.mark.slow
def test_cli_runs_figure_and_writes_output(tmp_path, capsys):
    rc = run_main(["--figure", "fig8", "--scale", "0.02", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "fig8" in out
    assert (tmp_path / "fig8.txt").exists()


def test_cli_requires_figure():
    with pytest.raises(SystemExit):
        run_main([])
