"""Quartiles and verdicts of compare.py and metrics.summarize.

    PYTHONPATH=src python -m pytest benchmarks/perf
"""

import pytest

from compare import _iqr, verdict
from metrics import summarize


@pytest.mark.parametrize("xs", [[1.0, 2.0], [2.0, 1.0, 1.5], [3.0, 1.0, 2.0, 10.0]])
def test_quartiles_stay_inside_the_samples(xs):
    s = summarize(xs, "s")
    assert min(xs) <= s["q1"] <= s["value"] <= s["q3"] <= max(xs)
    assert _iqr(xs) == pytest.approx(s["q3"] - s["q1"])
    assert _iqr(xs) <= max(xs) - min(xs)


def test_two_samples_spread_half_their_range():
    assert _iqr([1.0, 2.0]) == pytest.approx(0.5)
    assert summarize([2.0, 1.0], "s")["q1"] == pytest.approx(1.25)


def test_single_sample_has_no_spread():
    s = summarize([4.0], "s")
    assert (s["q1"], s["value"], s["q3"], s["n"]) == (4.0, 4.0, 4.0, 1)
    assert _iqr([4.0]) == 0.0


@pytest.mark.parametrize(
    "a, b, better, want",
    [
        ([10.0, 10.4], [10.2, 10.6], "lower", "within bound"),
        ([10.0, 10.4], [13.0, 13.4], "lower", "worse"),
        ([10.0, 10.4], [13.0, 13.4], "higher", "better"),
        ([10.0, 16.0], [11.0, 15.0], "lower", "unresolved"),
        ([10.0, 16.0], [20.0, 24.0], "lower", "worse"),
    ],
)
def test_verdicts(a, b, better, want):
    assert verdict(a, b, better, 0.2) == want
