"""Speculative execution and straggler handling."""

import dataclasses

import pytest

from repro.cluster import build_cluster, westmere_cluster
from repro.mapreduce import terasort_job
from repro.mapreduce.driver import run_job_on

GB = 1024**3


def straggler_cluster(n=4, slow_index=0, speed=0.25):
    """A cluster whose node ``slow_index`` computes at ``speed`` pace."""
    specs = westmere_cluster(n)
    specs[slow_index] = dataclasses.replace(specs[slow_index], cpu_speed=speed)
    return build_cluster(specs, "ipoib")


def run(speculative, seed=0, speed=0.25, size=2 * GB):
    conf = terasort_job(size, 4, "rdma", speculative_execution=speculative)
    return run_job_on(straggler_cluster(speed=speed), conf)


def test_straggler_slows_job():
    slow = run(speculative=False)
    normal_conf = terasort_job(2 * GB, 4, "rdma")
    normal = run_job_on(build_cluster(westmere_cluster(4), "ipoib"), normal_conf)
    assert slow.execution_time > normal.execution_time


def test_speculation_launches_backups_and_shortens_map_phase():
    """Backup attempts on fast nodes beat the straggler's stuck attempts.

    Only map tasks speculate (the 0.20.2 map-side default we model), so
    the win shows in the map phase: reducers pinned to the slow node
    still drag the tail either way.
    """
    without = run(speculative=False, speed=0.07)
    with_spec = run(speculative=True, speed=0.07)
    assert with_spec.counters.get("map.speculative_launched", 0) > 0
    assert with_spec.last_map_end < without.last_map_end
    # The losing originals were cancelled, recorded as failed spans.
    cancelled = [s for s in with_spec.task_spans if s.kind == "map" and not s.ok]
    assert len(cancelled) == with_spec.counters["map.speculative_launched"]


def test_speculation_exactly_one_commit_per_map():
    result = run(speculative=True, speed=0.15)
    assert result.counters["map.completed"] == result.conf.n_maps
    # Losing attempts' outputs were discarded, not double-registered.
    assert result.counters["map.output_bytes"] == pytest.approx(
        result.conf.data_bytes, rel=1e-6
    )
    assert result.counters["reduce.completed"] == result.conf.n_reduces


def test_speculation_noop_on_balanced_cluster():
    conf = terasort_job(2 * GB, 4, "rdma", speculative_execution=True)
    result = run_job_on(build_cluster(westmere_cluster(4), "ipoib"), conf)
    # Jitter is a few percent; nothing should cross the 1.5x median bar.
    assert result.counters.get("map.speculative_launched", 0) == 0


def test_speculation_disabled_by_default():
    conf = terasort_job(1 * GB, 2, "rdma")
    assert conf.speculative_execution is False
