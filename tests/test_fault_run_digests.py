"""Faulted-run digests: every engine's recovery path, pinned bit for bit.

The benchmark's chaos workload never draws responder stalls, disk read
errors, segment faults or master stalls, so it cannot tell whether a
change to the serve/fetch recovery protocol kept every fault draw, yield
and counter update in place.  These runs can: a 0.5 GB TeraSort on four
Westmere nodes under all four fault families, fixed and at eight seeds,
on each engine.  Across the seeds the plans stall responders, crash and
stall the master, corrupt segments and fail disk reads, and every engine
retries, reports and penalty-boxes hosts.

A digest is the sha256 of ``json.dumps([execution_time, sorted(counters)])``.
A change that moves one is a behaviour change, not a refactor.
"""

import hashlib
import json

import pytest

from repro.cluster import westmere_cluster
from repro.faults import fault_plan
from repro.mapreduce import run_job, terasort_job

GB = 1024**3
MB = 1024**2

N_NODES = 4
JOB_SEED = 3
FAMILIES = ("standard", "corruption", "slowdown", "master")
PLAN_SEEDS = (None, 0, 1, 2, 3, 4, 5, 6, 7)
FAST_KNOBS = dict(
    fetch_backoff_base=0.2, fetch_backoff_max=1.5, penalty_box_secs=1.5
)


def run(engine, plan=None):
    conf = terasort_job(
        0.5 * GB, N_NODES, engine, block_bytes=64 * MB, fault_plan=plan, **FAST_KNOBS
    )
    return run_job(westmere_cluster(N_NODES), "ipoib", conf, seed=JOB_SEED)


def digest(result):
    blob = json.dumps([result.execution_time, sorted(result.counters.items())])
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def engine_digests(engine):
    """{plan seed: digest} for ``engine`` (``None`` = the fixed schedule)."""
    clean = run(engine).execution_time
    nodes = [f"node{i:02d}" for i in range(N_NODES)]
    return {
        seed: digest(run(engine, fault_plan(FAMILIES, nodes, clean, seed=seed)))
        for seed in PLAN_SEEDS
    }


DIGESTS = {
    "http": {
        None: "e2f8252c82f28302",
        0: "f6f5b344c2e3548f",
        1: "b39a438c8e075171",
        2: "950d9e16db7a5087",
        3: "77349c751e1b1886",
        4: "8d8b1e048e584da3",
        5: "5a0d8b8181adcc15",
        6: "e61e43eadd6cef34",
        7: "e04a33ad503d7ac9",
    },
    "hadoopa": {
        None: "b0dc22902a5b1633",
        0: "284767a3e3cf0dd4",
        1: "79c976aff7815d74",
        2: "2721b7bdc915bf7a",
        3: "f3a1eed02be5c1d0",
        4: "6643e5a62f253664",
        5: "b5c4d591d49201a3",
        6: "7dd18fcb3fc1f980",
        7: "b8a1140e7db76da6",
    },
    "rdma": {
        None: "0e87365ed06422d7",
        0: "c263a022cd5c7049",
        1: "49d43603d899946a",
        2: "9c9b07b384e76256",
        3: "53aabf7b85ade1ac",
        4: "3b01727ca90b6728",
        5: "353633b00c0097ff",
        6: "5616330f436b26f6",
        7: "13740951b3f10275",
    },
}


@pytest.mark.parametrize("engine", sorted(DIGESTS))
def test_faulted_run_digests_are_pinned(engine):
    assert engine_digests(engine) == DIGESTS[engine]
