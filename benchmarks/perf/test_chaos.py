"""The chaos-8n plans, and the fault combination they keep apart.

    PYTHONPATH=src python -m pytest benchmarks/perf

chaos-8n splits its fault families over two plans because silent
corruption in one plan with a worker crash and a master crash leaves
integrity detections pending (``integrity.detected`` >
``integrity.recovered``).  The strict xfail below pins that bug: once the
program settles the ledger it passes, the suite fails on the XPASS, and
``workloads.CHAOS_PLANS`` can go back to one plan holding every family.
"""

import dataclasses

import pytest

import workloads
from checks import FAMILY_FIRED

GB = workloads.GB


def all_families_plan(victims, hint):
    """Both chaos plans merged into one."""
    corrupt = workloads.corruption_plan(victims, hint)
    crash = workloads.crash_plan(victims, hint)
    return dataclasses.replace(
        corrupt, crashes=crash.crashes, master_crashes=crash.master_crashes, name="chaos-all"
    )


def test_chaos_plans_cover_every_fault_family_once():
    families = [f for _id, _builder, fams in workloads.CHAOS_PLANS for f in fams]
    assert sorted(families) == sorted(FAMILY_FIRED)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="corruption + worker crash + master crash leaves integrity detections pending",
)
@pytest.mark.parametrize(
    "seed, engine, size_gb",
    [
        (0, "http", 20),  # 2927 detected, 2924 recovered
        (16, "rdma", 8),  # 274 detected, 273 recovered
    ],
)
def test_all_families_in_one_plan_settle_the_integrity_ledger(seed, engine, size_gb):
    jobs = {j.id: j for j in workloads.chaos_jobs(seed, False)}
    clean = jobs[f"{engine}.clean"]
    clean = dataclasses.replace(clean, conf=dataclasses.replace(clean.conf, data_bytes=size_gb * GB))
    victims = workloads.chaos_victims(seed, [n.name for n in clean.nodes])
    faulted = dataclasses.replace(
        clean,
        id=f"{engine}.all",
        clean=clean.id,
        plan=lambda hint: all_families_plan(victims, hint),
        families=tuple(FAMILY_FIRED),
    )
    prior = {clean.id: clean.outcome(clean.run(clean.build({})), {})}
    outcome = faulted.outcome(faulted.run(faulted.build(prior)), prior)
    # Anything but the pinned bug fails the test outright (pytest.fail is
    # not an AssertionError, so the xfail does not absorb it).
    others = prior[clean.id].failures + [f for f in outcome.failures if f != "integrity_settled"]
    if others:
        pytest.fail(f"unexpected failures: {others}")
    assert "integrity_settled" not in outcome.failures
