"""Fault-plan construction: the family table, ``fault_plan`` and ``|``.

The four fixed schedules are pinned as literal plans, because the
``BENCH_faults`` / ``BENCH_integrity`` / ``BENCH_stragglers`` /
``BENCH_master`` baselines and the chaos gates are only comparable while
they stay put.  The union and the seeded draws are checked as
properties: ``empty`` and ``nodes_referenced`` distribute over ``|``, and
adding a family to the list never changes another family's entries.
"""

import dataclasses
import functools
import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import (
    FAMILIES,
    DiskCorruption,
    DiskSlowdown,
    FaultPlan,
    LinkDegrade,
    LinkFlap,
    MasterCrash,
    NodeCrash,
    NodeSlowdown,
    SegmentFault,
    WireCorruption,
    fault_plan,
)

NODES = [f"node{i:02d}" for i in range(4)]


# ---------------------------------------------------------------------------
# The fixed benchmark schedules
# ---------------------------------------------------------------------------


PINNED = {
    "standard": FaultPlan(
        crashes=(NodeCrash(at=0.55 * 100.0, node="node03"),),
        flaps=(
            LinkFlap(at=35.0, node="node00", duration=6.0),
            LinkFlap(at=70.0, node="node01", duration=6.0),
        ),
        disk_error_rate=0.05,
        name="standard",
    ),
    "corruption": FaultPlan(
        disk_corruptions=(DiskCorruption(node="node03", rate=0.15, rot_rate=0.2),),
        wire_corruptions=(WireCorruption(node="node00", rate=0.015),),
        segment_faults=(
            SegmentFault(node="node02", rate=0.05, kind="truncated"),
            SegmentFault(node="node02", rate=0.025, kind="stale"),
        ),
        name="corruption",
    ),
    "slowdown": FaultPlan(
        slowdowns=(NodeSlowdown(at=5.0, node="node03", duration=200.0, factor=3.0),),
        link_degrades=(
            LinkDegrade(at=30.0, node="node03", duration=50.0, factor=4.0),
        ),
        disk_slowdowns=(
            DiskSlowdown(at=5.0, node="node03", duration=200.0, factor=2.5),
        ),
        name="slowdown",
    ),
    "master": FaultPlan(master_crashes=(MasterCrash(at=45.0),), name="master"),
}


@pytest.mark.parametrize("family", sorted(PINNED))
def test_fixed_schedule_is_pinned(family):
    assert fault_plan([family], NODES, runtime_hint=100.0) == PINNED[family]


def test_every_family_is_pinned():
    assert set(FAMILIES) == set(PINNED)


def test_fixed_union_is_the_union_of_fixed_schedules():
    plan = fault_plan(["standard", "master"], NODES, runtime_hint=100.0)
    assert plan == PINNED["standard"] | PINNED["master"]
    assert plan.name == "standard+master"


def test_unknown_family_raises_and_lists_the_choices():
    with pytest.raises(ValueError, match="corruption.*master.*slowdown.*standard"):
        fault_plan(["chaos"], NODES, 100.0)
    with pytest.raises(ValueError, match="pick from"):
        fault_plan([], NODES, 100.0)
    with pytest.raises(ValueError, match="twice"):
        fault_plan(["master", "master"], NODES, 100.0)


def test_nodes_and_hint_are_checked_once_for_every_family():
    for family in FAMILIES:
        with pytest.raises(ValueError, match=">= 2 nodes"):
            fault_plan([family], NODES[:1], 100.0)
        with pytest.raises(ValueError, match="runtime_hint"):
            fault_plan([family], NODES, 0.0)


# ---------------------------------------------------------------------------
# Union
# ---------------------------------------------------------------------------


def test_union_concatenates_entries_and_joins_names():
    a = FaultPlan(crashes=(NodeCrash(at=1.0, node="node00"),), name="a")
    b = FaultPlan(
        crashes=(NodeCrash(at=2.0, node="node01"),),
        wire_corruptions=(WireCorruption(node="node02", rate=0.01),),
        disk_error_rate=0.05,
        name="b",
    )
    both = a | b
    assert both.crashes == a.crashes + b.crashes
    assert both.wire_corruptions == b.wire_corruptions
    assert both.disk_error_rate == 0.05
    assert both.name == "a+b"


def test_empty_plan_is_a_union_identity_apart_from_the_name():
    plan = PINNED["standard"] | PINNED["corruption"]
    assert FaultPlan() | plan == dataclasses.replace(plan, name="plan+" + plan.name)
    assert plan | FaultPlan() == dataclasses.replace(plan, name=plan.name + "+plan")


def test_union_rejects_conflicting_rates():
    a = FaultPlan(disk_error_rate=0.05)
    with pytest.raises(ValueError, match="disk_error_rate"):
        a | FaultPlan(disk_error_rate=0.1)
    # Equal rates, or a rate on one side only, are not conflicts.
    assert (a | FaultPlan(disk_error_rate=0.05)).disk_error_rate == 0.05
    assert (FaultPlan() | a).disk_error_rate == 0.05


# ---------------------------------------------------------------------------
# Seeded draws
# ---------------------------------------------------------------------------


family_sets = st.sets(st.sampled_from(sorted(FAMILIES)), min_size=1)


@given(
    families=family_sets,
    extra=st.sampled_from(sorted(FAMILIES)),
    seed=st.integers(min_value=0, max_value=10_000),
    n_nodes=st.integers(min_value=2, max_value=9),
)
@settings(max_examples=60, deadline=None)
def test_seeded_plans_compose_family_by_family(families, extra, seed, n_nodes):
    names = [f"node{i:02d}" for i in range(n_nodes)]
    ordered = sorted(families)
    plan = fault_plan(ordered, names, 37.5, seed=seed)
    parts = [fault_plan([f], names, 37.5, seed=seed) for f in ordered]
    # Each family draws from its own generator, so the plan is exactly
    # the union of the one-family draws ...
    assert plan == functools.reduce(operator.or_, parts)
    # ... and empty / nodes_referenced distribute over that union.
    assert plan.empty == all(p.empty for p in parts)
    assert plan.nodes_referenced() == set().union(
        *(p.nodes_referenced() for p in parts)
    )
    # Adding a family leaves the other families' entries unchanged.
    if extra not in families:
        grown = fault_plan([*ordered, extra], names, 37.5, seed=seed)
        assert grown == plan | fault_plan([extra], names, 37.5, seed=seed)
