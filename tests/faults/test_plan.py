"""FaultPlan: validation, serialization, seeded generation."""

import pytest

from repro.faults import (
    DEGRADATION_KINDS,
    FATAL_KINDS,
    TRANSIENT_KINDS,
    FaultKind,
    FaultPlan,
    FaultSpec,
    classify,
)


class TestFaultSpec:
    def test_kind_coerced_from_string(self):
        spec = FaultSpec(kind="gpu_crash", step=3, rank=2)
        assert spec.kind is FaultKind.GPU_CRASH
        assert spec.classification == "fatal"

    def test_rejects_negative_step_and_rank(self):
        with pytest.raises(ValueError):
            FaultSpec(kind=FaultKind.GPU_CRASH, step=-1)
        with pytest.raises(ValueError):
            FaultSpec(kind=FaultKind.GPU_CRASH, step=0, rank=-2)

    def test_degradation_needs_slowdown_factor(self):
        with pytest.raises(ValueError):
            FaultSpec(kind=FaultKind.STRAGGLER, step=0, factor=1.0)
        spec = FaultSpec(kind=FaultKind.STRAGGLER, step=0, factor=2.5)
        assert spec.factor == 2.5

    def test_rejects_zero_duration(self):
        with pytest.raises(ValueError):
            FaultSpec(kind=FaultKind.LINK_DEGRADE, step=0, factor=2.0,
                      duration_steps=0)

    def test_classification_covers_every_kind(self):
        classes = {classify(kind) for kind in FaultKind}
        assert classes == {"transient", "fatal", "degradation", "numerical"}
        assert not (TRANSIENT_KINDS & FATAL_KINDS)
        assert not (DEGRADATION_KINDS & FATAL_KINDS)


class TestFaultPlan:
    def test_json_round_trip(self, tmp_path):
        plan = FaultPlan(faults=(
            FaultSpec(kind="collective_timeout", step=1, rank=3, op="all_gather"),
            FaultSpec(kind="link_degrade", step=2, rank=1, factor=3.0,
                      duration_steps=2),
            FaultSpec(kind="gpu_crash", step=3, rank=5),
        ), seed=11)
        path = plan.to_json(tmp_path / "plan.json")
        restored = FaultPlan.from_json(path)
        assert restored == plan

    def test_dict_entries_coerced(self):
        plan = FaultPlan(faults=(
            {"kind": "gpu_crash", "step": 2, "rank": 1},
        ))
        assert plan.faults[0].kind is FaultKind.GPU_CRASH

    def test_rejects_unknown_schema(self):
        with pytest.raises(ValueError, match="schema"):
            FaultPlan.from_dict({"schema": 99, "faults": []})

    def test_faults_at_and_max_rank(self):
        plan = FaultPlan(faults=(
            FaultSpec(kind="gpu_crash", step=2, rank=7),
            FaultSpec(kind="grad_corruption", step=2, rank=0),
            FaultSpec(kind="collective_timeout", step=4, rank=3),
        ))
        assert len(plan.faults_at(2)) == 2
        assert plan.faults_at(3) == ()
        assert plan.max_rank() == 7

    def test_seeded_random_is_deterministic(self):
        a = FaultPlan.random(7, num_steps=10, world_size=16, count=5)
        b = FaultPlan.random(7, num_steps=10, world_size=16, count=5)
        assert a == b
        assert len(a) == 5
        assert all(f.step < 10 and f.rank < 16 for f in a.faults)
        c = FaultPlan.random(8, num_steps=10, world_size=16, count=5)
        assert c != a

    def test_random_negative_count_names_count(self):
        with pytest.raises(ValueError, match="count -1 must be non-negative"):
            FaultPlan.random(7, num_steps=10, world_size=16, count=-1)

    def test_remapped_drops_lost_ranks(self):
        plan = FaultPlan(faults=(
            FaultSpec(kind="gpu_crash", step=2, rank=3),
            FaultSpec(kind="collective_timeout", step=4, rank=9),
        ))
        remapped = plan.remapped({3: 3, 4: 4})
        assert len(remapped) == 1
        assert remapped.faults[0].rank == 3
