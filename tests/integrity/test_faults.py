"""Deterministic fault injection and end-to-end containment.

The tests prove the robustness claim from three angles: every injected
corruption is caught by the integrity screen as a ``NumericalError``
carrying a component path, the estimate cache never stores or serves a
poisoned entry, and the sweep engine converts caught faults into
structured ``PointFailure`` records instead of dying.
"""

from __future__ import annotations

import math
from dataclasses import replace

import pytest

from repro.cache.store import get_estimate_cache
from repro.dse.engine import run_sweep
from repro.dse.space import DesignPoint
from repro.errors import ConfigurationError, NumericalError
from repro.integrity import (
    FaultKind,
    FaultPlan,
    FaultSpec,
    active_fault_plan,
    fault_injection,
    perturb_tech,
)
from repro.integrity.faults import FAULTABLE_FIELDS, assert_no_nan
from repro.tech.node import node


# -- spec and plan mechanics ----------------------------------------------------


def test_corruptions_by_kind():
    assert math.isnan(FaultSpec(kind=FaultKind.NAN).corrupt(3.0))
    assert math.isinf(FaultSpec(kind=FaultKind.INF).corrupt(3.0))
    assert FaultSpec(kind=FaultKind.SIGN_FLIP).corrupt(3.0) == -3.0
    assert FaultSpec(kind=FaultKind.SIGN_FLIP).corrupt(0.0) == -1.0
    assert FaultSpec(kind=FaultKind.SCALE, scale=2.0).corrupt(3.0) == 6.0


def test_spec_rejects_unknown_field():
    with pytest.raises(ConfigurationError):
        FaultSpec(field="latency_ms")


def test_spec_target_matches_qualname_and_path():
    spec = FaultSpec(target="tensor_unit")
    assert spec.matches("TensorUnit.estimate", "chip.core.tensor_unit")
    assert spec.matches("Chip.estimate", "chip.core.tensor_unit")
    assert not spec.matches("Chip.estimate", "chip.core.sram")
    assert FaultSpec(target="").matches("anything", None)


def test_generate_is_deterministic_in_the_seed():
    a = FaultPlan.generate(seed=7, count=6)
    b = FaultPlan.generate(seed=7, count=6)
    c = FaultPlan.generate(seed=8, count=6)
    assert a.specs == b.specs
    assert a.specs != c.specs
    assert all(s.field in FAULTABLE_FIELDS for s in a.specs)


def test_pick_respects_max_hits_and_records_hits():
    plan = FaultPlan(specs=(FaultSpec(target="", max_hits=2),))
    assert plan.pick("A.estimate", "a") is not None
    assert plan.pick("B.estimate", "b") is not None
    assert plan.pick("C.estimate", "c") is None  # quota exhausted
    assert plan.exhausted
    assert [h.qualname for h in plan.hits] == ["A.estimate", "B.estimate"]


def test_nested_activation_is_rejected():
    with fault_injection(FaultPlan()):
        with pytest.raises(ConfigurationError):
            with fault_injection(FaultPlan()):
                pass  # pragma: no cover
    assert active_fault_plan() is None


def test_plan_deactivates_even_on_error():
    with pytest.raises(RuntimeError):
        with fault_injection(FaultPlan()):
            raise RuntimeError("boom")
    assert active_fault_plan() is None


# -- perturbed technology nodes -------------------------------------------------


def test_perturb_tech_is_deterministic_and_bounded(t28):
    a = perturb_tech(t28, seed=3)
    b = perturb_tech(t28, seed=3)
    assert a == b
    assert a != t28
    for name in ("gate_area_um2", "gate_energy_fj", "fo4_ps"):
        ratio = getattr(a, name) / getattr(t28, name)
        assert 0.95 <= ratio <= 1.05
    assert a.feature_nm == t28.feature_nm
    assert_no_nan(a)


def test_perturb_tech_rejects_bad_magnitude(t28):
    with pytest.raises(ConfigurationError):
        perturb_tech(t28, seed=0, magnitude=1.5)


def test_assert_no_nan_rejects_poisoned_node(t28):
    from dataclasses import fields

    poisoned = object.__new__(type(t28))
    for f in fields(t28):
        object.__setattr__(poisoned, f.name, getattr(t28, f.name))
    object.__setattr__(poisoned, "gate_energy_fj", float("nan"))
    with pytest.raises(ConfigurationError):
        assert_no_nan(poisoned)


# -- end-to-end containment through cached_estimate -----------------------------


def _build():
    return DesignPoint(8, 1, 1, 1).build()


@pytest.fixture()
def ctx():
    from repro.config.presets import datacenter_context

    return datacenter_context()


@pytest.mark.parametrize(
    "kind", [FaultKind.NAN, FaultKind.INF, FaultKind.SIGN_FLIP]
)
def test_every_injected_corruption_is_caught_with_a_path(kind, ctx):
    plan = FaultPlan(
        specs=(FaultSpec(target="", kind=kind, field="dynamic_w"),)
    )
    with fault_injection(plan):
        with pytest.raises(NumericalError) as excinfo:
            _build().estimate(ctx)
    error = excinfo.value
    assert plan.hits, "the fault never fired"
    assert error.component_path is not None
    assert error.component_path.startswith("chip")
    assert "dynamic_w" in error.field


def test_targeted_fault_names_the_targeted_component(ctx):
    plan = FaultPlan(
        specs=(
            FaultSpec(target="TensorUnit", kind=FaultKind.NAN),
        )
    )
    with fault_injection(plan):
        with pytest.raises(NumericalError) as excinfo:
            _build().estimate(ctx)
    assert "tensor_unit" in excinfo.value.component_path
    assert plan.hits[0].qualname.startswith("TensorUnit")


def test_cache_never_serves_a_poisoned_entry(ctx):
    cache = get_estimate_cache()
    cache.clear()
    clean = _build().estimate(ctx)  # warm the cache with the clean tree

    plan = FaultPlan(
        specs=(FaultSpec(target="", kind=FaultKind.NAN, max_hits=0),)
    )
    with fault_injection(plan):
        # Entry cleared on activation, so the fault cannot be masked.
        with pytest.raises(NumericalError):
            _build().estimate(ctx)

    after = _build().estimate(ctx)
    assert after == clean
    for key in list(getattr(cache, "_entries", ())):
        hit, value = cache.get(key)
        if hit and hasattr(value, "walk"):
            for entry in value.walk():
                assert math.isfinite(entry.dynamic_w)
                assert math.isfinite(entry.area_mm2)


def test_scale_fault_cannot_leak_plausible_values_into_the_cache(ctx):
    # A SCALE fault passes the numeric screen (the value looks fine), so
    # containment rests entirely on the cache bypass + clear-on-exit.
    clean = _build().estimate(ctx)
    plan = FaultPlan(
        specs=(
            FaultSpec(
                target="", kind=FaultKind.SCALE, scale=1.5, max_hits=1
            ),
        )
    )
    with fault_injection(plan):
        skewed = _build().estimate(ctx)
        assert skewed != clean  # the fault really fired
        assert plan.hits
    assert _build().estimate(ctx) == clean


def test_exhausted_plan_lets_clean_computation_resume(ctx):
    plan = FaultPlan(
        specs=(FaultSpec(target="", kind=FaultKind.NAN, max_hits=1),)
    )
    with fault_injection(plan):
        with pytest.raises(NumericalError):
            _build().estimate(ctx)
        assert plan.exhausted
        recovered = _build().estimate(ctx)  # spec quota spent: clean run
    assert math.isfinite(recovered.dynamic_w)


# -- the sweep engine converts faults into structured failures ------------------


def test_engine_converts_injected_faults_into_point_failures():
    plan = FaultPlan(
        specs=(FaultSpec(target="", kind=FaultKind.NAN, max_hits=0),)
    )
    with fault_injection(plan):
        report = run_sweep(
            [DesignPoint(8, 1, 1, 1)],
            retry_degraded=False,
            warm_cache=False,
        )
    record = report.records[0]
    assert record.status == "failed"
    assert record.failure is not None
    assert record.failure.error_type == "NumericalError"
    assert record.failure.component_path is not None
    assert record.failure.component_path in record.failure.describe()


def test_engine_forked_workers_carry_the_path_across_the_pipe():
    plan = FaultPlan(
        specs=(FaultSpec(target="", kind=FaultKind.NAN, max_hits=0),)
    )
    points = [DesignPoint(8, 1, 1, 1), DesignPoint(16, 1, 1, 1)]
    with fault_injection(plan):
        inline = run_sweep(points, retry_degraded=False, warm_cache=False)
    with fault_injection(plan):
        report = run_sweep(
            points,
            jobs=2,
            retry_degraded=False,
            warm_cache=False,
        )
    for record, want in zip(report.records, inline.records):
        assert record.status == "failed"
        assert record.failure.error_type == "NumericalError"
        assert record.failure.component_path is not None
        # The worker builds the failure as an inline run does.
        assert replace(record.failure, wall_time_s=0.0) == replace(
            want.failure, wall_time_s=0.0
        )


def test_strict_engine_reraises_the_original_numerical_error():
    plan = FaultPlan(
        specs=(FaultSpec(target="", kind=FaultKind.NAN, max_hits=0),)
    )
    with fault_injection(plan):
        with pytest.raises(NumericalError) as excinfo:
            run_sweep(
                [DesignPoint(8, 1, 1, 1)],
                strict=True,
                warm_cache=False,
            )
    assert excinfo.value.component_path is not None
