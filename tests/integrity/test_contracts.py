"""Physical-invariant contracts and the component-boundary screen."""

from __future__ import annotations

import dataclasses
import math

import pytest

import repro.integrity.contracts as contracts
from repro.arch.component import Estimate
from repro.errors import InvariantViolation, NumericalError
from repro.integrity import (
    UTILIZATION_SLACK,
    check_fraction,
    enforce_invariants,
    estimate_contracts,
    probe_mac_energy_monotonicity,
    probe_tech_monotonicity,
    screen_value,
    verify_invariants,
)


def _poison(estimate: Estimate, **overrides: float) -> Estimate:
    """A copy of ``estimate`` with fields forced past the validator.

    Mirrors how a real curve-fit bug would produce a bad value: the
    dataclass ``__post_init__`` never runs, so the poisoned value lands
    in the tree unchallenged and only the integrity screen can catch it.
    """
    poisoned = object.__new__(Estimate)
    for f in dataclasses.fields(estimate):
        object.__setattr__(poisoned, f.name, getattr(estimate, f.name))
    for name, value in overrides.items():
        object.__setattr__(poisoned, name, value)
    return poisoned


def _leaf(name: str, area: float = 1.0, dyn: float = 1.0) -> Estimate:
    return Estimate(
        name=name,
        area_mm2=area,
        dynamic_w=dyn,
        leakage_w=0.1,
        cycle_time_ns=0.5,
    )


# -- check_fraction clamp (the guardrails satellite) ----------------------------


def test_check_fraction_clamps_slack_band_to_exactly_one():
    assert check_fraction("u", 1.0 + UTILIZATION_SLACK / 2) == 1.0
    assert check_fraction("u", 1.0 + UTILIZATION_SLACK) == 1.0


def test_check_fraction_passes_interior_values_through():
    assert check_fraction("u", 0.0) == 0.0
    assert check_fraction("u", 0.73) == 0.73
    assert check_fraction("u", 1.0) == 1.0


def test_check_fraction_still_rejects_beyond_the_band():
    with pytest.raises(NumericalError):
        check_fraction("u", 1.0 + 10 * UTILIZATION_SLACK)
    with pytest.raises(NumericalError):
        check_fraction("u", -0.01)


# -- the always-on numeric screen -----------------------------------------------


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
def test_screen_rejects_bad_scalars(bad):
    with pytest.raises(NumericalError):
        screen_value(bad)


def test_screen_passes_clean_scalars_and_non_models():
    assert screen_value(3.5) == 3.5
    assert screen_value(0.0) == 0.0
    assert screen_value("not a model result") == "not a model result"


def test_screen_walks_the_whole_tree_not_just_the_root():
    # Corrupt a leaf *after* composing, so the root sums stay clean and
    # only a full-tree walk can see the poison.
    bad_leaf = _poison(_leaf("mac"), dynamic_w=float("nan"))
    tree = _poison(
        Estimate.compose("core", children=[_leaf("sram"), _leaf("mac")]),
        children=(_leaf("sram"), bad_leaf),
    )
    with pytest.raises(NumericalError) as excinfo:
        screen_value(tree)
    assert "mac.dynamic_w" in str(excinfo.value)


def test_screen_error_carries_the_digest():
    with pytest.raises(NumericalError) as excinfo:
        screen_value(float("nan"), digest="deadbeefdeadbeef")
    assert excinfo.value.config_digest == "deadbeefdeadbeef"
    assert "deadbeefdeadbeef" in str(excinfo.value)


def test_rollup_contract_is_opt_in():
    shrunk = _poison(
        Estimate.compose("core", children=(_leaf("a"), _leaf("b"))),
        area_mm2=0.5,  # < the 2.0 the children sum to
    )
    assert screen_value(shrunk) is shrunk  # default: numeric screen only
    with estimate_contracts():
        with pytest.raises(NumericalError) as excinfo:
            screen_value(shrunk)
    assert "rollup" in str(excinfo.value)
    # The toggle is scoped: outside the block the screen relaxes again.
    assert screen_value(shrunk) is shrunk


def test_rollup_contract_checks_timing_against_slowest_child():
    fast_parent = _poison(
        Estimate.compose("core", children=(_leaf("a"), _leaf("b"))),
        cycle_time_ns=0.1,  # children model 0.5 ns
    )
    with estimate_contracts():
        with pytest.raises(NumericalError) as excinfo:
            screen_value(fast_parent)
    assert "cycle_time_ns" in str(excinfo.value)


# -- the whole-chip invariant walker --------------------------------------------


def test_presets_satisfy_all_invariants(small_chip, ctx28):
    assert verify_invariants(small_chip, ctx28) == []
    enforce_invariants(small_chip, ctx28)  # must not raise


class _BrokenChip:
    """Duck-typed chip whose TDP undercuts its own power rollup."""

    def __init__(self, chip, ctx):
        self._chip = chip
        self._ctx = ctx
        self.config = chip.config

    def estimate(self, ctx):
        return self._chip.estimate(ctx)

    def tdp_w(self, ctx):
        estimate = self._chip.estimate(ctx)
        return 0.5 * (estimate.dynamic_w + estimate.leakage_w)

    def peak_tops(self, ctx):
        return self._chip.peak_tops(ctx)


def test_tdp_consistency_violation_is_reported(small_chip, ctx28):
    violations = verify_invariants(_BrokenChip(small_chip, ctx28), ctx28)
    assert [v.invariant for v in violations] == ["tdp-consistency"]
    assert "TDP" in violations[0].describe()


def test_enforce_raises_structured_invariant_violation(small_chip, ctx28):
    with pytest.raises(InvariantViolation) as excinfo:
        enforce_invariants(_BrokenChip(small_chip, ctx28), ctx28)
    assert len(excinfo.value.violations) == 1
    assert "tdp-consistency" in excinfo.value.violations[0]


def test_poisoned_tree_yields_finite_and_rollup_violations(
    small_chip, ctx28
):
    estimate = small_chip.estimate(ctx28)
    poisoned = _poison(estimate, dynamic_w=float("nan"))
    violations = contracts._tree_violations(poisoned)
    kinds = {v.invariant for v in violations}
    assert "finite" in kinds


# -- cross-configuration monotonicity probes ------------------------------------


def test_tech_monotonicity_holds_for_a_reference_design():
    from repro.dse.space import DesignPoint

    assert probe_tech_monotonicity(
        lambda: DesignPoint(16, 1, 1, 2).build()
    ) == []


def test_tech_monotonicity_flags_growth_against_shrinking_nodes():
    from repro.dse.space import DesignPoint

    # Walking the ladder backwards makes every step "grow", so the probe
    # must flag each transition — this exercises the detection path
    # without corrupting a real tech table.
    violations = probe_tech_monotonicity(
        lambda: DesignPoint(16, 1, 1, 2).build(), nodes_nm=(7, 28)
    )
    assert violations
    assert all(v.invariant == "tech-monotonicity" for v in violations)


def test_mac_energy_monotonicity_holds():
    assert probe_mac_energy_monotonicity() == []


def test_mac_energy_monotonicity_flags_an_inverted_fit(t28):
    # Scaling gate energy up with feature size inverts the int ladder's
    # premise only if the fit misbehaves; a clean node must stay clean
    # even at interpolated sizes.
    from repro.tech.node import node

    assert probe_mac_energy_monotonicity(node(10)) == []
    assert probe_mac_energy_monotonicity(t28) == []


def test_verify_invariants_matches_peak_tops(small_chip, ctx28):
    peak = small_chip.peak_tops(ctx28)
    assert math.isfinite(peak) and peak > 0
    expected = small_chip.config.peak_tops(ctx28.freq_ghz)
    assert peak == pytest.approx(expected, rel=1e-12)
