"""Wire models: R/C tables, repeated-wire delay, energy, pipelining."""

import pytest

from repro.errors import ConfigurationError, TechnologyError
from repro.tech.node import node
from repro.tech import wire
from repro.tech.wire import (
    MAX_WIRE_PARAMS,
    WireType,
    repeated_wire_delay_ns,
    unrepeated_wire_delay_ns,
    wire_energy_pj_per_bit,
    wire_params,
    wire_pipeline_stages,
)


@pytest.fixture(scope="module")
def tech():
    return node(28)


def test_global_wires_have_lowest_resistance(tech):
    local = wire_params(tech, WireType.LOCAL)
    mid = wire_params(tech, WireType.INTERMEDIATE)
    top = wire_params(tech, WireType.GLOBAL)
    assert top.r_ohm_per_mm < mid.r_ohm_per_mm < local.r_ohm_per_mm


def test_resistance_grows_at_smaller_nodes():
    r28 = wire_params(node(28), WireType.INTERMEDIATE).r_ohm_per_mm
    r7 = wire_params(node(7), WireType.INTERMEDIATE).r_ohm_per_mm
    assert r7 > r28


def test_resistance_interpolates_between_nodes():
    r20 = wire_params(node(20), WireType.GLOBAL).r_ohm_per_mm
    r16 = wire_params(node(16), WireType.GLOBAL).r_ohm_per_mm
    r28 = wire_params(node(28), WireType.GLOBAL).r_ohm_per_mm
    assert r28 < r20 < r16


def test_wire_params_memoized_within_a_bound():
    tech = node(22)
    first = wire_params(tech, WireType.LOCAL)
    assert wire_params(node(22), WireType.LOCAL) is first
    assert first == wire._wire_params.__wrapped__(22, WireType.LOCAL)
    for step in range(2 * MAX_WIRE_PARAMS):
        wire_params(node(7 + step / 4), WireType.GLOBAL)
    assert wire._wire_params.cache_info().currsize == MAX_WIRE_PARAMS


def test_unrepeated_delay_quadratic_in_length(tech):
    wire = wire_params(tech, WireType.INTERMEDIATE)
    one = unrepeated_wire_delay_ns(tech, wire, 1.0)
    two = unrepeated_wire_delay_ns(tech, wire, 2.0)
    assert two == pytest.approx(4.0 * one)


def test_repeated_delay_linear_for_long_wires(tech):
    wire = wire_params(tech, WireType.INTERMEDIATE)
    five = repeated_wire_delay_ns(tech, wire, 5.0)
    ten = repeated_wire_delay_ns(tech, wire, 10.0)
    assert ten == pytest.approx(2.0 * five, rel=1e-6)


def test_repeated_beats_unrepeated_on_long_wires(tech):
    wire = wire_params(tech, WireType.INTERMEDIATE)
    assert repeated_wire_delay_ns(tech, wire, 8.0) < (
        unrepeated_wire_delay_ns(tech, wire, 8.0)
    )


def test_repeated_delay_plausible_magnitude(tech):
    # Repeated intermediate wire at 28 nm: on the order of 100 ps/mm.
    wire = wire_params(tech, WireType.INTERMEDIATE)
    per_mm = repeated_wire_delay_ns(tech, wire, 10.0) / 10.0
    assert 0.03 < per_mm < 0.5


def test_wire_energy_linear_in_length(tech):
    wire = wire_params(tech, WireType.GLOBAL)
    assert wire_energy_pj_per_bit(tech, wire, 4.0) == pytest.approx(
        4.0 * wire_energy_pj_per_bit(tech, wire, 1.0)
    )


def test_negative_length_rejected(tech):
    wire = wire_params(tech, WireType.LOCAL)
    with pytest.raises(ConfigurationError):
        repeated_wire_delay_ns(tech, wire, -1.0)
    with pytest.raises(ConfigurationError):
        wire_energy_pj_per_bit(tech, wire, -1.0)


def test_pipeline_stages_grow_with_length(tech):
    wire = wire_params(tech, WireType.INTERMEDIATE)
    short = wire_pipeline_stages(tech, wire, 0.5, cycle_time_ns=1.43)
    long = wire_pipeline_stages(tech, wire, 30.0, cycle_time_ns=1.43)
    assert short == 1
    assert long > short


def test_pipeline_needs_positive_cycle(tech):
    wire = wire_params(tech, WireType.INTERMEDIATE)
    with pytest.raises(ConfigurationError):
        wire_pipeline_stages(tech, wire, 1.0, cycle_time_ns=0.0)


def test_out_of_range_wire_node():
    from dataclasses import replace

    tiny = replace(node(7), feature_nm=3)
    with pytest.raises(TechnologyError):
        wire_params(tiny, WireType.LOCAL)
