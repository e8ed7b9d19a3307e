"""Bit-for-bit replay of the circuit layer against a frozen oracle.

The scalar models and the batch kernels evaluate the same closed forms
and the same SRAM lattice search, so comparing the two backends can no
longer catch a formula drift.  ``data/circuit_oracle.json`` was recorded
(values as ``float.hex``) from the commit before the kernels' private
copies of the closed forms were deleted; every value must replay exactly.

Where those two copies disagreed in the last bit — the register-file
read/write energies multiplied ``word_bits * (energy * k * growth)`` in
the scalar copy and ``word_bits * energy * k * growth`` in the kernel,
which differ for word widths that are not a power of two — the fixture
holds the kernel copy's value (the one the shared formula keeps) and
``parent_scalar_copy`` records the value the scalar copy returned.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.arch.memory import OnChipMemory, OnChipMemoryConfig
from repro.circuit.dff import DffBank
from repro.circuit.gates import LogicBlock, decoder_gate_count
from repro.circuit.rc import ladder_delay_ns
from repro.circuit.regfile import RegisterFile
from repro.circuit.sram import SramArray, SramRequirements, optimize_sram
from repro.config import presets
from repro.errors import OptimizationError
from repro.tech.node import node
from repro.tech.wire import (
    WireType,
    repeated_wire_delay_ns,
    unrepeated_wire_delay_ns,
    wire_energy_pj_per_bit,
    wire_params,
    wire_pipeline_stages,
)

ORACLE = json.loads(
    (Path(__file__).parent / "data" / "circuit_oracle.json").read_text()
)

_ORG_FIELDS = (
    "capacity_bytes",
    "block_bytes",
    "banks",
    "read_ports",
    "write_ports",
    "subarray_rows",
)

_WIRE_QUANTITIES = {
    "repeated_delay_ns": repeated_wire_delay_ns,
    "unrepeated_delay_ns": unrepeated_wire_delay_ns,
    "energy_pj_per_bit": wire_energy_pj_per_bit,
    "pipeline_stages": lambda tech, wire, length: wire_pipeline_stages(
        tech, wire, length, 1.0 / 0.7
    ),
}

_PRESETS = {
    "tpu_v1": (presets.tpu_v1, presets.tpu_v1_context),
    "tpu_v2": (presets.tpu_v2, presets.tpu_v2_context),
    "eyeriss": (presets.eyeriss, presets.eyeriss_context),
}


def _replay(expected: dict, actual: dict, label) -> None:
    """Every recorded value, exactly, as a plain Python number."""
    assert set(actual) == set(expected), label
    for name, value in expected.items():
        got = actual[name]
        if isinstance(value, str):
            assert type(got) is float, (label, name, type(got))
            assert got.hex() == value, (label, name, got.hex(), value)
        else:
            assert type(got) is type(value) and got == value, (
                label,
                name,
                got,
                value,
            )


def _sram_values(org: SramArray, tech, freq_ghz: float, keys) -> dict:
    """The named SramArray methods; bandwidths take the clock, not tech."""
    return {
        key: getattr(org, key)(freq_ghz if key.endswith("_gbps") else tech)
        for key in keys
    }


def _organization(org: SramArray) -> dict:
    return {name: getattr(org, name) for name in _ORG_FIELDS}


def test_sram_search_replays_bit_for_bit():
    infeasible = 0
    for case in ORACLE["sram_search"]:
        tech = node(case["node"])
        requirements = SramRequirements(
            capacity_bytes=case["capacity_bytes"],
            block_bytes=case["block_bytes"],
            freq_ghz=case["freq_ghz"],
            target_latency_ns=case["latency_cycles"] / case["freq_ghz"],
            target_read_bandwidth_gbps=float.fromhex(case["read_gbps"]),
            target_write_bandwidth_gbps=float.fromhex(case["write_gbps"]),
        )
        if case["result"] == "OptimizationError":
            infeasible += 1
            with pytest.raises(OptimizationError):
                optimize_sram(requirements, tech)
            continue
        org = optimize_sram(requirements, tech)
        expected = dict(case["result"])
        _replay(
            {name: expected.pop(name) for name in _ORG_FIELDS},
            _organization(org),
            case,
        )
        _replay(
            expected,
            _sram_values(org, tech, requirements.freq_ghz, expected),
            case,
        )
    assert infeasible > 0  # the fixture exercises the no-candidate path


def _preset_memory(preset: str, label: str):
    """The (OnChipMemory, ctx) a preset fixture entry was taken from."""
    build, context = _PRESETS[preset]
    core = build().config.core
    memories = dict([("mem", core.mem)] + list(core.extra_memories))
    memories["min_banks=27 override"] = OnChipMemoryConfig(
        capacity_bytes=108 * 1024,
        block_bytes=8,
        min_banks=27,
        latency_cycles=2,
    )
    return OnChipMemory(memories[label]), context()


def test_fixed_arrays_replay_bit_for_bit():
    for entry in ORACLE["sram_arrays"]:
        if "preset" not in entry:
            org = SramArray(**entry["organization"])
            tech, freq_ghz = node(entry["node"]), entry["freq_ghz"]
        else:
            memory, ctx = _preset_memory(entry["preset"], entry["memory"])
            org = memory.organization(ctx)
            tech, freq_ghz = ctx.tech, ctx.freq_ghz
            assert tech.vdd_v.hex() == entry["voltage_v"]
        _replay(entry["organization"], _organization(org), entry["label"])
        _replay(
            entry["values"],
            _sram_values(org, tech, freq_ghz, entry["values"]),
            entry["label"],
        )


def test_dff_and_logic_primitives_replay_bit_for_bit():
    for entry in ORACLE["dff"]:
        tech = node(entry["node"])
        bank = DffBank(
            "oracle", entry["bits"], entry["activity"], entry["clock_gated"]
        )
        actual = {
            name: getattr(bank, name)(tech) for name in entry["values"]
        }
        _replay(entry["values"], actual, entry)
    for entry in ORACLE["logic"]:
        tech = node(entry["node"])
        block = LogicBlock(
            "oracle",
            entry["gate_count"],
            entry["activity"],
            entry["logic_depth"],
        )
        actual = {
            name: getattr(block, name)(tech) for name in entry["values"]
        }
        _replay(entry["values"], actual, entry)
    for entry in ORACLE["decoder"]:
        gates = decoder_gate_count(entry["address_bits"])
        assert type(gates) is int and gates == entry["gates"], entry


def test_ladder_and_wire_primitives_replay_bit_for_bit():
    for entry in ORACLE["ladder"]:
        delay = ladder_delay_ns(
            float.fromhex(entry["r_ohm"]),
            float.fromhex(entry["c_ff"]),
            float.fromhex(entry["load_ff"]),
            float.fromhex(entry["driver_ohm"]),
        )
        _replay({"delay_ns": entry["delay_ns"]}, {"delay_ns": delay}, entry)
    for entry in ORACLE["wire"]:
        tech = node(entry["node"])
        wire = wire_params(tech, WireType(entry["wire_type"]))
        actual = {
            "r_ohm_per_mm": wire.r_ohm_per_mm,
            "c_ff_per_mm": wire.c_ff_per_mm,
            "pitch_um": wire.pitch_um,
            "rc_ns_per_mm2": wire.rc_ns_per_mm2,
        }
        for key in entry["values"]:
            name, _, length_hex = key.partition("@")
            if length_hex:
                actual[key] = _WIRE_QUANTITIES[name](
                    tech, wire, float.fromhex(length_hex)
                )
        _replay(entry["values"], actual, entry)


def test_register_file_primitives_replay_bit_for_bit():
    kept_kernel_order = 0
    for entry in ORACLE["regfile"]:
        tech = node(entry["node"])
        regfile = RegisterFile(
            entry["entries"],
            entry["word_bits"],
            entry["read_ports"],
            entry["write_ports"],
        )
        actual = {
            name: getattr(regfile, name)(tech) for name in entry["values"]
        }
        _replay(entry["values"], actual, entry)
        if "parent_scalar_copy" in entry:
            kept_kernel_order += 1
            assert entry["word_bits"] & (entry["word_bits"] - 1), entry
    assert kept_kernel_order > 0
