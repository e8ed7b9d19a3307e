"""Bit-for-bit replay of the architecture layer against a frozen oracle.

The scalar component classes and the batch kernels evaluate the same
architecture closed forms, so comparing the two backends can no longer
catch a formula drift.  ``data/arch_oracle.json`` was recorded (values
as ``float.hex``) from the commit before the kernels' hand transcription
of ``repro.arch`` and of the runtime-power sum was deleted; every value
must replay exactly, as a plain Python ``float`` on the scalar path.

Covered:

* every node (name, area, dynamic, leakage, cycle time) of
  ``Chip.estimate`` for the three validation chips under their own
  contexts, for Table I and training points at three contexts, and for
  configurations that reach branches the presets do not take (multicast
  and non-square TUs, spad/reg cells, DFF/eDRAM/cache Mems, bus, H-tree,
  ring and mesh NoCs, reduction trees, extra memories, shared VReg
  ports, no scalar unit, no DRAM controller);
* the per-active-cycle energies of the TU, RT, VU, VReg and SU, the NoC
  energy per byte, the Mem read/write energies, and
  ``runtime_power(...).components`` under three activity vectors;
* the vector path: every ``estimate_grid`` field and the outcomes of
  ``simulate_workloads`` on seeded expanded-space points with
  non-power-of-two TU lengths, for both preset families at three
  contexts.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.arch.chip import Chip, split_config
from repro.arch.component import ModelContext
from repro.arch.core import GridAxes
from repro.arch.memory import MemCellKind, OnChipMemory, OnChipMemoryConfig
from repro.arch.noc import NocTopology
from repro.arch.reduction_tree import ReductionTreeConfig
from repro.arch.tensor_unit import (
    Dataflow,
    InterconnectKind,
    SystolicCellConfig,
    TensorUnitConfig,
)
from repro.arch.vector_unit import VectorUnitConfig
from repro.batch.kernels import estimate_grid
from repro.batch.perf import simulate_workloads
from repro.batch.substrate import substrate_for
from repro.config import presets
from repro.datatypes import BF16, INT16
from repro.errors import NeuroMeterError
from repro.power.runtime import ActivityFactors, runtime_power
from repro.tech.node import node
from repro.units import MiB
from repro.workloads import mobilenet_v2, resnet50

ORACLE_PATH = Path(__file__).parent / "data" / "arch_oracle.json"

#: Contexts the Table I, training and custom chips are recorded under.
CONTEXTS = {
    "28nm-0.7GHz": lambda: ModelContext(node(28), 0.7),
    "16nm-0.8137GHz": lambda: ModelContext(node(16), 0.8137),
    "65nm-0.55GHz": lambda: ModelContext(node(65), 0.55),
}

#: The validation chips, each under its own published context.
VALIDATION = {
    "tpu_v1": (presets.tpu_v1, presets.tpu_v1_context),
    "tpu_v2": (presets.tpu_v2, presets.tpu_v2_context),
    "eyeriss": (presets.eyeriss, presets.eyeriss_context),
}

TABLE1_POINTS = (
    (4, 1, 1, 1),
    (8, 4, 1, 2),
    (16, 1, 2, 2),
    (24, 3, 3, 1),
    (32, 4, 2, 2),
    (64, 2, 2, 4),
    (128, 2, 4, 2),
    (200, 1, 1, 2),
    (256, 1, 1, 1),
)

TRAINING_POINTS = (
    (4, 1, 1, 1),
    (32, 2, 2, 1),
    (96, 3, 1, 3),
    (128, 1, 2, 2),
)

ACTIVITIES = (
    ActivityFactors(),
    ActivityFactors(
        tu_utilization=0.8,
        tu_occupancy=0.95,
        rt_utilization=0.5,
        vu_utilization=0.3,
        su_activity=0.4,
        mem_read_gbps=300.0,
        mem_write_gbps=120.0,
        noc_gbps=50.0,
        offchip_gbps=200.0,
    ),
    ActivityFactors(
        tu_utilization=0.1,
        tu_occupancy=0.5,
        rt_utilization=0.9,
        vu_utilization=0.9,
        su_activity=0.1,
        mem_read_gbps=1000.0,
        mem_write_gbps=10.0,
        noc_gbps=3.0,
        offchip_gbps=1e4,
        vreg_utilization=0.7,
    ),
)

#: Vector-path recipe: seeded expanded-space points per (family, context).
VECTOR_POINTS = 32
#: The preset factory behind each vector family label.
VECTOR_PRESETS = {
    "datacenter": presets.datacenter_design_point,
    "training": presets.datacenter_training_point,
}
VECTOR_BATCHES = (1, "latency-bound", 64)


def _vector_workloads():
    return [("ResNet", resnet50()), ("MobileNet", mobilenet_v2())]


def _rebuilt(chip: Chip, **core_changes) -> Chip:
    return Chip(replace(chip.config, core=replace(chip.config.core, **core_changes)))


def _custom_chips() -> dict:
    """Chips reaching the component branches the presets do not take."""
    base = presets.datacenter_design_point(32, 2, 2, 2)
    cfg = base.config
    multicast = TensorUnitConfig(
        rows=24,
        cols=40,
        cell=SystolicCellConfig(
            input_dtype=INT16, spad_bytes=224, reg_bytes=48, control_gates=800
        ),
        interconnect=InterconnectKind.MULTICAST,
        fifo_depth=12,
    )
    return {
        "multicast-spad-reg": _rebuilt(base, tu=multicast),
        "unicast-48x20-os": _rebuilt(
            base,
            tu=TensorUnitConfig(
                rows=48, cols=20, dataflow=Dataflow.OUTPUT_STATIONARY
            ),
        ),
        "dff-mem": _rebuilt(
            base,
            mem=OnChipMemoryConfig(
                capacity_bytes=48 * 1024, block_bytes=64, cell=MemCellKind.DFF
            ),
        ),
        "edram-mem": _rebuilt(
            base,
            mem=OnChipMemoryConfig(
                capacity_bytes=2 * MiB,
                block_bytes=128,
                cell=MemCellKind.EDRAM,
            ),
        ),
        "cache-mem": _rebuilt(
            base,
            mem=OnChipMemoryConfig(
                capacity_bytes=1 * MiB,
                block_bytes=64,
                scratchpad=False,
                unified=False,
                min_banks=4,
            ),
        ),
        "extra-memories": _rebuilt(
            base,
            extra_memories=(
                (
                    "accumulator",
                    OnChipMemoryConfig(
                        capacity_bytes=1 * MiB,
                        block_bytes=256,
                        read_bandwidth_gbps=100.0,
                    ),
                ),
                (
                    "dff scratch",
                    OnChipMemoryConfig(
                        capacity_bytes=16 * 1024,
                        block_bytes=32,
                        cell=MemCellKind.DFF,
                    ),
                ),
            ),
        ),
        "reduction-trees": _rebuilt(
            base,
            tu=None,
            tensor_units=1,
            rt=ReductionTreeConfig(inputs=64),
            reduction_trees=2,
        ),
        "tu-and-rt": _rebuilt(
            base, rt=ReductionTreeConfig(inputs=32, input_dtype=INT16),
            reduction_trees=1,
        ),
        "shared-ports-no-su": _rebuilt(
            base, tensor_units=4, vreg_shared_ports=True,
            include_scalar_unit=False,
        ),
        "explicit-vu": _rebuilt(
            base,
            vu=VectorUnitConfig(
                lanes=48, dtype=BF16, sfu_gates=3_000, pipeline_depth=5
            ),
        ),
        "bus-noc": Chip(replace(cfg, noc_topology=NocTopology.BUS)),
        "htree-noc": Chip(
            replace(cfg, cores_x=4, noc_topology=NocTopology.HTREE)
        ),
        "ring-noc-1x3": Chip(
            replace(cfg, cores_x=1, cores_y=3, noc_topology=NocTopology.RING)
        ),
        "mesh-noc-2x2": Chip(replace(cfg, noc_topology=NocTopology.MESH_2D)),
        "no-dram-no-pcie": Chip(
            replace(
                cfg,
                dram=None,
                pcie=None,
                ici=presets.tpu_v2().config.ici,
            )
        ),
    }


def chip_cases() -> list:
    """(label, chip, ctx) for every scalar case, in a fixed order."""
    cases = []
    for name, (build, context) in VALIDATION.items():
        cases.append((name, build(), context()))
    for ctx_name, context in CONTEXTS.items():
        for point in TABLE1_POINTS:
            cases.append(
                (
                    f"table1{point}@{ctx_name}",
                    presets.datacenter_design_point(*point),
                    context(),
                )
            )
        for point in TRAINING_POINTS:
            cases.append(
                (
                    f"training{point}@{ctx_name}",
                    presets.datacenter_training_point(*point),
                    context(),
                )
            )
        for name, chip in _custom_chips().items():
            cases.append((f"{name}@{ctx_name}", chip, context()))
    return cases


def _value(value):
    """A recorded number: plain floats as hex, NumPy floats marked."""
    if type(value) is float:
        return value.hex()
    if isinstance(value, (float, np.floating)):
        return "numpy:" + float(value).hex()
    return value


def tree_rows(chip: Chip, ctx: ModelContext) -> list:
    """Every node of ``chip.estimate(ctx)``, depth first."""
    return [
        [
            est.name,
            _value(est.area_mm2),
            _value(est.dynamic_w),
            _value(est.leakage_w),
            _value(est.cycle_time_ns),
        ]
        for est in chip.estimate(ctx).walk()
    ]


def energy_values(chip: Chip, ctx: ModelContext) -> dict:
    """Per-access and per-active-cycle energies of the scalar classes."""
    core = chip.core
    values = {}
    for label, unit in (
        ("tu", core.tensor_unit),
        ("rt", core.reduction_tree),
        ("vu", core.vector_unit),
        ("vreg", core.vreg),
        ("su", core.scalar_unit),
    ):
        if unit is not None:
            values[f"{label}_pj"] = _value(unit.energy_per_active_cycle_pj(ctx))
    memories = [("mem", core.memory(ctx))] + [
        (name, OnChipMemory(extra))
        for name, extra in chip.config.core.extra_memories
    ]
    for name, memory in memories:
        values[f"{name}.read_pj"] = _value(memory.read_energy_pj(ctx))
        values[f"{name}.write_pj"] = _value(memory.write_energy_pj(ctx))
    if chip.config.cores > 1:
        values["noc_pj_per_byte"] = _value(chip.noc(ctx).energy_per_byte_pj(ctx))
    return values


def power_rows(chip: Chip, ctx: ModelContext) -> list:
    """``runtime_power`` components (in order) and leakage per activity."""
    rows = []
    for activity in ACTIVITIES:
        report = runtime_power(chip, ctx, activity)
        rows.append(
            {
                "components": [
                    [name, _value(watts)]
                    for name, watts in report.components.items()
                ],
                "leakage_w": _value(report.leakage_w),
            }
        )
    return rows


def scalar_entry(chip: Chip, ctx: ModelContext) -> dict:
    """Everything recorded for one scalar case (or the model error)."""
    try:
        return {
            "tree": tree_rows(chip, ctx),
            "tdp_w": _value(chip.tdp_w(ctx)),
            "energies": energy_values(chip, ctx),
            "runtime_power": power_rows(chip, ctx),
        }
    except NeuroMeterError as error:
        return {"error": type(error).__name__}


def vector_points(seed: int) -> list:
    """Seeded expanded-space points whose TU length is not a power of 2."""
    rng = np.random.default_rng(seed)
    x_values = [x for x in range(4, 257, 2) if x & (x - 1)]
    points = []
    while len(points) < VECTOR_POINTS:
        point = (
            int(rng.choice(x_values)),
            int(rng.integers(1, 9)),
            int(rng.integers(1, 33)),
            int(rng.integers(1, 33)),
        )
        if point not in points:
            points.append(point)
    return points


def vector_entry(family: str, ctx: ModelContext, points: list) -> dict:
    """``estimate_grid`` fields and ``simulate_workloads`` outcomes."""
    split = [
        split_config(VECTOR_PRESETS[family](*point).config) for point in points
    ]
    (shape,) = {shape for shape, _ in split}
    axes = GridAxes.stack([values for _, values in split])
    sub = substrate_for(ctx, shape)
    grid = estimate_grid(sub, axes)
    outcomes = simulate_workloads(
        sub, grid, axes, _vector_workloads(), VECTOR_BATCHES
    )
    return {
        "grid": {
            name: [_value(v) for v in np.asarray(values).tolist()]
            for name, values in sorted(grid.items())
        },
        "outcomes": [
            {
                "workload": oc.workload,
                "batch_spec": oc.batch_spec,
                "batch": [_value(v) for v in oc.batch.tolist()],
                "runtime_power_w": [
                    _value(v) for v in oc.runtime_power_w.tolist()
                ],
            }
            for oc in outcomes
        ],
    }


def vector_cases() -> list:
    """(label, family, ctx, seed) for every vector case."""
    return [
        (f"{family}@{ctx_name}", family, context(), seed)
        for seed, (family, (ctx_name, context)) in enumerate(
            (family, item)
            for family in ("datacenter", "training")
            for item in CONTEXTS.items()
        )
    ]


# -- replay ---------------------------------------------------------------


def _oracle() -> dict:
    return json.loads(ORACLE_PATH.read_text())


def _assert_same(expected, actual, label) -> None:
    """Recorded structure, exactly; numbers as plain floats or ints."""
    if isinstance(expected, dict):
        assert isinstance(actual, dict), label
        assert list(actual) == list(expected), label
        for key in expected:
            _assert_same(expected[key], actual[key], (label, key))
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), label
        for index, (want, got) in enumerate(zip(expected, actual)):
            _assert_same(want, got, (label, index))
    else:
        assert type(actual) is type(expected) and actual == expected, (
            label,
            actual,
            expected,
        )


@pytest.fixture(scope="module")
def oracle() -> dict:
    return _oracle()


def test_scalar_cases_replay_bit_for_bit(oracle):
    recorded = oracle["scalar"]
    cases = chip_cases()
    assert [label for label, _, _ in cases] == list(recorded)
    errors = 0
    for label, chip, ctx in cases:
        entry = scalar_entry(chip, ctx)
        _assert_same(recorded[label], entry, label)
        errors += "error" in entry
    assert errors < len(cases) // 4


def test_vector_cases_replay_bit_for_bit(oracle):
    recorded = oracle["vector"]
    cases = vector_cases()
    assert [label for label, _, _, _ in cases] == list(recorded)
    for label, family, ctx, seed in cases:
        points = vector_points(seed)
        assert [list(p) for p in points] == recorded[label]["points"], label
        entry = vector_entry(family, ctx, points)
        _assert_same(recorded[label]["grid"], entry["grid"], label)
        _assert_same(recorded[label]["outcomes"], entry["outcomes"], label)


def test_oracle_covers_non_power_of_two_lengths(oracle):
    for label, entry in oracle["vector"].items():
        lengths = [point[0] for point in entry["points"]]
        assert len(lengths) >= 32, label
        assert all(x & (x - 1) for x in lengths), label
        assert any(math.isfinite(float.fromhex(v)) for v in entry["grid"]["area_mm2"])
