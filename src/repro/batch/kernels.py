"""Architecture-level rollups evaluated over whole design-point grids.

:func:`estimate_grid` assembles ``Chip.estimate`` for one modeled shape's
points, given their per-point values
(:class:`~repro.batch.substrate.GridAxes`: TU rows and cols, TUs per
core, VU lanes, the Mem slice, the core grid) as arrays, against one
fixed :class:`TechSubstrate`.  It computes no physics of its own: every
component's area, power and timing come from the closed forms in
``repro.arch`` (tensor unit, vector unit, VReg, LSU, on-chip memory,
CDB, NoC, chip), which call ``repro.circuit`` and ``repro.tech`` — the
same functions the component classes call with one configuration's
numbers.  The two backends agree on the architecture because they run
the same code; ``tests/arch/test_oracle.py`` pins both against recorded
values.

What stays here: the SRAM organization search per distinct requirement
row, the NoC topology rule per point, and the core/chip assembly, summed
in ``Estimate.compose`` order.

All arrays are float64; integer inputs stay exact well below 2**53.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, Tuple

import numpy as np

from repro.arch import cdb as cdb_mod
from repro.arch import chip as chip_mod
from repro.arch import core as core_mod
from repro.arch import frontend as frontend_mod
from repro.arch import memory as memory_mod
from repro.arch import noc as noc_mod
from repro.arch import tensor_unit as tu_mod
from repro.arch import vector_unit as vu_mod
from repro.arch import vreg as vreg_mod
from repro.arch.component import Terms
from repro.arch.noc import NocTopology
from repro.batch.substrate import GridAxes, TechSubstrate
from repro.circuit import sram as sram_mod
from repro.units import tops


def _searched_organizations(
    sub: TechSubstrate, capacity, block, read_bw, write_bw, bound_ns
) -> Tuple[np.ndarray, sram_mod.Organization]:
    """`optimize_sram` per point: a feasibility mask and the organizations.

    The lattice search runs once per distinct requirement row, in the
    fixed-size blocks of :func:`repro.circuit.sram.search_lattice`, so
    its working memory does not grow with the sweep.  Infeasible points
    (the scalar path raises ``OptimizationError``) get a NaN bank count,
    which poisons every quantity derived from their organization.
    """
    rows = np.stack(np.broadcast_arrays(capacity, block, read_bw, write_bw))
    unique, inverse = np.unique(
        rows.reshape(4, -1), axis=1, return_inverse=True
    )
    index = sram_mod.search_lattice(
        sub.tech,
        sub.freq_ghz,
        unique[0],
        unique[1],
        bound_ns,
        unique[2],
        unique[3],
    )[inverse.reshape(-1)].reshape(rows.shape[1:])
    feasible = index >= 0
    org = sram_mod.lattice_organization(
        rows[0], rows[1], np.where(feasible, index, 0)
    )
    banks = org.banks + np.where(feasible, 0.0, np.nan)
    return feasible, org._replace(banks=banks)


def _per_topology(
    sub: TechSubstrate, cores: np.ndarray, form: Callable
) -> list:
    """``form(topology)``'s values per point under the shape's NoC rule.

    ``ChipConfig.topology`` picks a ring up to ``RING_MAX_CORES`` cores
    and a 2D mesh beyond, unless the shape fixes one.  Every form is
    elementwise, so evaluating it once per topology and selecting per
    point gives each point exactly its own topology's values.
    Single-core chips have no NoC and get zeros.
    """
    fixed = sub.template_config.noc_topology
    ring = form(fixed or NocTopology.RING)
    mesh = ring if fixed is not None else form(NocTopology.MESH_2D)
    use_ring = cores <= chip_mod.RING_MAX_CORES
    return [
        np.where(cores > 1, np.where(use_ring, r, m), 0.0)
        for r, m in zip(ring, mesh)
    ]


def _noc_rollup(sub: TechSubstrate, tx, ty, core_area_mm2) -> list:
    """`NetworkOnChip.estimate` per point: area, dynamic, leakage, cycle."""
    pitch = noc_mod.node_pitch_mm(core_area_mm2)
    bisection = sub.template_config.noc_bisection_gbps

    def rollup(topology):
        parts = noc_mod.noc_terms(sub.ctx, topology, tx, ty, bisection, pitch)
        return Terms.compose("network-on-chip", parts)[1:]

    return _per_topology(sub, tx * ty, rollup)


def noc_pj_per_byte(sub: TechSubstrate, tx, ty, core_area_mm2) -> np.ndarray:
    """`NetworkOnChip.energy_per_byte_pj` per point (0 on single cores)."""
    tx = np.asarray(tx, dtype=np.float64)
    ty = np.asarray(ty, dtype=np.float64)
    pitch = noc_mod.node_pitch_mm(core_area_mm2)
    bisection = sub.template_config.noc_bisection_gbps
    (energy,) = _per_topology(
        sub,
        tx * ty,
        lambda topology: (
            noc_mod.energy_per_byte_pj(
                sub.ctx, topology, tx, ty, bisection, pitch
            ),
        ),
    )
    return energy


def estimate_grid(sub: TechSubstrate, axes: GridAxes) -> Dict[str, np.ndarray]:
    """Chip-level rollup (`Chip.estimate` + headline metrics) for a grid.

    ``axes`` holds the points' per-point values as float64 arrays
    (:meth:`GridAxes.stack`).  Returns float64 arrays: ``area_mm2``
    (with whitespace), ``dynamic_w``, ``leakage_w``, ``tdp_w``,
    ``peak_tops``, ``timing_ns`` (the composed cycle-time bound), and a
    boolean ``feasible`` mask (False where the scalar path would raise
    ``OptimizationError`` in the Mem search).  Additional per-point
    quantities consumed by the batched performance layer ride along: the
    core area, the VU lane count, and the on-chip memory's configuration
    and per-access physics (``mem_*``).
    """
    ctx = sub.ctx
    core_cfg = sub.template_config.core
    rows, cols, n = axes.tu_rows, axes.tu_cols, axes.tensor_units
    capacity, block = axes.mem_capacity_bytes, axes.mem_block_bytes
    tx, ty = axes.cores_x, axes.cores_y
    cores = axes.cores
    in_bits = core_cfg.tu.cell.input_dtype.bits

    # -- the Mem slice's bandwidth targets and organization --
    operand_bytes = np.maximum(core_mod.operand_bytes(n, rows, in_bits), 1.0)
    read_bw, write_bw = core_mod.mem_bandwidth_targets_gbps(
        operand_bytes, sub.freq_ghz
    )
    mem_cfg = core_cfg.mem
    bound_ns = mem_cfg.latency_cycles * sub.cycle_ns
    feasible, org = _searched_organizations(
        sub, capacity, block, read_bw, write_bw, bound_ns
    )
    array = memory_mod.ARRAY_MODELS[mem_cfg.cell]
    read_pj = array.read_energy_pj(sub.tech, org)
    write_pj = array.write_energy_pj(sub.tech, org)

    # -- the point-dependent components --
    ifu = sub.fixed_blocks["ifu"]
    scalar_unit = sub.fixed_blocks["scalar_unit"]
    tu = Terms.compose(
        "tensor unit", tu_mod.tensor_unit_terms(ctx, core_cfg.tu, rows, cols)
    )
    vu = vu_mod.vector_unit_terms(ctx, sub.template_vu_config, axes.lanes)
    vreg = vreg_mod.vreg_terms(
        ctx,
        vreg_mod.DEFAULT_ENTRIES,
        axes.lanes,
        vreg_mod.port_groups(n + 1.0, core_cfg.vreg_shared_ports),
    )
    lsu = frontend_mod.lsu_terms(
        ctx, sub.template_lsu_queue_entries, operand_bytes
    )
    mem = memory_mod.array_memory_terms(
        ctx,
        org,
        mem_cfg.cell,
        read_pj,
        write_pj,
        read_bw,
        write_bw,
        mem_cfg.latency_cycles,
        mem_cfg.scratchpad,
    )

    # -- core and chip assembly, in `Estimate.compose` order --
    connected = (
        ifu.area_mm2
        + n * tu.area_mm2
        + vu.area_mm2
        + vreg.area_mm2
        + scalar_unit.area_mm2
        + lsu.area_mm2
        + mem.area_mm2
    )
    cdb = cdb_mod.cdb_terms(ctx, 2 * rows * in_bits, connected)
    core_area = connected + cdb.area_mm2
    core_dyn = (
        ifu.dynamic_w
        + n * tu.dynamic_w
        + vu.dynamic_w
        + vreg.dynamic_w
        + scalar_unit.dynamic_w
        + lsu.dynamic_w
        + mem.dynamic_w
        + cdb.dynamic_w
    )
    core_leak = (
        ifu.leakage_w
        + n * tu.leakage_w
        + vu.leakage_w
        + vreg.leakage_w
        + scalar_unit.leakage_w
        + lsu.leakage_w
        + mem.leakage_w
        + cdb.leakage_w
    )
    core_cycle = functools.reduce(
        np.maximum,
        [
            ifu.cycle_time_ns,
            tu.cycle_time_ns,
            vu.cycle_time_ns,
            vreg.cycle_time_ns,
            scalar_unit.cycle_time_ns,
            lsu.cycle_time_ns,
            mem.cycle_time_ns,
            cdb.cycle_time_ns,
        ],
    )

    noc_area, noc_dyn, noc_leak, noc_cycle = _noc_rollup(
        sub, tx, ty, core_area
    )
    chip_area = cores * core_area + noc_area
    chip_dyn = cores * core_dyn + noc_dyn
    chip_leak = cores * core_leak + noc_leak
    chip_cycle = np.maximum(core_cycle, noc_cycle)
    for fixed in sub.chip_fixed_blocks:
        chip_area = chip_area + fixed.area_mm2
        chip_dyn = chip_dyn + fixed.dynamic_w
        chip_leak = chip_leak + fixed.leakage_w
        chip_cycle = np.maximum(chip_cycle, fixed.cycle_time_ns)

    return {
        "area_mm2": chip_area
        + chip_mod.whitespace_area_mm2(
            chip_area, sub.template_config.whitespace_fraction
        ),
        "dynamic_w": chip_dyn,
        "leakage_w": chip_leak,
        "tdp_w": chip_mod.thermal_design_power_w(chip_dyn, chip_leak),
        "peak_tops": tops(cores * (n * rows * cols), sub.freq_ghz),
        "timing_ns": chip_cycle,
        "feasible": feasible,
        "core_area_mm2": core_area,
        "lanes": axes.lanes,
        "mem_capacity_bytes": capacity,
        "mem_block_bytes": block,
        "mem_read_bw_target_gbps": read_bw,
        "mem_write_bw_target_gbps": write_bw,
        "mem_latency_bound_ns": np.full(capacity.shape, bound_ns),
        "mem_read_energy_pj": read_pj,
        "mem_write_energy_pj": write_pj,
        "mem_peak_read_gbps": sram_mod.sram_read_bandwidth_gbps(
            org, sub.freq_ghz
        ),
        "mem_peak_write_gbps": sram_mod.sram_write_bandwidth_gbps(
            org, sub.freq_ghz
        ),
    }
