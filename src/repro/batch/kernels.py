"""Architecture-level rollups evaluated over whole design-point grids.

:func:`estimate_grid` evaluates ``Chip.estimate`` for one shape's points,
given their per-point values (:class:`~repro.arch.core.GridAxes`) as
arrays.  It runs the rollups the scalar classes run
(:func:`~repro.arch.core.core_rollup`,
:func:`~repro.arch.chip.chip_rollup`) with :class:`_GridParts`, which
evaluates the components' closed forms in ``repro.arch`` over the
arrays, so the two backends agree by construction;
``tests/arch/test_oracle.py`` pins both against recorded values.

All arrays are float64; integer inputs stay exact well below 2**53.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import numpy as np

from repro.arch import cdb as cdb_mod
from repro.arch import frontend as frontend_mod
from repro.arch import memory as memory_mod
from repro.arch import noc as noc_mod
from repro.arch import tensor_unit as tu_mod
from repro.arch import vector_unit as vu_mod
from repro.arch import vreg as vreg_mod
from repro.arch.chip import (
    ChipConfig,
    ChipParts,
    chip_rollup,
    noc_topology,
    thermal_design_power_w,
)
from repro.arch.component import Terms
from repro.arch.core import GridAxes, core_macs, core_rollup
from repro.arch.noc import NocTopology
from repro.batch.substrate import TechSubstrate
from repro.circuit import sram as sram_mod
from repro.units import tops


def _per_topology(
    shape: ChipConfig, cores: np.ndarray, form: Callable
) -> Optional[List[np.ndarray]]:
    """``form(topology)``'s values, each point under the topology
    :func:`~repro.arch.chip.noc_topology` gives it (forms are
    elementwise).  Single-core points get zeros; ``None`` when no point
    has a NoC."""
    chosen = np.where(
        cores > 1, noc_topology(shape.noc_topology, cores), None
    )
    result = None
    for topology in NocTopology:
        mask = chosen == topology
        if not mask.any():
            continue
        values = form(topology)
        if result is None:
            result = [np.zeros(np.shape(cores))] * len(values)
        result = [np.where(mask, new, old) for new, old in zip(values, result)]
    return result


def noc_pj_per_byte(
    sub: TechSubstrate, tx, ty, core_area_mm2
) -> Optional[np.ndarray]:
    """`NetworkOnChip.energy_per_byte_pj` per point (0 on single cores,
    ``None`` when no point has a NoC)."""
    pitch = noc_mod.node_pitch_mm(core_area_mm2)
    bisection = sub.shape.noc_bisection_gbps
    energy = _per_topology(
        sub.shape,
        tx * ty,
        lambda topology: (
            noc_mod.energy_per_byte_pj(
                sub.ctx, topology, tx, ty, bisection, pitch
            ),
        ),
    )
    return None if energy is None else energy[0]


class _GridParts(ChipParts):
    """A shape's chip parts over a grid of points.

    The children that take per-point values are their components'
    closed forms over the points' arrays; the others are the shape's
    own, made once per substrate.  ``memory`` keeps the Mem's
    organization, feasibility and energies for :func:`estimate_grid`.
    """

    node = Terms

    def __init__(self, sub: TechSubstrate):
        super().__init__(sub.parts.chip)
        self.made = sub.parts.made
        self.config = self.core.config

    def tensor_units(self, ctx, values):
        rows, cols = values.tu_rows, values.tu_cols
        parts = tu_mod.tensor_unit_terms(ctx, self.config.tu, rows, cols)
        tu = Terms.compose("tensor unit", parts)
        return tu.replicated(values.tensor_units)

    def vector_unit(self, ctx, lanes):
        config = self.config.vector_unit_config
        return vu_mod.vector_unit_terms(ctx, config, lanes)

    def vreg(self, ctx, lanes, attached_units):
        shared = self.config.vreg_shared_ports
        groups = vreg_mod.port_groups(attached_units, shared)
        entries = vreg_mod.DEFAULT_ENTRIES
        return vreg_mod.vreg_terms(ctx, entries, lanes, groups)

    def lsu(self, ctx, datapath_bytes):
        entries = self.core.lsu.queue_entries
        return frontend_mod.lsu_terms(ctx, entries, datapath_bytes)

    def memory(self, ctx, values, *targets):
        config = self.config.mem
        capacity = values.mem_capacity_bytes
        self.targets_gbps = targets
        self.feasible, self.org = memory_mod.searched_organizations(
            ctx, config, capacity, values.mem_block_bytes, *targets
        )
        energies = memory_mod.access_energies_pj(
            ctx.tech, config, capacity, self.org
        )
        self.energies_pj = energies
        return memory_mod.memory_terms(
            ctx, config, capacity, self.org, energies, targets
        )

    def cdb(self, ctx, width_bits, connected_area_mm2):
        return cdb_mod.cdb_terms(ctx, width_bits, connected_area_mm2)

    def cores(self, core, count):
        return core.replicated(count)

    def noc(self, ctx, values, core_area_mm2, multi):
        pitch = noc_mod.node_pitch_mm(core_area_mm2)
        shape = self.chip.config
        nodes = (values.cores_x, values.cores_y)

        def rollup(topology):
            bisection = shape.noc_bisection_gbps
            parts = noc_mod.noc_terms(ctx, topology, *nodes, bisection, pitch)
            return Terms.compose("network-on-chip", parts)[1:]

        terms = _per_topology(shape, values.cores, rollup)
        return None if terms is None else Terms("network-on-chip", *terms)


def estimate_grid(sub: TechSubstrate, axes: GridAxes) -> Dict[str, np.ndarray]:
    """Chip-level rollup (`Chip.estimate` + headline metrics) for a grid.

    ``axes`` holds the points' per-point values as float64 arrays
    (:meth:`GridAxes.stack`).  Returns float64 arrays: ``area_mm2``
    (with whitespace), ``dynamic_w``, ``leakage_w``, ``tdp_w``,
    ``peak_tops``, ``timing_ns``, a boolean ``feasible`` mask (False
    where the scalar path raises organizing the Mem), and what the
    batched performance layer reads: the core area, the VU lanes, and
    the on-chip memory's configuration and per-access physics.
    """
    ctx, shape = sub.ctx, sub.shape
    parts = _GridParts(sub)
    core = core_rollup(ctx, shape.core, axes, parts)
    chip = chip_rollup(ctx, shape, axes, core, parts)
    capacity = axes.mem_capacity_bytes
    zeros = np.zeros(capacity.shape)
    read_gbps, write_gbps = parts.targets_gbps
    read_pj, write_pj = parts.energies_pj
    bound_ns = memory_mod.latency_bound_ns(ctx, shape.core.mem)
    macs = core_macs(
        shape.core, axes.tensor_units, axes.tu_rows, axes.tu_cols
    )
    return {
        "area_mm2": chip.area_mm2,
        "dynamic_w": chip.dynamic_w,
        "leakage_w": chip.leakage_w,
        "tdp_w": thermal_design_power_w(chip.dynamic_w, chip.leakage_w),
        "peak_tops": tops(axes.cores * macs, ctx.freq_ghz),
        "timing_ns": chip.cycle_time_ns,
        "feasible": parts.feasible,
        "core_area_mm2": core.area_mm2,
        "lanes": axes.lanes,
        "mem_capacity_bytes": capacity,
        "mem_block_bytes": axes.mem_block_bytes,
        "mem_read_bw_target_gbps": read_gbps + zeros,
        "mem_write_bw_target_gbps": write_gbps + zeros,
        "mem_latency_bound_ns": bound_ns + zeros,
        "mem_read_energy_pj": read_pj,
        "mem_write_energy_pj": write_pj,
        "mem_peak_read_gbps": sram_mod.sram_read_bandwidth_gbps(
            parts.org, ctx.freq_ghz
        ),
        "mem_peak_write_gbps": sram_mod.sram_write_bandwidth_gbps(
            parts.org, ctx.freq_ghz
        ),
    }
