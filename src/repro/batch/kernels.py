"""Architecture-level rollups evaluated over whole design-point grids.

Each kernel assembles one component of the scalar model stack
(``repro.arch``) — tensor unit, vector unit, register file, LSU, on-chip
memory, CDB, NoC, and the chip rollup — over *vectors* of design-point
parameters ``(X, N, T_x, T_y)`` against one fixed :class:`TechSubstrate`.
The circuit closed forms underneath (DFF banks, logic blocks, register
files, wires, the SRAM organization physics and its bank x port lattice
search) are not transcribed here: the kernels call the broadcastable
functions in ``repro.circuit`` and ``repro.tech.wire`` that the scalar
models call, so the two paths agree on them by construction.  What the
kernels do transcribe is how ``repro.arch`` composes those pieces;
scalar/vector equivalence of that assembly over the full Table I grid is
pinned by ``tests/batch/``.

All arrays are float64; integer inputs stay exact well below 2**53.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.arch import frontend as frontend_mod
from repro.arch import memory as memory_mod
from repro.arch import noc as noc_mod
from repro.arch import tensor_unit as tu_mod
from repro.arch import vector_unit as vu_mod
from repro.arch import vreg as vreg_mod
from repro.batch.substrate import TechSubstrate
from repro.circuit import regfile as regfile_mod
from repro.circuit import sram as sram_mod
from repro.circuit.dff import dff_active_energy_pj, dff_area_mm2, dff_leakage_w
from repro.circuit.gates import (
    logic_area_mm2,
    logic_energy_pj,
    logic_leakage_w,
)
from repro.tech import calibration
from repro.tech.wire import repeated_wire_delay_ns, wire_energy_pj_per_bit
from repro.units import dynamic_power_w, ps_to_ns, tops, um2_to_mm2, um_to_mm

# -- architecture kernels -----------------------------------------------------


def mac_array_kernel(sub: TechSubstrate, x) -> Dict[str, np.ndarray]:
    """One tensor unit (`TensorUnit.estimate`) for TU lengths ``x``."""
    tech = sub.tech
    cell_cfg = sub.template_config.core.tu.cell
    in_bits = cell_cfg.input_dtype.bits
    out_bits = cell_cfg.mac.accum_dtype.bits
    pipeline_bits = 2 * in_bits + out_bits
    fifo_depth = sub.template_config.core.tu.fifo_depth
    mac = sub.mac_tensor
    overhead = calibration.CLOCK_NETWORK_OVERHEAD

    x = np.asarray(x, dtype=np.float64)
    macs = x * x
    span = x + x

    cell_um2 = (
        mac.area_um2
        + pipeline_bits * tech.dff_area_um2
        + cell_cfg.control_gates * tech.gate_area_um2
    )
    cell_area_mm2 = (
        um2_to_mm2(cell_um2)
        * calibration.DATAPATH_ROUTING_OVERHEAD
        * (1.0 + calibration.ARRAY_SPAN_WIRING_COEF * span)
    )
    pitch_mm = np.sqrt(cell_area_mm2)

    cell_energy_pj = (
        mac.energy_per_mac_pj
        + dff_active_energy_pj(tech, pipeline_bits)
        + logic_energy_pj(tech, cell_cfg.control_gates, 0.2)
    )
    floor = calibration.ARRAY_SPAN_ENERGY_FLOOR
    span_energy = floor + (1.0 - floor) * np.minimum(
        span / calibration.ARRAY_SPAN_ENERGY_NORM, 2.0
    )
    cell_leak_w = (
        mac.leakage_w
        + dff_leakage_w(tech, pipeline_bits)
        + logic_leakage_w(tech, cell_cfg.control_gates)
    )
    array_area = macs * cell_area_mm2
    array_dyn = (
        dynamic_power_w(
            macs * cell_energy_pj * span_energy * overhead, sub.freq_ghz
        )
        * calibration.TDP_ACTIVITY["compute"]
    )
    array_leak = macs * cell_leak_w
    array_cycle = mac.delay_ns + ps_to_ns(2.0 * tech.fo4_ps)

    lane_bits = x * in_bits + x * (in_bits + out_bits)
    fifo_bits = lane_bits * fifo_depth
    fifo_area = (
        dff_area_mm2(tech, fifo_bits) * tu_mod.FIFO_PLACEMENT_OVERHEAD
    )
    fifo_dyn = (
        dynamic_power_w(
            dff_active_energy_pj(tech, fifo_bits) * overhead, sub.freq_ghz
        )
        * calibration.TDP_ACTIVITY["compute"]
    )
    fifo_leak = dff_leakage_w(tech, fifo_bits)

    hops = macs * (in_bits + out_bits)
    wire_energy_pj = hops * wire_energy_pj_per_bit(
        tech, sub.wire_local, pitch_mm
    )
    track_mm2 = um_to_mm(sub.wire_local.pitch_um) * pitch_mm
    wire_area = macs * (in_bits + out_bits) * track_mm2
    wire_dyn = (
        dynamic_power_w(wire_energy_pj * overhead, sub.freq_ghz)
        * calibration.TDP_ACTIVITY["interconnect"]
    )

    return {
        "area_mm2": array_area + fifo_area + wire_area,
        "dynamic_w": array_dyn + fifo_dyn + wire_dyn,
        "leakage_w": array_leak + fifo_leak,
        "timing_ns": np.broadcast_to(
            np.float64(array_cycle), x.shape
        ).copy(),
    }


def vector_lanes_kernel(sub: TechSubstrate, x) -> np.ndarray:
    """The preset's VU lane count for TU lengths ``x``.

    Datacenter presets carry no explicit VU config, so the core falls back
    to ``lanes = tu.rows`` (mult 1, floor 1); the training preset scales
    ``lanes = max(2 * X, 32)``.  Both rules live in the substrate.
    """
    x = np.asarray(x, dtype=np.float64)
    return np.maximum(
        float(sub.template_lane_mult) * x, float(sub.template_lane_floor)
    )


def vector_unit_kernel(sub: TechSubstrate, lanes) -> Dict[str, np.ndarray]:
    """`VectorUnit.estimate` over an array of lane counts."""
    tech = sub.tech
    mac = sub.mac_vector
    lanes = np.asarray(lanes, dtype=np.float64)
    vu_cfg = sub.template_vu_config
    lane_bits = vu_cfg.dtype.bits * vu_cfg.pipeline_depth

    lane_energy_pj = (
        mac.energy_per_mac_pj * vu_mod.MAC_ENERGY_FRACTION
        + dff_active_energy_pj(tech, lane_bits)
        + logic_energy_pj(tech, vu_cfg.sfu_gates, vu_mod.SFU_ACTIVITY
        )
    )
    lane_um2 = (
        mac.area_um2
        + lane_bits * tech.dff_area_um2
        + vu_cfg.sfu_gates * tech.gate_area_um2
    )
    area = (
        um2_to_mm2(lanes * lane_um2) * calibration.DATAPATH_ROUTING_OVERHEAD
    )
    dyn = (
        dynamic_power_w(
            lanes * lane_energy_pj * calibration.CLOCK_NETWORK_OVERHEAD,
            sub.freq_ghz,
        )
        * calibration.TDP_ACTIVITY["compute"]
    )
    leak = lanes * (
        mac.leakage_w
        + dff_leakage_w(tech, lane_bits)
        + logic_leakage_w(tech, vu_cfg.sfu_gates)
    )
    cycle = mac.delay_ns + ps_to_ns(2.0 * tech.fo4_ps)
    return {
        "area_mm2": area,
        "dynamic_w": dyn,
        "leakage_w": leak,
        "timing_ns": np.broadcast_to(np.float64(cycle), lanes.shape).copy(),
    }


def regfile_kernel(sub: TechSubstrate, lanes, n) -> Dict[str, np.ndarray]:
    """`VectorRegisterFile.estimate` for ``n``+1 attached units."""
    tech = sub.tech
    lanes = np.asarray(lanes, dtype=np.float64)
    n = np.asarray(n, dtype=np.float64)

    port_groups = n + 1.0  # N tensor units + the vector unit
    ports = (
        vreg_mod.READ_PORTS_PER_UNIT * port_groups
        + vreg_mod.WRITE_PORTS_PER_UNIT * port_groups
    )
    shape = (vreg_mod.DEFAULT_ENTRIES, lanes * vreg_mod.ELEMENT_BITS, ports)
    read_pj = regfile_mod.regfile_read_energy_pj(tech, *shape)
    write_pj = regfile_mod.regfile_write_energy_pj(tech, *shape)
    active_pj = (
        port_groups
        * (2 * read_pj + write_pj)
        * calibration.CLOCK_NETWORK_OVERHEAD
    )
    cycle = regfile_mod.regfile_access_latency_ns(
        tech, vreg_mod.DEFAULT_ENTRIES
    )
    return {
        "area_mm2": regfile_mod.regfile_area_mm2(tech, *shape),
        "dynamic_w": dynamic_power_w(active_pj, sub.freq_ghz)
        * calibration.TDP_ACTIVITY["memory"],
        "leakage_w": regfile_mod.regfile_leakage_w(tech, *shape),
        "timing_ns": np.broadcast_to(
            np.float64(cycle), np.broadcast(lanes, n).shape
        ).copy(),
    }


def lsu_kernel(sub: TechSubstrate, x, n) -> Dict[str, np.ndarray]:
    """`LoadStoreUnit.estimate` at the auto-scaled datapath width."""
    tech = sub.tech
    x = np.asarray(x, dtype=np.float64)
    n = np.asarray(n, dtype=np.float64)
    datapath_bytes = np.maximum(n * x * sub.template_in_bits // 8, 1.0)
    gates = (
        sub.template_lsu_queue_entries * frontend_mod.LSU_GATES_PER_QUEUE_ENTRY
        + datapath_bytes * 8 * frontend_mod.LSU_DATAPATH_GATES_PER_BIT
    )
    energy_pj = (
        logic_energy_pj(tech, gates, 0.15)
        * calibration.CLOCK_NETWORK_OVERHEAD
    )
    shape = np.broadcast(x, n).shape
    return {
        "area_mm2": logic_area_mm2(tech, gates),
        "dynamic_w": dynamic_power_w(energy_pj, sub.freq_ghz)
        * calibration.TDP_ACTIVITY["control"],
        "leakage_w": logic_leakage_w(tech, gates),
        "timing_ns": np.broadcast_to(
            np.float64(ps_to_ns(12 * tech.fo4_ps)), shape
        ).copy(),
    }


def memory_kernel(sub: TechSubstrate, x, n, cores) -> Dict[str, np.ndarray]:
    """`OnChipMemory.estimate` with the vectorized organization search.

    Besides the rollup quantities, the return carries the derived memory
    configuration (capacity / block / bandwidth targets / latency bound)
    and the winning organization's per-access energies and peak
    bandwidths: the batched performance layer reads them for roofline
    bounds and runtime power, and the estimator uses the targets to
    synthesize the exact scalar ``OptimizationError`` for infeasible
    points.
    """
    tech = sub.tech
    x = np.asarray(x, dtype=np.float64)
    n = np.asarray(n, dtype=np.float64)
    cores = np.asarray(cores, dtype=np.float64)

    capacity = np.maximum(
        np.floor_divide(sub.template_mem_pool_bytes, cores),
        sub.template_mem_slice_floor_bytes,
    )
    block = np.maximum(
        float(sub.template_mem_block_mult) * x,
        float(sub.template_mem_block_floor),
    )
    operand_gbps = np.maximum(n * x * sub.template_in_bits // 8, 1.0) * (
        sub.freq_ghz
    )
    read_bw = operand_gbps
    write_bw = operand_gbps / 2.0
    latency_cycles = sub.template_mem_latency_cycles
    bound_ns = latency_cycles * sub.cycle_ns

    org = _searched_organizations(
        sub, capacity, block, read_bw, write_bw, bound_ns
    )

    bytes_per_cycle = block * sub.freq_ghz
    reads = np.minimum(
        np.maximum(read_bw / bytes_per_cycle, 1.0), org["bank_read_slots"]
    )
    writes = np.minimum(
        np.maximum(write_bw / bytes_per_cycle, 0.5), org["bank_write_slots"]
    )
    control_gates = memory_mod.BANK_CONTROL_GATES * org["banks"]
    energy_pj = (
        reads * org["read_energy_pj"]
        + writes * org["write_energy_pj"]
        + logic_energy_pj(tech, control_gates)
    )
    return {
        "area_mm2": org["area_mm2"] + logic_area_mm2(tech, control_gates),
        "dynamic_w": dynamic_power_w(
            energy_pj * calibration.CLOCK_NETWORK_OVERHEAD, sub.freq_ghz
        )
        * calibration.TDP_ACTIVITY["memory"],
        "leakage_w": org["leakage_w"] + logic_leakage_w(tech, control_gates),
        "timing_ns": org["latency_ns"] / latency_cycles,
        "feasible": org["feasible"],
        "capacity_bytes": capacity,
        "block_bytes": block,
        "read_bw_target_gbps": read_bw,
        "write_bw_target_gbps": write_bw,
        "latency_bound_ns": np.broadcast_to(
            np.float64(bound_ns), capacity.shape
        ).copy(),
        "read_energy_pj": org["read_energy_pj"],
        "write_energy_pj": org["write_energy_pj"],
        "peak_read_gbps": org["read_bw_gbps"],
        "peak_write_gbps": org["write_bw_gbps"],
    }


def _searched_organizations(
    sub: TechSubstrate, capacity, block, read_bw, write_bw, bound_ns
) -> Dict[str, np.ndarray]:
    """`optimize_sram` per point, plus the winning organization's physics.

    The lattice search runs once per distinct requirement row, in the
    fixed-size blocks of :func:`repro.circuit.sram.search_lattice`, so
    its working memory does not grow with the sweep.  Infeasible points
    (the scalar path raises ``OptimizationError``) carry NaNs and a False
    ``feasible`` entry.
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
    nan = np.where(feasible, 0.0, np.nan)
    return {
        "feasible": feasible,
        "banks": np.where(feasible, org.banks, nan),
        "bank_read_slots": org.banks * org.read_ports + nan,
        "bank_write_slots": org.banks * org.write_ports + nan,
        "area_mm2": sram_mod.sram_area_mm2(sub.tech, org) + nan,
        "read_energy_pj": sram_mod.sram_read_energy_pj(sub.tech, org) + nan,
        "write_energy_pj": sram_mod.sram_write_energy_pj(sub.tech, org)
        + nan,
        "leakage_w": sram_mod.sram_leakage_w(sub.tech, org) + nan,
        "latency_ns": sram_mod.sram_access_latency_ns(sub.tech, org) + nan,
        "read_bw_gbps": sram_mod.sram_read_bandwidth_gbps(org, sub.freq_ghz)
        + nan,
        "write_bw_gbps": sram_mod.sram_write_bandwidth_gbps(
            org, sub.freq_ghz
        )
        + nan,
    }


def cdb_kernel(
    sub: TechSubstrate, x, connected_area_mm2
) -> Dict[str, np.ndarray]:
    """`CentralDataBus.estimate` around the connected components."""
    tech = sub.tech
    x = np.asarray(x, dtype=np.float64)
    width_bits = 2 * x * sub.template_in_bits
    length_mm = np.sqrt(connected_area_mm2)
    wire = sub.wire_intermediate

    delay_ns = repeated_wire_delay_ns(tech, wire, length_mm)
    stages = np.maximum(1.0, np.ceil(delay_ns / sub.cycle_ns))
    pipe_bits = width_bits * stages
    transfer_pj = width_bits * wire_energy_pj_per_bit(
        tech, wire, length_mm
    ) + dff_active_energy_pj(tech, pipe_bits)
    energy_pj = transfer_pj * calibration.CLOCK_NETWORK_OVERHEAD
    return {
        "area_mm2": um_to_mm(width_bits * wire.pitch_um) * length_mm
        + dff_area_mm2(tech, pipe_bits),
        "dynamic_w": dynamic_power_w(energy_pj, sub.freq_ghz)
        * calibration.TDP_ACTIVITY["interconnect"],
        "leakage_w": dff_leakage_w(tech, pipe_bits),
        "timing_ns": delay_ns / stages,
    }


def noc_kernel(
    sub: TechSubstrate, tx, ty, core_area_mm2
) -> Dict[str, np.ndarray]:
    """`NetworkOnChip.estimate` (ring up to 4 cores, 2D mesh beyond)."""
    tech = sub.tech
    tx = np.asarray(tx, dtype=np.float64)
    ty = np.asarray(ty, dtype=np.float64)
    nodes = tx * ty
    multi = nodes > 1
    mesh = nodes > 4

    bisection_links = np.where(mesh, np.minimum(tx, ty), 2.0)
    link_count = np.where(
        mesh, tx * (ty - 1) + ty * (tx - 1), nodes
    )
    ports = np.where(mesh, 5.0, 3.0)
    flit = np.maximum(
        float(noc_mod.MIN_FLIT_BITS),
        np.ceil(
            sub.template_noc_bisection_gbps
            * 8.0
            / (bisection_links * sub.freq_ghz)
        ),
    )

    buffer_bits = ports * noc_mod.BUFFER_DEPTH * flit
    crossbar_gates = ports * ports * flit * noc_mod.CROSSBAR_GATES_PER_BIT
    router_area = (
        dff_area_mm2(tech, buffer_bits)
        + logic_area_mm2(tech, crossbar_gates)
        + logic_area_mm2(tech, noc_mod.ALLOCATOR_GATES)
    )
    per_flit_pj = (
        2.0 * dff_active_energy_pj(tech, flit)
        + logic_energy_pj(tech, crossbar_gates, 0.25) / ports
        + logic_energy_pj(tech, noc_mod.ALLOCATOR_GATES, 0.3)
    )
    router_energy_pj = per_flit_pj * ports * 0.5
    routers_dyn = (
        nodes
        * dynamic_power_w(
            router_energy_pj * calibration.CLOCK_NETWORK_OVERHEAD,
            sub.freq_ghz,
        )
        * calibration.TDP_ACTIVITY["interconnect"]
    )
    routers_leak = nodes * (
        dff_leakage_w(tech, buffer_bits)
        + logic_leakage_w(tech, crossbar_gates)
        + logic_leakage_w(tech, noc_mod.ALLOCATOR_GATES)
    )

    pitch_mm = np.sqrt(np.maximum(core_area_mm2, 1e-6))
    track_area = (
        um_to_mm(link_count * 2 * flit * sub.wire_global.pitch_um) * pitch_mm
    )
    link_energy_pj = flit * wire_energy_pj_per_bit(
        tech, sub.wire_global, pitch_mm
    )
    links_dyn = (
        link_count
        * dynamic_power_w(
            link_energy_pj * calibration.CLOCK_NETWORK_OVERHEAD, sub.freq_ghz
        )
        * calibration.TDP_ACTIVITY["interconnect"]
    )
    crossbar_delay_ns = ps_to_ns(12 * tech.fo4_ps)
    zero = np.zeros_like(nodes)
    return {
        "area_mm2": np.where(multi, nodes * router_area + track_area, zero),
        "dynamic_w": np.where(multi, routers_dyn + links_dyn, zero),
        "leakage_w": np.where(multi, routers_leak, zero),
        "timing_ns": np.where(multi, crossbar_delay_ns, zero),
    }


def noc_energy_per_byte_kernel(
    sub: TechSubstrate, tx, ty, core_area_mm2
) -> np.ndarray:
    """`NetworkOnChip.energy_per_byte_pj` over arrays of grid shapes.

    Average energy to move one byte between two random cores: mean hop
    count times the per-flit router + link energies, normalized per bit.
    Single-core points cost zero, exactly like the scalar accessor.
    """
    tech = sub.tech
    tx = np.asarray(tx, dtype=np.float64)
    ty = np.asarray(ty, dtype=np.float64)
    nodes = tx * ty
    multi = nodes > 1
    mesh = nodes > 4

    bisection_links = np.where(mesh, np.minimum(tx, ty), 2.0)
    ports = np.where(mesh, 5.0, 3.0)
    flit = np.maximum(
        float(noc_mod.MIN_FLIT_BITS),
        np.ceil(
            sub.template_noc_bisection_gbps
            * 8.0
            / (bisection_links * sub.freq_ghz)
        ),
    )
    hops = np.where(mesh, (tx + ty) / 3.0, nodes / 4.0)

    crossbar_gates = ports * ports * flit * noc_mod.CROSSBAR_GATES_PER_BIT
    router_per_flit_pj = (
        2.0 * dff_active_energy_pj(tech, flit)
        + logic_energy_pj(tech, crossbar_gates, 0.25) / ports
        + logic_energy_pj(tech, noc_mod.ALLOCATOR_GATES, 0.3)
    )
    pitch_mm = np.sqrt(np.maximum(core_area_mm2, 1e-6))
    link_per_flit_pj = flit * wire_energy_pj_per_bit(
        tech, sub.wire_global, pitch_mm
    )
    per_flit = hops * (router_per_flit_pj + link_per_flit_pj)
    return np.where(multi, per_flit * 8.0 / flit, 0.0)


# -- full-grid rollup ---------------------------------------------------------


def estimate_grid(sub: TechSubstrate, x, n, tx, ty) -> Dict[str, np.ndarray]:
    """Chip-level rollup (`Chip.estimate` + headline metrics) for a grid.

    Returns float64 arrays: ``area_mm2`` (with whitespace), ``dynamic_w``,
    ``leakage_w``, ``tdp_w``, ``peak_tops``, ``timing_ns`` (the composed
    cycle-time bound), and a boolean ``feasible`` mask (False where the
    scalar path would raise ``OptimizationError`` in the Mem search).
    Additional per-point quantities consumed by the batched performance
    layer ride along: the core area, the VU lane count, and the on-chip
    memory's derived configuration and per-access physics (``mem_*``).
    """
    x = np.asarray(x, dtype=np.float64)
    n = np.asarray(n, dtype=np.float64)
    tx = np.asarray(tx, dtype=np.float64)
    ty = np.asarray(ty, dtype=np.float64)
    cores = tx * ty

    ifu = sub.fixed_blocks["ifu"]
    scalar_unit = sub.fixed_blocks["scalar_unit"]

    lanes = vector_lanes_kernel(sub, x)
    tu = mac_array_kernel(sub, x)
    vu = vector_unit_kernel(sub, lanes)
    vreg = regfile_kernel(sub, lanes, n)
    lsu = lsu_kernel(sub, x, n)
    mem = memory_kernel(sub, x, n, cores)

    connected = (
        ifu.area_mm2
        + n * tu["area_mm2"]
        + vu["area_mm2"]
        + vreg["area_mm2"]
        + scalar_unit.area_mm2
        + lsu["area_mm2"]
        + mem["area_mm2"]
    )
    cdb = cdb_kernel(sub, x, connected)

    core_area = connected + cdb["area_mm2"]
    core_dyn = (
        ifu.dynamic_w
        + n * tu["dynamic_w"]
        + vu["dynamic_w"]
        + vreg["dynamic_w"]
        + scalar_unit.dynamic_w
        + lsu["dynamic_w"]
        + mem["dynamic_w"]
        + cdb["dynamic_w"]
    )
    core_leak = (
        ifu.leakage_w
        + n * tu["leakage_w"]
        + vu["leakage_w"]
        + vreg["leakage_w"]
        + scalar_unit.leakage_w
        + lsu["leakage_w"]
        + mem["leakage_w"]
        + cdb["leakage_w"]
    )
    core_cycle = np.maximum.reduce(
        [
            np.full_like(core_area, ifu.cycle_time_ns),
            tu["timing_ns"],
            vu["timing_ns"],
            vreg["timing_ns"],
            np.full_like(core_area, scalar_unit.cycle_time_ns),
            lsu["timing_ns"],
            mem["timing_ns"],
            cdb["timing_ns"],
        ]
    )

    noc = noc_kernel(sub, tx, ty, core_area)

    chip_area = cores * core_area + noc["area_mm2"]
    chip_dyn = cores * core_dyn + noc["dynamic_w"]
    chip_leak = cores * core_leak + noc["leakage_w"]
    chip_cycle = np.maximum(core_cycle, noc["timing_ns"])
    for fixed in sub.chip_fixed_blocks:
        chip_area = chip_area + fixed.area_mm2
        chip_dyn = chip_dyn + fixed.dynamic_w
        chip_leak = chip_leak + fixed.leakage_w
        chip_cycle = np.maximum(chip_cycle, fixed.cycle_time_ns)

    whitespace = sub.template_whitespace_fraction
    area_with_whitespace = chip_area + chip_area * whitespace / (
        1.0 - whitespace
    )
    tdp_w = chip_dyn * calibration.CHIP_TDP_MARGIN + chip_leak
    peak = tops(cores * (n * x * x), sub.freq_ghz)
    return {
        "area_mm2": area_with_whitespace,
        "dynamic_w": chip_dyn,
        "leakage_w": chip_leak,
        "tdp_w": tdp_w,
        "peak_tops": peak,
        "timing_ns": chip_cycle,
        "feasible": mem["feasible"],
        "core_area_mm2": core_area,
        "lanes": lanes,
        "mem_capacity_bytes": mem["capacity_bytes"],
        "mem_block_bytes": mem["block_bytes"],
        "mem_read_bw_target_gbps": mem["read_bw_target_gbps"],
        "mem_write_bw_target_gbps": mem["write_bw_target_gbps"],
        "mem_latency_bound_ns": mem["latency_bound_ns"],
        "mem_read_energy_pj": mem["read_energy_pj"],
        "mem_write_energy_pj": mem["write_energy_pj"],
        "mem_peak_read_gbps": mem["peak_read_gbps"],
        "mem_peak_write_gbps": mem["peak_write_gbps"],
    }
