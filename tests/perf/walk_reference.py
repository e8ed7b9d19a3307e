"""The per-layer walk of the cycle simulator, kept as a reference.

``repro.perf.simulator.walk_graph`` walks a graph's layers as an array
axis: one GEMM-mapper call per block of layers, the fusion credit as a
segmented scan, and ``Simulator.run`` over a grid of one.  This module
keeps the walk it replaced, a Python loop over the layers written once
over an array namespace ``xp`` (NumPy, or :mod:`repro.perf.scalar` for
Python numbers, with per-layer records appended to ``layers``), so that
``test_walk_reference.py`` can check the layer-axis walk against it bit
for bit, the way ``stump_reference.py`` keeps the surrogate's split loop.
``reference_run`` is the ``Simulator.run`` that called it.
"""

from __future__ import annotations

import types
from typing import List, Optional

from repro.errors import MappingError
from repro.perf import scalar as mapper_scalar
from repro.perf.mapping import ArchView, map_gemm_dims
from repro.perf.optimizations import OptimizationConfig, fold_stem
from repro.perf.simulator import (
    _ACTIVATION_MEM_SHARE,
    _ACTIVITY_FIELDS,
    _GEMM_BOUNDS,
    _POINTWISE_SIMD,
    _VECTOR_BOUNDS,
    GraphSpec,
    LayerTiming,
    SimulationResult,
)
from repro.power.runtime import ActivityFactors
from repro.units import GIGA, OPS_PER_MAC

#: The loop's namespace over Python numbers: the mapper's, plus the
#: ``any`` its zero-bandwidth check called.
scalar = types.SimpleNamespace(**vars(mapper_scalar), any=bool)


def walk_graph(
    spec: GraphSpec,
    arch: ArchView,
    batch,
    opt: OptimizationConfig,
    xp,
    layers: Optional[List[LayerTiming]] = None,
) -> dict:
    """Simulate one batch of ``spec`` on ``arch``, over namespace ``xp``.

    Over Python numbers (``xp`` is :mod:`repro.perf.scalar`) this is one
    run on one chip; over NumPy, ``batch`` and the view's arrays
    broadcast, so one pass simulates every design point at every batch
    size.  Returns ``total_cycles``, ``latency_s``, ``throughput_fps``,
    ``achieved_tops`` and the activity factors, shaped like the
    broadcast.  When ``layers`` is a list, each layer's
    :class:`LayerTiming` is appended to it (Python numbers only).
    """
    freq = arch.freq_ghz
    weights_resident = spec.total_params_bytes <= (
        arch.mem_capacity_bytes * (1 - _ACTIVATION_MEM_SHARE)
    )
    activation_budget = arch.mem_capacity_bytes * _ACTIVATION_MEM_SHARE

    def to_cycles(moved, bandwidth_gbps):
        """Cycles to move ``moved`` bytes at ``bandwidth_gbps``."""
        moving = moved > 0
        if xp.any(moving & (bandwidth_gbps <= 0)):
            raise MappingError("traffic on a zero-bandwidth path")
        safe_bw = xp.where(bandwidth_gbps > 0, bandwidth_gbps, 1.0)
        seconds = moved / (safe_bw * GIGA)
        return xp.where(moving, xp.ceil(seconds * freq * GIGA), 0)

    total_cycles = 0
    tu_macs = 0
    occupied_mac_cycles = 0
    vector_ops_total = 0
    mem_read_total = 0.0
    mem_write_total = 0.0
    noc_total = 0.0
    offchip_total = 0.0
    fusion_credit = 0  # spare cycles of the previous GEMM layer

    for layer in spec.layers:
        vector_ops = layer.vector_ops * batch
        # Weights stream in once per batch when they do not fit (they are
        # reused across every sample of the layer-wise schedule); the
        # working set beyond the activation budget spills to DRAM and
        # comes back for the next layer.
        working_set = (layer.input_bytes + layer.output_bytes) * batch
        layer_offchip = xp.where(
            weights_resident, 0.0, float(layer.params_bytes)
        ) + 2.0 * xp.maximum(0.0, working_set - activation_budget)

        if layer.has_gemm:
            m = layer.gemm_m * batch
            k = layer.gemm_k
            if layer.space_to_depth:
                m, k = fold_stem(m, k, xp)
            mapping = map_gemm_dims(m, k, layer.gemm_n, arch, opt, xp)
            vector_ops = vector_ops + mapping.merge_vector_ops
            vu_cycles = xp.ceil(
                mapping.merge_vector_ops / xp.maximum(arch.vu_lanes_total, 1)
                + layer.vector_ops
                * batch
                / xp.maximum(arch.vu_lanes_total * _POINTWISE_SIMD, 1)
            )
            bounds = [
                mapping.compute_cycles,
                vu_cycles,
                to_cycles(mapping.mem_read_bytes, arch.mem_read_gbps),
                to_cycles(mapping.mem_write_bytes, arch.mem_write_gbps),
                to_cycles(layer_offchip, arch.offchip_gbps),
                to_cycles(mapping.noc_bytes, arch.noc_gbps),
            ]
            noc_total = noc_total + mapping.noc_bytes
            mem_read_total = mem_read_total + mapping.mem_read_bytes
            mem_write_total = mem_write_total + mapping.mem_write_bytes
            tu_macs = tu_macs + mapping.useful_macs
            occupied_mac_cycles = (
                occupied_mac_cycles + mapping.occupied_mac_cycles
            )
        else:
            vu_cycles = xp.ceil(
                vector_ops / xp.maximum(arch.vu_lanes_total * layer.simd, 1)
            )
            if layer.fusable:
                # Pointwise layers drain through the previous GEMM's
                # output path; only the residue beyond its spare VU time
                # costs extra cycles.
                consumed = xp.minimum(vu_cycles, fusion_credit)
                fusion_credit = fusion_credit - consumed
                vu_cycles = vu_cycles - consumed
            reads = (layer.input_bytes + layer.params_bytes) * batch
            writes = layer.output_bytes * batch
            bounds = [
                vu_cycles,
                to_cycles(reads, arch.mem_read_gbps),
                to_cycles(writes, arch.mem_write_gbps),
                to_cycles(layer_offchip, arch.offchip_gbps),
            ]
            mem_read_total = mem_read_total + reads
            mem_write_total = mem_write_total + writes

        if opt.double_buffering:
            cycles = bounds[0]
            for bound in bounds[1:]:
                cycles = xp.maximum(cycles, bound)
        else:
            # Without double buffering, data movement serializes with
            # compute.
            compute = bounds[0] if layer.has_gemm else 0
            movement = 0
            for bound in bounds[1:] if layer.has_gemm else bounds:
                movement = movement + bound
            cycles = compute + movement
        # Fused pointwise residues ride the pipeline; everything else
        # pays the serial layer-launch cost.
        if layer.pays_launch:
            cycles = cycles + opt.layer_launch_cycles
        if layer.has_gemm:
            fusion_credit = xp.maximum(0, cycles - vu_cycles)
        elif not layer.fusable:
            fusion_credit = 0
        offchip_total = offchip_total + layer_offchip
        vector_ops_total = vector_ops_total + vector_ops
        layer_cycles = xp.maximum(cycles, 1)
        total_cycles = total_cycles + layer_cycles
        if layers is not None:
            names = _GEMM_BOUNDS if layer.has_gemm else _VECTOR_BOUNDS
            layers.append(
                LayerTiming(
                    name=layer.name,
                    cycles=layer_cycles,
                    bound=names[bounds.index(max(bounds))],
                    useful_macs=layer.macs * batch,
                    vector_ops=vector_ops,
                )
            )

    latency_s = total_cycles / (freq * GIGA)
    ran = latency_s > 0
    safe_latency = xp.where(ran, latency_s, 1.0)
    cycles_floor = xp.maximum(total_cycles, 1)
    window = xp.maximum(latency_s, 1e-12)
    tu_util = xp.minimum(
        tu_macs / (arch.macs_per_cycle * cycles_floor), 1.0
    )
    occupancy = xp.minimum(
        occupied_mac_cycles / (arch.macs_per_cycle * cycles_floor), 1.0
    )
    return {
        "total_cycles": total_cycles,
        "latency_s": latency_s,
        "throughput_fps": xp.where(ran, batch / safe_latency, 0.0),
        "achieved_tops": xp.where(
            ran,
            spec.total_macs * batch * OPS_PER_MAC / safe_latency / 1e12,
            0.0,
        ),
        "tu_utilization": tu_util,
        "tu_occupancy": xp.maximum(occupancy, tu_util),
        "vu_utilization": xp.minimum(
            vector_ops_total / (arch.vu_lanes_total * cycles_floor), 1.0
        ),
        "su_activity": xp.minimum(0.2 + 0.3 * tu_util, 1.0),
        "mem_read_gbps": mem_read_total / window / GIGA,
        "mem_write_gbps": mem_write_total / window / GIGA,
        "noc_gbps": noc_total / window / GIGA,
        "offchip_gbps": offchip_total / window / GIGA,
    }


def reference_run(simulator, graph, batch: int = 1) -> SimulationResult:
    """``Simulator.run`` over Python numbers, as it ran the loop above."""
    if batch < 1:
        raise MappingError(f"batch must be >= 1, got {batch}")
    layers: List[LayerTiming] = []
    out = walk_graph(
        GraphSpec.of(graph, simulator.opt),
        simulator.arch,
        batch,
        simulator.opt,
        scalar,
        layers,
    )
    return SimulationResult(
        graph_name=graph.name,
        batch=batch,
        total_cycles=out["total_cycles"],
        latency_s=out["latency_s"],
        throughput_fps=out["throughput_fps"],
        achieved_tops=out["achieved_tops"],
        peak_tops=simulator.chip.peak_tops(simulator.ctx),
        activity=ActivityFactors(
            **{name: out[name] for name in _ACTIVITY_FIELDS}
        ),
        layers=tuple(layers),
    )
