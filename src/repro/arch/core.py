"""Core assembly: IFU + LSU + EXU (TUs, RTs, VU, VReg, CDB) + SU + Mem.

This module implements NeuroMeter's dependent-parameter auto-scaling
(Sec. III-A, Fig. 6): given the TU length ``X`` and TU count ``N``, the
core automatically sizes the VU lane count (= X), the VReg width, issue
width and port count (2R + 1W per functional unit), the Mem bandwidth
targets (enough to stream operands to every TU), and the CDB width.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.arch.cdb import CentralDataBus
from repro.arch.component import Estimate, ModelContext, cached_estimate
from repro.arch.frontend import InstructionFetchUnit, LoadStoreUnit
from repro.arch.memory import OnChipMemory, OnChipMemoryConfig
from repro.arch.reduction_tree import ReductionTree, ReductionTreeConfig
from repro.arch.scalar_unit import ScalarUnit
from repro.arch.tensor_unit import TensorUnit, TensorUnitConfig
from repro.arch.vector_unit import VectorUnit, VectorUnitConfig
from repro.arch.vreg import VectorRegisterFile, VRegConfig
from repro.errors import ConfigurationError
from repro.units import tops


def operand_bytes(units, width, input_bits):
    """Operand bytes per cycle that ``units`` arrays ``width`` wide read."""
    return (units * width * input_bits) // 8


def mem_bandwidth_targets_gbps(operand_bytes_per_cycle, freq_ghz):
    """Auto-filled Mem (read, write) targets: stream every TU's operands."""
    operand_gbps = operand_bytes_per_cycle * freq_ghz
    return operand_gbps, operand_gbps / 2.0


@dataclass(frozen=True)
class CoreConfig:
    """One accelerator core.

    Attributes:
        tu: Tensor-unit configuration (shared by all TUs in the core);
            ``None`` for TU-less (reduction-tree or vector-only) cores.
        tensor_units: Number of identical TUs (``N`` in the design tuple).
        rt: Optional reduction-tree configuration.
        reduction_trees: Number of identical RTs.
        vu: Vector unit; ``None`` auto-scales lanes to the TU length.
        mem: On-chip memory slice owned by this core; bandwidth targets of
            0 are auto-filled from the compute units' operand demand.
        extra_memories: Additional named memory structures beyond the main
            Mem (e.g. TPU-v1's accumulator buffer and weight FIFO), as
            ``(name, config)`` pairs.
        vreg_shared_ports: Share one VReg port group across all TUs.
        include_scalar_unit: Whether the core carries an SU for control.
    """

    tu: Optional[TensorUnitConfig]
    tensor_units: int = 1
    rt: Optional[ReductionTreeConfig] = None
    reduction_trees: int = 0
    vu: Optional[VectorUnitConfig] = None
    mem: OnChipMemoryConfig = field(
        default_factory=lambda: OnChipMemoryConfig(
            capacity_bytes=1 << 20, block_bytes=64
        )
    )
    extra_memories: tuple[tuple[str, OnChipMemoryConfig], ...] = ()
    vreg_shared_ports: bool = False
    include_scalar_unit: bool = True
    scalar_unit_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.tu is None and self.rt is None:
            raise ConfigurationError("a core needs at least one compute unit")
        if self.tu is not None and self.tensor_units < 1:
            raise ConfigurationError("tensor_units must be >= 1 when tu set")
        if self.rt is not None and self.reduction_trees < 1:
            raise ConfigurationError(
                "reduction_trees must be >= 1 when rt set"
            )

    # -- dependent parameters (Fig. 6 auto-scaling) ---------------------------

    @property
    def vector_lanes(self) -> int:
        """VU lanes / VReg vector width, auto-matched to the TU length."""
        if self.vu is not None:
            return self.vu.lanes
        if self.tu is not None:
            return self.tu.rows
        assert self.rt is not None
        return max(16, self.rt.inputs // 16)

    @property
    def functional_units(self) -> int:
        """Units attached to the VReg (TUs + RTs + the VU)."""
        units = 1  # the VU
        if self.tu is not None:
            units += self.tensor_units
        if self.rt is not None:
            units += self.reduction_trees
        return units

    @property
    def macs_per_cycle(self) -> int:
        """Peak MAC throughput of the core."""
        macs = 0
        if self.tu is not None:
            macs += self.tensor_units * self.tu.macs
        if self.rt is not None:
            macs += self.reduction_trees * self.rt.macs
        return macs

    def vreg_config(self) -> VRegConfig:
        """The auto-scaled VReg."""
        return VRegConfig(
            vector_lanes=self.vector_lanes,
            attached_units=self.functional_units,
            shared_ports=self.vreg_shared_ports,
        )

    def operand_bytes_per_cycle(self) -> int:
        """Input operand stream the Mem must sustain at full compute."""
        total = 0
        if self.tu is not None:
            total += operand_bytes(
                self.tensor_units, self.tu.rows, self.tu.cell.input_dtype.bits
            )
        if self.rt is not None:
            total += operand_bytes(
                self.reduction_trees, self.rt.inputs, self.rt.input_dtype.bits
            )
        return max(total, 1)

    def peak_tops(self, freq_ghz: float) -> float:
        """Peak TOPS of one core at ``freq_ghz``."""
        return tops(self.macs_per_cycle, freq_ghz)


class Core:
    """Analytical model of one core, assembled from its units."""

    def __init__(self, config: CoreConfig):
        self.config = config
        self.ifu = InstructionFetchUnit()
        self.tensor_unit = (
            TensorUnit(config.tu) if config.tu is not None else None
        )
        self.reduction_tree = (
            ReductionTree(config.rt) if config.rt is not None else None
        )
        vu_config = config.vu or VectorUnitConfig(lanes=config.vector_lanes)
        self.vector_unit = VectorUnit(vu_config)
        self.vreg = VectorRegisterFile(config.vreg_config())
        self.scalar_unit = (
            ScalarUnit(scale=config.scalar_unit_scale)
            if config.include_scalar_unit
            else None
        )
        self.lsu = LoadStoreUnit(
            datapath_bytes=config.operand_bytes_per_cycle()
        )

    def memory(self, ctx: ModelContext) -> OnChipMemory:
        """The Mem slice with auto-filled bandwidth targets."""
        cfg = self.config.mem
        read_gbps, write_gbps = mem_bandwidth_targets_gbps(
            self.config.operand_bytes_per_cycle(), ctx.freq_ghz
        )
        if cfg.read_bandwidth_gbps <= 0:
            cfg = replace(cfg, read_bandwidth_gbps=read_gbps)
        if cfg.write_bandwidth_gbps <= 0:
            cfg = replace(cfg, write_bandwidth_gbps=write_gbps)
        return OnChipMemory(cfg)

    @cached_estimate
    def estimate(self, ctx: ModelContext) -> Estimate:
        """Full core estimate with per-unit children."""
        children: list[Estimate] = [self.ifu.estimate(ctx)]

        if self.tensor_unit is not None:
            tu_est = self.tensor_unit.estimate(ctx)
            children.append(
                tu_est.replicated(
                    self.config.tensor_units,
                    name="tensor units"
                    if self.config.tensor_units > 1
                    else "tensor unit",
                )
            )
        if self.reduction_tree is not None:
            rt_est = self.reduction_tree.estimate(ctx)
            children.append(
                rt_est.replicated(
                    self.config.reduction_trees,
                    name="reduction trees"
                    if self.config.reduction_trees > 1
                    else "reduction tree",
                )
            )

        children.append(self.vector_unit.estimate(ctx))
        children.append(self.vreg.estimate(ctx))
        if self.scalar_unit is not None:
            children.append(self.scalar_unit.estimate(ctx))
        children.append(self.lsu.estimate(ctx))

        memory = self.memory(ctx)
        children.append(memory.estimate(ctx))
        for name, extra_config in self.config.extra_memories:
            extra = OnChipMemory(extra_config)
            children.append(extra.estimate(ctx).renamed(name))

        connected = sum(child.area_mm2 for child in children)
        cdb = CentralDataBus(
            width_bits=self._cdb_width_bits(),
            connected_area_mm2=connected,
            endpoints=self.config.functional_units + 1,
        )
        children.append(cdb.estimate(ctx))

        return Estimate.compose("core", children)

    def _cdb_width_bits(self) -> int:
        """CDB width: one TU-wide operand vector in each direction.

        The bus matches the widest *systolic* interface, not the VU lane
        count — a 1024-lane VPU reads the VReg locally, it does not stream
        over the CDB every cycle.
        """
        cfg = self.config
        if cfg.tu is not None:
            return 2 * cfg.tu.rows * cfg.tu.cell.input_dtype.bits
        if cfg.rt is not None:
            return 2 * cfg.rt.inputs * cfg.rt.input_dtype.bits
        return 2 * cfg.vector_lanes * 32
