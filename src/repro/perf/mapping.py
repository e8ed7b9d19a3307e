"""Tiling and scheduling of GEMMs onto the systolic-array fleet.

The mapping engine implements what TF-Sim does for wimpy designs
(Sec. III-A): "the operation is always too large to map on single TU
without tiling.  The mapping strategy considers how to reduce the extra
overhead of partial sum merging and weight/activation broadcast."

A (M x K x N) GEMM is cut into K/rows x N/cols weight tiles; each tile
pass streams M rows through one TU.  Tiles (and, when tiles are scarce, M
chunks) are distributed over every TU on the chip.  The result carries
both the cycle count and the traffic/activity tallies the power model
consumes.

Both dataflows are written once, over an array namespace ``xp``
(:func:`map_gemm_dims`).  :func:`map_gemm` maps one GEMM onto one chip
over Python numbers (:mod:`repro.perf.scalar`); the layer walk passes
NumPy and maps a block of GEMM layers onto every design point of a
sweep (or the one chip of :class:`~repro.perf.simulator.Simulator`) at
once.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.chip import Chip, ChipConfig, axes_of
from repro.arch.component import ModelContext
from repro.arch.core import GridAxes, core_macs
from repro.arch.tensor_unit import Dataflow
from repro.errors import MappingError
from repro.perf import scalar
from repro.perf.ops import Gemm
from repro.perf.optimizations import OptimizationConfig

#: Accumulation width of partial sums travelling between cores.
_PSUM_BYTES = 4


@dataclass(frozen=True)
class ArchView:
    """The simulator's summary of a chip (everything mapping needs).

    :meth:`of` summarizes one chip in Python numbers; :meth:`derive`
    also summarizes a sweep's design points as float64 arrays, one
    element per point.

    Attributes:
        tu_rows / tu_cols: Systolic array rows and columns (X x X on
            square arrays): a weight tile spans ``tu_rows`` of K and
            ``tu_cols`` of N.
        tus: Total TUs on the chip.
        cores: Core count.
        vu_lanes_total: Total VU lanes on the chip.
        macs_per_cycle: Peak chip MAC throughput.
        freq_ghz: Clock rate.
        mem_capacity_bytes: Total on-chip memory.
        mem_read_gbps / mem_write_gbps: Peak aggregate Mem bandwidth.
        noc_gbps: NoC bisection bandwidth (0 for single-core chips).
        offchip_gbps: Off-chip memory bandwidth.
    """

    tu_rows: int
    tu_cols: int
    tus: int
    cores: int
    vu_lanes_total: int
    macs_per_cycle: int
    freq_ghz: float
    mem_capacity_bytes: int
    mem_read_gbps: float
    mem_write_gbps: float
    noc_gbps: float
    offchip_gbps: float
    dataflow: Dataflow = Dataflow.WEIGHT_STATIONARY

    @property
    def multi(self):
        """Whether the chip has a NoC (``cores > 1``): a mask over arrays."""
        return self.cores > 1

    @classmethod
    def of(cls, chip: Chip, ctx: ModelContext) -> "ArchView":
        """Extract the view from a chip model."""
        cfg = chip.config
        if cfg.core.tu is None:
            raise MappingError(
                "the GEMM mapper needs tensor units; use the roofline model "
                "for reduction-tree accelerators"
            )
        memory = chip.core.memory(ctx)
        return cls.derive(
            cfg,
            axes_of(cfg),
            ctx.freq_ghz,
            memory.peak_read_bandwidth_gbps(ctx),
            memory.peak_write_bandwidth_gbps(ctx),
        )

    @classmethod
    def derive(
        cls,
        config: ChipConfig,
        values: GridAxes,
        freq_ghz: float,
        mem_read_gbps,
        mem_write_gbps,
    ) -> "ArchView":
        """The view of a configuration with tensor units, at per-point
        ``values`` (numbers or arrays) and peak Mem bandwidths."""
        core = config.core
        cores, n = values.cores, values.tensor_units
        extra_capacity = sum(
            extra.capacity_bytes for _, extra in core.extra_memories
        )
        return cls(
            tu_rows=values.tu_rows,
            tu_cols=values.tu_cols,
            tus=cores * n,
            cores=cores,
            vu_lanes_total=cores * values.lanes,
            macs_per_cycle=cores
            * core_macs(core, n, values.tu_rows, values.tu_cols),
            freq_ghz=freq_ghz,
            mem_capacity_bytes=cores
            * (values.mem_capacity_bytes + extra_capacity),
            mem_read_gbps=cores * mem_read_gbps,
            mem_write_gbps=cores * mem_write_gbps,
            # A bool factor: 0.0 on single-core chips, per point on grids.
            noc_gbps=config.noc_bisection_gbps * (cores > 1),
            offchip_gbps=config.offchip_bandwidth_gbps,
            dataflow=core.tu.dataflow,
        )


@dataclass(frozen=True)
class GemmMapping:
    """Result of mapping one GEMM onto the fleet.

    Attributes:
        compute_cycles: TU-side cycles (fill/drain, weight loads, dispatch
            overhead included).
        useful_macs: MACs the GEMM actually needs.
        occupied_mac_cycles: MAC-cycles during which arrays are clocked
            (useful work plus fill/drain/overhead waste) — the runtime
            power model charges partially for the waste.
        merge_vector_ops: VU additions for partial-sum merging.
        mem_read_bytes / mem_write_bytes: On-chip memory traffic.
        noc_bytes: Inter-core traffic (broadcast + partial sums).
        weight_bytes: Weight volume streamed into the TUs.
        tiles: Weight tiles (k-tiles x n-tiles).
        k_tiles: Tiling of the reduction dimension.
    """

    compute_cycles: int
    useful_macs: int
    occupied_mac_cycles: int
    merge_vector_ops: int
    mem_read_bytes: int
    mem_write_bytes: int
    noc_bytes: int
    weight_bytes: int
    tiles: int
    k_tiles: int


def map_gemm(
    gemm: Gemm, arch: ArchView, opt: OptimizationConfig
) -> GemmMapping:
    """Map one GEMM onto every TU of the chip.

    Dispatches on the TU's dataflow: weight stationary (TPU-style) or
    output stationary (accumulate in place, re-stream operands).
    """
    return map_gemm_dims(gemm.m, gemm.k, gemm.n, arch, opt, scalar)


def map_gemm_dims(
    m, k, n, arch: ArchView, opt: OptimizationConfig, xp
) -> GemmMapping:
    """:func:`map_gemm` of an ``m x k x n`` GEMM, over namespace ``xp``.

    The dims and the view hold Python numbers (``xp`` is
    :mod:`repro.perf.scalar`) or broadcastable float64 arrays (``xp`` is
    NumPy); every count is an exact integer either way.
    """
    if arch.dataflow is Dataflow.OUTPUT_STATIONARY:
        return _output_stationary(m, k, n, arch, opt, xp)
    return _weight_stationary(m, k, n, arch, opt, xp)


def _weight_stationary(m, k, n, arch, opt, xp) -> GemmMapping:
    """Weight-stationary schedule: ``ceil(K/rows) * ceil(N/cols)`` tiles,
    each streaming (a chunk of) the M rows.  When tiles are scarcer than
    TUs and M is deep enough, tile passes split along M to keep TUs busy —
    the paper's "sophisticated compiler and runtime software" advantage
    that wimpy designs rely on.
    """
    rows, cols = arch.tu_rows, arch.tu_cols
    k_tiles = xp.ceil(k / rows)
    n_tiles = xp.ceil(n / cols)
    tiles = k_tiles * n_tiles
    # Operands cross the array in rows + cols cycles: the fill/drain of a
    # pass, and the shortest M chunk worth a pass of its own.
    fill_drain = rows + cols

    # Parallelism hierarchy: N tiles first, then M chunks, and only then
    # splitting the K chain across TUs.  K chains that stay on one TU
    # accumulate locally (in the TU's accumulator storage), which is how
    # real systolic schedulers avoid spilling partial sums to Mem.
    chunks_per_tile = xp.where(
        (n_tiles < arch.tus) & (m > fill_drain),
        xp.minimum(xp.ceil(arch.tus / n_tiles), xp.ceil(m / fill_drain)),
        1,
    )
    k_parallel = _k_parallel(
        n_tiles * chunks_per_tile, k_tiles, arch.tus, xp
    )

    # Back-to-back tile streaming: with double buffering the drain of one
    # pass overlaps the fill of the next, so the fill/drain is paid once
    # per TU work chain instead of once per pass, and the next tile's
    # weights (one row per cycle) load behind the current pass.
    weight_load = 0 if opt.double_buffering else rows
    per_pass = _pass_cycles(
        xp.ceil(m / chunks_per_tile) + weight_load, fill_drain, opt
    )
    compute_cycles, occupied = _schedule(
        tiles * chunks_per_tile, per_pass, fill_drain, arch, xp
    )

    # Partial-sum merging on the vector path: only K chains split across
    # TUs need merging; same-TU chains accumulate in place.
    merge_ops = m * n * (k_parallel - 1)

    # On-chip traffic: activations re-read once per reuse window of N
    # tiles (intra-core multicast feeds TUs sharing a K slice); outputs
    # written once, plus the cross-TU merge residue.
    merge_spill = m * n * _PSUM_BYTES * xp.maximum(k_parallel - 1, 0)
    mem_reads = xp.ceil(
        _activation_reads(m, k, n_tiles, opt, xp) + k * n + merge_spill
    )
    mem_writes = xp.ceil(m * n + merge_spill)

    return GemmMapping(
        compute_cycles=compute_cycles,
        useful_macs=m * k * n,
        occupied_mac_cycles=occupied,
        merge_vector_ops=merge_ops,
        mem_read_bytes=mem_reads,
        mem_write_bytes=mem_writes,
        noc_bytes=_weight_stationary_noc(
            m, k, n, k_parallel, chunks_per_tile, fill_drain, arch, xp
        ),
        weight_bytes=k * n,
        tiles=tiles,
        k_tiles=k_tiles,
    )


def _k_parallel(n_parallel, k_tiles, tus, xp):
    """TUs each K chain splits across: one, unless N tiles and M chunks
    leave TUs idle."""
    return xp.where(
        n_parallel >= tus, 1, xp.minimum(k_tiles, xp.ceil(tus / n_parallel))
    )


def _weight_stationary_noc(
    m, k, n, k_parallel, chunks_per_tile, fill_drain, arch, xp
):
    """Inter-core bytes of the weight-stationary schedule: partial sums
    of K chains split across cores, activation broadcast, and weight
    replicas."""
    cross_fraction = _cross_fraction(m, fill_drain, arch, xp)
    # Fractional core shares round *up*: a byte partially crossing the
    # NoC still occupies a flit, and truncation systematically
    # undercounted traffic (skewing bound attribution wimpy-ward).
    psum_noc = xp.ceil(m * n * _PSUM_BYTES * (k_parallel - 1) * cross_fraction)
    # Data-parallel M chunks replicate the weight tiles across cores:
    # every replica beyond the first crosses the NoC.  This is the
    # brawny-multicore weight-broadcast pressure the paper attributes
    # to "longer and more power-hungry inter-core NoC".
    broadcast_noc = _broadcast_noc(
        m, k, n, cross_fraction, xp.minimum(chunks_per_tile, arch.cores), xp
    )
    return xp.where(arch.multi, psum_noc + broadcast_noc, 0)


def _output_stationary(m, k, n, arch, opt, xp) -> GemmMapping:
    """Output-stationary schedule.

    Each pass pins a ``rows x cols`` output tile (M by N) in the array's
    accumulators and streams the full K reduction through it: no partial
    sums ever leave the array (no merge work, no psum traffic), but
    operands are re-streamed once per output tile in the other dimension —
    the classic dual of weight stationary.
    """
    rows, cols = arch.tu_rows, arch.tu_cols
    m_tiles = xp.ceil(m / rows)
    n_tiles = xp.ceil(n / cols)
    passes = m_tiles * n_tiles

    fill_drain = rows + cols
    # Without double buffering the output drain stalls the next pass.
    per_pass = _pass_cycles(k, fill_drain, opt)
    compute_cycles, occupied = _schedule(
        passes, per_pass, fill_drain, arch, xp
    )

    # Operand traffic: each output tile streams its operand panels; the
    # reuse window caches a panel across consecutive tiles.
    a_reads = _activation_reads(m, k, n_tiles, opt, xp)
    b_reads = k * n * m_tiles
    mem_reads = a_reads + b_reads
    mem_writes = m * n

    cross_fraction = _cross_fraction(m, fill_drain, arch, xp)
    replicas = xp.minimum(arch.cores, m_tiles)
    broadcast_noc = _broadcast_noc(m, k, n, cross_fraction, replicas, xp)

    return GemmMapping(
        compute_cycles=compute_cycles,
        useful_macs=m * k * n,
        occupied_mac_cycles=occupied,
        merge_vector_ops=0,
        mem_read_bytes=xp.ceil(mem_reads),
        mem_write_bytes=xp.ceil(mem_writes),
        noc_bytes=xp.where(arch.multi, broadcast_noc, 0),
        weight_bytes=k * n,
        tiles=passes,
        k_tiles=1,
    )


def _pass_cycles(streamed, fill_drain, opt: OptimizationConfig):
    """Cycles of one tile pass that streams ``streamed`` rows: plus the
    dispatch overhead, and the fill/drain unless double buffering
    overlaps it with the neighbouring passes."""
    per_pass = streamed + opt.tile_overhead_cycles
    if not opt.double_buffering:
        per_pass = per_pass + fill_drain
    return per_pass


def _schedule(passes, per_pass, fill_drain, arch, xp):
    """``(compute cycles, occupied MAC-cycles)`` of ``passes`` tile
    passes dealt in rounds over every TU, the fill/drain paid once."""
    compute_cycles = xp.ceil(passes / arch.tus) * per_pass + fill_drain
    occupied = passes * per_pass * arch.tu_rows * arch.tu_cols
    return compute_cycles, occupied


def _activation_reads(m, k, n_tiles, opt, xp):
    """Activation bytes read: once per reuse window of N tiles."""
    reuse = xp.maximum(1, xp.minimum(n_tiles, opt.activation_reuse_tiles))
    return m * k * xp.ceil(n_tiles / reuse)


def _cross_fraction(m, fill_drain, arch, xp):
    """The share of cores that must share M rows.

    The scheduler prefers data parallelism: when M is deep enough to give
    every core its own row slice, activations stay core-local and partial
    sums merge inside the core.  Only the residue of cores that must
    share rows (model parallelism) pays broadcast and cross-core
    partial-sum traffic.
    """
    # ``floor(m / fill_drain)`` is ``m // fill_drain`` exactly for
    # integers below 2**52, and over arrays it is ~10x cheaper than
    # NumPy's float ``floor_divide``.
    m_parallelism = xp.maximum(1, xp.floor(m / fill_drain))
    data_parallel_cores = xp.minimum(arch.cores, m_parallelism)
    return (arch.cores - data_parallel_cores) / arch.cores


def _broadcast_noc(m, k, n, cross_fraction, weight_replicas, xp):
    """Activations broadcast to the cores sharing rows, plus every weight
    replica beyond the first."""
    return xp.ceil(m * k * cross_fraction) + k * n * xp.maximum(
        weight_replicas - 1, 0
    )
