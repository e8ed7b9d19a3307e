"""XLA-style graph/runtime optimizations (Fig. 7).

TF-Sim "supports advanced runtime graph scheduling and optimization ...
Space-to-Batch, Space-to-Depth, and double memory buffering"; Fig. 7 shows
the throughput gain, largest at small batch.  These optimizations are
represented as a configuration consumed by the mapping engine:

* **Space-to-Depth/Batch** — early convolutions with very few input
  channels (the RGB stem) fold spatial positions into the reduction
  dimension, deepening K so the systolic array's rows are actually used.
* **Double buffering** — the next tile's weights load while the current
  tile computes, hiding the weight-load bubble.
* **Scheduling** — tighter tile dispatch shrinks the per-tile instruction
  overhead, and blocked execution improves activation reuse in Mem.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.perf import scalar
from repro.perf.ops import Gemm


@dataclass(frozen=True)
class OptimizationConfig:
    """Software-optimization switches for the performance simulator.

    Attributes:
        space_to_depth: Fold the spatial stem into the K dimension.
        double_buffering: Overlap weight loads with compute.
        tile_overhead_cycles: Instruction/dispatch cycles per tile pass.
        activation_reuse_tiles: N-tile passes served by one Mem read of
            the activation block (higher = better blocking).
        layer_launch_cycles: Serial per-layer cost (dependency stall,
            weight ramp, cross-core synchronization) that no amount of
            parallel hardware removes — the small-batch floor.
    """

    space_to_depth: bool = True
    double_buffering: bool = True
    tile_overhead_cycles: int = 8
    activation_reuse_tiles: int = 4
    layer_launch_cycles: int = 1_500

    def __post_init__(self) -> None:
        if self.tile_overhead_cycles < 0:
            raise ConfigurationError("tile overhead must be >= 0")
        if self.activation_reuse_tiles < 1:
            raise ConfigurationError("activation reuse must be >= 1")
        if self.layer_launch_cycles < 0:
            raise ConfigurationError("layer launch must be >= 0")

    @classmethod
    def all_on(cls) -> "OptimizationConfig":
        """The optimized configuration of Fig. 7."""
        return cls()

    @classmethod
    def all_off(cls) -> "OptimizationConfig":
        """The baseline (pre-optimization) configuration of Fig. 7."""
        return cls(
            space_to_depth=False,
            double_buffering=False,
            tile_overhead_cycles=32,
            activation_reuse_tiles=1,
            layer_launch_cycles=4_000,
        )


#: Input-channel bound below which the stem transform applies.
_STEM_CHANNEL_BOUND = 16

#: Spatial fold factor of the stem transform.
_FOLD = 2


def folds_stem(input_channels: int, stride: int) -> bool:
    """Whether space-to-depth rewrites a convolution's GEMM.

    Only strided stems with few input channels fold; other GEMMs pass
    through unchanged.
    """
    return not (input_channels > _STEM_CHANNEL_BOUND or stride < _FOLD)


def fold_stem(m, k, xp):
    """The folded stem GEMM's ``(M, K)``, over array namespace ``xp``.

    Folding a ``_FOLD x _FOLD`` spatial block into channels multiplies K by
    ``_FOLD^2`` and divides the spatial output dimension M by the same
    factor — the total MAC count is unchanged, but the deep K dimension now
    fills the systolic array's rows.
    """
    factor = _FOLD * _FOLD
    return xp.maximum(1, xp.floor_divide(m, factor)), k * factor


def apply_space_to_depth(
    gemm: Gemm, input_channels: int, stride: int
) -> Gemm:
    """Space-to-depth on a stem convolution's GEMM (see :func:`fold_stem`)."""
    if not folds_stem(input_channels, stride):
        return gemm
    m, k = fold_stem(gemm.m, gemm.k, scalar)
    return Gemm(m=m, k=k, n=gemm.n)
