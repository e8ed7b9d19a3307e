"""Point-independent model state hoisted out of the vectorized hot loop.

A chip configuration splits into its *shape* and its per-point values
(:func:`~repro.arch.chip.split_config`).  The presets
(:mod:`repro.config.presets`) own how those values scale with ``(X, N,
T_x, T_y)`` (Sec. III-A, Fig. 6): the batch layer takes a datacenter
point's values from the preset's rule,
:func:`~repro.config.presets.datacenter_axes`, and any other point's from
its built configuration.  Everything else is fixed for a ``(ModelContext,
shape)`` pair, whose :class:`TechSubstrate` keeps a chip of the shape's
own components (their parts that take no per-point value are made once,
on first use) and the pair's cache-key digest.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.arch.chip import Chip, ChipConfig, ChipParts
from repro.arch.component import ModelContext
from repro.cache import stable_hash


@dataclass(frozen=True)
class TechSubstrate:
    """Everything the batch kernels need that does not vary per point."""

    ctx: ModelContext
    #: the configuration with its per-point fields set to 1.
    shape: ChipConfig
    #: a chip of the shape's own components.
    parts: ChipParts
    #: ``stable_hash`` of ``(ctx, shape)``, computed once per pair.
    digest: str

    @classmethod
    def build(cls, ctx: ModelContext, shape: ChipConfig) -> "TechSubstrate":
        """The substrate of ``shape``'s points under ``ctx``."""
        return cls(
            ctx=ctx,
            shape=shape,
            parts=ChipParts(Chip(shape)),
            digest=stable_hash("batch-substrate", ctx, shape),
        )


#: Substrates kept; a daemon sees a new context with every new clock.
MAX_SUBSTRATES = 32

#: ``(ctx, shape)`` -> substrate, least recently used first.
_SUBSTRATES: Dict[Tuple[ModelContext, ChipConfig], TechSubstrate] = {}
_SUBSTRATES_LOCK = threading.Lock()


def substrate_for(ctx: ModelContext, shape: ChipConfig) -> TechSubstrate:
    """Build (or reuse) the substrate for ``(ctx, shape)``.

    Repeated sweeps in one process (CLI, benchmarks, tests, the daemon)
    share the hoisted state; past :data:`MAX_SUBSTRATES` entries the
    least recently used one is dropped.
    """
    key = (ctx, shape)
    with _SUBSTRATES_LOCK:
        substrate = _SUBSTRATES.pop(key, None)
        if substrate is None:
            substrate = TechSubstrate.build(ctx, shape)
        _SUBSTRATES[key] = substrate
        if len(_SUBSTRATES) > MAX_SUBSTRATES:
            del _SUBSTRATES[next(iter(_SUBSTRATES))]
        return substrate
