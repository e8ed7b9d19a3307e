"""Vectorized batch-estimation backend for the DSE hot path.

The scalar model stack evaluates one :class:`~repro.dse.space.DesignPoint`
at a time by walking a tree of component objects.  For the Table I sweep
that walk is pure overhead: every point shares one technology substrate and
differs only in four integers ``(X, N, T_x, T_y)``.  This package evaluates
an entire grid of points as NumPy array operations:

* :mod:`repro.batch.substrate` hoists everything that does not depend on
  the design point — per-MAC scalars, wire parameters, and full estimates
  of the point-independent blocks — into a :class:`TechSubstrate`;
* :mod:`repro.batch.kernels` assemble the architecture-level components
  (tensor/vector units, VReg, LSU, on-chip memory, CDB, NoC, chip) over
  the grid from the same broadcastable circuit functions the scalar
  models call (``repro.circuit``, ``repro.tech.wire``, including the SRAM
  bank x port lattice search), returning vectors of ``(area_mm2,
  power_w, timing_ns)``;
* :mod:`repro.batch.estimator` canonicalizes a sweep into swept axes plus
  shared context, runs the kernels, screens the batched arrays through the
  integrity contracts, and materializes per-point
  :class:`~repro.dse.journal.SummaryResult` rows.

The circuit closed forms exist once, so the two paths agree on them by
construction; ``tests/batch/`` checks the architecture-level assembly
against the scalar walk over the full Table I grid (exactly, and within
1e-9 relative at the default context).
"""

from repro.batch.estimator import (
    BatchEstimator,
    BatchResult,
    GridAxes,
    supports_vector_path,
)
from repro.batch.substrate import TechSubstrate

__all__ = [
    "BatchEstimator",
    "BatchResult",
    "GridAxes",
    "TechSubstrate",
    "supports_vector_path",
]
