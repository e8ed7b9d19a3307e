"""Vectorized batch-estimation backend for the DSE hot path.

The scalar model stack evaluates one :class:`~repro.dse.space.DesignPoint`
at a time by walking a tree of component objects.  For the Table I sweep
that walk is pure overhead: every point shares one technology substrate
and one configuration shape, and differs only in a few per-point values
(TU rows and cols, TUs per core, VU lanes, the Mem slice, the core grid)
that the preset factories derive from ``(X, N, T_x, T_y)``.  This package
evaluates an entire grid of points as NumPy array operations:

* :mod:`repro.batch.substrate` splits each built configuration into its
  shape and per-point values (:class:`GridAxes`), and hoists the full
  estimates of the point-independent blocks for a ``(context, shape)``
  pair into a :class:`TechSubstrate`;
* :mod:`repro.batch.kernels` assemble the architecture-level components
  (tensor/vector units, VReg, LSU, on-chip memory, CDB, NoC, chip) over
  the grid from the same broadcastable closed forms the scalar models
  call (``repro.arch``, ``repro.circuit``, ``repro.tech.wire``, including
  the SRAM bank x port lattice search), returning vectors of
  ``(area_mm2, power_w, timing_ns)``;
* :mod:`repro.batch.perf` runs the workload simulation and runtime power
  over the same arrays;
* :mod:`repro.batch.estimator` groups a sweep's points by shape, runs the
  kernels, screens the batched arrays through the integrity contracts,
  and materializes per-point :class:`~repro.dse.journal.SummaryResult`
  rows.

The closed forms exist once, so the two paths agree on them by
construction; ``tests/batch/`` checks the architecture-level assembly
against the scalar walk over the full Table I grid (exactly, and within
1e-9 relative at the default context).
"""

from repro.batch.estimator import BatchEstimator, BatchResult
from repro.batch.substrate import GridAxes, TechSubstrate

__all__ = [
    "BatchEstimator",
    "BatchResult",
    "GridAxes",
    "TechSubstrate",
]
