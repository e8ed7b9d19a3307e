"""Vectorized batch-estimation backend for the DSE hot path.

The scalar model stack evaluates one :class:`~repro.dse.space.DesignPoint`
at a time by walking a tree of component objects.  A sweep's points
mostly share one configuration shape and differ only in a few per-point
values (TU rows and cols, TUs per core, VU lanes, the Mem slice, the core
grid), so this package evaluates each shape's points at once, as NumPy
arrays, through the scalar classes' own rules and rollups:

* :mod:`repro.batch.substrate` hoists what a ``(context, shape)`` pair
  fixes into a :class:`TechSubstrate`;
* :mod:`repro.batch.kernels` runs the core and chip rollups over a grid
  with the components' closed forms (including the SRAM bank x port
  lattice search);
* :mod:`repro.batch.perf` runs the workload simulation and runtime power
  over the same arrays;
* :mod:`repro.batch.estimator` groups a sweep's points by shape, screens
  the batched arrays through the integrity contracts, and materializes
  per-point :class:`~repro.dse.sweep.DesignPointResult` rows, the same
  type the scalar path returns.

Every shape vectorizes, and ``tests/batch/`` checks the results against
the scalar walk bit for bit.
"""

from repro.batch.estimator import BatchEstimator, BatchResult
from repro.arch.core import GridAxes
from repro.batch.substrate import TechSubstrate

__all__ = [
    "BatchEstimator",
    "BatchResult",
    "GridAxes",
    "TechSubstrate",
]
