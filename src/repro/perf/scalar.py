"""The array namespace of the GEMM mapper, over plain Python numbers.

The GEMM mapper (:mod:`repro.perf.mapping`) is written once, against an
array namespace ``xp``.  The layer walk (:mod:`repro.perf.simulator`)
passes :mod:`numpy` and maps a block of layers onto every design point
at once; :func:`~repro.perf.mapping.map_gemm` and
:func:`~repro.perf.optimizations.apply_space_to_depth` pass this module
and work on one GEMM over Python ``int`` and ``float`` values.

Like :func:`numpy.where`, :func:`where` receives both branches already
evaluated: every branch the shared code passes it must be safe to
compute, whichever side is selected.
"""

from __future__ import annotations

import math
import operator

ceil = math.ceil
floor = math.floor
maximum = max
minimum = min
floor_divide = operator.floordiv


def where(condition, if_true, if_false):
    """``if_true`` where ``condition`` holds, else ``if_false``."""
    return if_true if condition else if_false
