"""The array namespace of the cycle simulator, over plain Python numbers.

The GEMM mapper (:mod:`repro.perf.mapping`) and the layer walk
(:mod:`repro.perf.simulator`) are written once, against an array
namespace ``xp``.  The vector backend passes :mod:`numpy` and simulates
every design point of a sweep at once; :class:`~repro.perf.simulator.Simulator`
and :func:`~repro.perf.mapping.map_gemm` pass this module and simulate
one chip over Python ``int`` and ``float`` values, so counts stay exact
integers of unbounded size.

Like :func:`numpy.where`, :func:`where` receives both branches already
evaluated: every branch the shared code passes it must be safe to
compute, whichever side is selected.
"""

from __future__ import annotations

import math
import operator

ceil = math.ceil
maximum = max
minimum = min
floor_divide = operator.floordiv
any = bool


def where(condition, if_true, if_false):
    """``if_true`` where ``condition`` holds, else ``if_false``."""
    return if_true if condition else if_false
