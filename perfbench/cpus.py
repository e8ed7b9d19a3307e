"""Spread the benchmark's single thread over the CPUs it may use.

On the 2-vCPU development VM each vCPU flips between a fast and a
~1.4-1.8x slower phase every few seconds, independently of the other
(the host's hyperthread siblings, not steal time: CPU time slows down
with wall time).  A single-threaded op stays on one vCPU, so its time
follows that vCPU's phase.  Moving the thread to the next allowed CPU
every :data:`PERIOD_S` makes every op see the average of all of them:
on that VM it halved the spread of 5-s means of a fixed loop (CV 0.11
to 0.06) at the same mean speed.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import Iterator

#: Seconds the thread stays on one CPU before it moves to the next.
PERIOD_S = 0.05


@contextmanager
def alternating() -> Iterator[int]:
    """Round-robin the calling thread over its allowed CPUs while inside.

    Yields how many CPUs take turns (1: nothing to alternate, and no
    helper thread is started).  On exit the helper thread is stopped and
    joined and the thread's original affinity is restored.
    """
    allowed = (sorted(os.sched_getaffinity(0))
               if hasattr(os, "sched_setaffinity") else [])
    if len(allowed) < 2:
        yield max(1, len(allowed))
        return
    tid = threading.get_native_id()
    stop = threading.Event()

    def rotate() -> None:
        turn = 0
        while not stop.wait(PERIOD_S):
            turn = (turn + 1) % len(allowed)
            os.sched_setaffinity(tid, {allowed[turn]})

    helper = threading.Thread(target=rotate, name="perfbench-cpus",
                              daemon=True)
    helper.start()
    try:
        yield len(allowed)
    finally:
        stop.set()
        helper.join()
        os.sched_setaffinity(tid, allowed)
