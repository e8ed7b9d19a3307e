"""NM4xx: concurrency and durable-I/O safety rules.

The daemon (:mod:`repro.serve`) runs request handlers on one asyncio
event loop, journals every request with an fsynced append, shares a
warm cache across threads, and forks worker pools (:mod:`repro.dse`)
whose sweeps resume from their journals after a crash.  Each of those
mechanisms has one classic way to rot:

* a blocking call sneaks onto the event loop and stalls every in-flight
  request (NM401);
* an attribute guarded by ``with self._lock:`` in one method gets
  mutated lock-free in another — the exact shape of the historical
  ``CircuitBreaker`` half-open race (NM402);
* a journal/lease/manifest file is written without the
  ``write-tmp → flush → fsync → os.replace`` discipline that makes a
  crash recoverable (NM403);
* a lock, thread, or event loop is captured into a forked child, where
  it is either permanently held or silently broken (NM404).

All four rules run on the shared interprocedural facts built by
:class:`repro.lint.flow.ModuleFlow` (cached per file as
``SourceFile.flow``): a module-level call graph with per-function
*effects*, so a blocking call is caught whether it sits in the ``async
def`` itself or three sync helpers down the call chain.  Handing the
callable to an executor (``loop.run_in_executor(...)``,
``asyncio.to_thread(...)``) passes a function *reference*, which creates
no call edge — the sanctioned fix is invisible to the rule by
construction, not by special case.

The rules are scoped to the durable/concurrent layers
(``serve``/``dse``/``cache``); model-layer math and tests are exempt.
"""

from __future__ import annotations

from typing import Iterable

from repro.lint.engine import (
    Finding,
    Rule,
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    SourceFile,
)
from repro.lint.flow import EFFECT_BLOCKING, EFFECT_FSYNC, EFFECT_REPLACE, \
    EFFECT_TOUCHES_LOOP


class BlockingInAsync(Rule):
    """NM401: a blocking call reachable from an ``async def``.

    Flags direct blocking work (``time.sleep``, sync file I/O,
    ``subprocess``, pool/queue ``.get``/``.join``, journaled log writes)
    inside an ``async def``, and calls from an ``async def`` into a
    *sync* local function whose transitive effects include blocking —
    the call graph carries the effect up, so hiding the ``sleep`` in a
    helper does not hide the stall.  Async callees are not re-flagged at
    the call site; they get their own finding at their own definition.
    """

    id = "NM401"
    severity = SEVERITY_ERROR
    title = "blocking call reachable from an async function"

    def applies(self, sf: SourceFile) -> bool:
        return sf.in_durable_scope

    def check(self, sf: SourceFile) -> Iterable[Finding]:
        flow = sf.flow
        for info in flow.functions.values():
            if not info.is_async:
                continue
            for node, description in info.blocking_sites:
                yield self.finding(
                    sf, node,
                    f"async def {info.name}() performs {description} "
                    "directly on the event loop; every other in-flight "
                    "request stalls behind it",
                    hint="hop to the executor: await "
                    "loop.run_in_executor(None, fn, ...) or "
                    "asyncio.to_thread(fn, ...)",
                )
            for node, callee in info.calls:
                target = flow.functions.get(callee)
                if target is None or target.is_async:
                    continue
                if EFFECT_BLOCKING not in flow.effects(callee):
                    continue
                chain, description = flow.blocking_chain(callee)
                via = " -> ".join(f"{name}()" for name in chain)
                yield self.finding(
                    sf, node,
                    f"async def {info.name}() reaches {description} "
                    f"through {via}; the blocking work runs on the "
                    "event loop",
                    hint="await the chain through the executor instead "
                    "of calling it inline",
                )


class InconsistentLockDiscipline(Rule):
    """NM402: an attribute mutated both under a class lock and lock-free.

    Within one class, if any method mutates ``self.<attr>`` inside
    ``with self._lock:`` and another mutates the same attribute without
    the lock, the lock is not actually protecting the invariant — one
    path can observe (or destroy) a half-updated state.  ``__init__``
    and friends are exempt (the object is not shared yet), and a private
    helper whose every intra-class call site holds the lock counts as
    under-lock (the ``_foo_locked`` pattern).
    """

    id = "NM402"
    severity = SEVERITY_ERROR
    title = "inconsistent lock discipline on a shared attribute"

    def applies(self, sf: SourceFile) -> bool:
        return sf.in_durable_scope

    def check(self, sf: SourceFile) -> Iterable[Finding]:
        for violation in sf.flow.lock_violations:
            locked = ", ".join(
                f"{name}()" for name in violation.locked_methods
            )
            yield self.finding(
                sf, violation.node,
                f"{violation.class_name}.{violation.method}() mutates "
                f"self.{violation.attr} without holding "
                f"self.{violation.lock_name}, but {locked} mutate(s) it "
                "under the lock; concurrent callers can observe a "
                "half-updated state",
                hint=f"wrap the mutation in `with self."
                f"{violation.lock_name}:` (or move it into a helper "
                "called only under the lock)",
            )


class NonAtomicDurableWrite(Rule):
    """NM403: a journal/lease/manifest written without crash-safe I/O.

    Durable files — anything whose name or context says journal, lease,
    manifest, heartbeat, checkpoint, or log — are what ``--resume``
    trusts after a crash.  A truncating write must follow
    the ``write-tmp → flush → fsync → os.replace`` pattern (a crash
    mid-write otherwise leaves a torn file at the real path); an append
    must at least reach ``os.fsync`` (the journal pattern).  The fsync/
    replace may live in a helper — the check is against the writing
    function's *transitive* effects.  ``Path.write_text`` has no handle
    to fsync, so it can never be made atomic and is always flagged.
    """

    id = "NM403"
    severity = SEVERITY_ERROR
    title = "non-atomic write to a durable file"

    def applies(self, sf: SourceFile) -> bool:
        return sf.in_durable_scope

    def check(self, sf: SourceFile) -> Iterable[Finding]:
        flow = sf.flow
        for info in flow.functions.values():
            for write in info.write_opens:
                if not write.durable:
                    continue
                effects = flow.effects(info.qualname)
                if write.kind in ("write_text", "write_bytes"):
                    yield self.finding(
                        sf, write.node,
                        f"{info.name}() writes durable file "
                        f"{write.what} via .{write.kind}(), which "
                        "cannot flush+fsync; a crash mid-write leaves "
                        "a torn file",
                        hint="open a temp file, write, flush, "
                        "os.fsync, then os.replace onto the real path",
                    )
                elif "a" in write.mode:
                    if EFFECT_FSYNC not in effects:
                        yield self.finding(
                            sf, write.node,
                            f"{info.name}() appends to durable file "
                            f"{write.what} without os.fsync; the entry "
                            "can vanish in a crash after the caller "
                            "was told it was recorded",
                            hint="flush then os.fsync(fh.fileno()) "
                            "before reporting success",
                        )
                else:
                    if EFFECT_FSYNC not in effects \
                            or EFFECT_REPLACE not in effects:
                        yield self.finding(
                            sf, write.node,
                            f"{info.name}() rewrites durable file "
                            f"{write.what} in place (mode "
                            f"{write.mode!r}) without the "
                            "flush+fsync+os.replace pattern; a crash "
                            "mid-write corrupts it",
                            hint="write to a sibling temp file, flush, "
                            "os.fsync, then os.replace onto the path",
                        )


class ForkUnsafeCapture(Rule):
    """NM404: a lock/thread/event-loop captured into a forked child.

    ``fork()`` clones a held lock as held-forever and an event loop as
    unusable.  Flags ``Process(target=...)`` spawns that either pass a
    lock/thread/loop-shaped object through ``args=``/``kwargs=``, or
    whose (locally resolvable) target function transitively drives an
    event loop.
    """

    id = "NM404"
    severity = SEVERITY_WARNING
    title = "lock/thread/event-loop captured into a forked worker"

    def applies(self, sf: SourceFile) -> bool:
        return sf.in_durable_scope

    def check(self, sf: SourceFile) -> Iterable[Finding]:
        flow = sf.flow
        for info in flow.functions.values():
            for spawn in info.spawns:
                hazards = list(spawn.hazardous_args)
                if spawn.target_qualname is not None and \
                        EFFECT_TOUCHES_LOOP in flow.effects(
                            spawn.target_qualname):
                    hazards.append(
                        f"{spawn.target_name}() drives an event loop"
                    )
                if not hazards:
                    continue
                yield self.finding(
                    sf, spawn.node,
                    f"{info.name}() forks Process(target="
                    f"{spawn.target_name}) capturing "
                    f"{', '.join(hazards)}; locks fork as held-forever "
                    "and event loops do not survive fork()",
                    hint="pass plain data (pipes/queues) to the child "
                    "and rebuild locks/loops inside it",
                )


CONCURRENCY_RULES = (
    BlockingInAsync(),
    InconsistentLockDiscipline(),
    NonAtomicDurableWrite(),
    ForkUnsafeCapture(),
)
