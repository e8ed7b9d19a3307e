"""NM3xx: determinism and numerics rules.

The estimate cache, the sweep journal, and the validation snapshots all
depend on bit-identical reruns; these rules catch the classic ways a
Python codebase silently loses that property.
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional

from repro.lint.engine import (
    Finding,
    Rule,
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    SourceFile,
)


def _call_name(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name):
            return func.id
        if isinstance(func, ast.Attribute):
            return func.attr
    return None


def _is_set_expr(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if _call_name(node) in {"set", "frozenset"}:
        return True
    if _call_name(node) == "keys":
        return True  # dict.keys(): ordered, but order is incidental state
    return False


class UnorderedIteration(Rule):
    """NM301: iterating a set (or ``.keys()``) where order feeds cache keys
    or journal rows.

    ``set`` iteration order varies across processes (hash randomization),
    so anything derived from it — a cache key, a journal line, a resident
    ordering — is unreproducible.  ``sorted(...)`` is the fix and is not
    flagged.
    """

    id = "NM301"
    severity = SEVERITY_ERROR
    title = "unordered set/keys iteration in a determinism-critical module"

    def applies(self, sf: SourceFile) -> bool:
        return sf.in_determinism_scope

    def check(self, sf: SourceFile) -> Iterable[Finding]:
        sorted_args = set()
        for node in ast.walk(sf.tree):
            if _call_name(node) in {"sorted", "len", "any", "all"}:
                for arg in node.args:
                    sorted_args.add(id(arg))
        for node in ast.walk(sf.tree):
            iter_expr = None
            context = None
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iter_expr, context = node.iter, "for loop"
            elif isinstance(node, ast.comprehension):
                iter_expr, context = node.iter, "comprehension"
            elif isinstance(node, ast.Call):
                name = _call_name(node)
                if name in {"list", "tuple", "join", "enumerate"} \
                        and node.args:
                    iter_expr, context = node.args[0], f"{name}()"
            if iter_expr is None or id(iter_expr) in sorted_args:
                continue
            if _is_set_expr(iter_expr):
                yield self.finding(
                    sf, iter_expr,
                    f"unordered iteration over a set/keys view in a "
                    f"{context}; iteration order here can leak into "
                    "cache keys or journal rows",
                    hint="wrap the iterable in sorted(...)",
                )


#: module attribute calls that inject wall-clock or entropy into a model.
_NONDETERMINISTIC_CALLS = {
    ("random", "random"), ("random", "randint"), ("random", "randrange"),
    ("random", "uniform"), ("random", "choice"), ("random", "choices"),
    ("random", "shuffle"), ("random", "sample"), ("random", "gauss"),
    ("random", "seed"),
    ("time", "time"), ("time", "time_ns"),
    ("datetime", "now"), ("datetime", "utcnow"), ("datetime", "today"),
    ("uuid", "uuid1"), ("uuid", "uuid4"),
    ("np", "rand"), ("np", "randn"), ("numpy", "rand"), ("numpy", "randn"),
}


class NondeterministicSource(Rule):
    """NM302: wall-clock or unseeded randomness inside model code.

    Seeded generators (``random.Random(seed)``,
    ``np.random.default_rng(0)``) and timers used only for measurement
    (``time.perf_counter``, ``time.monotonic``) stay legal.

    This rule honors the inline allow pragma: a line carrying
    ``# lint: allow(NM302): <reason>`` is exempt.  This exists for the
    rare *legitimate* wall-clock reads in determinism scope — a
    timestamp that must be comparable across machines, which no
    monotonic clock can give — and the mandatory reason keeps each
    exemption justified at the call site instead of growing the
    baseline file.
    """

    id = "NM302"
    severity = SEVERITY_ERROR
    title = "wall-clock or unseeded randomness in model code"

    def applies(self, sf: SourceFile) -> bool:
        return sf.is_model_layer or sf.in_determinism_scope

    def check(self, sf: SourceFile) -> Iterable[Finding]:
        for node in ast.walk(sf.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) \
                    and isinstance(func.value, ast.Name):
                pair = (func.value.id, func.attr)
                if sf.has_allow_pragma(self.id, node.lineno):
                    continue
                if pair in _NONDETERMINISTIC_CALLS:
                    yield self.finding(
                        sf, node,
                        f"{pair[0]}.{pair[1]}() makes the model "
                        "nondeterministic: reruns, cache keys, and "
                        "journal replays will disagree",
                        hint="thread a seeded random.Random/"
                        "np.random.default_rng(seed) or a timestamp "
                        "argument through instead",
                    )
                elif func.attr == "default_rng" and not node.args \
                        and not node.keywords:
                    yield self.finding(
                        sf, node,
                        "default_rng() without a seed draws OS entropy",
                        hint="pass an explicit seed",
                    )


class FloatEquality(Rule):
    """NM303: ``==``/``!=`` against a float literal outside tests.

    Analytical results are floats; exact equality against a literal is
    either a latent bug (rounding) or an exact sentinel that deserves a
    baseline entry documenting why it is safe.
    """

    id = "NM303"
    severity = SEVERITY_WARNING
    title = "float equality comparison outside tests"

    def applies(self, sf: SourceFile) -> bool:
        return not sf.is_test

    def check(self, sf: SourceFile) -> Iterable[Finding]:
        for node in ast.walk(sf.tree):
            if not isinstance(node, ast.Compare):
                continue
            comparators = [node.left] + list(node.comparators)
            for index, op in enumerate(node.ops):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                sides = (comparators[index], comparators[index + 1])
                if any(
                    isinstance(side, ast.Constant)
                    and isinstance(side.value, float)
                    for side in sides
                ):
                    yield self.finding(
                        sf, node,
                        "exact float equality against a literal",
                        hint="use a tolerance (math.isclose / <=) or "
                        "baseline it if the value is an exact sentinel",
                    )
                    break


DETERMINISM_RULES = (
    UnorderedIteration(),
    NondeterministicSource(),
    FloatEquality(),
)
