"""Output checks: every op's rows against checked-in references.

Rows are the program's own JSON metric dicts (``summarize_result``
output on the local path, ``metrics`` on the wire).  Floats must match
bit for bit; the first differing field is reported by path.
"""

from __future__ import annotations

import json
import os
from typing import Any, Iterable, Optional

REFS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs")


def point_key(point) -> str:
    """``"X,N,Tx,Ty"`` for a DesignPoint or a ``[X, N, Tx, Ty]`` list."""
    if isinstance(point, (list, tuple)):
        return ",".join(str(int(v)) for v in point)
    return f"{point.x},{point.n},{point.tx},{point.ty}"


def first_difference(expected: Any, actual: Any,
                     where: str = "row") -> Optional[str]:
    """``None`` when identical, else the path and values of the first
    field that differs (floats compared by their exact bits)."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return f"{where}: expected an object, got {actual!r}"
        for key in sorted(set(expected) | set(actual)):
            if key not in actual:
                return f"{where}.{key}: missing"
            if key not in expected:
                return f"{where}.{key}: unexpected"
            found = first_difference(
                expected[key], actual[key], f"{where}.{key}"
            )
            if found:
                return found
        return None
    if isinstance(expected, (list, tuple)):
        if not isinstance(actual, (list, tuple)):
            return f"{where}: expected a list, got {actual!r}"
        if len(expected) != len(actual):
            return (f"{where}: expected {len(expected)} items, "
                    f"got {len(actual)}")
        for index, (e, a) in enumerate(zip(expected, actual)):
            found = first_difference(e, a, f"{where}[{index}]")
            if found:
                return found
        return None
    if type(expected) is not type(actual):
        same = False
    elif isinstance(expected, float):
        same = expected.hex() == actual.hex()
    else:
        same = expected == actual
    return None if same else (
        f"{where}: expected {expected!r}, got {actual!r}"
    )


def check_rows(expected: dict, rows: dict, label: str) -> Optional[str]:
    """Compare ``{point_key: metrics}`` rows against their references."""
    for key, metrics in rows.items():
        if key not in expected:
            return f"{label} ({key}): no reference row"
        found = first_difference(expected[key], metrics, f"{label} ({key})")
        if found:
            return found
    return None


def first_problem(problems: Iterable[Optional[str]]) -> Optional[str]:
    """The first problem among a burst's outputs (one failed op)."""
    return next((problem for problem in problems if problem), None)


def load(name: str) -> dict:
    with open(os.path.join(REFS_DIR, name), encoding="utf-8") as fh:
        return json.load(fh)


def save(name: str, payload: dict) -> None:
    os.makedirs(REFS_DIR, exist_ok=True)
    path = os.path.join(REFS_DIR, name)
    with open(path + ".tmp", "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    os.replace(path + ".tmp", path)
