"""Stable, content-addressed cache keys for model configs and contexts.

A cache key must satisfy three properties the built-in ``hash()`` does not:

* **Content addressing** — two structurally equal configs produce the same
  key even when they are distinct objects built in different processes.
* **Determinism across restarts** — no reliance on ``PYTHONHASHSEED``,
  ``id()``, or dict insertion order.
* **Invalidation on version change** — keys are salted with the package
  version, so a model change (which ships as a version bump) never reuses
  stale on-disk entries.

:func:`canonicalize` lowers an object graph — dataclasses, enums, containers,
and plain model objects — into nested tuples of primitives;
:func:`stable_hash` serializes that structure and hashes it with SHA-256.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import types
from typing import Any

from repro.errors import ConfigurationError

#: Recursion guard: configs are shallow trees; anything deeper is a cycle.
_MAX_DEPTH = 64


def package_version() -> str:
    """The ``repro`` package version used as the cache-key salt.

    Imported lazily so :mod:`repro.cache` stays importable from the bottom
    of the layer stack without a circular import.
    """
    import repro

    return getattr(repro, "__version__", "0")


def canonicalize(obj: Any, _depth: int = 0) -> Any:
    """Lower an object into a deterministic nested-tuple structure.

    Handles primitives, enums, dataclasses, tuples/lists/sets/dicts, and
    plain objects (via their public ``vars()``, which skips derived caches
    stored under ``_``-prefixed attributes).  Mapping entries are sorted by
    the repr of their canonical key, so insertion order never leaks into
    the cache key.

    Raises:
        ConfigurationError: the object cannot be canonicalized (e.g. a
            function, an open file, or a cyclic structure).
    """
    if _depth > _MAX_DEPTH:
        raise ConfigurationError(
            "cache key derivation exceeded the nesting limit "
            "(cyclic model object?)"
        )
    if obj is None or isinstance(obj, (bool, int, str, bytes)):
        return obj
    if isinstance(obj, float):
        # repr() is the shortest round-trippable form — stable across
        # processes and platforms for IEEE-754 doubles.
        return ("float", repr(obj))
    if isinstance(obj, enum.Enum):
        return ("enum", type(obj).__qualname__, obj.name)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return (
            "dataclass",
            type(obj).__qualname__,
            tuple(
                (f.name, canonicalize(getattr(obj, f.name), _depth + 1))
                for f in dataclasses.fields(obj)
            ),
        )
    if isinstance(obj, (tuple, list)):
        if all(type(v) is int for v in obj):
            return ("seq", tuple(obj))  # plain ints are their own form
        return ("seq", tuple(canonicalize(v, _depth + 1) for v in obj))
    if isinstance(obj, (set, frozenset)):
        members = [canonicalize(v, _depth + 1) for v in obj]
        return ("set", tuple(sorted(members, key=repr)))
    if isinstance(obj, dict):
        items = [
            (canonicalize(k, _depth + 1), canonicalize(v, _depth + 1))
            for k, v in obj.items()
        ]
        return ("map", tuple(sorted(items, key=lambda kv: repr(kv[0]))))
    if isinstance(
        obj,
        (
            types.FunctionType,
            types.BuiltinFunctionType,
            types.MethodType,
            types.ModuleType,
            type,
        ),
    ):
        # Functions and modules have a (often empty) __dict__, which would
        # silently collapse distinct behaviors onto one key.
        raise ConfigurationError(
            f"cannot derive a cache key from {obj!r}"
        )
    try:
        state = vars(obj)
    except TypeError as error:
        raise ConfigurationError(
            f"cannot derive a cache key from {type(obj).__qualname__}"
        ) from error
    public = [
        (name, canonicalize(value, _depth + 1))
        for name, value in state.items()
        if not name.startswith("_")
    ]
    return ("object", type(obj).__qualname__, tuple(sorted(public)))


def stable_hash(*parts: Any) -> str:
    """A hex SHA-256 digest of the canonical form of ``parts``.

    The digest is salted with :func:`package_version`, so every released
    model change starts from an empty (disk) cache.
    """
    canon = tuple(canonicalize(part) for part in parts)
    payload = repr((package_version(), canon)).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


#: Short-digest length used in journal stamps and human-facing filenames.
SHORT_DIGEST_LEN = 16


def short_hash(*parts: Any, length: int = SHORT_DIGEST_LEN) -> str:
    """A truncated :func:`stable_hash`, for journal stamps and filenames.

    16 hex chars (64 bits) keeps journal stamps and derived
    filenames readable while leaving collision odds negligible at the
    scale of sweeps per repository; the full digest remains available
    where keys index unbounded caches.
    """
    if length < 8 or length > 64:
        raise ConfigurationError(
            f"short hash length must be in [8, 64], got {length}"
        )
    return stable_hash(*parts)[:length]
