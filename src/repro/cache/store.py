"""Bounded, stats-tracking estimate cache with an optional on-disk layer.

One process-wide :class:`EstimateCache` instance backs every
:func:`repro.arch.component.cached_estimate` call.  The in-memory layer is a
plain LRU (an ``OrderedDict`` under a lock); the optional disk layer stores
pickled values under a directory keyed by the content hash, which already
carries the package version, so a version bump naturally invalidates it.

Sweep workers forked from a warmed parent inherit the in-memory layer by
copy-on-write — that is how :func:`repro.dse.engine.run_sweep` pre-seeds
the substrate once instead of recomputing it in every worker.
"""

from __future__ import annotations

import os
import pickle
import threading
import warnings
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional

from repro.errors import ConfigurationError

#: Default in-memory entry bound — the Fig. 8 study touches a few hundred
#: distinct (component, context) pairs, so this never evicts in practice.
DEFAULT_MAXSIZE = 4096

#: Environment switches honoured at process start.
ENV_DISABLE = "NEUROMETER_CACHE"  # "0" disables
ENV_DISK_DIR = "NEUROMETER_CACHE_DIR"
ENV_MAXSIZE = "NEUROMETER_CACHE_SIZE"


@dataclass
class CacheStats:
    """Hit/miss/eviction counters for one cache instance."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    stores: int = 0
    disk_hits: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0 when unused)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def snapshot(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "stores": self.stores,
            "disk_hits": self.disk_hits,
        }

    def delta_since(self, before: dict) -> dict:
        """Counter increments since an earlier :meth:`snapshot`."""
        now = self.snapshot()
        return {name: now[name] - before.get(name, 0) for name in now}


@dataclass
class _Totals:
    """Mutable accumulator for merging per-point stat deltas."""

    counters: dict = field(default_factory=dict)

    def add(self, delta: Optional[dict]) -> None:
        if not delta:
            return
        for name, value in delta.items():
            if isinstance(value, (int, float)):
                self.counters[name] = self.counters.get(name, 0) + value


class EstimateCache:
    """A bounded LRU mapping content hashes to modeled results.

    Args:
        maxsize: In-memory entry bound; the least recently used entry is
            evicted past it.
        disk_path: Optional directory for the persistent layer.  Misses
            fall through to disk before recomputing; stores write through.
            Disk I/O failures are swallowed — the cache is an accelerator,
            never a correctness dependency.
        enabled: Start disabled to make the cache a strict no-op.
    """

    def __init__(
        self,
        maxsize: int = DEFAULT_MAXSIZE,
        disk_path: Optional[str] = None,
        enabled: bool = True,
    ):
        if maxsize < 1:
            raise ConfigurationError(
                f"cache maxsize must be >= 1, got {maxsize}"
            )
        self.maxsize = maxsize
        self.disk_path = os.fspath(disk_path) if disk_path else None
        self.enabled = enabled
        self.stats = CacheStats()
        #: Corrupt disk entries renamed to ``*.corrupt`` (kept out of
        #: :class:`CacheStats` so snapshot/delta comparisons are stable).
        self.quarantined = 0
        self._entries: "OrderedDict[str, Any]" = OrderedDict()
        self._lock = threading.RLock()

    # -- core operations ----------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: str) -> tuple[bool, Any]:
        """Look one key up; returns ``(hit, value)`` and counts the outcome."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return True, self._entries[key]
            self.stats.misses += 1
        value = self._disk_read(key)
        if value is not _MISS:
            with self._lock:
                self.stats.disk_hits += 1
            self._store_memory(key, value)
            return True, value
        return False, None

    def put(self, key: str, value: Any) -> None:
        """Insert a freshly computed value (write-through to disk)."""
        self._store_memory(key, value)
        with self._lock:
            self.stats.stores += 1
        self._disk_write(key, value)

    def get_or_compute(self, key: str, compute: Callable[[], Any]) -> Any:
        """The memoization primitive the decorator uses."""
        hit, value = self.get(key)
        if hit:
            return value
        value = compute()
        self.put(key, value)
        return value

    def clear(self) -> None:
        """Drop the in-memory layer (the disk layer is left untouched)."""
        with self._lock:
            self._entries.clear()

    def _store_memory(self, key: str, value: Any) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            self._evict_over_bound()

    def _evict_over_bound(self) -> None:
        with self._lock:
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    # -- disk layer ---------------------------------------------------------

    def _disk_file(self, key: str) -> str:
        assert self.disk_path is not None
        return os.path.join(self.disk_path, key[:2], key + ".pkl")

    def _disk_read(self, key: str) -> Any:
        if self.disk_path is None:
            return _MISS
        try:
            with open(self._disk_file(key), "rb") as fh:
                return pickle.load(fh)
        except FileNotFoundError:
            return _MISS  # plain miss: nothing on disk for this key
        except Exception:
            # A file exists but does not unpickle (truncated write,
            # garbage, version-skewed payload).  Left in place it would
            # be re-read and re-fail on every miss for this key, so
            # quarantine it: rename to ``*.corrupt`` (atomic, keeps the
            # evidence for inspection) and let the slot be rewritten by
            # the next store.
            self._quarantine(key)
            return _MISS

    def _quarantine(self, key: str) -> None:
        target = self._disk_file(key)
        try:
            os.replace(target, target + ".corrupt")
        except OSError:
            # Lost a race with another process quarantining or
            # rewriting the entry; either way the bad file is gone.
            pass
        else:
            self.quarantined += 1
            warnings.warn(
                f"estimate cache: quarantined corrupt entry "
                f"{target} -> {os.path.basename(target)}.corrupt",
                RuntimeWarning,
                stacklevel=3,
            )

    def _disk_write(self, key: str, value: Any) -> None:
        if self.disk_path is None:
            return
        target = self._disk_file(key)
        # A unique temp name per write: threads of one process storing
        # the same key must not write into one shared temp file.
        tmp = f"{target}.{os.urandom(8).hex()}.tmp"
        try:
            os.makedirs(os.path.dirname(target), exist_ok=True)
            with open(tmp, "xb") as fh:
                pickle.dump(value, fh)
            os.replace(tmp, target)
        except Exception:
            try:
                os.unlink(tmp)
            except OSError:
                pass


class _Miss:
    """Sentinel distinguishing a disk miss from a cached ``None``."""


_MISS = _Miss()


# -- the process-wide default instance -----------------------------------------


def _cache_from_environment() -> EstimateCache:
    maxsize = DEFAULT_MAXSIZE
    raw_size = os.environ.get(ENV_MAXSIZE)
    if raw_size:
        try:
            maxsize = max(1, int(raw_size))
        except ValueError:
            pass
    return EstimateCache(
        maxsize=maxsize,
        disk_path=os.environ.get(ENV_DISK_DIR) or None,
        enabled=os.environ.get(ENV_DISABLE, "1") != "0",
    )


_GLOBAL_CACHE: EstimateCache = _cache_from_environment()
_GLOBAL_LOCK = threading.Lock()


def get_estimate_cache() -> EstimateCache:
    """The process-wide cache every cached model method consults."""
    return _GLOBAL_CACHE


def configure_estimate_cache(
    *,
    enabled: Optional[bool] = None,
    maxsize: Optional[int] = None,
    disk_path: Optional[str] = None,
) -> EstimateCache:
    """Adjust the process-wide cache in place; returns it.

    Changing ``maxsize`` re-bounds the existing entries (evicting the
    oldest past the new limit); changing ``disk_path`` redirects the
    persistent layer without touching memory.
    """
    cache = _GLOBAL_CACHE
    with _GLOBAL_LOCK:
        if enabled is not None:
            cache.enabled = enabled
        if maxsize is not None:
            if maxsize < 1:
                raise ConfigurationError(
                    f"cache maxsize must be >= 1, got {maxsize}"
                )
            cache.maxsize = maxsize
            cache._evict_over_bound()
        if disk_path is not None:
            cache.disk_path = os.fspath(disk_path) or None
    return cache


def reset_estimate_cache() -> EstimateCache:
    """Replace the process-wide cache with a fresh one (tests, benchmarks)."""
    global _GLOBAL_CACHE
    with _GLOBAL_LOCK:
        _GLOBAL_CACHE = _cache_from_environment()
    return _GLOBAL_CACHE


@contextmanager
def estimate_cache_disabled() -> Iterator[None]:
    """Temporarily bypass the cache (uncached baselines, A/B checks)."""
    cache = _GLOBAL_CACHE
    previous = cache.enabled
    cache.enabled = False
    try:
        yield
    finally:
        cache.enabled = previous
