"""The estimate tree every architectural component produces.

An :class:`Estimate` is an inclusive rollup: a node's ``area_mm2``,
``dynamic_w``, and ``leakage_w`` already contain its children, and the
children provide the breakdown (this is what the ring charts in Figs. 3-5
report).  ``dynamic_w`` is the power at the component's thermal-design
activity — the chip model converts the rollup into TDP with a uniform
guardband.

The :class:`ModelContext` carries the two globals every model needs: the
technology node and the clock.

Each component's closed forms are written once, as module functions that
return :class:`Terms`: the component classes call them with one
configuration's numbers and turn the terms into :class:`Estimate` nodes,
and the batch kernels call them with arrays of design points.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Any, Callable, Iterator, NamedTuple, Optional, TypeVar

import numpy as np

from repro.cache.keys import stable_hash
from repro.cache.store import get_estimate_cache
from repro.errors import ConfigurationError
from repro.integrity.contracts import screen_value
from repro.integrity.diagnostics import (
    DIGEST_LENGTH,
    component_label,
    component_scope,
    current_component_path,
)
from repro.integrity.faults import active_fault_plan
from repro.tech.node import TechNode
from repro.units import cycle_time_ns

_R = TypeVar("_R")


def cached_estimate(
    method: Callable[..., _R]
) -> Callable[..., _R]:
    """Memoize a pure ``(self, ctx)`` model method through the estimate cache.

    The analytical models are deterministic functions of the component's
    configuration and the :class:`ModelContext`, so their results are
    content-addressed: the key hashes the method's qualified name, the
    component's public state (configs, nested sub-components — derived
    ``_``-prefixed caches are excluded), and the context, salted with the
    package version.  Identical sub-structures therefore share one
    computation across design points, sweeps, and forked sweep workers.

    The wrapped method is bypassed entirely — no key is derived — when the
    process-wide cache is disabled, and falls back to a plain call for
    components whose state cannot be canonicalized.

    This wrapper is also the model stack's integrity boundary:

    * every call pushes the component's label onto the diagnostics path
      stack, so a failure deep in the tree reads
      ``chip.core.tensor_unit`` instead of "invalid result";
    * every freshly *computed* value passes the
      :func:`repro.integrity.contracts.screen_value` numeric screen
      before it can enter the cache — a NaN, infinity, or negative field
      raises :class:`~repro.errors.NumericalError` (with path and config
      digest) and is never stored, so the cache cannot serve a poisoned
      entry;
    * an armed :class:`~repro.integrity.faults.FaultPlan` intercepts
      matching calls here, corrupting the computed value *outside* the
      cache so injected faults can never pollute it.
    """
    qualname = method.__qualname__
    method_name = method.__name__

    @functools.wraps(method)
    def wrapper(self, ctx):
        with component_scope(component_label(self, method_name)):
            plan = active_fault_plan()
            if plan is not None:
                spec = plan.pick(qualname, current_component_path())
                if spec is not None:
                    # Faulted computations bypass the cache in both
                    # directions: no clean hit masks the injection, and
                    # no corrupted value is ever stored.
                    return screen_value(
                        plan.apply(spec, method(self, ctx))
                    )
            cache = get_estimate_cache()
            if not cache.enabled:
                return screen_value(method(self, ctx))
            try:
                key = stable_hash(qualname, self, ctx)
            except ConfigurationError:
                return screen_value(method(self, ctx))
            return cache.get_or_compute(
                key,
                lambda: screen_value(
                    method(self, ctx), digest=key[:DIGEST_LENGTH]
                ),
            )

    return wrapper


@dataclass(frozen=True)
class ModelContext:
    """Shared modeling context: technology node and target clock."""

    tech: TechNode
    freq_ghz: float

    def __post_init__(self) -> None:
        if self.freq_ghz <= 0:
            raise ConfigurationError(
                f"clock rate must be positive, got {self.freq_ghz} GHz"
            )

    @property
    def cycle_ns(self) -> float:
        """Clock period in nanoseconds."""
        return cycle_time_ns(self.freq_ghz)


@dataclass(frozen=True)
class Estimate:
    """Inclusive power/area/timing rollup for one component.

    Attributes:
        name: Component label, used in breakdown reports.
        area_mm2: Total silicon area, children included.
        dynamic_w: Dynamic power at the component's TDP activity factor,
            children included.
        leakage_w: Static power, children included.
        cycle_time_ns: Minimum clock period this component supports
            (0 means it imposes no clock constraint).
        children: Sub-component breakdown.
    """

    name: str
    area_mm2: float
    dynamic_w: float
    leakage_w: float
    cycle_time_ns: float = 0.0
    children: tuple["Estimate", ...] = ()

    def __post_init__(self) -> None:
        if self.area_mm2 < 0 or self.dynamic_w < 0 or self.leakage_w < 0:
            raise ConfigurationError(
                f"estimate {self.name!r} has a negative area or power"
            )

    # -- composition ----------------------------------------------------------

    @classmethod
    def compose(
        cls,
        name: str,
        children: list["Estimate"],
        self_area_mm2: float = 0.0,
        self_dynamic_w: float = 0.0,
        self_leakage_w: float = 0.0,
        self_cycle_time_ns: float = 0.0,
    ) -> "Estimate":
        """Roll child estimates (plus optional glue) into a parent node."""
        return cls(
            name=name,
            area_mm2=self_area_mm2 + sum(c.area_mm2 for c in children),
            dynamic_w=self_dynamic_w + sum(c.dynamic_w for c in children),
            leakage_w=self_leakage_w + sum(c.leakage_w for c in children),
            cycle_time_ns=max(
                [self_cycle_time_ns] + [c.cycle_time_ns for c in children]
            ),
            children=tuple(children),
        )

    def replicated(self, count: int, name: Optional[str] = None) -> "Estimate":
        """This component instantiated ``count`` times (area/power scale)."""
        if count < 1:
            raise ConfigurationError(f"replication count must be >= 1: {count}")
        label = name if name is not None else f"{count}x {self.name}"
        return Estimate(
            name=label,
            area_mm2=self.area_mm2 * count,
            dynamic_w=self.dynamic_w * count,
            leakage_w=self.leakage_w * count,
            cycle_time_ns=self.cycle_time_ns,
            children=(self,) if count > 1 else self.children,
        )

    def renamed(self, name: str) -> "Estimate":
        """The same estimate under a different label."""
        return replace(self, name=name)

    # -- queries ------------------------------------------------------------

    @property
    def total_power_w(self) -> float:
        """Dynamic plus leakage power."""
        return self.dynamic_w + self.leakage_w

    @property
    def max_freq_ghz(self) -> float:
        """Highest clock the component's critical path supports."""
        if self.cycle_time_ns <= 0:
            return float("inf")
        return 1.0 / self.cycle_time_ns

    def walk(self) -> Iterator["Estimate"]:
        """Yield this node and every descendant, depth first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> "Estimate":
        """Locate a descendant (or self) by exact name.

        Raises:
            KeyError: no node with that name exists.
        """
        for node in self.walk():
            if node.name == name:
                return node
        raise KeyError(f"no component named {name!r} under {self.name!r}")

    def share_of(self, metric: Callable[["Estimate"], float]) -> dict[str, float]:
        """Fraction of a metric contributed by each direct child."""
        total = metric(self)
        if total <= 0:
            return {child.name: 0.0 for child in self.children}
        return {child.name: metric(child) / total for child in self.children}

    def area_shares(self) -> dict[str, float]:
        """Per-child area fractions (the paper's area ring charts)."""
        return self.share_of(lambda e: e.area_mm2)

    def power_shares(self) -> dict[str, float]:
        """Per-child total-power fractions (the paper's power ring charts)."""
        return self.share_of(lambda e: e.total_power_w)


class Terms(NamedTuple):
    """One estimate node's closed forms, as numbers or broadcast arrays.

    The fields mirror :class:`Estimate`'s, without its validation, so the
    same functions serve one configuration and a whole grid of points.
    """

    name: str
    area_mm2: Any
    dynamic_w: Any
    leakage_w: Any
    cycle_time_ns: Any = 0.0

    def estimate(self) -> Estimate:
        """The leaf :class:`Estimate` of one configuration's terms."""
        return Estimate(
            name=self.name,
            area_mm2=float(self.area_mm2),
            dynamic_w=float(self.dynamic_w),
            leakage_w=float(self.leakage_w),
            cycle_time_ns=float(self.cycle_time_ns),
        )

    def replicated(self, count) -> "Terms":
        """:meth:`Estimate.replicated` over terms: ``count`` broadcasts."""
        return self._replace(
            area_mm2=self.area_mm2 * count,
            dynamic_w=self.dynamic_w * count,
            leakage_w=self.leakage_w * count,
        )

    @classmethod
    def compose(cls, name: str, parts) -> "Terms":
        """:meth:`Estimate.compose` over terms: the same sums, in order."""
        return cls(
            name=name,
            area_mm2=0.0 + sum(part.area_mm2 for part in parts),
            dynamic_w=0.0 + sum(part.dynamic_w for part in parts),
            leakage_w=0.0 + sum(part.leakage_w for part in parts),
            cycle_time_ns=functools.reduce(
                np.maximum, [part.cycle_time_ns for part in parts], 0.0
            ),
        )
