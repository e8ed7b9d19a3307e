"""The Table I design space: ``(X, N, T_x, T_y)`` tuples.

``X`` is the TU length (4-256), ``N`` the TUs per core (1, 2, 4), and
``T_x x T_y`` the core grid — powers of two, with ``T_x`` equal to or half
of ``T_y`` so the layout stays near-square.  The chip budget is 500 mm^2,
300 W, and a 92 TOPS peak cap at 28 nm / 700 MHz.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from repro.arch.chip import Chip
from repro.arch.component import ModelContext
from repro.config.presets import (
    DATACENTER_AREA_BUDGET_MM2,
    DATACENTER_POWER_BUDGET_W,
    DATACENTER_TOPS_CAP,
    datacenter_context,
    datacenter_design_point,
)
from repro.errors import ConfigurationError
from repro.units import tops

TU_LENGTHS = (4, 8, 16, 32, 64, 128, 256)
TUS_PER_CORE = (1, 2, 4)
_MAX_GRID_DIM = 16


@dataclass(frozen=True, order=True)
class DesignPoint:
    """One ``(X, N, T_x, T_y)`` tuple of the Table I space."""

    x: int
    n: int
    tx: int
    ty: int

    def __post_init__(self) -> None:
        x, n, tx, ty = self.x, self.n, self.tx, self.ty
        if type(x) is type(n) is type(tx) is type(ty) is int and \
                x >= 1 and n >= 1 and tx >= 1 and ty >= 1:
            return
        for name in ("x", "n", "tx", "ty"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigurationError(
                    f"design point field {name} must be an integer, "
                    f"got {value!r} in {self}"
                )
            if value < 1:
                raise ConfigurationError(
                    f"design point field {name} must be positive, "
                    f"got {value} in {self}"
                )

    @property
    def cores(self) -> int:
        return self.tx * self.ty

    @property
    def macs_per_cycle(self) -> int:
        return self.x * self.x * self.n * self.cores

    def peak_tops(self, freq_ghz: float) -> float:
        return tops(self.macs_per_cycle, freq_ghz)

    def build(self) -> Chip:
        """Instantiate the chip for this point."""
        return datacenter_design_point(self.x, self.n, self.tx, self.ty)

    def label(self) -> str:
        return f"({self.x},{self.n},{self.tx},{self.ty})"


def _grids() -> Iterator[tuple[int, int]]:
    """Near-square power-of-two grids: T_x == T_y or T_x == T_y / 2."""
    tx = 1
    while tx <= _MAX_GRID_DIM:
        for ty in (tx, 2 * tx):
            if ty <= _MAX_GRID_DIM * 2:
                yield (tx, ty)
        tx *= 2


def full_grid() -> list[DesignPoint]:
    """Every Table I ``(X, N, Tx, Ty)`` tuple, unpruned (210 points).

    The raw cross product of tensor-unit lengths, units per core, and
    near-square core grids — no TOPS cap or area/power budget filtering.
    Its size and order are deterministic, so a journaled sweep over it
    resumes point for point, and a kill-and-resume drill can compare
    the resumed journal with a fresh sweep.
    """
    return [
        DesignPoint(x, n, tx, ty)
        for x in TU_LENGTHS
        for n in TUS_PER_CORE
        for tx, ty in _grids()
    ]


@dataclass(frozen=True)
class SpaceAxes:
    """The axes a proposal-driven search can move along.

    Exhaustive sweeps enumerate :func:`full_grid`; the surrogate search
    (:mod:`repro.dse.surrogate`) instead *navigates* the space, so it
    needs the axes as first-class objects: the admissible TU lengths,
    TUs per core, and ``(T_x, T_y)`` core-grid pairs.  ``table1()``
    reproduces the 210-point paper grid; ``expanded()`` widens every
    axis into a >1M-point space.  Its points take the datacenter
    preset's rule (:func:`~repro.config.presets.datacenter_axes`) on the
    vectorized backend, so any proposed point is verified by the exact
    model, and a peak-only pass over every point takes tens of seconds.

    Axis values are deduplicated and sorted at construction so the same
    recipe always digests and samples identically.
    """

    x_values: tuple[int, ...]
    n_values: tuple[int, ...]
    grid_pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        for name in ("x_values", "n_values", "grid_pairs"):
            values = getattr(self, name)
            if not values:
                raise ConfigurationError(f"axis {name} must be non-empty")
        object.__setattr__(
            self, "x_values", tuple(sorted(set(self.x_values)))
        )
        object.__setattr__(
            self, "n_values", tuple(sorted(set(self.n_values)))
        )
        object.__setattr__(
            self,
            "grid_pairs",
            tuple(sorted({(int(tx), int(ty)) for tx, ty in self.grid_pairs})),
        )
        for value in self.x_values + self.n_values:
            if not isinstance(value, int) or value < 1:
                raise ConfigurationError(
                    f"axis values must be positive integers, got {value!r}"
                )
        for tx, ty in self.grid_pairs:
            if tx < 1 or ty < 1:
                raise ConfigurationError(
                    f"grid pair must be positive, got ({tx}, {ty})"
                )

    @classmethod
    def table1(cls) -> "SpaceAxes":
        """The paper's Table I axes (the 210-point grid)."""
        return cls(
            x_values=TU_LENGTHS,
            n_values=TUS_PER_CORE,
            grid_pairs=tuple(_grids()),
        )

    @classmethod
    def expanded(
        cls,
        max_x: int = 256,
        x_step: int = 2,
        max_n: int = 8,
        max_grid_dim: int = 32,
    ) -> "SpaceAxes":
        """A widened space: every even TU length, 1-8 TUs, free grids.

        With the defaults this is 127 x 8 x 1024 = 1,040,384 points —
        three orders of magnitude past Table I, yet each tuple is still
        a ``datacenter_design_point`` and therefore evaluates on the
        exact vectorized backend.
        """
        return cls(
            x_values=tuple(range(4, max_x + 1, x_step)),
            n_values=tuple(range(1, max_n + 1)),
            grid_pairs=tuple(
                (tx, ty)
                for tx in range(1, max_grid_dim + 1)
                for ty in range(1, max_grid_dim + 1)
            ),
        )

    @property
    def size(self) -> int:
        """Number of distinct design points the axes span."""
        return len(self.x_values) * len(self.n_values) * len(self.grid_pairs)

    def contains(self, point: DesignPoint) -> bool:
        return (
            point.x in self.x_values
            and point.n in self.n_values
            and (point.tx, point.ty) in self.grid_pairs
        )

    def descriptor(self) -> dict:
        """A JSON-serializable recipe of the axes (for content digests)."""
        return {
            "x_values": list(self.x_values),
            "n_values": list(self.n_values),
            "grid_pairs": [list(pair) for pair in self.grid_pairs],
        }

    def point_at(self, ix: int, in_: int, ig: int) -> DesignPoint:
        """The design point at one (x-index, n-index, grid-index) triple."""
        tx, ty = self.grid_pairs[ig]
        return DesignPoint(self.x_values[ix], self.n_values[in_], tx, ty)

    def indices_of(self, point: DesignPoint) -> tuple[int, int, int]:
        """Axis indices of a contained point (for neighborhood moves).

        Raises:
            ConfigurationError: the point is not on these axes.
        """
        if not self.contains(point):
            raise ConfigurationError(
                f"{point.label()} is not on these axes"
            )
        return (
            self.x_values.index(point.x),
            self.n_values.index(point.n),
            self.grid_pairs.index((point.tx, point.ty)),
        )

    def axis_sizes(self) -> tuple[int, int, int]:
        return (len(self.x_values), len(self.n_values), len(self.grid_pairs))


def design_space(
    ctx: Optional[ModelContext] = None,
    area_budget_mm2: float = DATACENTER_AREA_BUDGET_MM2,
    power_budget_w: float = DATACENTER_POWER_BUDGET_W,
    tops_cap: float = DATACENTER_TOPS_CAP,
    check_budgets: bool = True,
) -> list[DesignPoint]:
    """Enumerate the feasible Table I design points.

    A point is kept when its peak TOPS does not exceed the 92 TOPS target
    cap and (when ``check_budgets``) its modeled die area and TDP fit the
    500 mm^2 / 300 W budget.  Budget checks build and evaluate each chip,
    which is the expensive part — the pruning round of Sec. III-A.
    """
    ctx = ctx if ctx is not None else datacenter_context()
    points: list[DesignPoint] = []
    for x in TU_LENGTHS:
        for n in TUS_PER_CORE:
            for tx, ty in _grids():
                point = DesignPoint(x, n, tx, ty)
                if point.peak_tops(ctx.freq_ghz) > tops_cap + 1e-9:
                    continue
                if check_budgets and not _fits(
                    point, ctx, area_budget_mm2, power_budget_w
                ):
                    continue
                points.append(point)
    return points


def _fits(
    point: DesignPoint,
    ctx: ModelContext,
    area_budget_mm2: float,
    power_budget_w: float,
) -> bool:
    chip = point.build()
    if chip.area_mm2(ctx) > area_budget_mm2:
        return False
    return chip.tdp_w(ctx) <= power_budget_w


def max_core_point(
    x: int,
    n: int,
    ctx: Optional[ModelContext] = None,
    area_budget_mm2: float = DATACENTER_AREA_BUDGET_MM2,
    power_budget_w: float = DATACENTER_POWER_BUDGET_W,
    tops_cap: float = DATACENTER_TOPS_CAP,
) -> Optional[DesignPoint]:
    """The maximum-core grid for one ``(X, N)`` (Sec. III-A's rule).

    Returns ``None`` when even a single core busts the budget.
    """
    ctx = ctx if ctx is not None else datacenter_context()
    best: Optional[DesignPoint] = None
    for tx, ty in _grids():
        point = DesignPoint(x, n, tx, ty)
        if point.peak_tops(ctx.freq_ghz) > tops_cap + 1e-9:
            continue
        if not _fits(point, ctx, area_budget_mm2, power_budget_w):
            continue
        if best is None or point.cores > best.cores:
            best = point
    return best


#: The design points called out in Figs. 8 and 10.
NAMED_POINTS = {
    "utilization-optimal": DesignPoint(8, 4, 4, 8),
    "throughput-optimal": DesignPoint(64, 2, 2, 4),
    "cost-efficiency-optimal": DesignPoint(64, 4, 1, 2),
    "energy-efficiency-optimal-medium-batch": DesignPoint(32, 4, 2, 2),
    "peak-efficiency-optimal": DesignPoint(128, 4, 1, 1),
    "tpu-v1-like": DesignPoint(256, 1, 1, 1),
}


def named_points() -> dict[str, DesignPoint]:
    """The headline design points the paper's conclusions reference."""
    return dict(NAMED_POINTS)
