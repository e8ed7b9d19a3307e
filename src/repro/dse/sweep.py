"""Design-point evaluation: chip modeling + workload simulation + metrics.

For every design point this produces what Figs. 8 and 10 plot: die area
and TDP (with breakdowns), peak TOPS and peak efficiencies, and — per
batch-size regime — the workload-averaged achieved TOPS, TU utilization,
energy efficiency (TOPS/Watt on *runtime* power), and cost efficiency
(TOPS/TCO).

A row (:class:`DesignPointResult`) holds numbers, not the simulator's
per-layer records, so every path builds the same type: a fresh scalar
evaluation, the vector backend, a forked worker, a journal resume and
a remote sweep.
"""

from __future__ import annotations

from contextlib import contextmanager, suppress
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from repro.arch.component import Estimate, ModelContext
from repro.config.presets import datacenter_context
from repro.dse.metrics import (
    arithmetic_mean,
    positive_geomean,
    tops_per_tco,
    tops_per_watt,
)
from repro.dse.space import DesignPoint
from repro.perf.graph import Graph
from repro.perf.simulator import DEFAULT_LATENCY_SLO_MS, Simulator
from repro.power.runtime import runtime_power


@dataclass(frozen=True)
class WorkloadOutcome:
    """One workload at one batch regime on one design point.

    ``regime`` is the batch *specification* ("bs=1", "latency-bound",
    "bs=256"); ``batch`` is the resolved batch size actually simulated.
    ``latency_ms`` is ``None`` only on journal rows written before it
    was recorded.
    """

    workload: str
    batch: int
    regime: str
    achieved_tops: float
    utilization: float
    runtime_power_w: float
    latency_ms: Optional[float]

    @property
    def energy_efficiency(self) -> float:
        return tops_per_watt(self.achieved_tops, self.runtime_power_w)


@dataclass(frozen=True)
class DesignPointResult:
    """Everything the study needs to know about one design point.

    The one result row of every path: scalar, vectorized, pooled,
    journal-rehydrated and remote.  Its JSON form is
    :func:`repro.dse.journal.summarize_result`.

    Attributes:
        point: The (X, N, Tx, Ty) tuple.
        area_mm2 / tdp_w / peak_tops: Chip-level numbers (Fig. 8).
        outcomes: Per-(workload, batch) outcomes (Fig. 10).
        estimate: Full breakdown tree on a fresh scalar evaluation;
            ``None`` on every other row (it is not serialized).
    """

    point: DesignPoint
    area_mm2: float
    tdp_w: float
    peak_tops: float
    outcomes: tuple[WorkloadOutcome, ...] = ()
    estimate: Optional[Estimate] = None

    # -- peak (Fig. 8) metrics ---------------------------------------------------

    @property
    def peak_tops_per_watt(self) -> float:
        return tops_per_watt(self.peak_tops, self.tdp_w)

    @property
    def peak_tops_per_tco(self) -> float:
        return tops_per_tco(self.peak_tops, self.area_mm2, self.tdp_w)

    # -- averaged runtime (Fig. 10) metrics ---------------------------------------

    def _at_batch(
        self, batch: Optional[object]
    ) -> list[WorkloadOutcome]:
        """Outcomes of one regime: an int batch, "latency-bound", or all."""
        if batch is None:
            return list(self.outcomes)
        regime = batch if batch == "latency-bound" else f"bs={batch}"
        return [o for o in self.outcomes if o.regime == regime]

    def mean_achieved_tops(self, batch: Optional[int] = None) -> float:
        """Arithmetic mean of achieved TOPS over workloads."""
        outcomes = self._at_batch(batch)
        return arithmetic_mean([o.achieved_tops for o in outcomes])

    def mean_utilization(self, batch: Optional[int] = None) -> float:
        """Geometric mean of TU utilization over workloads.

        Raises :class:`~repro.errors.NumericalError` when any outcome
        carries a non-positive utilization — a zero here means the
        simulator produced a nonsensical row that the guardrails should
        reject, not a value to clamp away.
        """
        outcomes = self._at_batch(batch)
        return positive_geomean(
            [o.utilization for o in outcomes], field="utilization"
        )

    def mean_energy_efficiency(self, batch: Optional[int] = None) -> float:
        """Geometric mean of achieved TOPS/Watt (runtime power)."""
        outcomes = self._at_batch(batch)
        return positive_geomean(
            [o.energy_efficiency for o in outcomes],
            field="energy_efficiency",
        )

    def mean_cost_efficiency(self, batch: Optional[int] = None) -> float:
        """Geometric mean of achieved TOPS/TCO."""
        outcomes = self._at_batch(batch)
        return positive_geomean(
            [
                tops_per_tco(
                    o.achieved_tops, self.area_mm2, o.runtime_power_w
                )
                for o in outcomes
            ],
            field="cost_efficiency",
        )


@contextmanager
def _stage(name: str) -> Iterator[None]:
    """Tag exceptions escaping this block with the evaluation stage.

    The sweep engine uses the tag to attribute a failure to the
    build/estimate/simulate/power stage without re-deriving it from the
    exception type.
    """
    try:
        yield
    except Exception as error:
        if getattr(error, "stage", None) is None:
            # Exceptions with __slots__ reject the attribute; the stage
            # tag is best-effort either way.
            with suppress(Exception):
                error.stage = name  # type: ignore[attr-defined]
        raise


def evaluate_point(
    point: DesignPoint,
    workloads: Sequence[tuple[str, Graph]] = (),
    batches: Iterable[object] = (),
    ctx: Optional[ModelContext] = None,
    latency_slo_ms: float = DEFAULT_LATENCY_SLO_MS,
) -> DesignPointResult:
    """Model one design point and simulate the given workloads on it.

    Args:
        point: The design tuple.
        workloads: (name, graph) pairs.
        batches: Batch sizes; integers, or the string ``"latency-bound"``
            for the per-workload 10 ms SLO batch of Fig. 10(b).
        ctx: Technology/clock context (Table I's by default).
        latency_slo_ms: SLO for the latency-bound batch.
    """
    ctx = ctx if ctx is not None else datacenter_context()
    with _stage("build"):
        chip = point.build()
    with _stage("estimate"):
        estimate = chip.estimate(ctx)
        tdp_w = chip.tdp_w(ctx)
        peak_tops = chip.peak_tops(ctx)
    outcomes: list[WorkloadOutcome] = []
    if workloads:
        simulator = Simulator(chip, ctx)
        for batch_spec in batches:
            for name, graph in workloads:
                with _stage("simulate"):
                    if batch_spec == "latency-bound":
                        result = simulator.latency_limited_run(
                            graph, slo_ms=latency_slo_ms
                        )
                    else:
                        result = simulator.run(
                            graph, int(batch_spec)  # type: ignore[arg-type]
                        )
                batch = result.batch
                with _stage("power"):
                    power = runtime_power(
                        chip, ctx, result.activity
                    ).total_w
                regime = (
                    "latency-bound"
                    if batch_spec == "latency-bound"
                    else f"bs={batch}"
                )
                outcomes.append(
                    WorkloadOutcome(
                        workload=name,
                        batch=batch,
                        regime=regime,
                        achieved_tops=result.achieved_tops,
                        utilization=result.utilization,
                        runtime_power_w=power,
                        latency_ms=result.latency_ms,
                    )
                )
    return DesignPointResult(
        point=point,
        area_mm2=estimate.area_mm2,
        tdp_w=tdp_w,
        peak_tops=peak_tops,
        outcomes=tuple(outcomes),
        estimate=estimate,
    )


def sweep(
    points: Sequence[DesignPoint],
    workloads: Sequence[tuple[str, Graph]] = (),
    batches: Iterable[object] = (),
    ctx: Optional[ModelContext] = None,
    *,
    backend: str = "scalar",
) -> list[DesignPointResult]:
    """Evaluate a list of design points (the Fig. 8 / Fig. 10 sweeps).

    Delegates to the fault-tolerant engine in strict single-process mode,
    so the historical contract is preserved: points are evaluated in
    order and the first failure raises.  ``backend`` selects the
    estimation path (``"scalar"``, ``"vector"``, or ``"auto"``; see
    :func:`repro.dse.engine.run_sweep`).  For fault isolation, process
    parallelism, per-point timeouts, and checkpoint/resume use
    :func:`repro.dse.engine.run_sweep` directly.
    """
    from repro.dse.engine import run_sweep

    report = run_sweep(
        points, workloads, batches, ctx=ctx, backend=backend, jobs=1,
        strict=True,
    )
    return list(report.results)
