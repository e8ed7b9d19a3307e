"""Physical-invariant contracts checked at the component level.

The sweep engine's boundary guardrails (:func:`validate_result`, re-exported
by :mod:`repro.integrity`) catch the grossest symptoms — NaN, negative
area, utilization above 1 — but only after a bad number has already rolled
through every intermediate sum.  This module pushes the checks down to
where the numbers are made:

* :func:`screen_value` — the always-on numeric screen every
  :func:`~repro.arch.component.cached_estimate` result passes *before*
  being stored in the estimate cache, so a poisoned entry can never be
  cached or served.  Failures raise :class:`~repro.errors.NumericalError`
  carrying the component path and config digest.
* :func:`estimate_contracts` — opt-in per-``estimate()`` hooks that
  additionally verify rollup superadditivity on every composed node.
* :func:`verify_invariants` / :func:`enforce_invariants` — the whole-chip
  invariant walker: rollup consistency, TDP >= dynamic + leakage, timing
  sanity (clock period >= modeled critical path), peak-TOPS sanity.
* :func:`probe_tech_monotonicity` / :func:`probe_mac_energy_monotonicity`
  — cross-configuration probes: area/energy must not increase as the
  technology node shrinks 65 -> 7 nm, and MAC energy must not decrease
  with datatype width.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator, Mapping, Optional, Sequence

from repro.errors import InvariantViolation, NumericalError
from repro.integrity.diagnostics import current_component_path

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.arch.chip import Chip
    from repro.arch.component import Estimate, ModelContext
    from repro.dse.sweep import DesignPointResult

#: Tolerance above 1.0 still accepted for utilizations (float round-off).
#: Values inside the band are clamped back to exactly 1.0 on return.
UTILIZATION_SLACK = 1e-6

#: Relative tolerance for rollup/consistency comparisons (float summation
#: across a few hundred children).
ROLLUP_RTOL = 1e-9

#: Estimate fields the numeric screen inspects on every tree node.
_ESTIMATE_FIELDS = ("area_mm2", "dynamic_w", "leakage_w", "cycle_time_ns")


# -- boundary guardrail primitives (the sweep engine's result checks) --------


def check_finite(field: str, value: float) -> float:
    """Reject NaN and +/-inf."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise NumericalError(field, value, "not a number")
    if math.isnan(value):
        raise NumericalError(field, value, "NaN")
    if math.isinf(value):
        raise NumericalError(field, value, "infinite")
    return float(value)


def check_positive(field: str, value: float) -> float:
    """Reject NaN/inf and values <= 0 (areas, powers, energies, TOPS)."""
    checked = check_finite(field, value)
    if checked <= 0.0:
        raise NumericalError(field, value, "must be positive")
    return checked


def check_nonnegative(field: str, value: float) -> float:
    """Reject NaN/inf and values < 0."""
    checked = check_finite(field, value)
    if checked < 0.0:
        raise NumericalError(field, value, "must be non-negative")
    return checked


def check_fraction(field: str, value: float) -> float:
    """Reject NaN/inf and values outside [0, 1] (utilizations).

    Values inside the float round-off band ``(1, 1 + UTILIZATION_SLACK]``
    are clamped back to exactly 1.0, so downstream metrics never see a
    utilization greater than one.
    """
    checked = check_finite(field, value)
    if not 0.0 <= checked <= 1.0 + UTILIZATION_SLACK:
        raise NumericalError(field, value, "must be within [0, 1]")
    return min(checked, 1.0)


def validate_metrics(metrics: Mapping[str, float], prefix: str = "") -> None:
    """Validate a flat metrics mapping (journal rows, ad-hoc summaries)."""
    for name, value in metrics.items():
        field = f"{prefix}{name}"
        if name.endswith("utilization"):
            check_fraction(field, value)
        else:
            check_nonnegative(field, value)


_INF = math.inf


def validate_result(result: "DesignPointResult") -> "DesignPointResult":
    """Validate one evaluated design point; return it when clean.

    Checks the chip-level numbers (area, TDP, peak TOPS must be positive
    and finite) and every workload outcome (achieved TOPS non-negative,
    utilization within [0, 1], runtime power positive, batch >= 1).
    Each set of numbers is first screened with plain comparisons, which
    NaN fails; the named checks run only when the screen fails, to
    accept what it was too strict for (ints) or to name the failure.

    Raises:
        NumericalError: naming the offending field path.
    """
    area, tdp, peak = result.area_mm2, result.tdp_w, result.peak_tops
    if not (
        type(area) is float and type(tdp) is float and type(peak) is float
        and 0.0 < area < _INF and 0.0 < tdp < _INF and 0.0 < peak < _INF
    ):
        check_positive("area_mm2", area)
        check_positive("tdp_w", tdp)
        check_positive("peak_tops", peak)
    max_utilization = 1.0 + UTILIZATION_SLACK
    for i, outcome in enumerate(result.outcomes):
        achieved = outcome.achieved_tops
        utilization = outcome.utilization
        power = outcome.runtime_power_w
        latency_ms = outcome.latency_ms  # None on pre-upgrade journal rows
        if (
            type(achieved) is float and type(utilization) is float
            and type(power) is float
            and 0.0 <= achieved < _INF
            and 0.0 <= utilization <= max_utilization
            and 0.0 < power < _INF and outcome.batch >= 1
            and (latency_ms is None
                 or type(latency_ms) is float and 0.0 <= latency_ms < _INF)
        ):
            continue
        # Checked by bare field name; the indexed path is formatted only
        # for the error.
        try:
            check_nonnegative("achieved_tops", achieved)
            check_fraction("utilization", utilization)
            check_positive("runtime_power_w", power)
            if outcome.batch < 1:
                raise NumericalError("batch", outcome.batch, "must be >= 1")
            if latency_ms is not None:
                check_nonnegative("latency_ms", latency_ms)
        except NumericalError as error:
            raise NumericalError(
                f"outcomes[{i}].{error.field}", error.value, error.reason
            ) from None
    return result


# -- the component-boundary screen ----------------------------------------------

_STRICT = threading.local()


def _strict_enabled() -> bool:
    return getattr(_STRICT, "enabled", False)


@contextmanager
def estimate_contracts() -> Iterator[None]:
    """Opt into per-``estimate()`` rollup contracts for the block.

    While active, every estimate computed through ``cached_estimate`` is
    additionally checked for rollup superadditivity on each composed node
    (parent area/power >= sum of children, parent critical path >= every
    child's), on top of the always-on numeric screen.
    """
    previous = _strict_enabled()
    _STRICT.enabled = True
    try:
        yield
    finally:
        _STRICT.enabled = previous


def _screen_scalar(
    field: str, value: float, digest: Optional[str]
) -> None:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        kind: Optional[str] = "not a number"
    elif math.isnan(value):
        kind = "NaN"
    elif math.isinf(value):
        kind = "infinite"
    elif value < 0.0:
        kind = "must be non-negative"
    else:
        return
    raise NumericalError(
        field,
        value,
        kind,
        component_path=current_component_path(),
        config_digest=digest,
    )


def _screen_rollup(
    node: "Estimate", digest: Optional[str]
) -> None:
    for field in ("area_mm2", "dynamic_w", "leakage_w"):
        parent = getattr(node, field)
        total = sum(getattr(child, field) for child in node.children)
        if parent < total * (1.0 - ROLLUP_RTOL) - 1e-12:
            raise NumericalError(
                f"{node.name}.{field}",
                parent,
                f"rollup smaller than the sum of children ({total!r})",
                component_path=current_component_path(),
                config_digest=digest,
            )
    slowest = max(child.cycle_time_ns for child in node.children)
    if node.cycle_time_ns < slowest * (1.0 - ROLLUP_RTOL):
        raise NumericalError(
            f"{node.name}.cycle_time_ns",
            node.cycle_time_ns,
            f"faster than the slowest child ({slowest!r})",
            component_path=current_component_path(),
            config_digest=digest,
        )


def screen_value(value: object, digest: Optional[str] = None) -> object:
    """Screen one freshly computed model result before it can be cached.

    Estimate trees are walked fully (a composed sub-block never passed
    through ``cached_estimate`` on its own, so the root check alone would
    miss it); scalar results (``tdp_w``, ``peak_tops``) are checked
    directly.  All four numeric fields must be finite and non-negative;
    with :func:`estimate_contracts` active, every composed node must also
    satisfy rollup superadditivity.

    Raises:
        NumericalError: carrying the in-flight component path and the
            config digest of the offending configuration.
    """
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        _screen_scalar("result", value, digest)
        return value
    walk = getattr(value, "walk", None)
    if walk is None:
        return value
    strict = _strict_enabled()
    for node in walk():
        for field in _ESTIMATE_FIELDS:
            _screen_scalar(
                f"{node.name}.{field}", getattr(node, field), digest
            )
        if strict and node.children:
            _screen_rollup(node, digest)
    return value


# -- the whole-chip invariant walker --------------------------------------------


@dataclass(frozen=True)
class Violation:
    """One broken physical invariant.

    Attributes:
        invariant: Which contract failed (``rollup-area``,
            ``tdp-consistency``, ``timing-sanity``, ...).
        path: Where in the estimate tree (slash-joined node names) or
            which probe configuration.
        message: Human-readable account with the numbers involved.
    """

    invariant: str
    path: str
    message: str

    def describe(self) -> str:
        return f"[{self.invariant}] {self.path}: {self.message}"


def diff_payloads(
    path: str,
    first: object,
    second: object,
    invariant: str = "payload-divergence",
    _prefix: str = "",
) -> "list[Violation]":
    """Structural diff of two JSON-like payloads as :class:`Violation` rows.

    The sharded-sweep merge uses this when two shard journals carry the
    *same* design point with *different* results: each leaf-level
    disagreement becomes one violation naming the diverging key path and
    both values, so the integrity report pinpoints what disagreed instead
    of flagging an opaque blob mismatch.  Floats are compared exactly —
    bit-identical replay is the contract being enforced.
    """
    where = f"{path}.{_prefix}" if _prefix else path
    if isinstance(first, dict) and isinstance(second, dict):
        violations: list[Violation] = []
        for key in sorted(set(first) | set(second), key=repr):
            inner = f"{_prefix}.{key}" if _prefix else str(key)
            if key not in first or key not in second:
                missing = "first" if key not in first else "second"
                violations.append(Violation(
                    invariant=invariant,
                    path=f"{path}.{inner}",
                    message=f"key absent from the {missing} payload",
                ))
                continue
            violations.extend(diff_payloads(
                path, first[key], second[key], invariant, _prefix=inner
            ))
        return violations
    if isinstance(first, (list, tuple)) and isinstance(
        second, (list, tuple)
    ):
        if len(first) != len(second):
            return [Violation(
                invariant=invariant,
                path=where,
                message=f"length {len(first)} != {len(second)}",
            )]
        violations = []
        for index, (a, b) in enumerate(zip(first, second)):
            inner = f"{_prefix}[{index}]" if _prefix else f"[{index}]"
            violations.extend(diff_payloads(
                path, a, b, invariant, _prefix=inner
            ))
        return violations
    if type(first) is type(second) and first == second:
        return []
    if isinstance(first, (int, float)) and isinstance(
        second, (int, float)
    ) and not isinstance(first, bool) and not isinstance(second, bool) \
            and first == second:
        return []  # 1 vs 1.0: numerically identical across JSON round-trips
    return [Violation(
        invariant=invariant,
        path=where,
        message=f"{first!r} != {second!r}",
    )]


def _walk_with_paths(
    node: "Estimate", prefix: str = ""
) -> Iterator[tuple[str, "Estimate"]]:
    path = f"{prefix}/{node.name}" if prefix else node.name
    yield path, node
    for child in node.children:
        yield from _walk_with_paths(child, path)


def _tree_violations(estimate: "Estimate") -> list[Violation]:
    violations: list[Violation] = []
    for path, node in _walk_with_paths(estimate):
        for field in _ESTIMATE_FIELDS:
            value = getattr(node, field)
            if not math.isfinite(value):
                violations.append(
                    Violation(
                        "finite", f"{path}.{field}", f"value is {value!r}"
                    )
                )
            elif value < 0:
                violations.append(
                    Violation(
                        "non-negative",
                        f"{path}.{field}",
                        f"value is {value!r}",
                    )
                )
        if not node.children:
            continue
        for field in ("area_mm2", "dynamic_w", "leakage_w"):
            parent = getattr(node, field)
            total = sum(getattr(c, field) for c in node.children)
            if parent < total * (1.0 - ROLLUP_RTOL) - 1e-12:
                violations.append(
                    Violation(
                        f"rollup-{field.split('_')[0]}",
                        path,
                        f"parent {parent!r} < children sum {total!r}",
                    )
                )
        slowest = max(c.cycle_time_ns for c in node.children)
        if node.cycle_time_ns < slowest * (1.0 - ROLLUP_RTOL):
            violations.append(
                Violation(
                    "rollup-timing",
                    path,
                    f"parent critical path {node.cycle_time_ns!r} ns < "
                    f"slowest child {slowest!r} ns",
                )
            )
    return violations


def verify_invariants(
    chip: "Chip", ctx: "ModelContext"
) -> list[Violation]:
    """Check every physical invariant of one modeled chip; list violations.

    An empty list means the model is self-consistent:

    * every estimate-tree value is finite and non-negative;
    * every rollup is superadditive (chip/core area >= sum of child
      areas, same for dynamic and leakage power) and the critical path is
      the max over children;
    * TDP >= dynamic + leakage at the nominal clock (the guardband only
      ever adds power);
    * the target clock period is no shorter than the modeled critical
      path (timing sanity);
    * peak TOPS is positive, finite, and consistent with the configured
      MACs-per-cycle at the context clock.
    """
    estimate = chip.estimate(ctx)
    violations = _tree_violations(estimate)

    tdp = chip.tdp_w(ctx)
    nominal = estimate.dynamic_w + estimate.leakage_w
    if not math.isfinite(tdp) or tdp < nominal * (1.0 - ROLLUP_RTOL):
        violations.append(
            Violation(
                "tdp-consistency",
                estimate.name,
                f"TDP {tdp!r} W < nominal dynamic+leakage {nominal!r} W",
            )
        )

    if ctx.cycle_ns < estimate.cycle_time_ns * (1.0 - ROLLUP_RTOL):
        violations.append(
            Violation(
                "timing-sanity",
                estimate.name,
                f"clock period {ctx.cycle_ns!r} ns is shorter than the "
                f"modeled critical path {estimate.cycle_time_ns!r} ns",
            )
        )

    peak = chip.peak_tops(ctx)
    expected = chip.config.peak_tops(ctx.freq_ghz)
    if not math.isfinite(peak) or peak <= 0:
        violations.append(
            Violation("peak-tops", estimate.name, f"peak TOPS is {peak!r}")
        )
    elif not math.isclose(peak, expected, rel_tol=1e-9):
        violations.append(
            Violation(
                "peak-tops",
                estimate.name,
                f"peak TOPS {peak!r} != configured {expected!r}",
            )
        )
    return violations


def enforce_invariants(chip: "Chip", ctx: "ModelContext") -> None:
    """Raise :class:`~repro.errors.InvariantViolation` on any violation."""
    violations = verify_invariants(chip, ctx)
    if violations:
        lines = tuple(v.describe() for v in violations)
        raise InvariantViolation(
            f"{len(violations)} physical invariant(s) violated: "
            + "; ".join(lines[:3])
            + (" ..." if len(lines) > 3 else ""),
            violations=lines,
        )


# -- cross-configuration monotonicity probes ------------------------------------


def probe_tech_monotonicity(
    build_chip: Callable[[], "Chip"],
    freq_ghz: float = 0.7,
    nodes_nm: Optional[Sequence[float]] = None,
) -> list[Violation]:
    """Area/energy must not increase as the technology node shrinks.

    Models the same chip at every tabulated node from the largest to the
    smallest (65 -> 7 nm by default) and flags any step where die area,
    dynamic power, or leakage power *grows* while the node shrinks — the
    classic symptom of a corrupted tech-table entry or an inverted
    scaling ratio.
    """
    from repro.arch.component import ModelContext
    from repro.tech.node import available_nodes, node

    sizes = tuple(nodes_nm if nodes_nm is not None else available_nodes())
    violations: list[Violation] = []
    previous: Optional[tuple[float, "Estimate"]] = None
    for feature_nm in sizes:
        chip = build_chip()
        estimate = chip.estimate(
            ModelContext(tech=node(feature_nm), freq_ghz=freq_ghz)
        )
        if previous is not None:
            prev_nm, prev_est = previous
            for field in ("area_mm2", "dynamic_w", "leakage_w"):
                before = getattr(prev_est, field)
                after = getattr(estimate, field)
                if after > before * (1.0 + ROLLUP_RTOL):
                    violations.append(
                        Violation(
                            "tech-monotonicity",
                            f"{prev_nm:g}nm->{feature_nm:g}nm",
                            f"{field} grew from {before!r} to {after!r} "
                            "while the node shrank",
                        )
                    )
        previous = (feature_nm, estimate)
    return violations


def probe_mac_energy_monotonicity(
    tech: Optional[object] = None,
) -> list[Violation]:
    """MAC energy must not decrease with datatype width.

    Checks the integer ladder (int4 -> int8 -> int16 -> int32) and the
    float ladder (bf16 -> fp32, fp16 -> fp32) at one technology node: a
    wider multiplier that models *cheaper* than a narrower one means a
    curve-fit coefficient went bad.
    """
    from repro.circuit.mac import MacModel
    from repro.datatypes import BF16, FP16, FP32, INT4, INT8, INT16, INT32
    from repro.tech.node import REFERENCE_NODE_NM, node

    resolved = tech if tech is not None else node(REFERENCE_NODE_NM)
    violations: list[Violation] = []
    ladders = (
        ("int", (INT4, INT8, INT16, INT32)),
        ("bfloat", (BF16, FP32)),
        ("float", (FP16, FP32)),
    )
    for label, ladder in ladders:
        previous = None
        for dtype in ladder:
            energy = MacModel(input_dtype=dtype).energy_per_mac_pj(resolved)
            area = MacModel(input_dtype=dtype).area_um2(resolved)
            if previous is not None:
                prev_dtype, prev_energy, prev_area = previous
                if energy < prev_energy * (1.0 - ROLLUP_RTOL):
                    violations.append(
                        Violation(
                            "mac-energy-monotonicity",
                            f"{label}:{prev_dtype.name}->{dtype.name}",
                            f"energy fell from {prev_energy!r} to "
                            f"{energy!r} pJ as the datatype widened",
                        )
                    )
                if area < prev_area * (1.0 - ROLLUP_RTOL):
                    violations.append(
                        Violation(
                            "mac-area-monotonicity",
                            f"{label}:{prev_dtype.name}->{dtype.name}",
                            f"area fell from {prev_area!r} to {area!r} "
                            "um^2 as the datatype widened",
                        )
                    )
            previous = (dtype, energy, area)
    return violations
