"""Model-integrity subsystem: contracts, fault injection, diagnostics.

NeuroMeter-style analytical stacks fail silently: one bad curve-fit
coefficient or tech-table entry leaks a plausible-looking wrong number
through every rollup.  This package contains the three layers that keep a
poisoned estimate attributable and contained instead of averaged into a
report:

* :mod:`repro.integrity.contracts` — declarative physical invariants
  checked at the *component* level (the numeric screen every
  ``cached_estimate`` result passes before entering the cache, the
  ``verify_invariants`` walker, and the tech-scaling/datatype monotonicity
  probes), plus the numeric guardrail primitives the sweep engine uses at
  its boundary.
* :mod:`repro.integrity.faults` — deterministic, seeded fault injection
  (:class:`FaultPlan`) that perturbs component estimates and tech-node
  parameters through the ``cached_estimate`` wrapping point, so tests can
  prove end-to-end that every injected fault is caught and the cache never
  serves a poisoned entry.
* :mod:`repro.integrity.diagnostics` — the component-path context stack
  that lets every :class:`~repro.errors.NumericalError` carry
  ``chip.core.tensor_unit``-style paths and the config digest of the
  offending configuration.
* :mod:`repro.integrity.doctor` — the ``neurometer doctor`` self-check
  pipeline (tech-table sanity, invariant sweeps, validation bands, cache
  cold/warm equivalence, fault-containment self-test).
"""

from repro.integrity.contracts import (
    UTILIZATION_SLACK,
    Violation,
    check_finite,
    check_fraction,
    check_nonnegative,
    check_positive,
    enforce_invariants,
    estimate_contracts,
    probe_mac_energy_monotonicity,
    probe_tech_monotonicity,
    screen_value,
    validate_metrics,
    validate_result,
    verify_invariants,
)
from repro.integrity.diagnostics import (
    component_scope,
    config_digest,
    current_component_path,
)
from repro.integrity.faults import (
    FaultHit,
    FaultKind,
    FaultPlan,
    FaultSpec,
    active_fault_plan,
    fault_injection,
    perturb_tech,
)

__all__ = [
    "FaultHit",
    "FaultKind",
    "FaultPlan",
    "FaultSpec",
    "UTILIZATION_SLACK",
    "Violation",
    "active_fault_plan",
    "check_finite",
    "check_fraction",
    "check_nonnegative",
    "check_positive",
    "component_scope",
    "config_digest",
    "current_component_path",
    "enforce_invariants",
    "estimate_contracts",
    "fault_injection",
    "perturb_tech",
    "probe_mac_energy_monotonicity",
    "probe_tech_monotonicity",
    "screen_value",
    "validate_metrics",
    "validate_result",
    "verify_invariants",
]
