"""Exception hierarchy for the NeuroMeter reproduction.

Every error raised by this package derives from :class:`NeuroMeterError`, so
callers can catch a single type at the API boundary.
"""

from __future__ import annotations


class NeuroMeterError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigurationError(NeuroMeterError):
    """A user-supplied configuration is invalid or internally inconsistent."""


class TechnologyError(NeuroMeterError):
    """An unknown technology node or invalid device parameter was requested."""


class OptimizationError(NeuroMeterError):
    """The internal optimizer could not find a design meeting the constraints.

    Raised, for example, when no bank/port organization of an on-chip memory
    can satisfy the requested latency and throughput, or when no clock rate
    can reach a requested TOPS target within the power budget.
    """


class MappingError(NeuroMeterError):
    """A workload operator cannot be mapped onto the target accelerator."""


class ValidationError(NeuroMeterError):
    """A modeled result is outside the accepted band of the published data."""


class NumericalError(NeuroMeterError):
    """A modeled quantity is numerically nonsensical (NaN/inf/out of range).

    Raised by the component-level integrity screen and the sweep engine's
    guardrails when a result carries a NaN or infinite value, a negative
    area/power/energy, or a utilization outside [0, 1].  ``field`` names
    the offending quantity (e.g. ``outcomes[2].utilization``), ``value``
    holds what was seen, ``component_path`` locates the component whose
    model produced it (e.g. ``chip.core.tensor_unit``), and
    ``config_digest`` is the content hash of the offending configuration
    (the estimate-cache key prefix), so a poisoned estimate is attributable
    to one component of one configuration.
    """

    def __init__(
        self,
        field: str,
        value: object,
        reason: str = "",
        component_path: "str | None" = None,
        config_digest: "str | None" = None,
    ):
        self.field = field
        self.value = value
        self.reason = reason
        self.component_path = component_path
        self.config_digest = config_digest
        detail = f": {reason}" if reason else ""
        where = f" in {component_path}" if component_path else ""
        digest = f" (config {config_digest})" if config_digest else ""
        super().__init__(
            f"invalid numerical result at {field}{where}: "
            f"{value!r}{detail}{digest}"
        )

    def __reduce__(self):
        # The custom __init__ signature breaks the default exception
        # pickling used when errors cross the sweep engine's worker pipe.
        return (
            type(self),
            (
                self.field,
                self.value,
                self.reason,
                self.component_path,
                self.config_digest,
            ),
        )


class InvariantViolation(NeuroMeterError):
    """A physical-invariant contract does not hold for a modeled design.

    Raised by :func:`repro.integrity.contracts.enforce_invariants` when the
    invariant walker finds one or more violations (rollup superadditivity,
    TDP consistency, timing sanity, scaling monotonicity).  ``violations``
    carries one human-readable line per broken contract.
    """

    def __init__(self, message: str, violations: tuple = ()):
        self.violations = tuple(violations)
        super().__init__(message)

    def __reduce__(self):
        return (type(self), (self.args[0], self.violations))


class PointTimeoutError(NeuroMeterError):
    """A design-point evaluation exceeded the engine's per-point timeout."""


class LoadShedError(NeuroMeterError):
    """The serving daemon's admission gate is full; the request was shed.

    ``retry_after_s`` is the server's hint for when capacity is likely
    to be back; it becomes the ``Retry-After`` response header.
    """

    def __init__(self, message: str, retry_after_s: float = 1.0):
        self.retry_after_s = retry_after_s
        super().__init__(message)

    def __reduce__(self):
        return (type(self), (self.args[0], self.retry_after_s))


class DrainingError(NeuroMeterError):
    """The serving daemon is draining and no longer admits new work."""


class ProtocolError(ConfigurationError):
    """A malformed HTTP request reached the serving daemon's parser."""


class RemoteError(NeuroMeterError):
    """A non-2xx answer from the serving daemon, rehydrated client-side.

    Carries the HTTP ``status``, the server-reported ``error_type`` (the
    exception class name from the daemon's taxonomy), the optional
    ``retry_after_s`` backoff hint, and the full response ``payload``.
    """

    def __init__(
        self,
        message: str,
        status: int,
        error_type: str = "",
        retry_after_s: "float | None" = None,
        payload: "dict | None" = None,
    ):
        self.status = status
        self.error_type = error_type
        self.retry_after_s = retry_after_s
        self.payload = payload or {}
        super().__init__(message)

    def __reduce__(self):
        return (
            type(self),
            (
                self.args[0],
                self.status,
                self.error_type,
                self.retry_after_s,
                self.payload,
            ),
        )

    @property
    def is_shed(self) -> bool:
        return self.status == 503

    def describe(self) -> str:
        kind = self.error_type or "error"
        return f"HTTP {self.status} {kind}: {self}"
