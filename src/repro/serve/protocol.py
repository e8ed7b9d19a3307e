"""The wire protocol: error taxonomy and its HTTP mapping.

The daemon never answers with an opaque 500 for a *modeled* failure.
Every typed :mod:`repro.errors` exception maps onto a stable HTTP status
so clients can react mechanically:

=====================================  =====  ===============================
exception                              code   client reaction
=====================================  =====  ===============================
``ConfigurationError``                 400    fix the request, do not retry
``TechnologyError``                    400    fix the request, do not retry
``MappingError``                       400    fix the request, do not retry
``NumericalError``                     422    model integrity: report it
``InvariantViolation``                 422    model integrity: report it
``ValidationError``                    422    model integrity: report it
``OptimizationError``                  422    no feasible design; relax bounds
``PointTimeoutError`` / deadline       504    retry with a larger deadline
``LoadShedError``                      503    back off ``Retry-After`` seconds
``DrainingError``                      503    the daemon is shutting down
other ``NeuroMeterError``              400    fix the request
anything else                          500    daemon bug; file an issue
=====================================  =====  ===============================

The body of every error response is the JSON object built by
:func:`error_payload` — the exception class name, the message, and the
status — so the CLI client can rehydrate a typed error on its side.
"""

from __future__ import annotations

import asyncio

from repro.errors import (
    ConfigurationError,
    DrainingError,
    InvariantViolation,
    LoadShedError,
    MappingError,
    NeuroMeterError,
    NumericalError,
    OptimizationError,
    PointTimeoutError,
    TechnologyError,
    ValidationError,
)


#: Exceptions that indicate *model integrity* damage — these feed the
#: circuit breaker, unlike plain bad-request configuration errors.
INTEGRITY_ERRORS = (NumericalError, InvariantViolation, ValidationError)

#: Exception class names treated as integrity failures when they arrive
#: as structured strings (the engine reports worker failures by name).
INTEGRITY_ERROR_NAMES = frozenset(
    error.__name__ for error in INTEGRITY_ERRORS
)

_STATUS_MAP = (
    # Order matters: subclasses before NeuroMeterError.
    (LoadShedError, 503),
    (DrainingError, 503),
    (PointTimeoutError, 504),
    ((asyncio.TimeoutError, TimeoutError), 504),
    (INTEGRITY_ERRORS, 422),
    (OptimizationError, 422),
    ((ConfigurationError, TechnologyError, MappingError), 400),
    (NeuroMeterError, 400),
)

#: ``error_type`` string -> status, for failures that crossed a process
#: boundary as structured records instead of live exceptions.
ERROR_TYPE_STATUS = {
    "ConfigurationError": 400,
    "TechnologyError": 400,
    "MappingError": 400,
    "NumericalError": 422,
    "InvariantViolation": 422,
    "ValidationError": 422,
    "OptimizationError": 422,
    "PointTimeoutError": 504,
    "WorkerCrash": 500,
}


def status_for(error: BaseException) -> int:
    """The HTTP status code for one exception (500 for unknown types)."""
    for types, status in _STATUS_MAP:
        if isinstance(error, types):
            return status
    return 500


def error_payload(error: BaseException, status: int = None) -> dict:
    """The JSON body for an error response."""
    if status is None:
        status = status_for(error)
    payload = {
        "error": type(error).__name__,
        "message": str(error),
        "status": status,
    }
    if isinstance(error, LoadShedError):
        payload["retry_after_s"] = error.retry_after_s
    return payload
