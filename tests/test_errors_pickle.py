"""Every error must survive the sweep-worker pipe.

Failures cross process boundaries twice: the worker pickles the caught
exception into its failure payload, and the parent unpickles it to build
a ``PointFailure``.  An exception class with a custom ``__init__`` that
breaks default pickling would silently degrade into a ``WorkerCrash`` —
so every ``NeuroMeterError`` subclass is round-tripped here, attributes
and all, and the subclass walk is dynamic so a future error class cannot
dodge the test by being new.
"""

from __future__ import annotations

import pickle

import pytest

import repro.errors as errors_mod
from repro.errors import (
    ConfigurationError,
    RemoteError,
    InvariantViolation,
    MappingError,
    NeuroMeterError,
    NumericalError,
    OptimizationError,
    PointTimeoutError,
    TechnologyError,
    ValidationError,
)


def _all_error_classes() -> list[type]:
    """Every concrete NeuroMeterError subclass, discovered dynamically."""
    seen: list[type] = []
    frontier = [NeuroMeterError]
    while frontier:
        cls = frontier.pop()
        for sub in cls.__subclasses__():
            if sub not in seen:
                seen.append(sub)
                frontier.append(sub)
    return sorted(seen, key=lambda cls: cls.__name__)


#: Representative constructor arguments per class.  Classes not listed
#: fall back to a single message argument — if that ever stops working
#: for a new subclass, this test fails and the subclass needs either a
#: ``__reduce__`` or an entry here.
EXEMPLARS = {
    NumericalError: lambda: NumericalError(
        "tensor unit.dynamic_w",
        float("inf"),
        "infinite",
        component_path="chip.core.tensor_unit",
        config_digest="deadbeefdeadbeef",
    ),
    RemoteError: lambda: RemoteError(
        "admission window full",
        503,
        error_type="LoadShedError",
        retry_after_s=2.0,
        payload={"error": "LoadShedError", "status": 503},
    ),
    InvariantViolation: lambda: InvariantViolation(
        "2 physical invariant(s) violated",
        violations=(
            "[tdp-consistency] chip: TDP 10 W < nominal 20 W",
            "[timing-sanity] chip: period too short",
        ),
    ),
}


def _exemplar(cls: type) -> NeuroMeterError:
    factory = EXEMPLARS.get(cls)
    if factory is not None:
        return factory()
    return cls("a representative message")


def test_the_dynamic_walk_finds_the_documented_hierarchy():
    found = {cls.__name__ for cls in _all_error_classes()}
    assert {
        "ConfigurationError",
        "TechnologyError",
        "OptimizationError",
        "MappingError",
        "ValidationError",
        "NumericalError",
        "InvariantViolation",
        "PointTimeoutError",
    } <= found


@pytest.mark.parametrize(
    "cls", _all_error_classes(), ids=lambda cls: cls.__name__
)
def test_round_trip_preserves_type_message_and_attributes(cls):
    original = _exemplar(cls)
    revived = pickle.loads(pickle.dumps(original))
    assert type(revived) is cls
    assert str(revived) == str(original)
    assert revived.args == original.args
    for name, value in vars(original).items():
        assert getattr(revived, name) == value, name


def test_numerical_error_attributes_survive_the_pipe_exactly():
    revived = pickle.loads(pickle.dumps(EXEMPLARS[NumericalError]()))
    assert revived.field == "tensor unit.dynamic_w"
    assert revived.value == float("inf")
    assert revived.reason == "infinite"
    assert revived.component_path == "chip.core.tensor_unit"
    assert revived.config_digest == "deadbeefdeadbeef"
    assert "chip.core.tensor_unit" in str(revived)
    assert "deadbeefdeadbeef" in str(revived)


def test_invariant_violation_keeps_its_violation_lines():
    revived = pickle.loads(pickle.dumps(EXEMPLARS[InvariantViolation]()))
    assert len(revived.violations) == 2
    assert "tdp-consistency" in revived.violations[0]


def test_failure_payload_carries_a_picklable_exception(monkeypatch):
    import multiprocessing as mp

    import repro.dse.engine as engine_mod
    from repro.dse.space import DesignPoint

    def fail(*args):
        raise EXEMPLARS[NumericalError]()

    monkeypatch.setattr(engine_mod, "evaluate_point", fail)
    parent, child = mp.Pipe()
    task = engine_mod._Task(index=3, point=DesignPoint(16, 1, 2, 2))
    engine_mod._evaluate_one(child, task, engine_mod.PoolJobConfig())
    _kind, index, result, failure, revived, _wall, _cache = parent.recv()
    assert (index, result) == (3, None)
    assert isinstance(revived, NumericalError)
    assert failure.point == task.point
    assert failure.error_type == "NumericalError"
    assert failure.component_path == "chip.core.tensor_unit"
    assert failure.config_digest == "deadbeefdeadbeef"


def test_every_public_error_is_exported():
    for cls in _all_error_classes():
        assert getattr(errors_mod, cls.__name__) is cls
