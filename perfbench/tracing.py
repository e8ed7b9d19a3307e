"""Traced-mode wrappers around the program's public functions.

Each wrapper is installed by rebinding the function where its caller
looks it up, and only while :func:`installed` is active; untraced runs
execute the program untouched.  Names bound at import time are rebound
in the importing module (``repro.dse.surrogate.search.fit_surrogate``,
``repro.dse.engine.validate_result``,
``repro.batch.estimator.substrate_for``); functions the estimator
imports at call time are rebound in their own modules; methods are
rebound on their class.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from typing import Iterator

from perfbench.spans import SpanRecorder

#: (module, attribute, span name) for module-level functions.
FUNCTIONS = (
    ("repro.dse.surrogate.search", "fit_surrogate", "surrogate.fit"),
    ("repro.dse.surrogate.search", "featurize_points",
     "surrogate.featurize"),
    ("repro.dse.surrogate.search", "training_rows",
     "surrogate.training_rows"),
    ("repro.dse.surrogate.search", "run_sweep", "surrogate.evaluate"),
    ("repro.dse.engine", "validate_result", "integrity.validate_result"),
    ("repro.batch.estimator", "substrate_for", "batch.substrate"),
    ("repro.batch.kernels", "estimate_grid", "batch.estimate_grid"),
    ("repro.batch.perf", "simulate_workloads", "batch.simulate_workloads"),
)

#: (module, class, method, span name) for methods.
METHODS = (
    ("repro.batch.estimator", "BatchEstimator", "estimate_points",
     "batch.estimate_points"),
    ("repro.dse.journal", "Journal", "append", "journal.append"),
    ("repro.cache.store", "EstimateCache", "get", "cache.get"),
    ("repro.cache.store", "EstimateCache", "put", "cache.put"),
    ("repro.dse.surrogate.model", "SurrogateModel", "predict_members",
     "surrogate.predict"),
)


def _points_attr(result, points, *args, **kwargs) -> dict:
    return {"points": len(points)}


def _batch_attr(result, estimator, points, *args, **kwargs) -> dict:
    return {"points": len(result.points),
            "fallbacks": len(result.fallback_reasons)}


_ATTRS = {
    "surrogate.evaluate": _points_attr,
    "batch.estimate_points": _batch_attr,
}


@contextmanager
def installed(recorder: SpanRecorder) -> Iterator[None]:
    """Rebind every traced entry point for the duration of the block."""
    saved = []
    try:
        for module_name, attr, span in FUNCTIONS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr,
                    recorder.wrap(original, span, _ATTRS.get(span)))
        for module_name, cls_name, attr, span in METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            original = cls.__dict__[attr]
            saved.append((cls, attr, original))
            setattr(cls, attr,
                    recorder.wrap(original, span, _ATTRS.get(span)))
        perf = importlib.import_module("repro.batch.perf")
        graph_spec = perf.GraphSpec
        saved.append((perf, "GraphSpec", graph_spec))
        perf.GraphSpec = _traced_graph_spec(graph_spec, recorder)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _traced_graph_spec(original: type, recorder: SpanRecorder) -> type:
    """A stand-in whose ``of`` is traced and returns ``original`` objects,
    so cache keys built from the specs are unchanged."""
    build = recorder.wrap(original.of, "batch.graph_spec")

    class TracedGraphSpec(original):
        @classmethod
        def of(cls, graph, opt):
            return build(graph, opt)

    TracedGraphSpec.__name__ = original.__name__
    TracedGraphSpec.__qualname__ = original.__qualname__
    return TracedGraphSpec
