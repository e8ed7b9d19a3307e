"""Surrogate-guided design-space exploration.

A learned cost model (:mod:`~repro.dse.surrogate.model`) proposes which
design points deserve an exact evaluation; the budgeted search
(:mod:`~repro.dse.surrogate.search`) verifies every proposal through the
exact sweep engine and reports only exact numbers.  See
``docs/dse_surrogate.md`` for the contract.
"""

from repro.dse.surrogate.features import (
    FEATURE_NAMES,
    FEATURE_SCHEMA_VERSION,
    TARGET_NAMES,
    feature_digest,
    feature_row,
    featurize_points,
    targets_from_metrics,
    training_rows,
)
from repro.dse.surrogate.model import (
    MODEL_FORMAT_VERSION,
    SurrogateModel,
    fit_from_journals,
    fit_surrogate,
)
from repro.dse.surrogate.search import (
    DEFAULT_PARETO_OBJECTIVES,
    EngineEvaluator,
    SearchResult,
    search_digest,
    surrogate_search,
)

__all__ = [
    "DEFAULT_PARETO_OBJECTIVES",
    "EngineEvaluator",
    "FEATURE_NAMES",
    "FEATURE_SCHEMA_VERSION",
    "MODEL_FORMAT_VERSION",
    "SearchResult",
    "SurrogateModel",
    "TARGET_NAMES",
    "feature_digest",
    "feature_row",
    "featurize_points",
    "fit_from_journals",
    "fit_surrogate",
    "search_digest",
    "surrogate_search",
    "targets_from_metrics",
    "training_rows",
]
