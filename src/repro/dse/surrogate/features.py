"""Deterministic featurization of design points for the surrogate.

The surrogate learns from sweep journals, so its feature vectors must be
a pure function of ``(DesignPoint, ModelContext)`` — no wall-clock, no
process state — and the *schema* itself must be versioned: a model
trained on one feature layout silently mis-predicting on another is the
learned-model analogue of a stale cache entry.  :func:`feature_digest`
therefore hashes the schema version, the feature names, and the modeling
context through :func:`repro.cache.keys.short_hash` (which salts with
the package version), and every saved model carries that digest in its
header; loading or predicting under a different digest is a typed
refusal, exactly like the estimate cache rejecting version-skewed
entries.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from repro.arch.component import ModelContext
from repro.cache.keys import short_hash
from repro.config.presets import datacenter_context
from repro.dse.journal import JournalEntry
from repro.dse.space import DesignPoint
from repro.errors import ConfigurationError

#: Bump when the feature layout below changes in any way.
FEATURE_SCHEMA_VERSION = 1

#: Feature layout, in column order.  The raw axes, their logs (the model
#: scales multiplicatively in all four), the derived compute shape, and
#: the context's technology/clock knobs.
FEATURE_NAMES: tuple[str, ...] = (
    "x",
    "n",
    "tx",
    "ty",
    "log2_x",
    "log2_n",
    "log2_tx",
    "log2_ty",
    "cores",
    "log2_cores",
    "log2_macs_per_cycle",
    "peak_tops",
    "grid_aspect",
    "freq_ghz",
    "tech_nm",
)

#: Targets the surrogate predicts, in column order.  ``achieved_tops``
#: and ``runtime_power_w`` are NaN for peak-only training rows and
#: simply not fit then.
TARGET_NAMES: tuple[str, ...] = (
    "area_mm2",
    "tdp_w",
    "peak_tops",
    "achieved_tops",
    "runtime_power_w",
)


def feature_row(
    point: DesignPoint, ctx: Optional[ModelContext] = None
) -> list[float]:
    """One point's feature vector as plain floats (schema order)."""
    ctx = ctx if ctx is not None else datacenter_context()
    cores = point.cores
    return [
        float(point.x),
        float(point.n),
        float(point.tx),
        float(point.ty),
        math.log2(point.x),
        math.log2(point.n),
        math.log2(point.tx),
        math.log2(point.ty),
        float(cores),
        math.log2(cores),
        math.log2(point.macs_per_cycle),
        point.peak_tops(ctx.freq_ghz),
        point.ty / point.tx,
        ctx.freq_ghz,
        float(ctx.tech.feature_nm),
    ]


def featurize_points(
    points: Sequence[DesignPoint], ctx: Optional[ModelContext] = None
) -> "np.ndarray":
    """Feature matrix of shape ``(len(points), len(FEATURE_NAMES))``."""
    ctx = ctx if ctx is not None else datacenter_context()
    return np.asarray(
        [feature_row(point, ctx) for point in points], dtype=np.float64
    )


def feature_digest(ctx: Optional[ModelContext] = None) -> str:
    """Content digest of the feature schema under one modeling context.

    Any change to the schema version, the feature layout, the context
    (tech node, voltage, clock), or the package version produces a new
    digest — and a model stamped with the old one is refused, never
    silently reused.
    """
    ctx = ctx if ctx is not None else datacenter_context()
    return short_hash(
        "surrogate-features",
        FEATURE_SCHEMA_VERSION,
        FEATURE_NAMES,
        TARGET_NAMES,
        ctx,
    )


def targets_from_metrics(metrics: dict, batch: int = 1) -> list[float]:
    """Extract the target vector from one journaled metrics dict.

    ``achieved_tops`` is the arithmetic mean over the workload outcomes
    of the requested batch regime, NaN when the row is peak-only.
    """
    regime = f"bs={int(batch)}"
    achieved = [
        float(o["achieved_tops"])
        for o in metrics.get("outcomes", ())
        if o.get("regime") == regime
    ]
    runtime_power = [
        float(o["runtime_power_w"])
        for o in metrics.get("outcomes", ())
        if o.get("regime") == regime
    ]
    return [
        float(metrics["area_mm2"]),
        float(metrics["tdp_w"]),
        float(metrics["peak_tops"]),
        sum(achieved) / len(achieved) if achieved else math.nan,
        sum(runtime_power) / len(runtime_power)
        if runtime_power else math.nan,
    ]


def training_rows(
    entries: Sequence[JournalEntry],
    ctx: Optional[ModelContext] = None,
    batch: int = 1,
) -> "tuple[list[DesignPoint], np.ndarray, np.ndarray]":
    """Build ``(points, X, Y)`` training arrays from journal entries.

    Failed entries (no metrics) are skipped; duplicate points keep the
    *last* record, matching the engine's resume semantics.  Rows marked
    with a non-``"exact"`` source are refused — the surrogate must never
    train on its own predictions.
    """
    ctx = ctx if ctx is not None else datacenter_context()
    by_point: dict[DesignPoint, dict] = {}
    order: list[DesignPoint] = []
    for entry in entries:
        if entry.source is not None and entry.source != "exact":
            raise ConfigurationError(
                f"journal row for {entry.point.label()} has source "
                f"{entry.source!r}; the surrogate trains only on rows "
                "the exact model produced"
            )
        if entry.metrics is None:
            continue
        if entry.point not in by_point:
            order.append(entry.point)
        by_point[entry.point] = entry.metrics
    points = [point for point in order]
    if not points:
        return [], np.empty((0, len(FEATURE_NAMES))), np.empty(
            (0, len(TARGET_NAMES))
        )
    features = featurize_points(points, ctx)
    targets = np.asarray(
        [targets_from_metrics(by_point[p], batch) for p in points],
        dtype=np.float64,
    )
    return points, features, targets
