"""Feature schema: deterministic, versioned, refuses non-exact rows."""

import math

import numpy as np
import pytest

from repro.config.presets import datacenter_context
from repro.dse.journal import JournalEntry
from repro.dse.space import DesignPoint
from repro.dse.surrogate.features import (
    FEATURE_NAMES,
    TARGET_NAMES,
    feature_digest,
    feature_row,
    featurize_points,
    targets_from_metrics,
    training_rows,
)
from repro.errors import ConfigurationError
from repro.tech.node import node

POINT = DesignPoint(64, 2, 2, 4)


def _metrics(area=100.0, tdp=50.0, peak=10.0, outcomes=()):
    return {
        "area_mm2": area,
        "tdp_w": tdp,
        "peak_tops": peak,
        "outcomes": list(outcomes),
    }


def test_feature_row_matches_schema_order():
    row = feature_row(POINT)
    assert len(row) == len(FEATURE_NAMES)
    named = dict(zip(FEATURE_NAMES, row))
    assert named["x"] == 64.0
    assert named["n"] == 2.0
    assert named["cores"] == 8.0
    assert named["log2_x"] == 6.0
    assert named["grid_aspect"] == 2.0
    assert named["peak_tops"] == pytest.approx(
        POINT.peak_tops(datacenter_context().freq_ghz)
    )


def test_featurize_points_is_deterministic():
    points = [POINT, DesignPoint(4, 1, 1, 1)]
    first = featurize_points(points)
    second = featurize_points(points)
    assert first.shape == (2, len(FEATURE_NAMES))
    assert np.array_equal(first, second)


def test_feature_digest_is_stable_within_one_context():
    assert feature_digest() == feature_digest()


def test_feature_digest_changes_with_the_context():
    from repro.arch.component import ModelContext

    other = ModelContext(tech=node(16), freq_ghz=0.7)
    assert feature_digest() != feature_digest(other)


def test_targets_from_metrics_extracts_the_batch_regime():
    outcomes = [
        {"regime": "bs=1", "achieved_tops": 4.0, "runtime_power_w": 30.0},
        {"regime": "bs=1", "achieved_tops": 6.0, "runtime_power_w": 50.0},
        {"regime": "bs=8", "achieved_tops": 9.0, "runtime_power_w": 70.0},
    ]
    targets = targets_from_metrics(_metrics(outcomes=outcomes), batch=1)
    named = dict(zip(TARGET_NAMES, targets))
    assert named["area_mm2"] == 100.0
    assert named["achieved_tops"] == 5.0
    assert named["runtime_power_w"] == 40.0


def test_targets_are_nan_for_peak_only_rows():
    targets = targets_from_metrics(_metrics(), batch=1)
    named = dict(zip(TARGET_NAMES, targets))
    assert math.isnan(named["achieved_tops"])
    assert math.isnan(named["runtime_power_w"])
    assert named["peak_tops"] == 10.0


def test_training_rows_keep_the_last_duplicate():
    entries = [
        JournalEntry(point=POINT, status="ok", metrics=_metrics(area=1.0)),
        JournalEntry(point=POINT, status="ok", metrics=_metrics(area=2.0)),
    ]
    points, features, targets = training_rows(entries)
    assert points == [POINT]
    assert features.shape[0] == 1
    assert targets[0][TARGET_NAMES.index("area_mm2")] == 2.0


def test_training_rows_skip_failed_entries():
    entries = [
        JournalEntry(point=POINT, status="failed", metrics=None),
        JournalEntry(
            point=DesignPoint(4, 1, 1, 1), status="ok", metrics=_metrics()
        ),
    ]
    points, features, _ = training_rows(entries)
    assert points == [DesignPoint(4, 1, 1, 1)]
    assert features.shape[0] == 1


def test_training_rows_refuse_non_exact_sources():
    entries = [
        JournalEntry(
            point=POINT,
            status="ok",
            metrics=_metrics(),
            source="surrogate",
        )
    ]
    with pytest.raises(ConfigurationError, match="exact"):
        training_rows(entries)


def test_training_rows_accept_exact_and_unmarked_sources():
    entries = [
        JournalEntry(
            point=POINT, status="ok", metrics=_metrics(), source="exact"
        ),
        JournalEntry(
            point=DesignPoint(4, 1, 1, 1), status="ok", metrics=_metrics()
        ),
    ]
    points, _, _ = training_rows(entries)
    assert len(points) == 2
