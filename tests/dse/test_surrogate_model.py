"""The bagged-stump surrogate: deterministic fits, digest-guarded IO."""

import pickle

import numpy as np
import pytest

from repro.dse.surrogate.features import TARGET_NAMES
from repro.dse.surrogate.model import (
    MODEL_FORMAT_VERSION,
    SurrogateModel,
    fit_surrogate,
)
from repro.errors import ConfigurationError

DIGEST = "test-digest"


def _dataset(rows=64, seed=3):
    """Smooth multiplicative targets over 4 synthetic feature columns."""
    rng = np.random.default_rng(seed)
    features = rng.uniform(1.0, 8.0, size=(rows, 4))
    area = features[:, 0] * features[:, 1] ** 2
    tdp = features[:, 0] + 3.0 * features[:, 2]
    peak = features[:, 0] * features[:, 3]
    targets = np.full((rows, len(TARGET_NAMES)), np.nan)
    targets[:, 0] = area
    targets[:, 1] = tdp
    targets[:, 2] = peak
    return features, targets


def test_fit_is_deterministic_under_one_seed():
    features, targets = _dataset()
    first = fit_surrogate(features, targets, digest=DIGEST, seed=5)
    second = fit_surrogate(features, targets, digest=DIGEST, seed=5)
    probe = features[:8]
    for name in ("area_mm2", "tdp_w", "peak_tops"):
        assert np.array_equal(
            first.predict_members(probe)[name],
            second.predict_members(probe)[name],
        )


def test_different_seeds_give_different_committees():
    features, targets = _dataset()
    first = fit_surrogate(features, targets, digest=DIGEST, seed=5)
    second = fit_surrogate(features, targets, digest=DIGEST, seed=6)
    probe = features[:8]
    assert not np.array_equal(
        first.predict_members(probe)["area_mm2"],
        second.predict_members(probe)["area_mm2"],
    )


def test_committee_mean_tracks_the_training_surface():
    features, targets = _dataset(rows=128)
    model = fit_surrogate(features, targets, digest=DIGEST, seed=0)
    mean, _ = model.predict(features)
    truth = targets[:, 0]
    relative = np.abs(mean["area_mm2"] - truth) / truth
    assert float(np.median(relative)) < 0.25


def test_positive_targets_are_fit_in_log_space():
    features, targets = _dataset()
    model = fit_surrogate(features, targets, digest=DIGEST, seed=0)
    named = dict(zip(model.target_names, model.log_scale))
    assert named["area_mm2"] is True
    # A target with non-positive values must stay on the raw scale.
    targets[0, 1] = -1.0
    raw = fit_surrogate(features, targets, digest=DIGEST, seed=0)
    assert dict(zip(raw.target_names, raw.log_scale))["tdp_w"] is False


def test_unfittable_targets_predict_nan_not_zero():
    features, targets = _dataset()
    model = fit_surrogate(features, targets, digest=DIGEST, seed=0)
    members = model.predict_members(features[:4])
    assert np.isnan(members["achieved_tops"]).all()
    assert np.isnan(members["runtime_power_w"]).all()
    assert np.isfinite(members["area_mm2"]).all()


def test_trend_extrapolates_a_monotone_target():
    # Train on the low half of a monotone surface, probe the high half:
    # the ridge trend must keep the prediction rising past the training
    # hull, while pure stumps saturate at the hull boundary.
    rng = np.random.default_rng(0)
    features = rng.uniform(1.0, 4.0, size=(64, 4))
    targets = np.full((64, len(TARGET_NAMES)), np.nan)
    targets[:, 2] = 2.0 ** (features[:, 0] + features[:, 1])
    with_trend = fit_surrogate(
        features, targets, digest=DIGEST, seed=0, trend=True
    )
    without = fit_surrogate(
        features, targets, digest=DIGEST, seed=0, trend=False
    )
    probe = np.asarray([[6.0, 6.0, 2.0, 2.0]])
    hull_max = float(targets[:, 2].max())
    trend_pred = float(
        np.mean(with_trend.predict_members(probe)["peak_tops"])
    )
    flat_pred = float(
        np.mean(without.predict_members(probe)["peak_tops"])
    )
    assert trend_pred > hull_max
    assert flat_pred <= hull_max * 1.05


def test_too_few_rows_is_a_typed_refusal():
    features, targets = _dataset(rows=4)
    with pytest.raises(ConfigurationError, match="at least"):
        fit_surrogate(features, targets, digest=DIGEST, seed=0)


def test_save_load_roundtrip_preserves_predictions(tmp_path):
    features, targets = _dataset()
    model = fit_surrogate(features, targets, digest=DIGEST, seed=1)
    path = tmp_path / "model.pkl"
    model.save(path)
    loaded = SurrogateModel.load(path, expected_digest=DIGEST)
    for name in ("area_mm2", "tdp_w", "peak_tops"):
        assert np.array_equal(
            model.predict_members(features[:8])[name],
            loaded.predict_members(features[:8])[name],
        )


def test_load_refuses_a_stale_digest(tmp_path):
    features, targets = _dataset()
    path = tmp_path / "model.pkl"
    fit_surrogate(features, targets, digest=DIGEST, seed=1).save(path)
    with pytest.raises(ConfigurationError, match="stale"):
        SurrogateModel.load(path, expected_digest="another-digest")


def test_load_refuses_a_tampered_header(tmp_path):
    features, targets = _dataset()
    model = fit_surrogate(features, targets, digest=DIGEST, seed=1)
    path = tmp_path / "model.pkl"
    model.save(path)
    with open(path, "rb") as fh:
        payload = pickle.load(fh)
    payload["header"]["feature_digest"] = "edited"
    with open(path, "wb") as fh:
        pickle.dump(payload, fh)
    with pytest.raises(ConfigurationError, match="disagrees"):
        SurrogateModel.load(path)


def test_load_refuses_a_non_model_pickle(tmp_path):
    path = tmp_path / "model.pkl"
    with open(path, "wb") as fh:
        pickle.dump({"hello": "world"}, fh)
    with pytest.raises(ConfigurationError, match="not a surrogate model"):
        SurrogateModel.load(path)


def test_load_refuses_garbage_bytes(tmp_path):
    path = tmp_path / "model.pkl"
    path.write_bytes(b"\x00\x01\x02 definitely not a pickle")
    with pytest.raises(ConfigurationError, match="not a valid"):
        SurrogateModel.load(path)


def test_load_refuses_an_unknown_format_version(tmp_path):
    features, targets = _dataset()
    model = fit_surrogate(features, targets, digest=DIGEST, seed=1)
    path = tmp_path / "model.pkl"
    model.save(path)
    with open(path, "rb") as fh:
        payload = pickle.load(fh)
    payload["header"]["version"] = MODEL_FORMAT_VERSION + 1
    with open(path, "wb") as fh:
        pickle.dump(payload, fh)
    with pytest.raises(ConfigurationError, match="format"):
        SurrogateModel.load(path)
