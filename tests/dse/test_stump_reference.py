"""The surrogate's stump fit equals the per-split loop it replaced, bit for bit.

``repro.dse.surrogate.model`` scores a boosting round's distinct splits
with a few array operations per group of splits; ``stump_reference``
keeps the Python loop that scored one (column, threshold) pair at a
time.  Every split choice must stay the same, so:

* whole committee fits are equal field by field, by bytes, on training
  matrices recorded from real budget-16 expanded-space searches
  (``data/surrogate_fits.json``) and on random matrices with more rows
  than NumPy's 128-element pairwise-sum block, duplicate and monotone
  columns, a constant column, ties, NaN targets and the trend on and
  off;
* the left mean, right mean and SSE of every distinct split, in every
  fifth round of the recorded fits and every third of the random ones,
  equal the loop's own expressions.  Whole fits alone would miss a
  different SSE formula: it only moves near-tie choices;
* the split list holds one split per distinct partition, the first in
  the loop's scan order, with its left and right rows.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from repro.dse.surrogate import model
from repro.dse.surrogate.features import FEATURE_NAMES
from tests.dse import stump_reference as reference

_DATA = Path(__file__).parent / "data" / "surrogate_fits.json"
_KWARGS = ("digest", "seed", "members", "rounds", "trend")
RECORDED = [
    (
        np.asarray(fit["features"]),
        np.asarray(fit["targets"]),
        {name: fit[name] for name in _KWARGS},
        fit["search_seed"],
    )
    for fit in json.loads(_DATA.read_text())["fits"]
]

#: Whole recorded fits run the reference loop (~3 s each), so the suite
#: replays one search's four.
WHOLE_FIT_SEARCH = 5


def _random_case(index: int):
    """A tied, redundant integer matrix and three targets, one with NaNs."""
    rng = np.random.default_rng(index)
    rows = (8, 13, 40, 129, 160, 200)[index % 6]
    base = rng.integers(0, 3 + index, size=(rows, 3)).astype(np.float64)
    features = np.column_stack([
        base,
        base[:, 0],  # duplicate
        2.0 * base[:, 1] + 1.0,  # monotone in another column
        np.full(rows, 7.0),  # constant
    ])
    targets = np.column_stack([
        np.exp2(base @ np.array([0.5, 0.25, 0.1])) + rng.uniform(size=rows),
        rng.normal(size=rows) * 50.0,  # mixed sign
        rng.uniform(1.0, 2.0, size=rows),
    ])
    targets[rng.uniform(size=rows) < 0.3, 2] = np.nan
    kwargs = {"digest": "random", "seed": index, "members": 3,
              "rounds": 16, "trend": bool(index % 2)}
    return features, targets, kwargs


RANDOM = [_random_case(index) for index in range(12)]


def _assert_same_fit(got, want):
    assert got.log_scale == want.log_scale
    assert len(got.members) == len(want.members)
    for m, (got_member, want_member) in enumerate(
        zip(got.members, want.members)
    ):
        for t, (a, b) in enumerate(zip(got_member, want_member)):
            assert (a is None) == (b is None), (m, t)
            if b is None:
                continue
            for field in dataclasses.fields(b):
                x = np.asarray(getattr(a, field.name))
                y = np.asarray(getattr(b, field.name))
                assert (x.dtype, x.shape, x.tobytes()) == \
                    (y.dtype, y.shape, y.tobytes()), (m, t, field.name)


def _recorded_id(case) -> str:
    return f"search{case[3]}-{len(case[0])}-rows"


@pytest.mark.parametrize(
    "case",
    [case for case in RECORDED if case[3] == WHOLE_FIT_SEARCH],
    ids=_recorded_id,
)
def test_recorded_fits_equal_the_reference_loop(case):
    features, targets, kwargs, _ = case
    _assert_same_fit(
        model.fit_surrogate(features, targets, **kwargs),
        reference.fit_surrogate(features, targets, **kwargs),
    )


@pytest.mark.parametrize(
    "case", RANDOM, ids=lambda case: f"random{case[2]['seed']}"
)
def test_random_fits_equal_the_reference_loop(case):
    features, targets, kwargs = case
    _assert_same_fit(
        model.fit_surrogate(features, targets, **kwargs),
        reference.fit_surrogate(features, targets, **kwargs),
    )


def _scored_rounds(monkeypatch, features, targets, kwargs):
    """Every round of one fit: (matrix, splits, residual, scores)."""
    rounds = []
    matrices = []
    fit_stumps, score_splits = model._fit_stumps, model._score_splits

    def recording_fit(features, *args, **kwargs):
        matrices.append(features)
        return fit_stumps(features, *args, **kwargs)

    def recording_score(splits, residual):
        scores = score_splits(splits, residual)
        rounds.append((matrices[-1], splits, residual.copy(), scores))
        return scores

    monkeypatch.setattr(model, "_fit_stumps", recording_fit)
    monkeypatch.setattr(model, "_score_splits", recording_score)
    model.fit_surrogate(features, targets, **kwargs)
    monkeypatch.undo()
    return rounds


def _assert_round_scores(rounds, stride):
    assert rounds
    for matrix, splits, residual, scores in rounds[::stride]:
        want = np.array([
            reference.split_scores(matrix, residual, column, threshold)
            for column, threshold in splits.candidates
        ]).T.reshape(3, -1)
        assert scores.tobytes() == want.tobytes()


@pytest.mark.parametrize("case", RECORDED, ids=_recorded_id)
def test_recorded_round_scores_equal_the_loop_expressions(
    monkeypatch, case
):
    features, targets, kwargs, _ = case
    # Two members (the full-data one and a bootstrap) at every fifth
    # round keep the loop's expressions to ~0.2 s per fit.
    kwargs = dict(kwargs, members=2)
    _assert_round_scores(
        _scored_rounds(monkeypatch, features, targets, kwargs), 5
    )


def test_random_round_scores_equal_the_loop_expressions(monkeypatch):
    for features, targets, kwargs in RANDOM:
        _assert_round_scores(
            _scored_rounds(monkeypatch, features, targets, kwargs), 3
        )


def _first_partitions(features):
    """The loop's candidates, reduced to the first split per partition."""
    grid = np.linspace(0.05, 0.95, model._THRESHOLD_GRID)
    firsts = {}
    for j in range(features.shape[1]):
        col = features[:, j]
        for thr in np.unique(np.quantile(col, grid)):
            mask = col <= thr
            if 0 < mask.sum() < len(mask):
                firsts.setdefault(mask.tobytes(), (j, float(thr)))
    return list(firsts.values())


@pytest.mark.parametrize(
    "features",
    [pytest.param(case[0], id=_recorded_id(case)) for case in RECORDED]
    + [pytest.param(case[0], id=f"random{case[2]['seed']}")
       for case in RANDOM],
)
def test_one_split_per_distinct_partition(features):
    splits = model._candidate_splits(features)
    assert splits.candidates == _first_partitions(features)
    placed = []
    for positions, left_rows, right_rows in splits.groups:
        placed.extend(positions.tolist())
        for position, left, right in zip(positions, left_rows, right_rows):
            column, threshold = splits.candidates[position]
            mask = features[:, column] <= threshold
            assert np.array_equal(left, np.flatnonzero(mask))
            assert np.array_equal(right, np.flatnonzero(~mask))
    assert sorted(placed) == list(range(len(splits.candidates)))


def test_recorded_splits_skip_repeated_and_constant_columns():
    """``log2_x`` splits rows as ``x`` does, ``log2_cores`` as ``cores``,
    ``peak_tops`` as ``log2_macs_per_cycle``; clock and node are fixed."""
    skipped = {FEATURE_NAMES.index(name) for name in (
        "log2_x", "log2_cores", "peak_tops", "freq_ghz", "tech_nm"
    )}
    for features, _, _, _ in RECORDED:
        columns = {j for j, _ in model._candidate_splits(features).candidates}
        assert columns and not columns & skipped
