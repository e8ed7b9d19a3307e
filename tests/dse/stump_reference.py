"""The per-split stump loop of the surrogate fit, kept as a reference.

``repro.dse.surrogate.model`` scores every distinct split of a boosting
round with a few array operations per group of splits.  This module
keeps the Python loop it replaced, ``fit_stumps`` (a dozen small NumPy
operations per column and threshold), verbatim, and the committee fit
around it, ``fit_surrogate``, so that ``test_stump_reference.py`` can
check the new fit against it bit for bit, the way
``tests/perf/reference_simulator.py`` keeps the scalar layer loop.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.dse.seeding import derive_seed, resolve_seed
from repro.dse.surrogate.model import (
    _LEARNING_RATE,
    _THRESHOLD_GRID,
    DEFAULT_MEMBERS,
    DEFAULT_ROUNDS,
    SurrogateModel,
    _fit_trend,
    _StumpEnsemble,
)


def fit_stumps(
    features: "np.ndarray",
    target: "np.ndarray",
    rounds: int,
    learning_rate: float,
    trend: bool = True,
) -> _StumpEnsemble:
    """Optional ridge trend, then greedy least-squares stump boosting."""
    base = float(np.mean(target))
    if trend:
        mu, sigma, coef, residual0 = _fit_trend(features, target)
    else:
        mu = np.zeros(features.shape[1])
        sigma = np.ones(features.shape[1])
        coef = np.zeros(features.shape[1])
        residual0 = target - base
    pred = target - residual0
    cols: list[int] = []
    thrs: list[float] = []
    lefts: list[float] = []
    rights: list[float] = []
    # Precompute each column's candidate thresholds (interior quantiles).
    grid = np.linspace(0.05, 0.95, _THRESHOLD_GRID)
    candidates = [
        np.unique(np.quantile(features[:, j], grid))
        for j in range(features.shape[1])
    ]
    for _ in range(rounds):
        residual = target - pred
        best_sse = float(np.sum(residual * residual))
        best = None
        for j in range(features.shape[1]):
            col = features[:, j]
            for thr in candidates[j]:
                mask = col <= thr
                count = int(mask.sum())
                if count == 0 or count == mask.shape[0]:
                    continue
                left = float(residual[mask].mean())
                right = float(residual[~mask].mean())
                sse = float(
                    np.sum((residual[mask] - left) ** 2)
                    + np.sum((residual[~mask] - right) ** 2)
                )
                if sse < best_sse - 1e-12:
                    best_sse = sse
                    best = (j, float(thr), left, right)
        if best is None:
            break  # no split improves: the residual is flat
        j, thr, left, right = best
        step_left = learning_rate * left
        step_right = learning_rate * right
        pred = pred + np.where(
            features[:, j] <= thr, step_left, step_right
        )
        cols.append(j)
        thrs.append(thr)
        lefts.append(step_left)
        rights.append(step_right)
    return _StumpEnsemble(
        base=base,
        trend_mu=mu,
        trend_sigma=sigma,
        trend_coef=coef,
        features=np.asarray(cols, dtype=np.int64),
        thresholds=np.asarray(thrs, dtype=np.float64),
        left=np.asarray(lefts, dtype=np.float64),
        right=np.asarray(rights, dtype=np.float64),
    )


def fit_surrogate(
    features: "np.ndarray",
    targets: "np.ndarray",
    *,
    digest: str,
    seed: Optional[int] = None,
    members: int = DEFAULT_MEMBERS,
    rounds: int = DEFAULT_ROUNDS,
    learning_rate: float = _LEARNING_RATE,
    trend: bool = True,
) -> SurrogateModel:
    """The committee fit over :func:`fit_stumps` (argument checks left out)."""
    features = np.asarray(features, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    seed = resolve_seed(seed)
    count = features.shape[0]
    log_scale = []
    for t in range(targets.shape[1]):
        column = targets[:, t]
        finite = column[np.isfinite(column)]
        log_scale.append(bool(finite.size) and bool((finite > 0.0).all()))
    fitted: list[tuple[Optional[_StumpEnsemble], ...]] = []
    for m in range(members):
        rng = np.random.default_rng(derive_seed(seed, "member", m))
        if m == 0:
            picks = np.arange(count)  # one member sees every row
        else:
            picks = rng.integers(0, count, size=count)
        per_target: list[Optional[_StumpEnsemble]] = []
        for t in range(targets.shape[1]):
            y = targets[picks, t]
            finite = np.isfinite(y)
            if int(finite.sum()) < 2:
                per_target.append(None)
                continue
            y_fit = np.log2(y[finite]) if log_scale[t] else y[finite]
            per_target.append(fit_stumps(
                features[picks][finite], y_fit, rounds, learning_rate,
                trend=trend,
            ))
        fitted.append(tuple(per_target))
    return SurrogateModel(
        feature_digest=digest,
        seed=seed,
        train_count=count,
        members=tuple(fitted),
        log_scale=tuple(log_scale),
    )


def split_scores(
    features: "np.ndarray",
    residual: "np.ndarray",
    column: int,
    threshold: float,
) -> tuple[float, float, float]:
    """One split's left mean, right mean and SSE, as :func:`fit_stumps`
    computes them."""
    mask = features[:, column] <= threshold
    left = float(residual[mask].mean())
    right = float(residual[~mask].mean())
    sse = float(
        np.sum((residual[mask] - left) ** 2)
        + np.sum((residual[~mask] - right) ** 2)
    )
    return left, right, sse
