"""A numpy-only ensemble surrogate trained from sweep journals.

The model is a *bagged committee* of gradient-boosted regression stumps:
each committee member is trained on a bootstrap resample of the exact
rows, one boosted-stump ensemble per target (area, TDP, peak TOPS,
achieved TOPS).  The committee mean is the prediction and the committee
spread is the uncertainty the acquisition functions consume — no scipy,
no sklearn, and everything seeded through
:func:`repro.dse.seeding.derive_seed` so a fit is bit-reproducible.

Saved models are pickles with a digest-stamped header: loading a model
whose :func:`~repro.dse.surrogate.features.feature_digest` does not
match the current schema/context/package is a typed refusal, exactly
like a stale cache entry.  Predictions are *advisory only*: they steer
which points the exact model evaluates and are never reported as
results (see :mod:`repro.dse.surrogate.search`).
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np

from repro.dse.journal import atomic_write, load_journal
from repro.dse.seeding import derive_seed, resolve_seed
from repro.dse.surrogate.features import (
    TARGET_NAMES,
    feature_digest,
    training_rows,
)
from repro.errors import ConfigurationError

#: Bump when the pickled layout below changes incompatibly.
MODEL_FORMAT_VERSION = 1

#: Default committee size; 5 members trade variance estimates for cost.
DEFAULT_MEMBERS = 5

#: Default boosting rounds per (member, target) stump ensemble.
DEFAULT_ROUNDS = 48

_LEARNING_RATE = 0.35
_THRESHOLD_GRID = 9
_MIN_TRAINING_ROWS = 8


@dataclass(frozen=True)
class _StumpEnsemble:
    """One trend + boosted-stump regressor.

    ``trend_*`` hold a ridge-regularized linear fit on standardized
    features that runs *before* the stumps: stumps are piecewise
    constant, so on their own they cannot extrapolate past the training
    hull — which blinds acquisition to the monotone corners of an open
    design space (peak TOPS grows right up to the largest feasible
    design).  The linear trend carries that global log-log scaling and
    the stumps only model the residual surface.
    """

    base: float
    trend_mu: "np.ndarray"  # (cols,) feature standardization mean
    trend_sigma: "np.ndarray"  # (cols,) feature standardization scale
    trend_coef: "np.ndarray"  # (cols,) ridge coefficients
    features: "np.ndarray"  # (rounds,) int column indices
    thresholds: "np.ndarray"  # (rounds,) split values
    left: "np.ndarray"  # (rounds,) scaled leaf value for col <= thr
    right: "np.ndarray"  # (rounds,) scaled leaf value otherwise

    def predict(self, features: "np.ndarray") -> "np.ndarray":
        z = (features - self.trend_mu[None, :]) / \
            self.trend_sigma[None, :]
        # Bounded extrapolation: a few sigma past the training hull the
        # linear term keeps its direction but saturates instead of
        # running away.
        out = self.base + np.clip(z, -_TREND_CLIP, _TREND_CLIP) @ \
            self.trend_coef
        for j, thr, lo, hi in zip(
            self.features, self.thresholds, self.left, self.right
        ):
            out += np.where(features[:, int(j)] <= thr, lo, hi)
        return out


_TREND_RIDGE = 1e-3
_TREND_CLIP = 4.0


def _trend_columns(width: int) -> "np.ndarray":
    """Feature columns the linear trend may use.

    For the canonical schema only the ``log2_*`` columns participate:
    the metrics are log-log linear in the design axes, and the
    raw-scale columns (``cores``, ``peak_tops``, ...) sit so many sigma
    outside the training range at space corners that a coefficient on
    them turns extrapolation into overflow.  Non-canonical widths (unit
    tests with synthetic matrices) use every column.
    """
    from repro.dse.surrogate.features import FEATURE_NAMES

    if width == len(FEATURE_NAMES):
        return np.asarray(
            [
                i
                for i, name in enumerate(FEATURE_NAMES)
                if name.startswith("log2_")
            ],
            dtype=np.int64,
        )
    return np.arange(width, dtype=np.int64)


def _fit_trend(
    features: "np.ndarray", target: "np.ndarray"
) -> "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]":
    """Ridge linear fit on standardized features; returns residual too.

    The returned ``coef`` is full-width with zeros outside
    :func:`_trend_columns`, so :meth:`_StumpEnsemble.predict` stays a
    single matrix product.
    """
    width = features.shape[1]
    cols = _trend_columns(width)
    mu = features.mean(axis=0)
    sigma = features.std(axis=0)
    sigma = np.where(sigma > 1e-12, sigma, 1.0)
    z = (features[:, cols] - mu[None, cols]) / sigma[None, cols]
    centered = target - float(np.mean(target))
    gram = z.T @ z + _TREND_RIDGE * features.shape[0] * np.eye(
        z.shape[1]
    )
    coef = np.zeros(width)
    coef[cols] = np.linalg.solve(gram, z.T @ centered)
    # Residuals under the same clipped transform predict() applies.
    full_z = (features - mu[None, :]) / sigma[None, :]
    return mu, sigma, coef, centered - np.clip(
        full_z, -_TREND_CLIP, _TREND_CLIP
    ) @ coef


class _Splits(NamedTuple):
    """The distinct stump splits of one training matrix, in scan order.

    ``candidates[i]`` is ``(column, threshold)``: rows with
    ``col <= threshold`` go left.  ``groups`` holds the splits with
    ``k`` left rows, for each ``k``: their positions in ``candidates``
    and their ``(P, k)`` left and ``(P, n - k)`` right row-index
    matrices, each row ascending.
    """

    candidates: list[tuple[int, float]]
    groups: list[tuple[np.ndarray, np.ndarray, np.ndarray]]


def _candidate_splits(features: "np.ndarray") -> _Splits:
    """The splits a stump on ``features`` may take.

    Each column offers its interior quantiles as thresholds, columns in
    order and thresholds ascending.  A split that leaves a side empty is
    dropped, and so is one whose partition repeats an earlier split's:
    its SSE is the same bit for bit, so the strict
    ``sse < best - 1e-12`` test of :func:`_fit_stumps` never picks it.
    """
    count = features.shape[0]
    grid = np.linspace(0.05, 0.95, _THRESHOLD_GRID)
    candidates: list[tuple[int, float]] = []
    masks: list["np.ndarray"] = []
    seen: set[bytes] = set()
    for j in range(features.shape[1]):
        col = features[:, j]
        thresholds = np.unique(np.quantile(col, grid))
        below = col[None, :] <= thresholds[:, None]
        for thr, mask, left in zip(
            thresholds.tolist(), below, below.sum(axis=1).tolist()
        ):
            key = mask.tobytes()
            if 0 < left < count and key not in seen:
                seen.add(key)
                candidates.append((j, thr))
                masks.append(mask)
    chosen = np.asarray(masks, dtype=bool).reshape(len(masks), count)
    lefts = chosen.sum(axis=1)
    groups = []
    for k in np.unique(lefts).tolist():
        positions = np.flatnonzero(lefts == k)
        group = chosen[positions]
        groups.append((
            positions,
            np.nonzero(group)[1].reshape(-1, k),
            np.nonzero(~group)[1].reshape(-1, count - k),
        ))
    return _Splits(candidates, groups)


def _score_splits(splits: _Splits, residual: "np.ndarray") -> "np.ndarray":
    """Left mean, right mean and SSE of every split: ``(3, splits)``.

    These are the IEEE operations of a 1-D ``mean`` and ``sum`` over
    each side, in the same order: every gathered row is contiguous, and
    NumPy reduces each row pairwise, as it does a 1-D array.
    """
    scores = np.empty((3, len(splits.candidates)))
    for positions, left_rows, right_rows in splits.groups:
        left = residual[left_rows]
        right = residual[right_rows]
        left_mean = left.sum(axis=1) / left_rows.shape[1]
        right_mean = right.sum(axis=1) / right_rows.shape[1]
        scores[0, positions] = left_mean
        scores[1, positions] = right_mean
        scores[2, positions] = (
            ((left - left_mean[:, None]) ** 2).sum(axis=1)
            + ((right - right_mean[:, None]) ** 2).sum(axis=1)
        )
    return scores


def _fit_stumps(
    features: "np.ndarray",
    target: "np.ndarray",
    splits: _Splits,
    rounds: int,
    learning_rate: float,
    trend: bool = True,
) -> _StumpEnsemble:
    """Optional ridge trend, then greedy least-squares stump boosting.

    ``splits`` is :func:`_candidate_splits` of ``features``.  Each round
    takes the first split in scan order whose SSE beats the best so far
    by more than 1e-12.
    """
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
    for _ in range(rounds):
        residual = target - pred
        best_sse = float(np.sum(residual * residual))
        best = None
        means_left, means_right, sses = _score_splits(splits, residual)
        for i, sse in enumerate(sses.tolist()):
            if sse < best_sse - 1e-12:
                best_sse = sse
                best = i
        if best is None:
            break  # no split improves: the residual is flat
        j, thr = splits.candidates[best]
        step_left = learning_rate * float(means_left[best])
        step_right = learning_rate * float(means_right[best])
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


@dataclass(frozen=True)
class SurrogateModel:
    """A digest-stamped committee of boosted-stump regressors.

    ``members[m][t]`` is member ``m``'s ensemble for target ``t`` (in
    :data:`~repro.dse.surrogate.features.TARGET_NAMES` order), or
    ``None`` when the training set had no finite rows for that target
    (e.g. ``achieved_tops`` on peak-only journals).
    """

    feature_digest: str
    seed: int
    train_count: int
    target_names: tuple[str, ...] = TARGET_NAMES
    members: tuple[tuple[Optional[_StumpEnsemble], ...], ...] = field(
        default_factory=tuple
    )
    #: Per-target flag: the ensembles were fit on ``log2(y)`` (chosen at
    #: fit time when every finite value is positive) and predictions are
    #: exponentiated back.  Chip metrics span orders of magnitude, and
    #: least-squares stumps on the raw scale would spend their entire
    #: budget on the largest designs — log space makes the small-area
    #: region (where the TCO optimum lives) equally visible.
    log_scale: tuple[bool, ...] = ()

    @property
    def member_count(self) -> int:
        return len(self.members)

    def check_digest(self, expected: str) -> None:
        """Refuse to serve predictions across a schema/context change."""
        if self.feature_digest != expected:
            raise ConfigurationError(
                "stale surrogate model: it was trained under feature "
                f"digest {self.feature_digest} but the current "
                f"schema/context digests to {expected}; retrain from "
                "fresh journals (models never survive a feature-schema, "
                "context, or package-version change)"
            )

    def predict_members(
        self, features: "np.ndarray"
    ) -> "dict[str, np.ndarray]":
        """Per-member predictions: target name -> (members, N) array.

        Targets no member could fit come back as NaN rows, which the
        acquisition layer treats as "no information", never as zeros.
        """
        out: dict[str, "np.ndarray"] = {}
        count = features.shape[0]
        for t, name in enumerate(self.target_names):
            rows = []
            log_scaled = bool(self.log_scale and self.log_scale[t])
            for member in self.members:
                ensemble = member[t]
                if ensemble is None:
                    rows.append(np.full(count, np.nan))
                else:
                    pred = ensemble.predict(features)
                    if log_scaled:
                        # The linear trend extrapolates; clip before
                        # exp2 so a wild corner prediction stays a
                        # large finite number instead of overflowing.
                        pred = np.exp2(np.clip(pred, -120.0, 120.0))
                    rows.append(pred)
            out[name] = np.vstack(rows) if rows else np.empty((0, count))
        return out

    def predict(
        self, features: "np.ndarray"
    ) -> "tuple[dict[str, np.ndarray], dict[str, np.ndarray]]":
        """Committee mean and spread per target: ``(mean, std)`` dicts."""
        members = self.predict_members(features)
        mean = {name: np.mean(rows, axis=0) for name, rows in
                sorted(members.items())}
        std = {name: np.std(rows, axis=0) for name, rows in
               sorted(members.items())}
        return mean, std

    # -- persistence ---------------------------------------------------------

    def save(self, path: "str | os.PathLike") -> str:
        """Atomically pickle the model with a digest-stamped header."""
        target = os.fspath(path)
        parent = os.path.dirname(target)
        if parent:
            os.makedirs(parent, exist_ok=True)
        payload = {
            "header": {
                "kind": "surrogate-model",
                "version": MODEL_FORMAT_VERSION,
                "feature_digest": self.feature_digest,
                "targets": list(self.target_names),
                "members": self.member_count,
                "train_count": self.train_count,
                "seed": self.seed,
            },
            "model": self,
        }
        atomic_write(
            target, pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        )
        return target

    @classmethod
    def load(
        cls,
        path: "str | os.PathLike",
        expected_digest: Optional[str] = None,
    ) -> "SurrogateModel":
        """Load a saved model, verifying its header and digest.

        Raises:
            ConfigurationError: not a surrogate-model file, an
                incompatible format version, or (with
                ``expected_digest``) a stale feature digest.
        """
        try:
            with open(path, "rb") as fh:
                payload = pickle.load(fh)
        except OSError as error:
            raise ConfigurationError(
                f"cannot read surrogate model {os.fspath(path)}: {error}"
            ) from error
        except (pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError) as error:
            raise ConfigurationError(
                f"surrogate model {os.fspath(path)} is not a valid "
                f"model pickle: {error}"
            ) from error
        header = (
            payload.get("header") if isinstance(payload, dict) else None
        )
        if not isinstance(header, dict) or \
                header.get("kind") != "surrogate-model":
            raise ConfigurationError(
                f"{os.fspath(path)} is not a surrogate model (missing "
                "kind == 'surrogate-model' header)"
            )
        if int(header.get("version", -1)) != MODEL_FORMAT_VERSION:
            raise ConfigurationError(
                f"surrogate model format v{header.get('version')} is "
                f"not supported (this build reads v{MODEL_FORMAT_VERSION})"
            )
        model = payload.get("model")
        if not isinstance(model, cls):
            raise ConfigurationError(
                f"{os.fspath(path)} header is valid but the body is "
                f"{type(model).__name__}, not a SurrogateModel"
            )
        if model.feature_digest != str(header.get("feature_digest")):
            raise ConfigurationError(
                f"surrogate model {os.fspath(path)} header digest "
                "disagrees with its body; the file was edited or damaged"
            )
        if expected_digest is not None:
            model.check_digest(expected_digest)
        return model


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
    """Fit the bagged committee on ``(features, targets)`` arrays.

    ``targets`` columns follow
    :data:`~repro.dse.surrogate.features.TARGET_NAMES`; NaN entries are
    excluded per target (a peak-only row still trains the peak targets).

    ``trend`` fits the per-member ridge trend before the stumps.  Keep
    it on when the model must *extrapolate* (generative searches over
    open axes, where the optimum can sit past every training row) and
    turn it off for finite-pool searches, where the initial draws
    already span the hull and the global linear bias only distorts the
    local structure the stumps interpolate.

    Raises:
        ConfigurationError: fewer than the minimum training rows, or
            invalid hyperparameters.
    """
    features = np.asarray(features, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if features.ndim != 2 or targets.ndim != 2 or \
            features.shape[0] != targets.shape[0]:
        raise ConfigurationError(
            f"features {features.shape} and targets {targets.shape} "
            "must be 2-D with matching row counts"
        )
    if features.shape[0] < _MIN_TRAINING_ROWS:
        raise ConfigurationError(
            f"the surrogate needs at least {_MIN_TRAINING_ROWS} exact "
            f"rows to fit, got {features.shape[0]}; sweep more points "
            "first or lower the budget into exhaustive range"
        )
    if members < 1 or rounds < 1:
        raise ConfigurationError(
            f"members and rounds must be >= 1, got {members}/{rounds}"
        )
    seed = resolve_seed(seed)
    count = features.shape[0]
    # Decide the fitting scale per target from the *full* training set so
    # every committee member agrees: log2 when all finite values are
    # positive (chip metrics are multiplicative in the design axes).
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
        rows = features[picks]
        # Targets with the same finite rows share one training matrix,
        # and so its candidate splits.
        splits: dict[bytes, _Splits] = {}
        per_target: list[Optional[_StumpEnsemble]] = []
        for t in range(targets.shape[1]):
            y = targets[picks, t]
            finite = np.isfinite(y)
            if int(finite.sum()) < 2:
                per_target.append(None)
                continue
            y_fit = np.log2(y[finite]) if log_scale[t] else y[finite]
            key = finite.tobytes()
            if key not in splits:
                splits[key] = _candidate_splits(rows[finite])
            per_target.append(_fit_stumps(
                rows[finite], y_fit, splits[key], rounds, learning_rate,
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


def fit_from_journals(
    paths: Sequence["str | os.PathLike"],
    *,
    ctx=None,
    batch: int = 1,
    seed: Optional[int] = None,
    members: int = DEFAULT_MEMBERS,
    rounds: int = DEFAULT_ROUNDS,
    salvage: bool = False,
    trend: bool = True,
) -> SurrogateModel:
    """Train a surrogate from one or more sweep journals.

    Journals are read through :func:`repro.dse.journal.load_journal`
    (torn tails repaired, ``salvage=True`` harvests damaged shards), so
    every sweep, search, or shard journal the engine ever wrote is a
    training set.  Duplicate points across journals keep the last row.

    Raises:
        ConfigurationError: no journals, no usable rows, or a row whose
            ``source`` marks it as not exact-model output.
    """
    if not paths:
        raise ConfigurationError("fit_from_journals needs journal paths")
    entries = []
    for path in paths:
        entries.extend(load_journal(path, salvage=salvage))
    _, features, targets = training_rows(entries, ctx=ctx, batch=batch)
    return fit_surrogate(
        features,
        targets,
        digest=feature_digest(ctx),
        seed=seed,
        members=members,
        rounds=rounds,
        trend=trend,
    )
