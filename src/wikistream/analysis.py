"""
Offline feature analysis.

Pairwise Pearson correlation of profile features against the two targets
and recursive feature elimination wrapping an L1-regularized logistic
model trained by proximal gradient descent with backtracking.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .model import FEATURE_IDS, N_FEATURES, ValidationError, feature_columns

DEFAULT_CORRELATION_THRESHOLD = 0.15
DEFAULT_L1_STRENGTH = 0.01


@dataclass(frozen=True)
class FeatureSet:
    """A named, ordered list of feature identifiers."""

    name: str
    feature_ids: tuple

    def __len__(self):
        return len(self.feature_ids)


# Canonical presets. SET3_* are the curated per-target selections;
# users can also run rfe() on their own data.
SET1 = FeatureSet("set1", tuple(FEATURE_IDS[:12]))
SET2 = FeatureSet("set2", tuple(FEATURE_IDS))
SET3_TARGET1 = FeatureSet("set3-target1", (
    "6", "7", "8", "9", "10", "12",
    "15.goodfaith_true", "16.E", "18.B", "18.stub",
))
SET3_TARGET2 = FeatureSet("set3-target2", (
    "18.B", "18.C", "18.FA", "18.start", "18.stub",
))

FEATURE_SETS = {fs.name: fs for fs in (SET1, SET2, SET3_TARGET1, SET3_TARGET2)}


def pearson(x, y):
    """Pearson correlation coefficient of two equal-length vectors."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or y.ndim != 1 or x.shape != y.shape:
        raise ValidationError("vectors must be one-dimensional and equal length")
    if x.size < 2:
        raise ValidationError("need at least two observations")
    dx = x - x.mean()
    dy = y - y.mean()
    sx = np.sqrt(np.sum(dx * dx))
    sy = np.sqrt(np.sum(dy * dy))
    if sx == 0.0 or sy == 0.0:
        raise ValidationError("correlation undefined for a constant vector")
    return float(np.sum(dx * dy) / (sx * sy))


@dataclass
class CorrelationReport:
    """Per-feature correlation against a target, plus the feature matrix."""

    target: str
    threshold: float
    feature_ids: tuple
    target_correlations: dict
    feature_matrix: np.ndarray = None  # feature x feature r values
    undefined: tuple = ()

    def selected(self):
        return {fid: r for fid, r in self.target_correlations.items()
                if abs(r) > self.threshold}

    def write_csv(self, path):
        with open(Path(path), "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["feature_id", "r", "selected"])
            for fid in self.feature_ids:
                if fid in self.target_correlations:
                    r = self.target_correlations[fid]
                    writer.writerow([fid, repr(r), int(abs(r) > self.threshold)])
            for fid in self.undefined:
                writer.writerow([fid, "undefined", 0])

    def write_json(self, path):
        payload = {
            "schema_version": 1,
            "target": self.target,
            "threshold": self.threshold,
            "correlations": self.target_correlations,
            "selected": sorted(self.selected()),
            "undefined": list(self.undefined),
        }
        with open(Path(path), "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)


def feature_matrix(aggregates, feature_set=SET2):
    """Stack aggregates into an (n, d) matrix in feature-set order."""
    columns = feature_columns(tuple(feature_set.feature_ids))
    X = np.array([agg.values for agg in aggregates], dtype=float)
    return X.reshape(-1, N_FEATURES)[:, columns]


def target_vector(aggregates, target):
    if target == "user_type":
        return np.array([a.user_type for a in aggregates], dtype=float)
    if target == "contribution_type":
        return np.array([a.contribution_type for a in aggregates], dtype=float)
    raise ValidationError(f"unknown target {target!r}", field="target")


def correlation_report(aggregates, target,
                       threshold=DEFAULT_CORRELATION_THRESHOLD):
    """Correlate every feature with the chosen target.

    Constant features are listed separately as undefined instead of
    appearing in the report body.
    """
    if len(aggregates) < 2:
        raise ValidationError("need at least two aggregates")
    X = feature_matrix(aggregates)
    y = target_vector(aggregates, target)
    correlations = {}
    undefined = []
    constant = [bool(np.all(col == col[0])) for col in X.T]
    y_constant = bool(np.all(y == y[0]))
    for j, fid in enumerate(FEATURE_IDS):
        if constant[j] or y_constant:
            undefined.append(fid)
        else:
            correlations[fid] = pearson(X[:, j], y)

    d = len(FEATURE_IDS)
    matrix = np.full((d, d), np.nan)
    for i in range(d):
        for j in range(i, d):
            if constant[i] or constant[j]:
                continue
            r = 1.0 if i == j else pearson(X[:, i], X[:, j])
            matrix[i, j] = matrix[j, i] = r

    return CorrelationReport(
        target=target,
        threshold=threshold,
        feature_ids=tuple(FEATURE_IDS),
        target_correlations=correlations,
        feature_matrix=matrix,
        undefined=tuple(undefined),
    )


def standardize(X):
    """Zero-mean unit-variance columns; constant columns map to zero."""
    X = np.asarray(X, dtype=float)
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std_safe = np.where(std == 0.0, 1.0, std)
    Z = (X - mean) / std_safe
    Z[:, std == 0.0] = 0.0
    return Z


@dataclass
class LinearModel:
    """Sparse linear classifier state after fitting."""

    weights: np.ndarray
    bias: float
    strength: float
    iterations: int
    objective: float
    objective_history: list = field(default_factory=list)

    def decision(self, X):
        return X @ self.weights + self.bias


def _logistic_loss_grad(X, y, w, b):
    z = X @ w + b
    # log(1 + exp(-m)) with the stable branch for negative margins
    m = np.where(y == 1, z, -z)
    loss = float(np.mean(np.logaddexp(0.0, -m)))
    p = 1.0 / (1.0 + np.exp(-z))
    resid = p - y
    grad_w = X.T @ resid / len(y)
    grad_b = float(np.mean(resid))
    return loss, grad_w, grad_b


def _soft_threshold(v, t):
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def fit_l1_linear(X, y, strength=DEFAULT_L1_STRENGTH,
                  tol=1e-8, max_iter=10_000):
    """L1-regularized logistic regression by proximal gradient descent.

    Expects standardized columns. Backtracking line search keeps the
    objective non-increasing; stops once the improvement drops below
    ``tol`` or after ``max_iter`` iterations. The bias is unpenalized.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if not np.all(np.isfinite(X)):
        raise ValidationError("non-finite values in feature matrix")
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise ValidationError("feature matrix / label shape mismatch")
    if not set(np.unique(y)) <= {0.0, 1.0}:
        raise ValidationError("labels must be binary 0/1")

    n, d = X.shape
    w = np.zeros(d)
    b = 0.0
    step = 1.0
    loss, grad_w, grad_b = _logistic_loss_grad(X, y, w, b)
    objective = loss + strength * np.sum(np.abs(w))
    history = [objective]
    iterations = 0

    for iterations in range(1, max_iter + 1):
        while True:
            w_new = _soft_threshold(w - step * grad_w, step * strength)
            b_new = b - step * grad_b
            loss_new, grad_w_new, grad_b_new = _logistic_loss_grad(
                X, y, w_new, b_new)
            dw = w_new - w
            db = b_new - b
            quad = (loss + grad_w @ dw + grad_b * db
                    + (dw @ dw + db * db) / (2.0 * step))
            if loss_new <= quad + 1e-12 or step < 1e-12:
                break
            step *= 0.5
        objective_new = loss_new + strength * np.sum(np.abs(w_new))
        improvement = objective - objective_new
        w, b = w_new, b_new
        loss, grad_w, grad_b = loss_new, grad_w_new, grad_b_new
        if objective_new <= objective:
            objective = objective_new
        history.append(objective)
        if 0 <= improvement < tol:
            break

    return LinearModel(
        weights=w,
        bias=b,
        strength=strength,
        iterations=iterations,
        objective=objective,
        objective_history=history,
    )


@dataclass
class EliminationResult:
    feature_set: FeatureSet
    elimination_order: list  # feature ids, first removed first


def rfe(X, y, feature_ids, target_count, step_fraction=0.05,
        strength=DEFAULT_L1_STRENGTH, name="rfe"):
    """Recursive feature elimination over the L1 linear model.

    Each round refits, ranks features by |weight| and drops the
    max(1, floor(step_fraction * current)) weakest, never dropping past
    ``target_count``.
    """
    feature_ids = list(feature_ids)
    if not 0.0 < step_fraction < 1.0:
        raise ValidationError("step_fraction must be in (0, 1)")
    if not 1 <= target_count <= len(feature_ids):
        raise ValidationError(
            f"target_count {target_count} outside [1, {len(feature_ids)}]")
    X = np.asarray(X, dtype=float)
    if X.shape[1] != len(feature_ids):
        raise ValidationError("feature matrix / id list width mismatch")

    surviving = list(range(X.shape[1]))
    eliminated = []
    while len(surviving) > target_count:
        Z = standardize(X[:, surviving])
        model = fit_l1_linear(Z, y, strength=strength)
        n_drop = max(1, int(step_fraction * len(surviving)))
        n_drop = min(n_drop, len(surviving) - target_count)
        ranking = np.argsort(np.abs(model.weights), kind="stable")
        drop = ranking[:n_drop].tolist()
        eliminated.extend(feature_ids[surviving[local]] for local in drop)
        surviving = [idx for k, idx in enumerate(surviving) if k not in set(drop)]

    kept = tuple(feature_ids[j] for j in surviving)
    return EliminationResult(FeatureSet(name, kept), eliminated)
