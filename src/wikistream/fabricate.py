"""
Synthetic sample fabrication for class balancing.

Bot behaviour is summarized by a two-cluster K-means model; each
cluster's per-feature quartile statistics drive uniform draws inside the
four inter-quartile intervals. Generated samples are merged back into
the real stream to even out the bot/human imbalance.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from datetime import timedelta
from pathlib import Path

import numpy as np

from .analysis import SET2, feature_matrix
from .model import (
    FEATURE_IDS,
    FEATURE_INDEX,
    PROBABILITY_GROUPS,
    DailyAggregate,
    ValidationError,
)

KMEANS_MAX_ITER = 300


@dataclass(frozen=True)
class QuartileStats:
    """Per-feature min/Q1/median/Q3/max (plus mean) over a sample set."""

    feature_ids: tuple
    mins: np.ndarray
    q1s: np.ndarray
    medians: np.ndarray
    q3s: np.ndarray
    maxs: np.ndarray
    means: np.ndarray
    n_samples: int

    def __post_init__(self):
        stacked = np.vstack([self.mins, self.q1s, self.medians,
                             self.q3s, self.maxs])
        if np.any(np.diff(stacked, axis=0) < -1e-12):
            raise ValidationError("quartile statistics must be monotone")

    def boundaries(self):
        """The five interval boundaries, shape (5, n_features)."""
        return np.vstack([self.mins, self.q1s, self.medians,
                          self.q3s, self.maxs])


def quartile_stats(samples, feature_ids=None):
    """Quartiles by linear interpolation between closest order statistics.

    ``samples`` is an (n, d) matrix or a single vector (treated as one
    feature).
    """
    X = np.asarray(samples, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if X.shape[0] < 1:
        raise ValidationError("need at least one sample")
    if feature_ids is None:
        feature_ids = tuple(str(j) for j in range(X.shape[1]))
    q = np.quantile(X, [0.0, 0.25, 0.5, 0.75, 1.0], axis=0, method="linear")
    return QuartileStats(
        feature_ids=tuple(feature_ids),
        mins=q[0], q1s=q[1], medians=q[2], q3s=q[3], maxs=q[4],
        means=X.mean(axis=0),
        n_samples=X.shape[0],
    )


@dataclass
class KMeansModel:
    """Lloyd's clustering result with per-cluster quartile statistics."""

    k: int
    centroids: np.ndarray
    assignments: np.ndarray
    cluster_stats: list
    inertia_history: list
    mean_distance: float


def _assign(X, centroids):
    distances = np.linalg.norm(X[:, None, :] - centroids[None, :, :], axis=2)
    return distances.argmin(axis=1), distances.min(axis=1)


def _farthest_point_init(X, k, seed):
    rng = np.random.default_rng(seed)
    centroids = [X[rng.integers(len(X))]]
    for _ in range(1, k):
        dists = np.min(
            np.linalg.norm(X[:, None, :] - np.array(centroids)[None], axis=2),
            axis=1)
        centroids.append(X[int(dists.argmax())])
    return np.array(centroids, dtype=float)


def kmeans_fit(samples, k, seed=0, initial_centroids=None, feature_ids=None):
    """Lloyd's iterations until assignments stabilize (or 300 rounds).

    Initialization is farthest-point seeding from the given seed; an
    emptied cluster is re-seeded at the sample farthest from its
    centroid.
    """
    X = np.asarray(samples, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if k < 1 or len(X) < k:
        raise ValidationError(f"need k in [1, n_samples], got k={k}, n={len(X)}")
    centroids = (np.array(initial_centroids, dtype=float)
                 if initial_centroids is not None
                 else _farthest_point_init(X, k, seed))

    assignments, dists = _assign(X, centroids)
    inertia_history = [float(np.sum(dists ** 2))]
    for _ in range(KMEANS_MAX_ITER):
        for c in range(k):
            members = X[assignments == c]
            if len(members) == 0:
                centroids[c] = X[int(dists.argmax())]
            else:
                centroids[c] = members.mean(axis=0)
        new_assignments, dists = _assign(X, centroids)
        inertia_history.append(float(np.sum(dists ** 2)))
        if np.array_equal(new_assignments, assignments):
            break
        assignments = new_assignments

    if feature_ids is None:
        feature_ids = tuple(str(j) for j in range(X.shape[1]))
    cluster_stats = []
    for c in range(k):
        members = X[assignments == c]
        cluster_stats.append(
            quartile_stats(members, feature_ids) if len(members) else None)
    return KMeansModel(
        k=k,
        centroids=centroids,
        assignments=assignments,
        cluster_stats=cluster_stats,
        inertia_history=inertia_history,
        mean_distance=float(dists.mean()),
    )


def k_selection_curve(samples, k_range, seed=0):
    """Mean sample-to-centroid distance for each candidate K.

    Each K also warm-starts from the previous solution plus the farthest
    sample, so the reported curve is non-increasing.
    """
    X = np.asarray(samples, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    curve = []
    prev = None
    for k in k_range:
        if not 1 <= k <= len(X):
            raise ValidationError(f"K={k} outside [1, {len(X)}]")
        best = kmeans_fit(X, k, seed=seed)
        if prev is not None and prev.k == k - 1:
            _, dists = _assign(X, prev.centroids)
            warm = np.vstack([prev.centroids, X[int(dists.argmax())]])
            candidate = kmeans_fit(X, k, seed=seed, initial_centroids=warm)
            if candidate.mean_distance < best.mean_distance:
                best = candidate
        curve.append((k, best.mean_distance))
        prev = best
    return curve


@dataclass
class SyntheticBatch:
    """Generated samples plus the bookkeeping to audit them."""

    feature_ids: tuple
    values: np.ndarray
    seed: int
    source: QuartileStats
    interval_counts: tuple


def split_across_intervals(count):
    """floor(count/4) per interval, remainder to the earliest intervals."""
    base, remainder = divmod(count, 4)
    return tuple(base + (1 if i < remainder else 0) for i in range(4))


def generate_synthetic(stats, count, seed=0):
    """Draw ``count`` samples uniformly within the quartile intervals.

    Every feature of a sample is drawn independently inside the same
    interval; a degenerate interval emits its boundary value.
    """
    if count < 1:
        raise ValidationError("count must be >= 1")
    rng = np.random.default_rng(seed)
    bounds = stats.boundaries()
    counts = split_across_intervals(count)
    chunks = []
    for interval, n in enumerate(counts):
        if n == 0:
            continue
        low = bounds[interval]
        high = bounds[interval + 1]
        u = rng.random((n, len(stats.feature_ids)))
        chunks.append(low + u * (high - low))
    values = np.vstack(chunks)
    return SyntheticBatch(
        feature_ids=stats.feature_ids,
        values=values,
        seed=seed,
        source=stats,
        interval_counts=counts,
    )


def _renormalize_probability_groups(values):
    """Rescale each probability group of a canonical row to sum to one."""
    values = [float(v) for v in values]
    for group in PROBABILITY_GROUPS:
        idx = [FEATURE_INDEX[fid] for fid in group]
        total = sum(values[j] for j in idx)
        if total > 0:
            for j in idx:
                values[j] /= total
        else:
            for j in idx:
                values[j] = 1.0 / len(idx)
    return values


def synthetic_to_aggregates(batch, start_day, end_day, seed=0, id_offset=0):
    """Shape raw synthetic rows into bot DailyAggregate records.

    Probability groups are renormalized to restore the sum-to-one
    invariant, days are drawn uniformly over the real stream's span and
    each sample becomes a fresh synthetic contributor.
    """
    if batch.feature_ids != tuple(FEATURE_IDS):
        raise ValidationError("batch must cover the full canonical feature list")
    rng = np.random.default_rng(seed)
    span = (end_day - start_day).days
    offsets = rng.integers(0, span + 1, size=len(batch.values))
    aggregates = []
    for i, row in enumerate(batch.values):
        values = _renormalize_probability_groups(row)
        values[FEATURE_INDEX["3"]] = max(1.0, values[FEATURE_INDEX["3"]])
        aggregates.append(DailyAggregate(
            contributor_id=f"syn-bot-{id_offset + i:06d}",
            day=start_day + timedelta(days=int(offsets[i])),
            is_bot=True,
            values=tuple(values),
            synthetic=True,
        ))
    return aggregates


def synthesize_bot_samples(aggregates, count, seed=0, k=2):
    """Model bot aggregates with K-means and generate ``count`` samples.

    The requested count is split across clusters proportionally to
    cluster sizes (largest remainder). Returns (batches, model).
    """
    bots = [a for a in aggregates if a.is_bot]
    if not bots:
        raise ValidationError("cannot model bot class: no bot samples")
    X = feature_matrix(bots, SET2)
    k = min(k, len(bots))
    model = kmeans_fit(X, k, seed=seed, feature_ids=SET2.feature_ids)

    sizes = np.bincount(model.assignments, minlength=k)
    raw = sizes / sizes.sum() * count
    alloc = np.floor(raw).astype(int)
    remainder = count - alloc.sum()
    by_fraction = np.argsort(-(raw - alloc), kind="stable")
    for c in by_fraction[:remainder]:
        alloc[c] += 1

    batches = []
    for c in range(k):
        if alloc[c] == 0 or model.cluster_stats[c] is None:
            continue
        batches.append(generate_synthetic(
            model.cluster_stats[c], int(alloc[c]), seed=seed + c + 1))
    return batches, model


def contributor_gap(aggregates):
    """Human contributors minus bot contributors."""
    contributors = {}
    for agg in aggregates:
        contributors.setdefault(agg.contributor_id, agg.is_bot)
    n_bots = sum(1 for is_bot in contributors.values() if is_bot)
    return len(contributors) - 2 * n_bots


def synthesize_bot_aggregates(aggregates, count, seed):
    """``count`` synthetic bot aggregates spread over the stream's days.

    Returns (synthetic aggregates, the SyntheticBatch list they came from).
    """
    batches, _ = synthesize_bot_samples(aggregates, count, seed=seed)
    start_day = min(a.day for a in aggregates)
    end_day = max(a.day for a in aggregates)
    synthetic = []
    for b, batch in enumerate(batches):
        synthetic.extend(synthetic_to_aggregates(
            batch, start_day, end_day, seed=seed + 101 + b,
            id_offset=len(synthetic)))
    return synthetic, batches


def balance_dataset(aggregates, seed=0, count=None):
    """Fill the bot/human contributor gap with synthetic bot samples.

    ``count`` defaults to (human contributors - bot contributors); a
    non-positive count returns the input unchanged. Returns the merged,
    re-sorted stream.
    """
    if count is None:
        count = contributor_gap(aggregates)
    if count <= 0:
        return list(aggregates)
    synthetic, _ = synthesize_bot_aggregates(aggregates, count, seed=seed)
    combined = list(aggregates) + synthetic
    combined.sort(key=lambda a: (a.day, a.contributor_id))
    return combined


@dataclass
class StatComparison:
    """Relative percentage change of synthetic vs original statistics."""

    feature_ids: tuple
    # stat name -> list of (pct change or None for a zero base)
    changes: dict = field(default_factory=dict)

    def write_csv(self, path):
        stats = list(self.changes)
        with open(Path(path), "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["feature_id"] + stats)
            for j, fid in enumerate(self.feature_ids):
                row = [fid]
                for stat in stats:
                    delta = self.changes[stat][j]
                    row.append("n/a (zero base)" if delta is None
                               else f"{delta:.2f}")
                writer.writerow(row)


def compare_stats(original, synthetic):
    """Per feature, per statistic: 100 * (synthetic - original) / original."""
    if original.feature_ids != synthetic.feature_ids:
        raise ValidationError("stat tables cover different feature lists")
    pairs = {
        "mean": (original.means, synthetic.means),
        "min": (original.mins, synthetic.mins),
        "Q1": (original.q1s, synthetic.q1s),
        "Q2": (original.medians, synthetic.medians),
        "Q3": (original.q3s, synthetic.q3s),
    }
    changes = {}
    for stat, (orig, synth) in pairs.items():
        column = []
        for o, s in zip(orig, synth):
            column.append(None if o == 0 else float(100.0 * (s - o) / o))
        changes[stat] = column
    return StatComparison(original.feature_ids, changes)
