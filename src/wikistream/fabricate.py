"""
Synthetic sample fabrication for class balancing.

Bot behaviour is summarized by a two-cluster K-means model; each
cluster's per-feature quartile statistics drive uniform draws inside the
four inter-quartile intervals. Generated samples are merged back into
the real stream to even out the bot/human imbalance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .analysis import SET2, feature_matrix
from .ingest import write_rows
from .model import (
    COUNT_FLOORS,
    FEATURE_IDS,
    FEATURE_INDEX,
    PROB_COLUMNS,
    PROBABILITY_GROUPS,
    AggregateBatch,
    ValidationError,
    contributor_slots,
    feature_columns,
    largest_remainder,
    probability_group_sums,
)

KMEANS_MAX_ITER = 300
BOT_CLUSTERS = 2  # K-means clusters modelling the bots, at most one per bot
_REVIEWS = FEATURE_INDEX["3"]


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
        if np.any(np.diff(self.boundaries(), axis=0) < -1e-12):
            raise ValidationError("quartile statistics must be monotone")

    def boundaries(self):
        """The five interval boundaries, shape (5, n_features)."""
        return np.vstack([self.mins, self.q1s, self.medians,
                          self.q3s, self.maxs])


def _matrix(samples):
    """An (n, d) matrix or a single vector (one feature) as a matrix."""
    X = np.asarray(samples, dtype=float)
    return X[:, None] if X.ndim == 1 else X


def quartile_stats(samples, feature_ids=None):
    """Quartiles by linear interpolation between closest order statistics.

    ``samples`` is an (n, d) matrix or a single vector (treated as one
    feature); ``feature_ids`` default to the column numbers.
    """
    X = _matrix(samples)
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
    X = _matrix(samples)
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
    X = _matrix(samples)
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
    return tuple(largest_remainder((1, 1, 1, 1), count, 0))


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


def synthetic_to_aggregates(batch, start_day, end_day, seed=0, id_offset=0):
    """Shape raw synthetic rows into an AggregateBatch of bot rows.

    Probability groups are renormalized to restore the sum-to-one
    invariant, ``f3`` is raised to at least 1, days are drawn uniformly
    over the real stream's span and each sample becomes a fresh
    synthetic contributor.
    """
    if batch.feature_ids != tuple(FEATURE_IDS):
        raise ValidationError("batch must cover the full canonical feature list")
    rng = np.random.default_rng(seed)
    span = (end_day - start_day).days
    n = len(batch.values)
    offsets = rng.integers(0, span + 1, size=n)
    values = np.array(batch.values, dtype=float)
    # probabilities are the last columns; a group summing to 0 turns uniform
    totals = probability_group_sums(values[:, -len(PROB_COLUMNS):])
    for group, total in zip(PROBABILITY_GROUPS, totals.T):
        columns = feature_columns(group)
        values[:, columns] = np.divide(
            values[:, columns], total[:, None],
            out=np.full((n, len(columns)), 1.0 / len(columns)),
            where=(total > 0)[:, None])
    reviews, floor = values[:, _REVIEWS], COUNT_FLOORS["f3"]
    values[:, _REVIEWS] = np.where(reviews > floor, reviews, floor)
    return AggregateBatch(
        np.array([f"syn-bot-{id_offset + i:06d}" for i in range(n)],
                 dtype=object),
        np.datetime64(start_day, "D") + offsets,
        np.ones(n, dtype=bool), np.ones(n, dtype=bool), values)


def synthesize_bot_samples(aggregates, count, seed=0):
    """Model bot aggregates with K-means (BOT_CLUSTERS clusters) and
    generate ``count`` samples, at least 1.

    The requested count is split across clusters proportionally to
    cluster sizes (largest remainder). Returns (batches, model).
    """
    if count < 1:
        raise ValidationError(f"{count} is below 1", field="count")
    batch = AggregateBatch.of(aggregates)
    bots = batch[batch.is_bot]
    if not len(bots):
        raise ValidationError("cannot model bot class: no bot samples")
    X = feature_matrix(bots, SET2)
    k = min(BOT_CLUSTERS, len(bots))
    model = kmeans_fit(X, k, seed=seed, feature_ids=SET2.feature_ids)
    alloc = largest_remainder(np.bincount(model.assignments, minlength=k),
                              count, 0)
    batches = []
    for c in range(k):
        if alloc[c] == 0 or model.cluster_stats[c] is None:
            continue
        batches.append(generate_synthetic(
            model.cluster_stats[c], alloc[c], seed=seed + c + 1))
    return batches, model


def contributor_gap(aggregates):
    """Human minus bot contributors, each by its first row's flag."""
    batch = AggregateBatch.of(aggregates)
    _, ids, _, flags, _, _ = contributor_slots(
        batch.contributor_ids.tolist(), batch.is_bot, {})
    return len(ids) - 2 * int(flags.sum())


def synthesize_bot_aggregates(aggregates, count, seed):
    """``count`` synthetic bot aggregates spread over the stream's days.

    Returns (the synthetic AggregateBatch, the SyntheticBatch list it
    came from).
    """
    batches, _ = synthesize_bot_samples(aggregates, count, seed=seed)
    days = AggregateBatch.of(aggregates).days
    start_day, end_day = days.min().item(), days.max().item()
    synthetic = []
    for b, batch in enumerate(batches):
        synthetic.append(synthetic_to_aggregates(
            batch, start_day, end_day, seed=seed + 101 + b,
            id_offset=sum(map(len, synthetic))))
    return AggregateBatch.concat(synthetic), batches


def balance_dataset(aggregates, seed=0, count=None):
    """Fill the bot/human contributor gap with synthetic bot samples.

    ``count`` defaults to (human contributors - bot contributors); a
    non-positive count returns a new AggregateBatch of the input's rows,
    unchanged. Returns the merged AggregateBatch, re-sorted.
    """
    batch = AggregateBatch.of(aggregates)
    if count is None:
        count = contributor_gap(batch)
    if count <= 0:
        return batch[:]
    synthetic, _ = synthesize_bot_aggregates(batch, count, seed=seed)
    return AggregateBatch.concat([batch, synthetic]).sorted()


@dataclass
class StatComparison:
    """Relative percentage change of synthetic vs original statistics."""

    feature_ids: tuple
    # stat name -> list of (pct change or None for a zero base)
    changes: dict = field(default_factory=dict)

    def write_csv(self, path):
        rows = ((fid, *("n/a (zero base)" if delta is None else f"{delta:.2f}"
                        for delta in deltas))
                for fid, *deltas in zip(self.feature_ids,
                                        *self.changes.values()))
        write_rows(rows, ("feature_id", *self.changes), path)


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
