import numpy as np
import pytest

from wikistream.fabricate import (
    balance_dataset,
    compare_stats,
    generate_synthetic,
    k_selection_curve,
    kmeans_fit,
    quartile_stats,
    split_across_intervals,
    synthesize_bot_samples,
    synthetic_to_aggregates,
)
from wikistream.model import ValidationError


class TestQuartileStats:
    def test_five_point_vector(self):
        stats = quartile_stats([1.0, 2.0, 3.0, 4.0, 5.0])
        assert stats.mins[0] == 1.0
        assert stats.q1s[0] == 2.0
        assert stats.medians[0] == 3.0
        assert stats.q3s[0] == 4.0
        assert stats.maxs[0] == 5.0
        assert stats.means[0] == 3.0

    def test_constant_vector_collapses(self):
        stats = quartile_stats([7.0, 7.0, 7.0])
        assert (stats.mins[0] == stats.q1s[0] == stats.medians[0]
                == stats.q3s[0] == stats.maxs[0] == 7.0)

    def test_single_sample(self):
        stats = quartile_stats([7.0])
        assert stats.mins[0] == stats.maxs[0] == 7.0
        assert stats.n_samples == 1

    def test_interpolated_quartiles(self):
        # numpy oracle on an even-length vector
        data = np.array([1.0, 2.0, 3.0, 10.0])
        stats = quartile_stats(data)
        expected = np.quantile(data, [0.25, 0.5, 0.75])
        assert stats.q1s[0] == expected[0]
        assert stats.medians[0] == expected[1]
        assert stats.q3s[0] == expected[2]

    def test_monotonicity_enforced(self):
        from wikistream.fabricate import QuartileStats
        with pytest.raises(ValidationError):
            QuartileStats(("0",), np.array([5.0]), np.array([1.0]),
                          np.array([2.0]), np.array([3.0]), np.array([4.0]),
                          np.array([3.0]), 5)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            quartile_stats(np.empty((0, 2)))


class TestKMeans:
    def test_two_obvious_clusters(self):
        X = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 10.0], [10.0, 11.0]])
        model = kmeans_fit(X, 2, seed=0)
        a = model.assignments
        assert a[0] == a[1] and a[2] == a[3] and a[0] != a[2]
        got = {tuple(c) for c in model.centroids}
        assert got == {(0.0, 0.5), (10.0, 10.5)}

    def test_k_one_is_global_mean(self):
        X = np.array([[1.0], [2.0], [6.0]])
        model = kmeans_fit(X, 1, seed=0)
        assert model.centroids[0, 0] == pytest.approx(3.0)

    def test_k_equals_n_zero_distortion(self):
        X = np.array([[0.0], [5.0], [9.0]])
        model = kmeans_fit(X, 3, seed=0)
        assert model.mean_distance == pytest.approx(0.0, abs=1e-12)

    def test_k_out_of_range(self):
        with pytest.raises(ValidationError):
            kmeans_fit(np.array([[1.0], [2.0]]), 3)

    def test_inertia_history_non_increasing(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(60, 3))
        model = kmeans_fit(X, 4, seed=1)
        history = np.array(model.inertia_history)
        assert np.all(np.diff(history) <= 1e-9)


class TestKSelectionCurve:
    def _blobs(self, seed=0):
        rng = np.random.default_rng(seed)
        return np.vstack([rng.normal(0, 0.3, (40, 2)),
                          rng.normal(8, 0.3, (40, 2))])

    def test_non_increasing(self):
        curve = k_selection_curve(self._blobs(), range(1, 7), seed=0)
        values = [v for _, v in curve]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_elbow_at_true_cluster_count(self):
        curve = dict(k_selection_curve(self._blobs(), range(1, 5), seed=0))
        # going 1 -> 2 removes nearly all distortion; 2 -> 3 barely helps
        assert curve[1] - curve[2] > 10 * (curve[2] - curve[3])

    def test_invalid_k_rejected(self):
        with pytest.raises(ValidationError):
            k_selection_curve(np.array([[1.0], [2.0]]), [1, 5])


class TestSplitAcrossIntervals:
    def test_exact_multiple(self):
        assert split_across_intervals(46532) == (11633, 11633, 11633, 11633)

    def test_remainder_to_earliest(self):
        assert split_across_intervals(5) == (2, 1, 1, 1)
        assert split_across_intervals(7) == (2, 2, 2, 1)

    def test_totals(self):
        for n in range(1, 20):
            assert sum(split_across_intervals(n)) == n


class TestGenerateSynthetic:
    def _stats(self):
        rng = np.random.default_rng(0)
        return quartile_stats(rng.normal(5.0, 2.0, size=(200, 3)))

    def test_count_and_interval_counts(self):
        batch = generate_synthetic(self._stats(), 46532, seed=0)
        assert len(batch.values) == 46532
        assert batch.interval_counts == (11633, 11633, 11633, 11633)

    def test_values_within_bounds(self):
        stats = self._stats()
        batch = generate_synthetic(stats, 1000, seed=1)
        assert np.all(batch.values >= stats.mins - 1e-12)
        assert np.all(batch.values <= stats.maxs + 1e-12)

    def test_seeded_reproducibility(self):
        stats = self._stats()
        a = generate_synthetic(stats, 100, seed=7)
        b = generate_synthetic(stats, 100, seed=7)
        assert np.array_equal(a.values, b.values)
        c = generate_synthetic(stats, 100, seed=8)
        assert not np.array_equal(a.values, c.values)

    def test_degenerate_constant_feature(self):
        stats = quartile_stats(np.full((10, 2), 3.0))
        batch = generate_synthetic(stats, 8, seed=0)
        assert np.all(batch.values == 3.0)

    def test_quartile_fidelity(self):
        stats = self._stats()
        batch = generate_synthetic(stats, 40_000, seed=2)
        regenerated = quartile_stats(batch.values)
        for orig, synth in [(stats.q1s, regenerated.q1s),
                            (stats.medians, regenerated.medians),
                            (stats.q3s, regenerated.q3s)]:
            rel = np.abs(synth - orig) / np.abs(orig)
            assert np.all(rel < 0.02)

    def test_zero_count_rejected(self):
        with pytest.raises(ValidationError):
            generate_synthetic(self._stats(), 0)


def simulated_aggregates(humans=10, bots=4, seed=0, n_days=10):
    from wikistream.sim import SimConfig, simulate
    from wikistream.ingest import aggregate_daily
    cfg = SimConfig(counts={"human-benign": humans, "bot-malign": bots},
                    n_days=n_days, seed=seed)
    events, _ = simulate(cfg)
    return aggregate_daily(events)


class TestBalanceDataset:
    def test_gap_is_filled(self):
        aggregates = simulated_aggregates(humans=10, bots=4)
        balanced = balance_dataset(aggregates, seed=0)
        synthetic = [a for a in balanced if a.synthetic]
        assert len(synthetic) == 6
        contributors = {a.contributor_id: a.is_bot for a in balanced}
        n_bots = sum(1 for b in contributors.values() if b)
        assert n_bots == len(contributors) - n_bots

    def test_already_balanced_identity(self):
        aggregates = simulated_aggregates(humans=5, bots=5)
        assert balance_dataset(aggregates, seed=0) == list(aggregates)

    def test_no_bots_rejected(self):
        aggregates = simulated_aggregates(humans=6, bots=0)
        with pytest.raises(ValidationError):
            balance_dataset(aggregates, seed=0)

    def test_output_sorted(self):
        balanced = balance_dataset(simulated_aggregates(humans=12, bots=3))
        keys = [(a.day, a.contributor_id) for a in balanced]
        assert keys == sorted(keys)

    def test_synthetic_rows_valid_aggregates(self):
        balanced = balance_dataset(simulated_aggregates(humans=10, bots=4))
        for agg in balanced:
            if agg.synthetic:
                assert agg.is_bot
                assert agg.value("3") >= 1.0

    def test_explicit_count_override(self):
        aggregates = simulated_aggregates(humans=10, bots=4)
        balanced = balance_dataset(aggregates, seed=0, count=9)
        assert sum(1 for a in balanced if a.synthetic) == 9


class TestSynthesizeBotSamples:
    def test_counts_allocated_across_clusters(self):
        aggregates = simulated_aggregates(humans=4, bots=10)
        batches, model = synthesize_bot_samples(aggregates, 101, seed=0)
        assert sum(len(b.values) for b in batches) == 101
        assert model.k == 2

    def test_aggregate_conversion_restores_invariants(self):
        aggregates = simulated_aggregates(humans=4, bots=10)
        batches, _ = synthesize_bot_samples(aggregates, 20, seed=0)
        start = min(a.day for a in aggregates)
        end = max(a.day for a in aggregates)
        rows = synthetic_to_aggregates(batches[0], start, end, seed=5)
        for agg in rows:
            assert start <= agg.day <= end
            # derivable labels
            assert (agg.user_type, agg.contribution_type) in {(1, 0), (1, 1)}


class TestCompareStats:
    def test_known_percentage(self):
        original = quartile_stats(np.array([[4.0], [4.0], [4.0], [4.0]]))
        synthetic = quartile_stats(np.array([[3.0], [3.0], [3.0], [3.0]]))
        comparison = compare_stats(original, synthetic)
        assert comparison.changes["mean"][0] == pytest.approx(-25.0)
        assert comparison.changes["Q2"][0] == pytest.approx(-25.0)

    def test_zero_base_flagged(self):
        original = quartile_stats(np.zeros((4, 1)))
        synthetic = quartile_stats(np.ones((4, 1)))
        comparison = compare_stats(original, synthetic)
        assert comparison.changes["mean"][0] is None

    def test_identical_stats_zero_change(self):
        stats = quartile_stats(np.array([[1.0], [2.0], [3.0]]))
        comparison = compare_stats(stats, stats)
        for column in comparison.changes.values():
            assert all(c == 0.0 for c in column if c is not None)

    def test_csv_output(self, tmp_path):
        stats = quartile_stats(np.array([[1.0], [2.0], [3.0]]))
        compare_stats(stats, stats).write_csv(tmp_path / "cmp.csv")
        text = (tmp_path / "cmp.csv").read_text(encoding="utf-8")
        assert "feature_id" in text and "Q2" in text
