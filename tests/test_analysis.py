import numpy as np
import pytest

from wikistream.analysis import (
    SET1,
    SET2,
    SET3_TARGET1,
    SET3_TARGET2,
    correlation_report,
    fit_l1_linear,
    pearson,
    rfe,
    standardize,
)
from wikistream.model import FEATURE_IDS, ValidationError


def pearson_oracle(x, y):
    # direct term-by-term evaluation of the correlation definition
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    dx = x - x.mean()
    dy = y - y.mean()
    return float(np.sum(dx * dy)
                 / (np.sqrt(np.sum(dx ** 2)) * np.sqrt(np.sum(dy ** 2))))


class TestPearson:
    def test_perfect_positive(self):
        assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0, abs=1e-12)

    def test_perfect_negative(self):
        assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0, abs=1e-12)

    def test_four_point_case(self):
        # sum(dx*dy)=4, sum(dx^2)=sum(dy^2)=5 -> 4/5
        assert pearson([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8,
                                                                    abs=1e-12)

    def test_matches_oracle_on_random_pairs(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            x = rng.normal(size=50)
            y = rng.normal(size=50)
            assert pearson(x, y) == pytest.approx(pearson_oracle(x, y),
                                                  abs=1e-12)

    def test_affine_invariance(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=30)
        for a, b in [(2.5, 1.0), (-0.3, 7.0), (1e-4, -2.0)]:
            expected = 1.0 if a > 0 else -1.0
            assert pearson(x, a * x + b) == pytest.approx(expected, abs=1e-9)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=20)
        y = rng.normal(size=20)
        assert pearson(x, y) == pearson(y, x)

    def test_constant_vector_rejected(self):
        with pytest.raises(ValidationError):
            pearson([1, 1, 1], [1, 2, 3])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            pearson([1, 2], [1, 2, 3])

    def test_overflow_rejected(self):
        # finite values whose squared deviations pass the float range
        with np.errstate(all="raise"):
            with pytest.raises(ValidationError, match="overflows"):
                pearson([1.5e308, -1.5e308, 0.0], [1, 2, 3])


class TestCorrelationReport:
    def _aggregates(self, n=40, seed=0):
        from wikistream.sim import SimConfig, simulate
        from wikistream.ingest import aggregate_daily
        cfg = SimConfig(counts={"human-benign": n // 2, "bot-malign": n // 2},
                        n_days=10, seed=seed)
        events, _ = simulate(cfg)
        return aggregate_daily(events)

    def test_label_copy_scores_one(self):
        aggs = self._aggregates()
        report = correlation_report(aggs, "user_type")
        # 16.E is engineered to track bot-ness closely in the simulator
        assert report.target_correlations["16.E"] > 0.9

    def test_constant_feature_listed_undefined(self):
        aggs = self._aggregates()
        report = correlation_report(aggs, "user_type")
        for fid in report.undefined:
            assert fid not in report.target_correlations

    def test_report_values_in_range(self):
        report = correlation_report(self._aggregates(), "contribution_type")
        assert all(-1.0 <= r <= 1.0
                   for r in report.target_correlations.values())

    def test_matrix_symmetric_with_unit_diagonal(self):
        report = correlation_report(self._aggregates(), "user_type")
        m = report.feature_matrix
        finite = ~np.isnan(m)
        assert np.array_equal(finite, finite.T)
        assert np.allclose(m[finite], m.T[finite])
        diag = np.diag(m)
        assert np.all((np.isnan(diag)) | (diag == 1.0))

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"),
                                           -5.0, -1e-9, 1.5])
    def test_threshold_outside_unit_interval_rejected(self, threshold):
        with pytest.raises(ValidationError) as exc:
            correlation_report(self._aggregates(), "user_type", threshold)
        assert exc.value.field == "threshold"

    @pytest.mark.parametrize("threshold", [0.0, 1.0])
    def test_threshold_bounds_accepted(self, threshold):
        report = correlation_report(self._aggregates(), "user_type",
                                    threshold)
        assert report.threshold == threshold

    def test_output_files(self, tmp_path):
        report = correlation_report(self._aggregates(), "user_type")
        report.write_csv(tmp_path / "report.csv")
        report.write_json(tmp_path / "report.json")
        assert (tmp_path / "report.csv").exists()
        assert (tmp_path / "report.json").exists()


class TestFitL1Linear:
    def test_separable_sign(self):
        rng = np.random.default_rng(0)
        x = np.concatenate([rng.normal(-2, 0.5, 100), rng.normal(2, 0.5, 100)])
        y = np.concatenate([np.zeros(100), np.ones(100)])
        model = fit_l1_linear(standardize(x[:, None]), y, strength=0.001)
        assert model.weights[0] > 0

    def test_huge_regularization_zeroes_weights(self):
        rng = np.random.default_rng(1)
        X = standardize(rng.normal(size=(50, 4)))
        y = (rng.random(50) > 0.5).astype(float)
        model = fit_l1_linear(X, y, strength=1e6)
        assert np.all(model.weights == 0.0)

    def test_informative_beats_noise(self):
        # Monte-Carlo: informative features outweigh noise in >=95/100 runs
        wins = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            y = (rng.random(500) > 0.5).astype(float)
            informative = np.column_stack([
                y + rng.normal(0, 0.3, 500),
                -y + rng.normal(0, 0.3, 500),
            ])
            noise = rng.normal(size=(500, 2))
            X = standardize(np.column_stack([informative, noise]))
            model = fit_l1_linear(X, y, strength=0.05)
            w = np.abs(model.weights)
            if min(w[0], w[1]) > max(w[2], w[3]):
                wins += 1
        assert wins >= 95

    def test_objective_non_increasing(self):
        rng = np.random.default_rng(3)
        X = standardize(rng.normal(size=(100, 5)))
        y = (X[:, 0] + rng.normal(0, 0.5, 100) > 0).astype(float)
        model = fit_l1_linear(X, y, strength=0.01)
        history = np.array(model.objective_history)
        assert np.all(np.diff(history) <= 1e-12)

    def test_non_finite_rejected(self):
        X = np.array([[1.0], [np.nan]])
        with pytest.raises(ValidationError):
            fit_l1_linear(X, np.array([0.0, 1.0]))


class TestRfe:
    def _data(self, seed=0, n=300, informative=0):
        rng = np.random.default_rng(seed)
        y = (rng.random(n) > 0.5).astype(float)
        X = rng.normal(size=(n, 10))
        if informative >= 0:
            X[:, informative] = y  # label copied into one column
        return X, y

    def test_step_removes_at_least_one(self):
        X, y = self._data()
        ids = [str(i) for i in range(10)]
        result = rfe(X, y, ids, target_count=9, step_fraction=0.05)
        # floor(0.05 * 10) = 0 -> max(1, 0) = 1 removed
        assert len(result.elimination_order) == 1

    def test_label_copy_survives_to_one(self):
        X, y = self._data(seed=4)
        ids = [str(i) for i in range(10)]
        result = rfe(X, y, ids, target_count=1)
        assert result.feature_set.feature_ids == ("0",)

    def test_identity_when_target_is_all(self):
        X, y = self._data()
        ids = [str(i) for i in range(10)]
        result = rfe(X, y, ids, target_count=10)
        assert result.feature_set.feature_ids == tuple(ids)
        assert result.elimination_order == []

    def test_output_is_subset_of_exact_size(self):
        X, y = self._data(seed=5)
        ids = [str(i) for i in range(10)]
        result = rfe(X, y, ids, target_count=4)
        assert len(result.feature_set) == 4
        assert set(result.feature_set.feature_ids) <= set(ids)

    def test_deterministic(self):
        X, y = self._data(seed=6)
        ids = [str(i) for i in range(10)]
        a = rfe(X, y, ids, target_count=3)
        b = rfe(X, y, ids, target_count=3)
        assert a.feature_set == b.feature_set
        assert a.elimination_order == b.elimination_order

    def test_target_count_validated(self):
        X, y = self._data()
        with pytest.raises(ValidationError):
            rfe(X, y, [str(i) for i in range(10)], target_count=11)


class TestFeatureSets:
    def test_set1_is_basic_features(self):
        assert SET1.feature_ids == tuple(FEATURE_IDS[:12])
        assert len(SET1) == 12

    def test_set2_is_all_features(self):
        assert SET2.feature_ids == tuple(FEATURE_IDS)

    def test_set3_preset_sizes(self):
        assert len(SET3_TARGET1) == 10
        assert len(SET3_TARGET2) == 5
        assert "18.GA" not in SET3_TARGET2.feature_ids
        assert set(SET3_TARGET1.feature_ids) <= set(SET2.feature_ids)
