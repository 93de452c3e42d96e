from dataclasses import replace
from datetime import date

import numpy as np
import pytest

from wikistream.evaluate import (
    ConfusionMatrix,
    f_measure,
    macro_micro,
    metrics_from_log,
    prequential_run,
    prequential_run_stacking,
    write_prediction_log,
)
from wikistream.ingest import aggregate_daily
from wikistream.learn import GaussianNaiveBayes, StackingModel, make_classifier
from wikistream.model import FEATURE_INDEX, ValidationError
from wikistream.profiling import ProfileStore
from wikistream.analysis import SET1
from wikistream.sim import SimConfig, simulate
from tests.test_model import make_event


def filled_matrix(rows):
    cm = ConfusionMatrix(classes=list(range(len(rows))))
    for i, row in enumerate(rows):
        for j, count in enumerate(row):
            for _ in range(count):
                cm.add(i, j)
    return cm


class TestConfusionMatrix:
    def test_balanced_coin_flip(self):
        cm = filled_matrix([[1, 1], [1, 1]])
        assert cm.accuracy() == 0.5
        assert f_measure(cm, 0) == 0.5
        assert f_measure(cm, 1) == 0.5
        macro, micro = macro_micro(cm)
        assert macro == 0.5
        assert micro == 0.5

    def test_perfect_diagonal(self):
        cm = filled_matrix([[10, 0], [0, 5]])
        assert cm.accuracy() == 1.0
        assert f_measure(cm, 0) == 1.0
        assert f_measure(cm, 1) == 1.0
        assert macro_micro(cm) == (1.0, 1.0)

    def test_skewed_majority_predictor(self):
        # 98 of 100 on the majority class, minority never predicted
        cm = filled_matrix([[98, 0], [2, 0]])
        assert cm.accuracy() == pytest.approx(0.98)
        assert f_measure(cm, 1) == 0.0
        macro, micro = macro_micro(cm)
        # macro-F = (F0 + 0) / 2 with F0 = 2*98 / (2*98 + 2)
        assert macro == pytest.approx((196 / 198) / 2)
        assert micro == pytest.approx(0.98)

    def test_micro_equals_accuracy(self):
        rng = np.random.default_rng(0)
        cm = ConfusionMatrix()
        for _ in range(500):
            cm.add(int(rng.random() > 0.5), int(rng.random() > 0.5))
        _, micro = macro_micro(cm)
        assert micro == pytest.approx(cm.accuracy())

    def test_precision_recall_against_counts(self):
        cm = filled_matrix([[8, 2], [4, 6]])
        assert cm.precision(0) == pytest.approx(8 / 12)
        assert cm.recall(0) == pytest.approx(8 / 10)
        assert cm.precision(1) == pytest.approx(6 / 8)
        assert cm.recall(1) == pytest.approx(6 / 10)

    def test_empty_matrix_accuracy_zero(self):
        assert ConfusionMatrix().accuracy() == 0.0

    def test_zero_denominator_f_is_zero(self):
        cm = filled_matrix([[5, 0], [0, 0]])
        assert f_measure(cm, 1) == 0.0


def small_stream(seed=0, n_days=15, humans=8, bots=8):
    cfg = SimConfig(counts={"human-benign": humans // 2,
                            "human-malign": humans - humans // 2,
                            "bot-benign": bots // 2,
                            "bot-malign": bots - bots // 2},
                    n_days=n_days, seed=seed)
    events, _ = simulate(cfg)
    return aggregate_daily(events)


class TestPrequentialRun:
    def test_confusion_total_equals_stream_length(self):
        stream = small_stream()
        report, log = prequential_run(stream, GaussianNaiveBayes(),
                                      SET1, "user_type")
        assert report.n_samples == len(stream)
        assert sum(sum(row) for row in report.confusion) == len(stream)
        assert len(log) == len(stream)

    def test_incremental_matches_batch_recomputation(self):
        stream = small_stream(seed=1)
        report, log = prequential_run(stream, make_classifier("rf", seed=0),
                                      SET1, "user_type", window=50)
        recomputed = metrics_from_log(log, [0, 1], window=50)
        assert recomputed.accuracy == report.accuracy
        assert recomputed.macro_f == report.macro_f
        assert recomputed.micro_f == report.micro_f
        assert recomputed.confusion == report.confusion
        assert recomputed.window_series == report.window_series

    def test_first_prediction_is_uninformed(self):
        # test-then-train: the very first prediction comes from an
        # untrained model with a uniform distribution
        stream = small_stream(seed=2)
        _, log = prequential_run(stream, GaussianNaiveBayes(),
                                 SET1, "user_type")
        assert log[0].probabilities == (0.5, 0.5)

    def test_window_series_positions(self):
        stream = small_stream(seed=3)
        report, _ = prequential_run(stream, GaussianNaiveBayes(),
                                    SET1, "user_type", window=25)
        ends = [end for end, _ in report.window_series]
        assert ends == list(range(25, len(stream) + 1, 25))

    @pytest.mark.parametrize("window", [0, -5])
    def test_window_below_one_rejected(self, window):
        with pytest.raises(ValidationError) as exc:
            metrics_from_log([], [0, 1], window=window)
        assert exc.value.field == "window"

    @pytest.mark.parametrize("window", [0, -5])
    def test_window_below_one_rejected_before_first_sample(self, window):
        stream = small_stream(seed=3)
        rest = iter(stream)
        with pytest.raises(ValidationError) as exc:
            prequential_run(rest, GaussianNaiveBayes(), SET1, "user_type",
                            window=window)
        assert exc.value.field == "window"
        with pytest.raises(ValidationError) as exc:
            prequential_run_stacking(rest, StackingModel(), window=window)
        assert exc.value.field == "window"
        assert next(rest) == stream[0]
        assert stream[0] != stream[1]

    def test_constant_labels_give_trivial_accuracy(self):
        cfg = SimConfig(counts={"human-benign": 6}, n_days=10, seed=0)
        events, _ = simulate(cfg)
        stream = aggregate_daily(events)
        report, _ = prequential_run(stream, GaussianNaiveBayes(),
                                    SET1, "user_type")
        # after the first uniform guess everything is the same class
        assert report.accuracy >= (len(stream) - 1) / len(stream)

    def test_latency_recorded(self):
        report, log = prequential_run(small_stream(seed=4),
                                      GaussianNaiveBayes(), SET1,
                                      "user_type")
        assert report.ms_per_event > 0
        assert all(r.latency_us > 0 for r in log)


class TestPrequentialStacking:
    def test_logs_cover_stream(self):
        stream = small_stream(seed=5)
        from wikistream.learn import StackingModel
        contrib, user, contrib_log, user_log = prequential_run_stacking(
            stream, StackingModel(seed=0))
        assert contrib.n_samples == user.n_samples == len(stream)
        assert len(contrib_log) == len(user_log) == len(stream)
        assert contrib.target == "contribution_type"
        assert user.target == "user_type"

    def test_deterministic_replay(self):
        stream = small_stream(seed=6)
        from wikistream.learn import StackingModel
        a = prequential_run_stacking(stream, StackingModel(seed=1))
        b = prequential_run_stacking(stream, StackingModel(seed=1))
        assert [r.predicted for r in a[2]] == [r.predicted for r in b[2]]
        assert [r.probabilities for r in a[3]] == [r.probabilities for r in b[3]]


class TestOutputs:
    def test_prediction_log_csv(self, tmp_path):
        _, log = prequential_run(small_stream(seed=7),
                                 GaussianNaiveBayes(), SET1, "user_type")
        path = tmp_path / "predictions.csv"
        write_prediction_log(log, path)
        lines = path.read_text(encoding="utf-8").strip().splitlines()
        assert len(lines) == len(log) + 1
        assert lines[0].startswith("index,contributor_id,true,predicted")

    def test_metrics_json_round_trip(self, tmp_path):
        import json
        report, _ = prequential_run(small_stream(seed=8),
                                    GaussianNaiveBayes(), SET1,
                                    "user_type")
        path = tmp_path / "metrics.json"
        report.write_json(path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["accuracy"] == report.accuracy
        assert payload["n_samples"] == report.n_samples


class CountingClassifier:
    """A stub model that counts its steps and predicts uniformly."""

    classes = [0, 1]

    def __init__(self):
        self.steps = 0

    def predict_learn(self, x, y):
        self.steps += 1
        return np.array([0.5, 0.5])


def bad_stream(**breaches):
    """Four days of one human contributor, then two of another; each of
    ``breaches`` maps a row index to "flip" (is_bot set) or "overflow"
    (a review count whose profile sum overflows)."""
    rows = [aggregate_daily([make_event(contributor_id=cid,
                                        timestamp=date(2020, 1, day))])[0]
            for cid, day in (("a", 1), ("a", 2), ("a", 3), ("a", 4),
                             ("b", 5), ("b", 6))]
    for index, kind in breaches.items():
        index = int(index[1:])
        if kind == "flip":
            rows[index] = replace(rows[index], is_bot=True)
        else:
            values = list(rows[index].values)
            values[FEATURE_INDEX["3"]] = 1e308
            rows[index] = replace(rows[index], values=tuple(values))
    return rows


class TestProfileErrors:
    @pytest.mark.parametrize("breaches,sample,text", [
        ({"r2": "flip"}, 2, "changes its is_bot flag"),
        ({"r4": "overflow", "r5": "overflow"}, 5, "non-finite value for 3"),
        ({"r1": "overflow", "r2": "overflow", "r3": "flip"}, 2,
         "non-finite value for 3"),
        ({"r2": "flip", "r4": "overflow", "r5": "overflow"}, 2,
         "changes its is_bot flag"),
    ], ids=["flip", "overflow", "overflow-before-flip", "flip-first"])
    def test_first_breach_names_its_sample_before_any_step(
            self, breaches, sample, text):
        model = CountingClassifier()
        with pytest.raises(ValidationError) as exc:
            prequential_run(bad_stream(**breaches), model, SET1, "user_type")
        assert str(exc.value).startswith(f"sample {sample}: ")
        assert text in str(exc.value)
        assert model.steps == 0

    def test_one_feature_call_and_no_row_update(self, monkeypatch):
        import wikistream.evaluate as evaluate
        calls = []
        extract = evaluate.to_feature_vector

        def counted(values, feature_set):
            calls.append(np.shape(values))
            return extract(values, feature_set)

        def refused(self, agg):
            raise AssertionError("per-row profile update")

        monkeypatch.setattr(evaluate, "to_feature_vector", counted)
        monkeypatch.setattr(ProfileStore, "update", refused)
        stream = small_stream(seed=9)
        _, log = prequential_run(stream, GaussianNaiveBayes(), SET1,
                                 "user_type")
        assert calls == [(len(stream), len(FEATURE_INDEX))]
        assert len(log) == len(stream)
