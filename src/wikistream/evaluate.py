"""
Prequential (test-then-train) evaluation driver and metrics.

Every sample is predicted from state that has not seen it, then used for
training. Metrics cover accuracy, per-class F-measure, macro/micro
averages, a sliding-window accuracy series and per-event latency.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .model import ValidationError
from .profiling import ProfileStore, to_feature_vector

DEFAULT_WINDOW = 1000


class ConfusionMatrix:
    """Square count matrix indexed (true class, predicted class)."""

    def __init__(self, classes=(0, 1)):
        self.classes = list(classes)
        self.counts = np.zeros((len(self.classes), len(self.classes)),
                               dtype=np.int64)

    def add(self, true, predicted):
        self.counts[self.classes.index(true), self.classes.index(predicted)] += 1

    @property
    def total(self):
        return int(self.counts.sum())

    def accuracy(self):
        total = self.total
        return float(np.trace(self.counts) / total) if total else 0.0

    def precision(self, cls):
        j = self.classes.index(cls)
        predicted = self.counts[:, j].sum()
        return float(self.counts[j, j] / predicted) if predicted else 0.0

    def recall(self, cls):
        i = self.classes.index(cls)
        actual = self.counts[i, :].sum()
        return float(self.counts[i, i] / actual) if actual else 0.0

    def to_lists(self):
        return self.counts.tolist()


def f_measure(cm, cls):
    """F1 for one class; 0 by convention when precision + recall = 0."""
    if cls not in cm.classes:
        raise ValidationError(f"class {cls!r} not in matrix")
    p = cm.precision(cls)
    r = cm.recall(cls)
    return 2.0 * p * r / (p + r) if p + r > 0 else 0.0


def macro_micro(cm):
    """(macro-F, micro-F): unweighted class mean vs globally pooled."""
    macro = float(np.mean([f_measure(cm, c) for c in cm.classes]))
    tp = int(np.trace(cm.counts))
    fp = int(cm.counts.sum() - np.trace(cm.counts))
    fn = fp  # single-label: every false positive is another class's false negative
    denom = 2 * tp + fp + fn
    micro = 2.0 * tp / denom if denom else 0.0
    return macro, micro


@dataclass
class PredictionRecord:
    index: int
    contributor_id: str
    true: object
    predicted: object
    probabilities: tuple
    latency_us: float


@dataclass
class MetricsReport:
    """Aggregate metrics of one prequential run."""

    classifier: str
    target: str
    n_samples: int
    accuracy: float
    per_class: dict          # class -> {precision, recall, f}
    macro_f: float
    micro_f: float
    confusion: list
    window_size: int
    window_series: list      # (end index, window accuracy)
    final_window_accuracy: float
    elapsed_seconds: float
    events_per_second: float
    ms_per_event: float

    def to_dict(self):
        return {
            "schema_version": 1,
            "classifier": self.classifier,
            "target": self.target,
            "n_samples": self.n_samples,
            "accuracy": self.accuracy,
            "per_class": {str(k): v for k, v in self.per_class.items()},
            "macro_f": self.macro_f,
            "micro_f": self.micro_f,
            "confusion": self.confusion,
            "window_size": self.window_size,
            "window_series": self.window_series,
            "final_window_accuracy": self.final_window_accuracy,
            "elapsed_seconds": self.elapsed_seconds,
            "events_per_second": self.events_per_second,
            "ms_per_event": self.ms_per_event,
        }

    def write_json(self, path):
        with open(Path(path), "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)


def metrics_from_log(log, classes, classifier="", target="",
                     window=DEFAULT_WINDOW, elapsed=0.0):
    """Recompute the full report from a prediction log."""
    cm = ConfusionMatrix(classes)
    for record in log:
        cm.add(record.true, record.predicted)
    macro, micro = macro_micro(cm)
    per_class = {
        c: {"precision": cm.precision(c), "recall": cm.recall(c),
            "f": f_measure(cm, c)}
        for c in classes
    }
    correct = [1 if r.true == r.predicted else 0 for r in log]
    series = []
    for end in range(window, len(correct) + 1, window):
        series.append((end, sum(correct[end - window:end]) / window))
    if correct:
        tail = correct[-window:]
        final_window = sum(tail) / len(tail)
    else:
        final_window = 0.0
    n = len(log)
    return MetricsReport(
        classifier=classifier,
        target=target,
        n_samples=n,
        accuracy=cm.accuracy(),
        per_class=per_class,
        macro_f=macro,
        micro_f=micro,
        confusion=cm.to_lists(),
        window_size=window,
        window_series=series,
        final_window_accuracy=final_window,
        elapsed_seconds=elapsed,
        events_per_second=n / elapsed if elapsed else 0.0,
        ms_per_event=elapsed / n * 1000.0 if n else 0.0,
    )


def _prequential(stream, store, features, step, classes, classifier,
                 targets, window):
    """The test-then-train loop shared by every model.

    Per aggregate: update the profile, extract ``features``, then
    ``step(x, agg)`` predicts and learns and returns one (true label,
    probabilities) pair per target. Returns one report and one log per
    target; a step's latency covers the profile update to the learning.
    """
    store = store if store is not None else ProfileStore()
    logs = tuple([] for _ in targets)
    started = time.perf_counter()
    for index, agg in enumerate(stream):
        t0 = time.perf_counter()
        x = to_feature_vector(store.update(agg), features)
        try:
            outcomes = step(x, agg)
        except ValidationError as exc:
            raise ValidationError(f"sample {index}: {exc}") from exc
        latency = (time.perf_counter() - t0) * 1e6
        for log, (true, probs) in zip(logs, outcomes):
            log.append(PredictionRecord(
                index=index,
                contributor_id=agg.contributor_id,
                true=true,
                predicted=classes[int(np.argmax(probs))],
                probabilities=tuple(float(p) for p in probs),
                latency_us=latency,
            ))
    elapsed = time.perf_counter() - started
    reports = tuple(
        metrics_from_log(log, classes, classifier=classifier, target=target,
                         window=window, elapsed=elapsed)
        for log, target in zip(logs, targets))
    return reports, logs


def prequential_run(stream, classifier, feature_set, target,
                    store=None, window=DEFAULT_WINDOW, classifier_name=""):
    """Test-then-train over a time-ordered aggregate stream.

    Returns (MetricsReport, prediction log).
    """
    if target not in ("user_type", "contribution_type"):
        raise ValidationError(f"unknown target {target!r}", field="target")

    def step(x, agg):
        probs = classifier.predict_proba(x)
        true = getattr(agg, target)
        classifier.learn_one(x, true)
        return ((true, probs),)

    (report,), (log,) = _prequential(
        stream, store, feature_set, step, classifier.classes,
        classifier_name or type(classifier).__name__, (target,), window)
    return report, log


def prequential_run_stacking(stream, model, store=None,
                             window=DEFAULT_WINDOW):
    """Prequential run of the two-level stacking model.

    Returns (contribution report, user report, contribution log,
    user log); the headline metrics are the level-2 contribution ones,
    mirroring how the stacked system is scored.
    """
    def step(x, agg):
        y_user, y_contribution = agg.user_type, agg.contribution_type
        user_probs, final_probs, _joint = model.predict_learn(
            x, y_user, y_contribution)
        return (y_contribution, final_probs), (y_user, user_probs)

    reports, logs = _prequential(
        stream, store, model.features, step, [0, 1], "stacking",
        ("contribution_type", "user_type"), window)
    return (*reports, *logs)


def write_prediction_log(log, path):
    """Prediction log as CSV: index, id, labels, probabilities, latency."""
    with open(Path(path), "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["index", "contributor_id", "true", "predicted",
                         "probabilities", "latency_us"])
        for r in log:
            writer.writerow([
                r.index, r.contributor_id, r.true, r.predicted,
                ";".join(repr(p) for p in r.probabilities),
                f"{r.latency_us:.1f}",
            ])


def _metric(metrics, *path, kind=(int, float)):
    """The value at ``path`` of a metrics mapping, checked for its type."""
    name = ".".join(path)
    value = metrics
    for key in path:
        if not isinstance(value, dict) or key not in value:
            raise ValidationError("missing from the metrics", field=name)
        value = value[key]
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValidationError(f"unexpected value {value!r}", field=name)
    return value


def render_table_row(metrics, label=""):
    """One summary row of a metrics mapping, as ``MetricsReport.to_dict``
    returns it and ``metrics.json`` holds it: accuracy, macro-F, per-class
    F, elapsed time."""
    return (f"{label or _metric(metrics, 'classifier', kind=str):<12} "
            f"{_metric(metrics, 'accuracy') * 100:8.2f} "
            f"{_metric(metrics, 'macro_f') * 100:8.2f} "
            f"{_metric(metrics, 'per_class', '0', 'f') * 100:8.2f} "
            f"{_metric(metrics, 'per_class', '1', 'f') * 100:8.2f} "
            f"{_metric(metrics, 'elapsed_seconds'):8.2f}")


TABLE_HEADER = (f"{'Model':<12} {'Accuracy':>8} {'Macro-F':>8} "
                f"{'F#0':>8} {'F#1':>8} {'Time(s)':>8}")
