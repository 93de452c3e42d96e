"""
Prequential (test-then-train) evaluation driver and metrics.

Every sample is predicted from state that has not seen it, then used for
training. Metrics cover accuracy, per-class F-measure, macro/micro
averages, a sliding-window accuracy series and per-event latency.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .ingest import write_table
from .model import (
    AggregateBatch,
    ColumnarList,
    ValidationError,
    sample_error,
)
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


@dataclass(eq=False)
class PredictionLog(ColumnarList):
    """A prediction log as columns: per step its sample index, contributor
    id, true and predicted label, an (n, classes) float matrix of class
    probabilities and its latency in microseconds. It behaves as a list
    of PredictionRecords (``ColumnarList``); a slice is a log."""

    index: np.ndarray
    contributor_id: np.ndarray
    true: np.ndarray
    predicted: np.ndarray
    probabilities: np.ndarray
    latency_us: np.ndarray

    COLUMNS = ("index", "contributor_id", "true", "predicted",
               "probabilities", "latency_us")

    @classmethod
    def of(cls, records):
        """``records``, a log or an iterable of PredictionRecords, as a
        log."""
        if isinstance(records, cls):
            return records
        records = list(records)
        width = len(records[0].probabilities) if records else 0
        return cls(*(np.array([getattr(r, name) for r in records],
                              dtype=object) for name in cls.COLUMNS[:4]),
                   np.array([r.probabilities for r in records], dtype=float)
                   .reshape(len(records), width),
                   np.array([r.latency_us for r in records], dtype=float))

    @staticmethod
    def _row(index, contributor_id, true, predicted, probabilities,
             latency_us):
        return PredictionRecord(index, contributor_id, true, predicted,
                                tuple(probabilities), latency_us)


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
    # Both count contributor-days, the samples of the stream, not raw
    # edit events; the names stay for the metrics.json keys.
    events_per_second: float
    ms_per_event: float

    def to_dict(self):
        return {"schema_version": 1, **asdict(self),
                "per_class": {str(k): v for k, v in self.per_class.items()}}

    def write_json(self, path):
        with open(Path(path), "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)


def _check_window(window):
    """Reject a sliding window of fewer than one sample."""
    if window < 1:
        raise ValidationError(f"must be at least 1, got {window}",
                              field="window")


def _class_codes(labels, classes):
    """Each label's position in ``classes``; a label outside them raises
    ValidationError."""
    match = np.asarray(labels)[:, None] == np.asarray(classes)[None, :]
    known = match.any(axis=1)
    if not known.all():
        label = np.asarray(labels).tolist()[int(np.argmin(known))]
        raise ValidationError(f"label {label!r} not in classes {classes!r}")
    return match.argmax(axis=1)


def metrics_from_log(log, classes, classifier="", target="",
                     window=DEFAULT_WINDOW, elapsed=0.0):
    """Recompute the full report from a prediction log, a PredictionLog
    or a list of PredictionRecords."""
    _check_window(window)
    log = PredictionLog.of(log)
    cm = ConfusionMatrix(classes)
    k = len(cm.classes)
    cm.counts = np.bincount(
        _class_codes(log.true, cm.classes) * k
        + _class_codes(log.predicted, cm.classes),
        minlength=k * k).reshape(k, k)
    macro, micro = macro_micro(cm)
    per_class = {
        c: {"precision": cm.precision(c), "recall": cm.recall(c),
            "f": f_measure(cm, c)}
        for c in classes
    }
    # correct[i]: the correct predictions among the first i samples, an
    # int, so a window's share divides the int a sum over it would give
    n = len(log)
    correct = np.concatenate(
        [[0], np.cumsum(log.true == log.predicted)]).tolist()
    series = [(end, (correct[end] - correct[end - window]) / window)
              for end in range(window, n + 1, window)]
    tail = min(window, n)
    final_window = (correct[n] - correct[n - tail]) / tail if n else 0.0
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

    Before the first step, the stream becomes one AggregateBatch: one
    ``ProfileStore.fold`` gives its profile rows, one
    ``to_feature_vector`` call their ``features`` and the batch its
    label columns for ``targets``. So a changed ``is_bot`` flag or a
    non-finite feature, whichever row comes first, and then an
    underivable label raise ValidationError naming the sample before any
    step runs. Per sample, ``step(x, labels)`` predicts and learns and
    returns one probability vector per target, written to that
    target's probability matrix; the predictions are their row-wise
    argmax. Returns one report and one PredictionLog per target, the
    logs sharing their index, id and latency columns; a step's latency
    covers the prediction and the learning, not the profile update.
    """
    _check_window(window)
    store = store if store is not None else ProfileStore()
    started = time.perf_counter()
    batch = AggregateBatch.of(stream)
    try:
        rows = store.fold(batch)
    except ValidationError:
        # a changed is_bot flag: a non-finite feature before it is first
        to_feature_vector(store.fold(batch[:store.flag_change(batch)]),
                          features)
        raise
    X = to_feature_vector(rows, features)
    trues = [getattr(batch, target) for target in targets]
    probabilities = [np.empty((len(batch), len(classes))) for _ in targets]
    index, latency = np.arange(len(batch)), np.empty(len(batch))
    for i, (x, labels) in enumerate(
            zip(X, zip(*(true.tolist() for true in trues)))):
        t0 = time.perf_counter()
        try:
            outcomes = step(x, labels)
        except ValidationError as exc:
            raise sample_error(i, exc) from exc
        latency[i] = (time.perf_counter() - t0) * 1e6
        for probs, outcome in zip(probabilities, outcomes):
            probs[i] = outcome
    logs = tuple(
        PredictionLog(index, batch.contributor_ids, true,
                      np.asarray(classes)[probs.argmax(axis=1)], probs,
                      latency)
        for true, probs in zip(trues, probabilities))
    elapsed = time.perf_counter() - started
    reports = tuple(
        metrics_from_log(log, classes, classifier=classifier, target=target,
                         window=window, elapsed=elapsed)
        for log, target in zip(logs, targets))
    return reports, logs


def prequential_run(stream, classifier, feature_set, target,
                    store=None, window=DEFAULT_WINDOW, classifier_name=""):
    """Test-then-train over a time-ordered aggregate stream: an
    AggregateBatch or an iterable of DailyAggregates.

    Returns (MetricsReport, PredictionLog).
    """
    if target not in ("user_type", "contribution_type"):
        raise ValidationError(f"unknown target {target!r}", field="target")

    def step(x, labels):
        return (classifier.predict_learn(x, labels[0]),)

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
    def step(x, labels):
        y_contribution, y_user = labels
        user_probs, final_probs, _joint = model.predict_learn(
            x, y_user, y_contribution)
        return final_probs, user_probs

    reports, logs = _prequential(
        stream, store, model.features, step, [0, 1], "stacking",
        ("contribution_type", "user_type"), window)
    return (*reports, *logs)


def write_prediction_log(log, path):
    """Prediction log, a PredictionLog or a list of PredictionRecords, as
    CSV: index, id, labels, probabilities, latency."""
    log = PredictionLog.of(log)
    write_table([log.index, log.contributor_id, log.true, log.predicted,
                 [";".join(map(repr, probs))
                  for probs in log.probabilities.tolist()],
                 [f"{latency:.1f}" for latency in log.latency_us.tolist()]],
                PredictionLog.COLUMNS, path)


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
