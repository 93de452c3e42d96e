"""
Workload definitions and the measured round of the benchmark.

A round replays one generated events file through the library's public
functions in the order the CLI uses them (``balance``, then
``evaluate balanced.csv``, plus ``profile``): load the events, balance
the stream, persist it in the aggregate schema and load it back, replay
it into contributor profiles and export them, run the workload's
prequential classifiers and write their metrics and prediction logs.
The program is imported from the ``src`` directory of the checkout this
file lives in, never from an installed copy.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

if not (SRC / "wikistream" / "__init__.py").is_file():
    raise SystemExit(f"perfbench: no program source under {SRC}; "
                     "run from the root of a wikistream checkout")
sys.path.insert(0, str(SRC))

from wikistream import analysis, evaluate, fabricate, ingest, learn, profiling, sim  # noqa: E402

# Model seeds stay at the CLI default: the workload seed only shapes the
# generated input, so the program receives nothing but the files.
MODEL_SEED = 0
ARCHETYPES = ("human-benign", "human-malign", "bot-benign", "bot-malign")


@dataclass(frozen=True)
class ModelRun:
    """One prequential run: classifier id, feature set and target."""

    tag: str
    classifier: str
    features: str = ""
    target: str = "contribution_type"


@dataclass(frozen=True)
class Workload:
    name: str
    counts: dict
    target_events: int
    runs: tuple
    n_days: int = 30
    noise: float = 0.1

    def sim_config(self, seed):
        return sim.SimConfig(counts=dict(self.counts), n_days=self.n_days,
                             seed=seed, noise=self.noise,
                             target_events=self.target_events)


WORKLOADS = {w.name: w for w in (
    # The acceptance stream; learn dominates (3 forests x 15 members).
    Workload("stacking", {a: 200 for a in ARCHETYPES}, 20_000,
             (ModelRun("stacking", "stacking"),)),
    # The paper's bot/human gap: fabricate fills it, then single-target
    # forests and online boosting learn from the balanced stream.
    Workload("balance-forests",
             {"human-benign": 1000, "human-malign": 1000,
              "bot-benign": 25, "bot-malign": 25}, 16_000,
             (ModelRun("rf", "rf", "set1", "user_type"),
              ModelRun("bc", "bc", "set1", "contribution_type"))),
)}


@dataclass
class LogOutput:
    """A prediction log and the metrics file written from the same run.

    ``latencies`` holds the per-step times in microseconds, or None for
    the stacking user log, whose steps are those of the contribution log.
    """

    target: str
    predictions: Path
    metrics: Path
    latencies: list = None


@dataclass
class RoundResult:
    out_dir: Path
    seconds: float
    stages: dict
    real: list                       # load_stream on the events file
    written: list                    # the balanced stream written to disk
    stream: list                     # the same stream loaded back
    logs: list = field(default_factory=list)
    models: list = field(default_factory=list)

    @property
    def stream_path(self):
        return self.out_dir / "stream.csv"

    @property
    def profiles_path(self):
        return self.out_dir / "profiles.jsonl"

    @property
    def step_latencies(self):
        """Microseconds per contributor-day, summed over the classifiers.

        One day is one step of each prequential run; summing keeps one
        value per day where pooling two classifiers' logs would put the
        median between their two modes.
        """
        return [sum(day) for day in zip(*(log.latencies for log in self.logs
                                          if log.latencies is not None))]


class _Stages:
    """Wall time per pipeline stage, accumulated by name."""

    def __init__(self):
        self.seconds = {}

    def time(self, name, fn, *args, **kwargs):
        started = time.perf_counter()
        value = fn(*args, **kwargs)
        self.seconds[name] = (self.seconds.get(name, 0.0)
                              + time.perf_counter() - started)
        return value


def _write_run(out_dir, tag, target, report, log, stages, steps=True):
    metrics = out_dir / f"{tag}_metrics.json"
    predictions = out_dir / f"{tag}_predictions.csv"
    stages.time("write_metrics", report.write_json, metrics)
    stages.time("write_logs", evaluate.write_prediction_log, log, predictions)
    return LogOutput(target, predictions, metrics,
                     [r.latency_us for r in log] if steps else None)


def _replay(store, stream):
    for agg in stream:
        store.update(agg)


def run_round(workload, events_path, out_dir):
    """Replay ``events_path`` once; every output lands in ``out_dir``."""
    out_dir.mkdir(parents=True, exist_ok=True)
    stages = _Stages()
    started = time.perf_counter()
    real = stages.time("load_events", ingest.load_stream, events_path)
    written = stages.time("balance", fabricate.balance_dataset, real,
                          seed=MODEL_SEED)
    stream_path = out_dir / "stream.csv"
    stages.time("write_aggregates", ingest.write_aggregates, written,
                stream_path)
    stream = stages.time("load_aggregates", ingest.load_stream, stream_path)

    store = profiling.ProfileStore()
    stages.time("profile", _replay, store, stream)
    stages.time("export_profiles", store.export_jsonl,
                out_dir / "profiles.jsonl")

    result = RoundResult(out_dir, 0.0, stages.seconds, real, written, stream)
    for run in workload.runs:
        if run.classifier == "stacking":
            model = learn.StackingModel(seed=MODEL_SEED)
            report, user_report, log, user_log = stages.time(
                "classify", evaluate.prequential_run_stacking, stream, model)
            result.logs.append(_write_run(
                out_dir, run.tag, run.target, report, log, stages))
            result.logs.append(_write_run(
                out_dir, f"{run.tag}_user", "user_type", user_report,
                user_log, stages, steps=False))
        else:
            model = learn.make_classifier(run.classifier, seed=MODEL_SEED)
            report, log = stages.time(
                "classify", evaluate.prequential_run, stream, model,
                analysis.FEATURE_SETS[run.features], run.target,
                classifier_name=run.classifier)
            result.logs.append(_write_run(
                out_dir, run.tag, run.target, report, log, stages))
        result.models.append(model)
    result.seconds = time.perf_counter() - started
    return result
