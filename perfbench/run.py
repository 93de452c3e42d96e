"""
The wikistream benchmark: replay a generated edit stream, check every
output and report end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload stacking --seed 0 --seconds 30 --trace 0

Set-up generates the workload's events CSV three times, each in a fresh
interpreter, and reports the median as ``setup_s``; the file is loaded
once after each set-up for ``ingest_events_per_s``. The run then
replays the file in whole rounds until ``--seconds`` have passed (at
least one round), checks the last round's outputs against computations
made apart from the program, and prints one JSON object as its last
line. A fixed probe loop runs before the first set-up and after every
set-up and round, and the end-to-end times are scaled by the run's mean
probe time to a host of the nominal speed (see README.md).
``--trace 1`` instead sets up once with spans on ``simulate`` and
``write_events``, alternates untraced and traced rounds, and reports the
per-layer metrics and the tracing overhead. ``--workload all`` runs
every workload in its own process and exits 1 if any of them fails.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from checks import build_oracle, check_round, output_digests
from make_input import make_input
from tracing import Tracer
from workloads import WORKLOADS, evaluate, ingest, learn, profiling, run_round, sim

HERE = Path(__file__).resolve().parent
WORK = HERE / ".work"
SETUP_REPEATS = 3
PROBE_REPEATS = 40
# Mean probe_once() time on the 2-vCPU "Intel(R) Xeon(R) Processor"
# sandbox the benchmark was written on: the nominal host speed.
NOMINAL_PROBE_S = 0.020
PROBE_VECTOR = np.arange(16.0)

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ingest_events_per_s": "events/s",
    "classify_days_per_s": "days/s",
    "step_p50_us": "us",
    "step_p95_us": "us",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "sim.simulate_us_per_event": "us/event",
    "sim.write_us_per_event": "us/event",
    "ingest.parse_us_per_event": "us/event",
    "ingest.aggregate_us_per_event": "us/event",
    "ingest.contributor_days": "count",
    "ingest.read_aggregates_us_per_row": "us/row",
    "ingest.write_aggregates_us_per_row": "us/row",
    "profiling.update_us_per_day": "us/day",
    "profiling.extract_us_per_day": "us/day",
    "profiling.export_us_per_profile": "us/profile",
    "fabricate.balance_ms": "ms",
    "fabricate.synthetic_rows": "count",
    "learn.predict_us_per_day": "us/day",
    "learn.learn_us_per_day": "us/day",
    "learn.forest_predicts_per_day": "calls/day",
    "learn.tree_nodes": "count",
    "learn.state_bytes": "bytes",
    "evaluate.loop_self_us_per_day": "us/day",
    "evaluate.metrics_ms": "ms",
    "evaluate.log_write_us_per_row": "us/row",
    "trace.overhead_s": "s",
}


def environment():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "cpu": cpu}


def probe_once():
    started = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i
    for _ in range(1_500):
        scaled = PROBE_VECTOR * 1.5
        total += int(np.argmax(scaled)) + float(scaled.sum())
    return time.perf_counter() - started


def probe():
    """Mean time of a fixed loop of interpreter and small-array work.

    The loop is the benchmark's own code, so no change to the program
    moves it. Its time follows the speed the shared host gives this
    process, which flips between a fast and a 1.6x slower state within
    a second, with a share of slow time that drifts over minutes; the
    mean of many short loops estimates that share.
    """
    return statistics.fmean(probe_once() for _ in range(PROBE_REPEATS))


def timed(fn, *args):
    started = time.perf_counter()
    fn(*args)
    return time.perf_counter() - started


def set_up(name, seed, path):
    """One set-up in a fresh interpreter, so that it includes the import."""
    subprocess.run([sys.executable, str(HERE / "make_input.py"), name,
                    str(seed), str(path)], check=True)


class Rounds:
    """Round results kept for the metrics; the last round for the checks."""

    def __init__(self):
        self.seconds = []
        self.stages = []
        self.days = []
        self.latencies = []
        self.digests = []
        self.last = None

    def add(self, result):
        self.seconds.append(result.seconds)
        self.stages.append(result.stages)
        self.days.append(len(result.stream))
        self.latencies.extend(result.step_latencies)
        self.digests.append(output_digests(result))
        self.last = result

    def median_stage(self, name):
        return statistics.median(s[name] for s in self.stages)

    def total_stage(self, name):
        return sum(s[name] for s in self.stages)


def replay(workload, events, out_dir, rounds, tracer=None):
    """One round, under ``tracer``'s spans when one is given."""
    rounds.last = None
    gc.collect()
    if tracer is not None:
        install_spans(tracer)
    try:
        result = run_round(workload, events, out_dir)
    finally:
        if tracer is not None:
            tracer.restore()
    rounds.add(result)


def install_spans(tracer):
    tracer.patch(ingest, "parse_events", "ingest.parse")
    tracer.patch(ingest, "aggregate_daily", "ingest.aggregate")
    tracer.patch(profiling.ProfileStore, "update", "profiling.update")
    tracer.patch(evaluate, "to_feature_vector", "profiling.extract")
    tracer.patch(evaluate, "prequential_run", "evaluate.loop")
    tracer.patch(evaluate, "prequential_run_stacking", "evaluate.loop")
    tracer.patch(evaluate, "metrics_from_log", "evaluate.metrics")
    tracer.count(learn.BaggingForest, "predict_proba", "learn.forest_predict")
    for cls, predict, learn_one in (
            (learn.StackingModel, "predict", "learn"),
            (learn.GaussianNaiveBayes, "predict_proba", "learn_one"),
            (learn.BaggingForest, "predict_proba", "learn_one"),
            (learn.OnlineBoosting, "predict_proba", "learn_one")):
        tracer.patch(cls, predict, "learn.predict", group="learn")
        tracer.patch(cls, learn_one, "learn.learn", group="learn")


def tree_nodes(state):
    """Tree nodes in a model state: the dicts that carry a split field."""
    if isinstance(state, dict):
        return ("split_feature" in state) + sum(map(tree_nodes, state.values()))
    if isinstance(state, list):
        return sum(map(tree_nodes, state))
    return 0


def end_to_end(rounds, n_events, setups, loads, speed, peak_rss_mb):
    """The metrics with every time multiplied by the host ``speed``."""
    steps = np.array(rounds.latencies) * speed
    loads = loads + [s["load_events"] for s in rounds.stages]
    return {
        "setup_s": statistics.median(setups) * speed,
        "wall_s": statistics.median(rounds.seconds) * speed,
        "ingest_events_per_s":
            n_events / (statistics.median(loads) * speed),
        "classify_days_per_s":
            sum(rounds.days) / (rounds.total_stage("classify") * speed),
        "step_p50_us": float(np.percentile(steps, 50)),
        "step_p95_us": float(np.percentile(steps, 95)),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(tracer, traced, untraced, n_events):
    n = len(traced.seconds)
    last = traced.last
    days = sum(traced.days)
    rows = len(last.written) * n
    log_rows = len(last.stream) * len(last.logs) * n
    profiles = len({a.contributor_id for a in last.stream}) * n
    span = tracer.spans.__getitem__
    states = [model.to_state() for model in last.models]
    return {
        "sim.simulate_us_per_event": span("sim.simulate").total / n_events * 1e6,
        "sim.write_us_per_event": span("sim.write").total / n_events * 1e6,
        "ingest.parse_us_per_event": span("ingest.parse").total / (n_events * n) * 1e6,
        "ingest.aggregate_us_per_event":
            span("ingest.aggregate").total / (n_events * n) * 1e6,
        "ingest.contributor_days": len(last.real),
        "ingest.read_aggregates_us_per_row":
            traced.total_stage("load_aggregates") / rows * 1e6,
        "ingest.write_aggregates_us_per_row":
            traced.total_stage("write_aggregates") / rows * 1e6,
        "profiling.update_us_per_day":
            span("profiling.update").total / span("profiling.update").calls * 1e6,
        "profiling.extract_us_per_day":
            span("profiling.extract").total / span("profiling.extract").calls * 1e6,
        "profiling.export_us_per_profile":
            traced.total_stage("export_profiles") / profiles * 1e6,
        "fabricate.balance_ms": traced.total_stage("balance") / n * 1e3,
        "fabricate.synthetic_rows": len(last.written) - len(last.real),
        "learn.predict_us_per_day": span("learn.predict").total / days * 1e6,
        "learn.learn_us_per_day": span("learn.learn").total / days * 1e6,
        "learn.forest_predicts_per_day":
            tracer.counts["learn.forest_predict"] / days,
        "learn.tree_nodes": sum(map(tree_nodes, states)),
        "learn.state_bytes": sum(len(json.dumps(s)) for s in states),
        "evaluate.loop_self_us_per_day":
            span("evaluate.loop").self_time / days * 1e6,
        "evaluate.metrics_ms": span("evaluate.metrics").total / n * 1e3,
        "evaluate.log_write_us_per_row":
            traced.total_stage("write_logs") / log_rows * 1e6,
        "trace.overhead_s": (statistics.median(traced.seconds)
                             - statistics.median(untraced.seconds)),
    }


def run_workload(workload, seed, seconds, trace, work_dir):
    events = work_dir / "events.csv"
    out_dir = work_dir / "out"
    if trace:
        tracer = Tracer()
        tracer.patch(sim, "simulate", "sim.simulate")
        tracer.patch(sim, "write_events", "sim.write")
        try:
            make_input(workload, seed, events)
        finally:
            tracer.restore()
        started = time.perf_counter()
        untraced, traced = Rounds(), Rounds()
        while True:
            replay(workload, events, out_dir, untraced)
            untraced.last = None
            replay(workload, events, out_dir, traced, tracer)
            if time.perf_counter() - started >= seconds:
                break
        measured = traced
        speed = None
        digests = untraced.digests + traced.digests
        days = sum(untraced.days) + sum(traced.days)
    else:
        # A load after each set-up doubles the loads that
        # ingest_events_per_s is taken from; one load is about 1.5 s.
        probes = [probe()]
        setups, loads = [], []
        for _ in range(SETUP_REPEATS):
            setups.append(timed(set_up, workload.name, seed, events))
            loads.append(timed(ingest.load_stream, events))
            probes.append(probe())
        started = time.perf_counter()
        measured = Rounds()
        while True:
            replay(workload, events, out_dir, measured)
            probes.append(probe())
            if len(measured.seconds) == 1:
                # Later rounds add a few MB of heap fragmentation each,
                # so a peak over all rounds would follow the round count.
                peak_rss_mb = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024
            if time.perf_counter() - started >= seconds:
                break
        # The host's speed flips within a second and drifts over
        # minutes; the mean over the run's probes follows the drift.
        speed = NOMINAL_PROBE_S / statistics.fmean(probes)
        digests = measured.digests
        days = sum(measured.days)

    oracle = build_oracle(events)
    findings = check_round(workload, oracle, measured.last)
    if any(d != digests[0] for d in digests):
        findings.fail("determinism", "outputs differ between rounds")
    if trace:
        metrics = per_layer(tracer, traced, untraced, oracle.n_events)
        units = PER_LAYER
    else:
        metrics = end_to_end(measured, oracle.n_events, setups, loads,
                             speed, peak_rss_mb)
        units = END_TO_END
    n_rounds = len(digests)
    return {
        "rounds": [round(s, 4) for s in
                   (untraced.seconds + traced.seconds if trace
                    else measured.seconds)],
        "events": oracle.n_events,
        "stages": {name: measured.median_stage(name)
                   for name in measured.stages[0]},
        "speed": speed,
        "digests": digests[-1],
        "findings": list(findings.lines()),
        "result": {
            "correct": findings.ok,
            "attempted": days * len(workload.runs),
            # Every round's outputs carry the last round's digests, so a
            # step that fails there fails in every round.
            "failed": findings.failed_steps * n_rounds,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()},
        },
    }


def report(name, seed, outcome):
    print(f"workload {name}  seed {seed}  events {outcome['events']}")
    print("environment " + json.dumps(environment()))
    print("rounds (s) " + " ".join(map(str, outcome["rounds"])))
    print("stages (s) " + " ".join(f"{name} {seconds:.3f}" for name, seconds
                                   in outcome["stages"].items()))
    if outcome["speed"] is not None:
        print(f"host speed {outcome['speed']:.3f} of nominal; "
              "the metrics below are scaled by it")
    for metric, entry in outcome["result"]["metrics"].items():
        print(f"  {metric:<36} {entry['value']:>16.6g} {entry['unit']}")
    for output, digest in outcome["digests"].items():
        print(f"  sha256 {digest}  {output}")
    for line in outcome["findings"]:
        print(f"  CHECK FAILED {line}")
    result = outcome["result"]
    print(f"checks {'passed' if result['correct'] else 'FAILED'}: "
          f"{result['failed']} of {result['attempted']} steps failed")
    print(json.dumps(result), flush=True)


def run_all(args):
    failures = []
    for name in WORKLOADS:
        completed = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], stdout=subprocess.PIPE, text=True)
        print(completed.stdout, end="", flush=True)
        lines = completed.stdout.strip().splitlines()
        if completed.returncode != 0 or not lines \
                or not json.loads(lines[-1]).get("correct"):
            failures.append(name)
    if failures:
        print("failed: " + ", ".join(failures))
        return 1
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    # Turn SIGTERM into an exception: subprocess.run then kills and reaps
    # a running set-up, and the work directory is still removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    WORK.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        outcome = run_workload(WORKLOADS[args.workload], args.seed,
                               args.seconds, args.trace, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    report(args.workload, args.seed, outcome)
    return 0 if outcome["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
