"""
The benchmark's output checks pass on a real round and fail on each
deliberately corrupted output.

    python3 -m pytest perfbench/test_checks.py
"""

import csv
import dataclasses

import pytest

from checks import build_oracle, check_round
from make_input import make_input
from workloads import ModelRun, Workload, run_round

TINY = Workload(
    "tiny", {"human-benign": 12, "human-malign": 12, "bot-benign": 2,
             "bot-malign": 2}, 600,
    (ModelRun("stacking", "stacking"),
     ModelRun("rf", "rf", "set1", "user_type")), n_days=6)


@pytest.fixture
def round_outputs(tmp_path):
    events = tmp_path / "events.csv"
    make_input(TINY, 5, events)
    result = run_round(TINY, events, tmp_path / "out")
    return build_oracle(events), result


def rewrite_csv(path, edit):
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    edit(rows)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def failures(oracle, result):
    return check_round(TINY, oracle, result)


def test_clean_round_passes(round_outputs):
    oracle, result = round_outputs
    findings = failures(oracle, result)
    assert findings.ok, list(findings.lines())
    assert sum(1 for r in result.written if r.synthetic) == 24 - 4


def test_flipped_label_fails(round_outputs):
    oracle, result = round_outputs

    def flip(rows):
        rows[3]["true"] = str(1 - int(rows[3]["true"]))
    rewrite_csv(result.logs[0].predictions, flip)
    findings = failures(oracle, result)
    assert findings.failed_steps == 1
    assert any("true" in m for m in findings.messages["steps"])


def test_probability_off_by_1e3_fails(round_outputs):
    oracle, result = round_outputs

    def nudge(rows):
        probs = rows[7]["probabilities"].split(";")
        probs[0] = repr(float(probs[0]) + 1e-3)
        rows[7]["probabilities"] = ";".join(probs)
    rewrite_csv(result.logs[-1].predictions, nudge)
    findings = failures(oracle, result)
    assert findings.failed_steps == 1
    assert any("sum to" in m for m in findings.messages["steps"])


def test_synthetic_row_outside_bot_range_fails(round_outputs):
    oracle, result = round_outputs
    top = max(d.values["f4"] for d in oracle.days.values() if d.is_bot)

    def stretch(rows):
        row = next(r for r in rows if r["synthetic"] == "1")
        row["f4"] = repr(top * 1.5)
    rewrite_csv(result.stream_path, stretch)
    findings = failures(oracle, result)
    assert any("f4" in m and "outside" in m
               for m in findings.messages["synthetic"])


def test_aggregate_changed_on_round_trip_fails(round_outputs):
    oracle, result = round_outputs
    agg = result.stream[10]
    values = list(agg.values)
    values[1] += 1e-9
    result.stream[10] = dataclasses.replace(agg, values=tuple(values))
    findings = failures(oracle, result)
    assert findings.messages.keys() == {"round_trip"}


def test_aggregation_differing_from_oracle_fails(round_outputs):
    oracle, result = round_outputs
    agg = result.real[0]
    values = list(agg.values)
    values[0] += 1.0
    result.real[0] = dataclasses.replace(agg, values=tuple(values))
    findings = failures(oracle, result)
    assert findings.messages.keys() == {"aggregation"}


def test_report_disagreeing_with_log_fails(round_outputs):
    oracle, result = round_outputs

    def swap(rows):
        row = next(r for r in rows
                   if len(set(r["probabilities"].split(";"))) > 1)
        probs = row["probabilities"].split(";")
        row["probabilities"] = ";".join(reversed(probs))
        row["predicted"] = str(1 - int(row["predicted"]))
    rewrite_csv(result.logs[0].predictions, swap)
    findings = failures(oracle, result)
    assert "report" in findings.messages
