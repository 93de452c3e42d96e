import hashlib
import json
import os
from datetime import date
from pathlib import Path

import pytest
from click.testing import CliRunner

from wikistream.cli import main
from wikistream.ingest import aggregate_daily, load_stream, write_aggregates
from wikistream.model import FEATURE_INDEX
from wikistream.sim import write_events
from tests.test_ingest import (
    INVALID_AGGREGATE_COLUMNS,
    append_surplus_cells,
    rewrite_cells,
)
from tests.test_model import make_event


def run(*args):
    return CliRunner().invoke(main, [str(a) for a in args])


def simulate_stream(out_dir, humans=6, bots=6, days=8, seed=0):
    result = run("simulate", "--human-benign", humans // 2,
                 "--human-malign", humans - humans // 2,
                 "--bot-benign", bots // 2,
                 "--bot-malign", bots - bots // 2,
                 "--days", days, "--seed", seed, "--out", out_dir)
    assert result.exit_code == 0, result.output
    return Path(out_dir) / "events.csv"


def header_only_events(tmp_path):
    from wikistream.ingest import EVENT_COLUMNS
    events = tmp_path / "events.csv"
    events.write_text(",".join(EVENT_COLUMNS) + "\n", encoding="utf-8")
    return events


class TestSimulateCommand:
    def test_writes_events_and_labels(self, tmp_path):
        events = simulate_stream(tmp_path / "sim")
        assert events.exists()
        assert (tmp_path / "sim" / "labels.csv").exists()

    def test_config_file_defaults_with_flag_override(self, tmp_path):
        config = tmp_path / "sim.conf"
        config.write_text("days = 3\nseed = 5\n", encoding="utf-8")
        out = tmp_path / "sim"
        result = run("simulate", "--config", config, "--seed", 6,
                     "--out", out)
        assert result.exit_code == 0, result.output
        # seed 6 from the flag, days 3 from the file
        reference = tmp_path / "ref"
        run("simulate", "--days", 3, "--seed", 6, "--out", reference)
        assert (out / "events.csv").read_bytes() == \
            (reference / "events.csv").read_bytes()

    def test_bad_noise_exits_validation(self, tmp_path):
        result = run("simulate", "--noise", 2.0, "--out", tmp_path / "x")
        assert result.exit_code == 2

    def test_events_below_population_exit_validation(self, tmp_path):
        # 4 archetypes x 10 contributors cannot share 5 events
        result = run("simulate", "--events", 5, "--out", tmp_path / "x")
        assert result.exit_code == 2
        assert "events" in result.output
        assert not (tmp_path / "x" / "events.csv").exists()

    def test_span_past_the_calendar_exits_validation(self, tmp_path):
        result = run("simulate", "--days", 4_000_000, "--events", 1,
                     "--human-benign", 1, "--human-malign", 0,
                     "--bot-benign", 0, "--bot-malign", 0,
                     "--out", tmp_path / "x")
        assert result.exit_code == 2, result.output
        assert "'days'" in result.output
        assert not (tmp_path / "x" / "events.csv").exists()

    @pytest.mark.parametrize("args,field", [
        (("--days", 0), "days"),
        (("--noise", 1.5), "noise"),
        (("--human-benign", -1), "counts"),
        (("--human-benign", 0, "--human-malign", 0, "--bot-benign", 0,
          "--bot-malign", 0), "counts"),
    ])
    def test_bad_plan_exits_validation_naming_field(self, tmp_path, args,
                                                    field):
        result = run("simulate", *args, "--out", tmp_path / "x")
        assert result.exit_code == 2, result.output
        assert f"field '{field}'" in result.output
        assert not (tmp_path / "x" / "events.csv").exists()

    def test_unknown_config_key_exits_validation(self, tmp_path):
        config = tmp_path / "sim.conf"
        config.write_text("days = 3\nbogus_key = 3\n", encoding="utf-8")
        result = run("simulate", "--config", config, "--out", tmp_path / "x")
        assert result.exit_code == 2
        assert "bogus_key" in result.output
        assert not (tmp_path / "x").exists()


class TestAnalyzeCommand:
    def test_reports_written(self, tmp_path):
        events = simulate_stream(tmp_path / "sim")
        result = run("analyze", events, "--out", tmp_path / "analysis")
        assert result.exit_code == 0, result.output
        assert (tmp_path / "analysis" / "report.csv").exists()
        payload = json.loads((tmp_path / "analysis" / "report.json")
                             .read_text(encoding="utf-8"))
        assert payload["target"] == "user_type"

    def test_missing_input_exits_validation(self, tmp_path):
        result = run("analyze", tmp_path / "missing.csv")
        assert result.exit_code == 2
        assert "error:" in result.output

    @pytest.mark.parametrize("threshold", ["nan", "-5", "1.5"])
    def test_threshold_outside_unit_interval_exits_validation(
            self, tmp_path, threshold):
        events = simulate_stream(tmp_path / "sim")
        result = run("analyze", events, "--threshold", threshold,
                     "--out", tmp_path / "analysis")
        assert result.exit_code == 2, result.output
        assert "threshold" in result.output
        assert not (tmp_path / "analysis").exists()


class TestSelectCommand:
    def test_selected_features_json(self, tmp_path):
        events = simulate_stream(tmp_path / "sim", humans=10, bots=10)
        out = tmp_path / "selected.json"
        result = run("select", events, "--count", 5, "--out", out)
        assert result.exit_code == 0, result.output
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert len(payload["selected"]) == 5
        assert len(payload["elimination_order"]) == 31 - 5


class TestSynthesizeCommand:
    def test_fills_gap_by_default(self, tmp_path):
        events = simulate_stream(tmp_path / "sim", humans=8, bots=4)
        result = run("synthesize", events, "--out", tmp_path / "syn")
        assert result.exit_code == 0, result.output
        assert "generated 4 samples" in result.output
        assert (tmp_path / "syn" / "synthetic.csv").exists()
        assert (tmp_path / "syn" / "comparison.csv").exists()

    def test_balanced_input_warns_zero(self, tmp_path):
        events = simulate_stream(tmp_path / "sim", humans=5, bots=5)
        result = run("synthesize", events, "--out", tmp_path / "syn")
        assert result.exit_code == 0, result.output
        assert "0 samples" in result.output
        assert not (tmp_path / "syn" / "synthetic.csv").exists()

    def test_negative_count_exits_validation(self, tmp_path):
        events = simulate_stream(tmp_path / "sim", humans=8, bots=4)
        result = run("synthesize", events, "--count", -3,
                     "--out", tmp_path / "syn")
        assert result.exit_code == 2, result.output
        assert "--count" in result.output
        assert not (tmp_path / "syn").exists()

    def test_same_seed_identical_output(self, tmp_path):
        events = simulate_stream(tmp_path / "sim", humans=8, bots=4)
        for name in ("a", "b"):
            result = run("synthesize", events, "--seed", 3,
                         "--out", tmp_path / name)
            assert result.exit_code == 0, result.output
        digest = lambda p: hashlib.sha256(p.read_bytes()).hexdigest()
        assert digest(tmp_path / "a" / "synthetic.csv") == \
            digest(tmp_path / "b" / "synthetic.csv")


class TestBalanceCommand:
    def test_balanced_stream_written(self, tmp_path):
        events = simulate_stream(tmp_path / "sim", humans=8, bots=4)
        out = tmp_path / "balanced.csv"
        result = run("balance", events, "--out", out)
        assert result.exit_code == 0, result.output
        assert "4 synthetic" in result.output
        from wikistream.ingest import load_stream
        balanced = load_stream(out)
        contributors = {a.contributor_id: a.is_bot for a in balanced}
        n_bots = sum(1 for b in contributors.values() if b)
        assert n_bots * 2 == len(contributors)


class TestProfileCommand:
    def test_profiles_exported(self, tmp_path):
        events = simulate_stream(tmp_path / "sim")
        out = tmp_path / "profiles.jsonl"
        result = run("profile", events, "--out", out)
        assert result.exit_code == 0, result.output
        lines = out.read_text(encoding="utf-8").strip().splitlines()
        assert len(lines) == 12  # one per contributor
        assert all("contributor_id" in line for line in lines)


class TestEvaluateCommand:
    def test_metrics_and_table(self, tmp_path):
        events = simulate_stream(tmp_path / "sim", humans=10, bots=10)
        out = tmp_path / "eval"
        result = run("evaluate", events, "--classifier", "nb",
                     "--features", "set1", "--out", out)
        assert result.exit_code == 0, result.output
        assert "Accuracy" in result.output  # table header
        assert "ms/event" in result.output
        assert (out / "metrics.json").exists()
        assert (out / "predictions.csv").exists()
        assert (out / "window_series.csv").exists()

    def test_stacking_writes_both_reports(self, tmp_path):
        events = simulate_stream(tmp_path / "sim", humans=6, bots=6, days=5)
        out = tmp_path / "eval"
        result = run("evaluate", events, "--classifier", "stacking",
                     "--out", out)
        assert result.exit_code == 0, result.output
        assert (out / "metrics.json").exists()
        assert (out / "metrics_user.json").exists()

    def test_unknown_config_key_exits_validation(self, tmp_path):
        events = simulate_stream(tmp_path / "sim")
        config = tmp_path / "eval.conf"
        config.write_text("classifier = nb\nbogus_key = 3\n",
                          encoding="utf-8")
        result = run("evaluate", events, "--config", config,
                     "--out", tmp_path / "eval")
        assert result.exit_code == 2
        assert "bogus_key" in result.output

    def test_header_only_events_exit_validation(self, tmp_path):
        events = header_only_events(tmp_path)
        result = run("evaluate", events, "--classifier", "nb",
                     "--out", tmp_path / "eval")
        assert result.exit_code == 2
        assert "no contributor-days" in result.output
        assert not (tmp_path / "eval" / "metrics.json").exists()

    @pytest.mark.parametrize("window", [0, -5])
    def test_window_below_one_exits_validation(self, tmp_path, window):
        events = simulate_stream(tmp_path / "sim")
        result = run("evaluate", events, "--classifier", "nb",
                     "--window", window, "--out", tmp_path / "eval")
        assert result.exit_code == 2, result.output
        assert "field 'window'" in result.output
        assert not (tmp_path / "eval" / "metrics.json").exists()

    @pytest.mark.parametrize("columns,field", INVALID_AGGREGATE_COLUMNS)
    def test_invalid_aggregate_row_exits_validation(self, tmp_path, columns,
                                                    field):
        aggs = load_stream(simulate_stream(tmp_path / "sim"))
        stream = tmp_path / "stream.csv"
        write_aggregates(aggs, stream)
        rewrite_cells(stream, 0, **columns)
        result = run("evaluate", stream, "--classifier", "nb",
                     "--out", tmp_path / "eval")
        assert result.exit_code == 2, result.output
        assert f"line 2: field '{field}'" in result.output
        assert not (tmp_path / "eval" / "metrics.json").exists()

    def test_report_renders_metrics(self, tmp_path):
        events = simulate_stream(tmp_path / "sim")
        out = tmp_path / "eval"
        run("evaluate", events, "--classifier", "nb", "--out", out)
        result = run("report", out / "metrics.json")
        assert result.exit_code == 0, result.output
        assert "Accuracy" in result.output
        assert "nb" in result.output

    def test_report_row_matches_evaluate_row(self, tmp_path):
        events = simulate_stream(tmp_path / "sim")
        out = tmp_path / "eval"
        evaluated = run("evaluate", events, "--classifier", "nb",
                        "--out", out)
        reported = run("report", out / "metrics.json")
        assert reported.exit_code == 0, reported.output
        assert reported.output.splitlines()[:2] == \
            evaluated.output.splitlines()[:2]

    def test_report_malformed_json_exits_validation(self, tmp_path):
        metrics = tmp_path / "metrics.json"
        metrics.write_text("{not json", encoding="utf-8")
        result = run("report", metrics)
        assert result.exit_code == 2
        assert str(metrics) in result.output
        assert "Traceback" not in result.output

    def test_report_without_metrics_exits_validation(self, tmp_path):
        metrics = tmp_path / "metrics.json"
        metrics.write_text('{"schema_version": 1}', encoding="utf-8")
        result = run("report", metrics)
        assert result.exit_code == 2
        assert "classifier" in result.output
        assert "Accuracy" not in result.output


# The commands that read a stream, and the output each is given.
STREAM_COMMANDS = [
    ("analyze", "analysis"),
    ("select", "selected.json"),
    ("synthesize", "syn"),
    ("balance", "balanced.csv"),
    ("profile", "profiles.jsonl"),
]


@pytest.mark.parametrize("command,out", STREAM_COMMANDS)
def test_stream_without_rows_exits_validation(tmp_path, command, out):
    events = header_only_events(tmp_path)
    result = run(command, events, "--out", tmp_path / out)
    assert result.exit_code == 2, result.output
    assert f"no contributor-days in {events}" in result.output
    assert not (tmp_path / out).exists()


@pytest.mark.parametrize("text", ["{not json", "[1, 2]", '"x"', "42"])
@pytest.mark.parametrize("command,out", STREAM_COMMANDS + [("evaluate", "eval")])
def test_malformed_jsonl_stream_exits_validation(tmp_path, command, out, text):
    stream = tmp_path / "stream.jsonl"
    stream.write_text(text + "\n", encoding="utf-8")
    result = run(command, stream, "--out", tmp_path / out)
    assert result.exit_code == 2, result.output
    assert "error: line 1:" in result.output
    assert not (tmp_path / out).exists()


@pytest.mark.parametrize("command,out", STREAM_COMMANDS + [("evaluate", "eval")])
def test_surplus_csv_cells_exit_validation(tmp_path, command, out):
    events = simulate_stream(tmp_path / "sim")
    append_surplus_cells(events, 0)
    result = run(command, events, "--out", tmp_path / out)
    assert result.exit_code == 2, result.output
    assert "error: line 2: 2 cell(s) beyond the header" in result.output
    assert not (tmp_path / out).exists()


def events_line(events, index, edit):
    """Rewrite line ``index`` (0 is the header) of an events file, as
    bytes."""
    lines = events.read_bytes().split(b"\r\n")
    lines[index] = edit(lines[index])
    events.write_bytes(b"\r\n".join(lines))


@pytest.mark.parametrize("command,out", STREAM_COMMANDS + [("evaluate", "eval")])
def test_non_utf8_byte_exits_validation(tmp_path, command, out):
    events = simulate_stream(tmp_path / "sim")
    events_line(events, 3, lambda line: b"\xff" + line)
    result = run(command, events, "--out", tmp_path / out)
    assert result.exit_code == 2, result.output
    assert f"error: line 4: {events}: byte 0xff is not UTF-8" in result.output
    assert not (tmp_path / out).exists()


@pytest.mark.parametrize("command,out", STREAM_COMMANDS + [("evaluate", "eval")])
def test_cell_over_field_size_limit_exits_validation(tmp_path, command, out):
    events = simulate_stream(tmp_path / "sim")
    events_line(events, 2, lambda line: b"x" * 200_000 + line)
    result = run(command, events, "--out", tmp_path / out)
    assert result.exit_code == 2, result.output
    assert (f"error: line 3: {events}: field larger than field limit"
            in result.output)
    assert not (tmp_path / out).exists()


def test_byte_order_mark_is_read_past(tmp_path):
    events = simulate_stream(tmp_path / "sim")
    assert run("profile", events, "--out", tmp_path / "plain.jsonl"
               ).exit_code == 0
    events_line(events, 0, lambda header: b"\xef\xbb\xbf" + header)
    result = run("profile", events, "--out", tmp_path / "bom.jsonl")
    assert result.exit_code == 0, result.output
    assert (tmp_path / "bom.jsonl").read_bytes() == \
        (tmp_path / "plain.jsonl").read_bytes()


# Every command with a --seed option, with the arguments before it.
SEEDED_COMMANDS = [
    ("simulate",),
    ("evaluate", "--classifier", "rf"),
    ("evaluate", "--classifier", "bc"),
    ("evaluate", "--classifier", "stacking"),
    ("balance",),
    ("synthesize", "--count", 3),
]


@pytest.mark.parametrize("command", SEEDED_COMMANDS,
                         ids=lambda command: "-".join(
                             str(arg) for arg in command[::2]))
def test_negative_seed_exits_validation(tmp_path, command):
    events = simulate_stream(tmp_path / "sim")
    stream = () if command[0] == "simulate" else (events,)
    result = run(command[0], *stream, *command[1:], "--seed", -1,
                 "--out", tmp_path / "out")
    assert result.exit_code == 2, result.output
    assert "--seed" in result.output
    assert not (tmp_path / "out").exists()


# The commands that take a --config file, with the arguments before it.
CONFIG_COMMANDS = [("simulate",), ("evaluate", "STREAM")]


@pytest.mark.parametrize("command", CONFIG_COMMANDS,
                         ids=lambda command: command[0])
def test_non_utf8_config_byte_exits_validation(tmp_path, command):
    events = simulate_stream(tmp_path / "sim")
    config = tmp_path / "bad.cfg"
    config.write_bytes(b"seed = 1\n\xffdays = 3\n")
    args = [events if arg == "STREAM" else arg for arg in command]
    result = run(*args, "--config", config, "--out", tmp_path / "out")
    assert result.exit_code == 2, result.output
    assert "--config" in result.output
    assert f"line 2: {config}: byte 0xff is not UTF-8" in result.output
    assert not (tmp_path / "out").exists()


def test_config_byte_order_mark_is_read_past(tmp_path):
    config = tmp_path / "sim.conf"
    config.write_bytes(b"\xef\xbb\xbfdays = 3\nseed = 5\n")
    result = run("simulate", "--config", config, "--out", tmp_path / "bom")
    assert result.exit_code == 0, result.output
    run("simulate", "--days", 3, "--seed", 5, "--out", tmp_path / "ref")
    assert (tmp_path / "bom" / "events.csv").read_bytes() == \
        (tmp_path / "ref" / "events.csv").read_bytes()


def test_non_utf8_report_byte_exits_validation(tmp_path):
    metrics = tmp_path / "metrics.json"
    metrics.write_bytes(b'{"classifier":\n "\xff"}\n')
    result = run("report", metrics)
    assert result.exit_code == 2, result.output
    assert f"error: line 2: {metrics}: byte 0xff is not UTF-8" \
        in result.output


def test_report_reads_past_a_byte_order_mark(tmp_path):
    events = simulate_stream(tmp_path / "sim")
    run("evaluate", events, "--classifier", "nb", "--out", tmp_path / "eval")
    metrics = tmp_path / "eval" / "metrics.json"
    plain = run("report", metrics)
    metrics.write_bytes(b"\xef\xbb\xbf" + metrics.read_bytes())
    result = run("report", metrics)
    assert result.exit_code == 0, result.output
    assert result.output == plain.output


# Exit 3, a runtime failure: an output path under a regular file, per
# command that writes one, and an input path that is a directory.
@pytest.mark.parametrize("command,out", [
    ("simulate", "sim"), ("profile", "profiles.jsonl"), ("evaluate", "eval")])
def test_output_under_a_regular_file_exits_runtime(tmp_path, command, out):
    events = simulate_stream(tmp_path / "sim")
    blocker = tmp_path / "file"
    blocker.write_text("x", encoding="utf-8")
    stream = () if command == "simulate" else (events,)
    result = run(command, *stream, "--out", blocker / out)
    assert result.exit_code == 3, result.output
    assert "Not a directory" in result.output
    assert isinstance(result.exception, SystemExit)


@pytest.mark.parametrize("command,out", STREAM_COMMANDS + [("evaluate", "eval")])
def test_input_directory_exits_runtime(tmp_path, command, out):
    result = run(command, tmp_path, "--out", tmp_path / out)
    assert result.exit_code == 3, result.output
    assert f"Is a directory: '{tmp_path}'" in result.output
    assert not (tmp_path / out).exists()


def test_report_on_a_directory_exits_runtime(tmp_path):
    result = run("report", tmp_path)
    assert result.exit_code == 3, result.output
    assert "Is a directory" in result.output


# An output directory that cannot be written. Root writes anywhere, so
# the test runs only as another user.
@pytest.mark.skipif(os.geteuid() == 0,
                    reason="root can write to a read-only directory")
@pytest.mark.parametrize("command,out", [
    ("simulate", "sim"), ("profile", "profiles.jsonl"), ("evaluate", "eval")])
def test_unwritable_output_directory_exits_runtime(tmp_path, command, out):
    events = simulate_stream(tmp_path / "sim")
    locked = tmp_path / "locked"
    locked.mkdir(mode=0o500)
    stream = () if command == "simulate" else (events,)
    try:
        result = run(command, *stream, "--out", locked / out)
    finally:
        locked.chmod(0o700)
    assert result.exit_code == 3, result.output
    assert "Permission denied" in result.output
    assert isinstance(result.exception, SystemExit)


# A contributor-day whose links divide by too few review characters
# (three events of review length 1e-320 with 5 links each).
@pytest.mark.parametrize("command,out", STREAM_COMMANDS + [("evaluate", "eval")])
def test_overflowing_link_ratio_exits_validation(tmp_path, command, out):
    events = tmp_path / "events.csv"
    write_events([make_event(contributor_id="c9", review_length=1e-320,
                             links=5.0)] * 3
                 + [make_event(contributor_id=f"c{i}") for i in range(3)],
                 events)
    result = run(command, events, "--out", tmp_path / out)
    assert result.exit_code == 2, result.output
    assert "field 'f11': contributor 'c9' on 2020-01-01: non-finite " \
        "value inf" in result.output
    assert not (tmp_path / out).exists()


def overflowing_profile_stream(tmp_path):
    """An aggregate file whose rows are valid, but whose contributor
    'b' holds two review counts of 1.5e308: its profile sum overflows."""
    rows = aggregate_daily([
        make_event(contributor_id=cid, is_bot=bot, timestamp=day)
        for cid, bot, day in (("a", False, date(2020, 1, 1)),
                              ("b", False, date(2020, 1, 1)),
                              ("b", False, date(2020, 1, 2)),
                              ("c", True, date(2020, 1, 2)))])
    rows.values[rows.contributor_ids == "b", FEATURE_INDEX["3"]] = 1.5e308
    path = tmp_path / "stream.csv"
    write_aggregates(rows, path)
    return path


@pytest.mark.parametrize("command,out,message", [
    ("profile", "profiles.jsonl",
     "field 'sums.3': profile of 'b': non-finite value inf"),
    ("evaluate", "eval", "non-finite value for 3"),
    ("analyze", "analysis",
     "field '3': correlation overflows the float range")])
def test_overflowing_profile_sum_exits_validation(tmp_path, command, out,
                                                  message):
    result = run(command, overflowing_profile_stream(tmp_path),
                 "--out", tmp_path / out)
    assert result.exit_code == 2, result.output
    assert message in result.output


def test_select_names_the_feature_whose_scale_overflows(tmp_path):
    # pytest turns a RuntimeWarning into an error: none may be raised
    result = run("select", overflowing_profile_stream(tmp_path),
                 "--count", 5, "--out", tmp_path / "selected.json")
    assert result.exit_code == 2, result.output
    assert "field '3': scale overflows the float range" in result.output
    assert isinstance(result.exception, SystemExit)
    assert not (tmp_path / "selected.json").exists()
