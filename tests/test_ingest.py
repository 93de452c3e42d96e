import csv
from dataclasses import replace
from datetime import date

import pytest

from wikistream.ingest import (
    AGGREGATE_COLUMNS,
    EVENT_COLUMNS,
    aggregate_daily,
    load_stream,
    parse_events,
    read_aggregates,
    summarize,
    write_aggregates,
)
from wikistream.model import FEATURE_COLUMNS, ValidationError
from tests.test_model import make_event


def event_row(event):
    from wikistream.sim import event_to_record
    return event_to_record(event)


def write_event_csv(path, events):
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=EVENT_COLUMNS)
        writer.writeheader()
        for event in events:
            writer.writerow(event_row(event))


class TestParseEvents:
    def test_well_formed_file(self, tmp_path):
        path = tmp_path / "events.csv"
        write_event_csv(path, [make_event(contributor_id=f"c{i}")
                               for i in range(3)])
        events = parse_events(path)
        assert len(events) == 3

    def test_probability_group_violation_names_line(self, tmp_path):
        path = tmp_path / "events.csv"
        bad = make_event()
        row = event_row(bad)
        row["dmg_t"] = "0.7"
        row["dmg_f"] = "0.7"
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.DictWriter(handle, fieldnames=EVENT_COLUMNS)
            writer.writeheader()
            writer.writerow(event_row(make_event()))
            writer.writerow(row)
        with pytest.raises(ValidationError) as exc:
            parse_events(path)
        assert "probability group sum" in str(exc.value)
        assert "line 3" in str(exc.value)

    def test_empty_file_yields_empty_sequence(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("", encoding="utf-8")
        assert parse_events(path) == []

    def test_malformed_number_reports_field(self, tmp_path):
        path = tmp_path / "events.csv"
        row = event_row(make_event())
        row["links"] = "many"
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.DictWriter(handle, fieldnames=EVENT_COLUMNS)
            writer.writeheader()
            writer.writerow(row)
        with pytest.raises(ValidationError) as exc:
            parse_events(path)
        assert "links" in str(exc.value)

    def test_missing_path(self, tmp_path):
        with pytest.raises(ValidationError):
            parse_events(tmp_path / "nope.csv")

    def test_jsonl_round_trip(self, tmp_path):
        import json
        path = tmp_path / "events.jsonl"
        rows = [event_row(make_event(contributor_id=f"c{i}")) for i in range(2)]
        with open(path, "w", encoding="utf-8") as handle:
            for row in rows:
                handle.write(json.dumps(row) + "\n")
        assert len(parse_events(path)) == 2


class TestAggregateDaily:
    def test_mean_review_length(self):
        events = [make_event(review_length=10.0),
                  make_event(review_length=30.0)]
        aggs = aggregate_daily(events)
        assert len(aggs) == 1
        assert aggs[0].value("3") == 2
        assert aggs[0].value("4") == 20

    def test_revert_count(self):
        aggs = aggregate_daily([make_event(was_reverted=True)])
        assert aggs[0].value("9") == 1
        assert aggs[0].value("10") == 1.0

    def test_two_contributors_two_aggregates(self):
        events = [make_event(contributor_id="a"),
                  make_event(contributor_id="b")]
        assert len(aggregate_daily(events)) == 2

    def test_links_ratio_uses_total_characters(self):
        events = [make_event(review_length=50.0, links=5.0),
                  make_event(review_length=50.0, links=0.0)]
        aggs = aggregate_daily(events)
        assert aggs[0].value("11") == pytest.approx(5.0 / 100.0)

    def test_idempotent_on_one_event_per_day(self):
        events = [make_event(contributor_id=f"c{i}",
                             timestamp=date(2020, 1, 1 + i))
                  for i in range(4)]
        once = aggregate_daily(events)
        assert sum(a.value("3") for a in once) == len(events)
        assert all(a.value("3") == 1 for a in once)

    def test_event_count_preserved(self):
        events = [make_event(contributor_id=f"c{i % 3}",
                             timestamp=date(2020, 1, 1 + i % 2))
                  for i in range(20)]
        aggs = aggregate_daily(events)
        assert sum(a.value("3") for a in aggs) == 20

    def test_sorted_by_day_then_contributor(self):
        events = [make_event(contributor_id="z", timestamp=date(2020, 1, 2)),
                  make_event(contributor_id="a", timestamp=date(2020, 1, 2)),
                  make_event(contributor_id="m", timestamp=date(2020, 1, 1))]
        aggs = aggregate_daily(events)
        keys = [(a.day, a.contributor_id) for a in aggs]
        assert keys == sorted(keys)

    def test_bot_flag_change_rejected(self):
        events = [make_event(contributor_id="c7", timestamp=date(2020, 1, 1)),
                  make_event(contributor_id="c7", timestamp=date(2020, 1, 2),
                             is_bot=True)]
        with pytest.raises(ValidationError) as exc:
            aggregate_daily(events)
        assert exc.value.field == "is_bot"
        assert "c7" in str(exc.value)

    def test_probability_groups_stay_normalized(self):
        events = [make_event(art_ok=0.7, art_attack=0.1, art_spam=0.1,
                             art_vandalism=0.1),
                  make_event(art_ok=0.3, art_attack=0.3, art_spam=0.2,
                             art_vandalism=0.2)]
        agg = aggregate_daily(events)[0]
        total = sum(agg.value(f) for f in
                    ("17.ok", "17.attack", "17.spam", "17.vandalism"))
        assert total == pytest.approx(1.0, abs=1e-6)


class TestSummarize:
    def test_bot_and_human_counts(self):
        events = [make_event(contributor_id="bot1", is_bot=True),
                  make_event(contributor_id="h1"),
                  make_event(contributor_id="h2")]
        summary = summarize(aggregate_daily(events), events)
        assert summary.n_bots == 1
        assert summary.n_humans == 2
        assert summary.n_contributors == 3
        assert sum(summary.joint_histogram.values()) == 3

    def test_empty_stream(self):
        summary = summarize([])
        assert summary.n_contributors == 0
        assert summary.n_events == 0
        assert summary.n_bots == summary.n_humans == 0

    def test_tie_breaks_toward_malign(self):
        events = [make_event(timestamp=date(2020, 1, 1), art_ok=0.9,
                             art_attack=0.04, art_spam=0.03,
                             art_vandalism=0.03),
                  make_event(timestamp=date(2020, 1, 2), art_ok=0.1,
                             art_attack=0.4, art_spam=0.3,
                             art_vandalism=0.2)]
        summary = summarize(aggregate_daily(events))
        assert summary.joint_histogram["human-malign"] == 1


def with_columns(agg, **columns):
    """``agg`` with the given aggregate-file columns replaced."""
    values = list(agg.values)
    for column, value in columns.items():
        values[FEATURE_COLUMNS.index(column)] = value
    return replace(agg, values=tuple(values))


# Aggregate rows that break a column invariant, and the field named.
INVALID_AGGREGATE_COLUMNS = [
    ({"f4": -5.0}, "f4"),
    ({"dmg_t": 0.9, "dmg_f": 0.9}, "damaging"),
    ({"art_ok": 1.7}, "article_quality"),
]


class TestAggregateSchema:
    def test_round_trip(self, tmp_path):
        events = [make_event(contributor_id=f"c{i}", is_bot=i % 2 == 0)
                  for i in range(4)]
        aggs = aggregate_daily(events)
        path = tmp_path / "aggs.csv"
        write_aggregates(aggs, path)
        back = read_aggregates(path)
        assert back == aggs

    def test_jsonl_round_trip(self, tmp_path):
        aggs = aggregate_daily([make_event()])
        path = tmp_path / "aggs.jsonl"
        write_aggregates(aggs, path)
        assert read_aggregates(path) == aggs

    def test_load_stream_detects_schema(self, tmp_path):
        events = [make_event(contributor_id=f"c{i}") for i in range(3)]
        event_path = tmp_path / "events.csv"
        write_event_csv(event_path, events)
        aggs = load_stream(event_path)
        agg_path = tmp_path / "aggs.csv"
        write_aggregates(aggs, agg_path)
        assert load_stream(agg_path) == aggs

    def test_bot_flag_change_rejected(self, tmp_path):
        aggs = aggregate_daily([make_event(timestamp=date(2020, 1, 1)),
                                make_event(timestamp=date(2020, 1, 2))])
        path = tmp_path / "aggs.csv"
        write_aggregates([aggs[0], replace(aggs[1], is_bot=True)], path)
        with pytest.raises(ValidationError) as exc:
            load_stream(path)
        assert exc.value.field == "is_bot"

    @pytest.mark.parametrize("suffix,line", [(".csv", 3), (".jsonl", 2)])
    @pytest.mark.parametrize("columns,field", INVALID_AGGREGATE_COLUMNS)
    def test_invalid_row_names_line_and_field(self, tmp_path, suffix, line,
                                              columns, field):
        aggs = aggregate_daily([make_event(contributor_id=f"c{i}")
                                for i in range(2)])
        path = tmp_path / f"aggs{suffix}"
        write_aggregates([aggs[0], with_columns(aggs[1], **columns)], path)
        with pytest.raises(ValidationError) as exc:
            read_aggregates(path)
        assert exc.value.line == line and exc.value.field == field

    def test_synthetic_column_present(self):
        assert "synthetic" in AGGREGATE_COLUMNS


PROBABILITY_COLUMNS = (
    "dmg_t", "dmg_f", "gf_t", "gf_f",
    "item_a", "item_b", "item_c", "item_d", "item_e",
    "art_ok", "art_attack", "art_spam", "art_vandalism",
    "wp10_b", "wp10_c", "wp10_fa", "wp10_ga", "wp10_start", "wp10_stub",
)


class TestSchemas:
    def test_event_columns(self):
        assert EVENT_COLUMNS == (
            "contributor_id", "is_bot", "page_id", "timestamp",
            "review_length", "links", "repeated_links",
            "chars_inserted", "chars_deleted", "was_reverted",
        ) + PROBABILITY_COLUMNS

    def test_aggregate_columns(self):
        assert AGGREGATE_COLUMNS == (
            "contributor_id", "day", "is_bot", "synthetic",
            "f3", "f4", "f5", "f6", "f7", "f8", "f9", "f10",
            "f11", "f12", "f13", "f14",
        ) + PROBABILITY_COLUMNS
