import csv
import json
from dataclasses import replace
from datetime import date
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from wikistream import ingest
from wikistream.ingest import (
    AGGREGATE_COLUMNS,
    EVENT_COLUMNS,
    aggregate_daily,
    load_stream,
    parse_events,
    read_aggregates,
    summarize,
    write_aggregates,
    write_rows,
)
from wikistream.model import (
    EVENT_COUNT_FIELDS,
    PROB_COLUMNS,
    PROBABILITY_GROUPS,
    EditEvent,
    ValidationError,
)
from wikistream.sim import ARCHETYPE_NAMES, SimConfig, simulate, write_events
from tests.test_model import make_event


def rewrite_cells(path, index, **cells):
    """Replace cells of record ``index`` of a file that write_events or
    write_aggregates wrote. Values a constructor rejects reach the file
    this way."""
    path = Path(path)
    if path.suffix == ".jsonl":
        records = [json.loads(raw) for raw in
                   path.read_text(encoding="utf-8").splitlines()]
    else:
        with open(path, newline="", encoding="utf-8") as handle:
            records = list(csv.DictReader(handle))
    records[index].update(cells)
    write_rows([list(r.values()) for r in records], list(records[0]), path)


def append_surplus_cells(path, index):
    """Append two cells beyond the header to data row ``index`` of a
    CSV file."""
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[index + 1] = lines[index + 1].rstrip("\r\n") + ",surplus,cells\r\n"
    path.write_text("".join(lines), encoding="utf-8")


class TestParseEvents:
    def test_well_formed_file(self, tmp_path):
        path = tmp_path / "events.csv"
        write_events([make_event(contributor_id=f"c{i}") for i in range(3)],
                     path)
        events = parse_events(path)
        assert len(events) == 3

    def test_probability_group_violation_names_line(self, tmp_path):
        path = tmp_path / "events.csv"
        write_events([make_event(), make_event()], path)
        rewrite_cells(path, 1, dmg_t="0.7", dmg_f="0.7")
        with pytest.raises(ValidationError) as exc:
            parse_events(path)
        assert "probability group sum" in str(exc.value)
        assert "line 3" in str(exc.value)

    def test_empty_file_yields_empty_sequence(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("", encoding="utf-8")
        assert len(parse_events(path)) == 0

    def test_malformed_number_reports_field(self, tmp_path):
        path = tmp_path / "events.csv"
        write_events([make_event()], path)
        rewrite_cells(path, 0, links="many")
        with pytest.raises(ValidationError) as exc:
            parse_events(path)
        assert "links" in str(exc.value)

    def test_missing_path(self, tmp_path):
        with pytest.raises(ValidationError):
            parse_events(tmp_path / "nope.csv")

    def test_surplus_cells_rejected_with_line(self, tmp_path):
        path = tmp_path / "events.csv"
        write_events([make_event(contributor_id=f"c{i}") for i in range(2)],
                     path)
        append_surplus_cells(path, 0)
        with pytest.raises(ValidationError) as exc:
            parse_events(path)
        assert exc.value.line == 2
        assert "2 cell(s) beyond the header" in str(exc.value)

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        write_events([make_event(contributor_id=f"c{i}") for i in range(2)],
                     path)
        assert len(parse_events(path)) == 2

    def test_integer_beyond_float_range_names_field(self, tmp_path):
        path = tmp_path / "events.jsonl"
        write_events([make_event(contributor_id=f"c{i}") for i in range(2)],
                     path)
        rewrite_cells(path, 1, links=10 ** 400)
        with pytest.raises(ValidationError) as exc:
            parse_events(path)
        assert (exc.value.line, exc.value.field) == (2, "links")


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

    def test_long_days_fold_left_to_right(self):
        # Above 8 values numpy sums pairwise; the fold must still add
        # each day's events one by one in input order.
        rng = np.random.default_rng(5)
        events = []
        for i, size in enumerate((9, 10, 17, 64, 129, 300)):
            for _ in range(size):
                magnitudes = 10.0 ** rng.uniform(-3, 12, size=5)
                probs = [p for n in map(len, PROBABILITY_GROUPS)
                         for p in rng.dirichlet([0.05] * n).tolist()]
                events.append(EditEvent(
                    f"c{i % 2}", False, f"p{rng.integers(40)}",
                    date(2020, 1, 1 + i), *(magnitudes * (i != 1)).tolist(),
                    bool(rng.random() < 0.3), tuple(probs)))
        order = rng.permutation(len(events))
        events = [events[k] for k in order]
        for agg in aggregate_daily(events):
            members = [e for e in events if (e.contributor_id, e.day)
                       == (agg.contributor_id, agg.day)]
            assert agg.values == left_to_right_fold(members)


def left_to_right_fold(members):
    """A contributor-day's feature values, each sum a plain Python fold
    over ``members`` in order."""
    sums = {}
    for name in (*EVENT_COUNT_FIELDS, *range(len(PROB_COLUMNS))):
        total = 0.0
        for e in members:
            total += e.probs[name] if isinstance(name, int) \
                else getattr(e, name)
        sums[name] = total
    n = len(members)
    pages = len({e.page_id for e in members})
    reverts = sum(e.was_reverted for e in members)
    chars = sums["review_length"]
    return (n, chars / n, pages, n / pages, n, pages, reverts, reverts / n,
            sums["links"] / chars if chars else 0.0,
            sums["repeated_links"] / chars if chars else 0.0,
            sums["chars_inserted"], sums["chars_deleted"],
            *(sums[k] / n for k in range(len(PROB_COLUMNS))))


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


# Aggregate rows that break a column invariant, and the field named.
INVALID_AGGREGATE_COLUMNS = [
    ({"f4": -5.0}, "f4"),
    ({"dmg_t": 0.9, "dmg_f": 0.9}, "damaging"),
    ({"art_ok": 1.7}, "article_quality"),
    ({"f3": 0.5}, "f3"),
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
        write_events(events, event_path)
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
        write_aggregates(aggs, path)
        rewrite_cells(path, 1, **columns)
        with pytest.raises(ValidationError) as exc:
            read_aggregates(path)
        assert exc.value.line == line and exc.value.field == field

    def test_surplus_cells_rejected_with_line(self, tmp_path):
        aggs = aggregate_daily([make_event(contributor_id=f"c{i}")
                                for i in range(2)])
        path = tmp_path / "aggs.csv"
        write_aggregates(aggs, path)
        append_surplus_cells(path, 1)
        with pytest.raises(ValidationError) as exc:
            read_aggregates(path)
        assert exc.value.line == 3

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


def write_stream(path, schema):
    """Write two valid events, or their aggregates, to ``path``."""
    events = [make_event(contributor_id=f"c{i}") for i in range(2)]
    if schema == "events":
        write_events(events, path)
    else:
        write_aggregates(aggregate_daily(events), path)


# Rows holding two breaches, and the field named: within a row, a
# non-finite or malformed cell in schema order comes first, then the
# f3 floor, then the counts, then the probability groups.
NAN = float("nan")
TWO_BREACH_ROWS = [
    ("events", {"links": NAN, "was_reverted": "yes"}, "links"),
    ("events", {"chars_deleted": NAN, "links": -1.0}, "chars_deleted"),
    ("events", {"dmg_t": 0.7, "art_ok": NAN}, "art_ok"),
    ("aggregates", {"f4": NAN, "f5": "many"}, "f4"),
    ("aggregates", {"f10": NAN, "f3": 0.5}, "f10"),
    ("aggregates", {"f3": -1.5, "f4": -1.0}, "f3"),
    ("aggregates", {"dmg_t": 0.7, "art_ok": NAN}, "art_ok"),
]


@pytest.mark.parametrize("suffix,line", [(".csv", 3), (".jsonl", 2)])
@pytest.mark.parametrize("schema,cells,field", TWO_BREACH_ROWS)
def test_first_breach_within_row_is_named(tmp_path, suffix, line, schema,
                                          cells, field):
    path = tmp_path / f"stream{suffix}"
    write_stream(path, schema)
    rewrite_cells(path, 1, **cells)
    with pytest.raises(ValidationError) as exc:
        load_stream(path)
    assert (exc.value.line, exc.value.field) == (line, field)


# JSON values of the wrong type for their column: a boolean outside the
# flag columns, an array or object in any column.
WRONG_JSON_TYPES = [
    ("events", "links", True),
    ("events", "dmg_t", False),
    ("events", "contributor_id", [1, 2]),
    ("events", "page_id", {"id": 1}),
    ("events", "timestamp", True),
    ("events", "was_reverted", [0]),
    ("aggregates", "f4", True),
    ("aggregates", "contributor_id", [1, 2]),
    ("aggregates", "synthetic", {"value": 0}),
    ("aggregates", "art_ok", [0.25]),
]


@pytest.mark.parametrize("schema,column,value", WRONG_JSON_TYPES)
def test_wrong_json_type_names_line_and_field(tmp_path, schema, column,
                                              value):
    path = tmp_path / "stream.jsonl"
    write_stream(path, schema)
    rewrite_cells(path, 1, **{column: value})
    with pytest.raises(ValidationError) as exc:
        load_stream(path)
    assert (exc.value.line, exc.value.field) == (2, column)
    assert json.dumps(value) in exc.value.message


@pytest.mark.parametrize("schema", ["events", "aggregates"])
def test_json_booleans_read_in_flag_columns(tmp_path, schema):
    path = tmp_path / "stream.jsonl"
    write_stream(path, schema)
    expected = load_stream(path)
    rewrite_cells(path, 0, is_bot=False)
    rewrite_cells(path, 1, is_bot=False)
    assert load_stream(path) == expected


# The benchmark's two event streams at seed 0: (counts, events).
BENCHMARK_SHAPES = {
    "stacking": ({name: 200 for name in ARCHETYPE_NAMES}, 20_000),
    "balance-forests": ({"human-benign": 1000, "human-malign": 1000,
                         "bot-benign": 25, "bot-malign": 25}, 16_000),
}


@pytest.fixture(scope="module", params=sorted(BENCHMARK_SHAPES))
def benchmark_files(request, tmp_path_factory):
    """A benchmark shape's events file and its aggregate file."""
    counts, n_events = BENCHMARK_SHAPES[request.param]
    events, _ = simulate(SimConfig(counts=counts, n_days=30, seed=0,
                                   noise=0.1, target_events=n_events))
    out = tmp_path_factory.mktemp(request.param)
    write_events(events, out / "events.csv")
    write_aggregates(aggregate_daily(events), out / "stream.csv")
    return out / "events.csv", out / "stream.csv"


def assert_same_table(a, b):
    """Equal tables whose float matrices hold the same bytes."""
    assert a == b
    assert a.values.tobytes() == b.values.tobytes()


class TestReaderPaths:
    def test_written_files_skip_the_exact_reader(self, benchmark_files,
                                                 monkeypatch):
        events, stream = benchmark_files
        exact = (exact_outcome(parse_events, events),
                 exact_outcome(read_aggregates, stream))
        monkeypatch.setattr(ingest, "_exact_table", exact_reader_called)
        assert_same_table(parse_events(events), exact[0])
        assert_same_table(read_aggregates(stream), exact[1])
        assert_same_table(load_stream(events), aggregate_daily(exact[0]))
        assert_same_table(load_stream(stream), exact[1])

    @pytest.mark.parametrize("edit", [
        lambda text: text.replace("c0,", '"c,0",', 1),  # a quoted id
        lambda text: "\ufeff" + text,  # a byte-order mark
        lambda text: text.replace("\r\nc1", "\r\n\r\nc1"),  # a blank line
        lambda text: text.replace("\r\nc1", "\rc1"),  # a lone CR
        lambda text: text.replace(",100.0,", ",100.0\x1c,", 1),
    ])
    def test_other_files_take_the_exact_reader(self, tmp_path, monkeypatch,
                                               edit):
        path = tmp_path / "events.csv"
        write_events([make_event(contributor_id=f"c{i}") for i in range(2)],
                     path)
        text = path.read_bytes().decode()
        edited = edit(text)
        assert edited != text
        path.write_bytes(edited.encode())
        monkeypatch.setattr(ingest, "_exact_table", exact_reader_called)
        with pytest.raises(ExactReaderCalled):
            parse_events(path)

    @pytest.mark.parametrize("after,plain", [
        (b"\n", True),  # a CRLF split across two 1 MiB reads
        (b"\n\r\n", False),  # a blank line just past the split
        (b"a\r\n", False),  # a lone CR on the last byte of a read
    ])
    def test_scan_reads_line_ends_across_chunks(self, tmp_path, after,
                                                plain):
        # 1 000-byte lines after a 577-byte one put a "\r" on the last
        # byte of the first 1 MiB read
        body = b"b" * 575 + b"\r\n" + (b"a" * 998 + b"\r\n") * 1047
        body += b"a" * 998 + b"\r" + after + (b"a" * 998 + b"\r\n") * 60
        assert body[(1 << 20) - 1:1 << 20] == b"\r"
        path = tmp_path / "lines.csv"
        path.write_bytes(b"a\r\n" + body)
        assert ingest._plain_csv(path, ["a"]) is plain

    def test_header_only_file_reads_empty_without_warning(self, tmp_path):
        path = tmp_path / "events.csv"
        write_events([], path)
        assert len(parse_events(path)) == 0
        path = tmp_path / "stream.csv"
        write_aggregates([], path)
        assert len(read_aggregates(path)) == 0

    # Cells that np.loadtxt reads otherwise than the exact reader: an
    # empty text cell ('' where the exact reader finds a missing column),
    # a cell cut at "#" unless comments are off, "1_0" and non-ASCII
    # digits (float() reads them), 0x1c after a number (np.loadtxt strips
    # it, float() rejects it).
    @pytest.mark.parametrize("cell", ["", "c#", "#", "1_0", "\u0661",
                                      "1\x1c"])
    @pytest.mark.parametrize("schema", ["events", "aggregates"])
    def test_trap_cells_read_as_the_exact_reader_reads_them(
            self, tmp_path, schema, cell):
        read = parse_events if schema == "events" else read_aggregates
        columns = EVENT_COLUMNS if schema == "events" else AGGREGATE_COLUMNS
        for column in columns:
            path = tmp_path / f"{column}.csv"
            write_stream(path, schema)
            rewrite_cells(path, 1, **{column: cell})
            fast = read_outcome(read, path)
            exact = exact_outcome(read, path)
            assert type(fast) is type(exact), column
            assert fast == exact, column


def read_outcome(read, path):
    """What ``read`` makes of ``path``: its table, or the line, field and
    message of the ValidationError it raises."""
    try:
        return read(path)
    except ValidationError as exc:
        return exc.line, exc.field, exc.message


def exact_outcome(read, path):
    """``read_outcome`` with the fast CSV reader off."""
    with mock.patch.object(ingest, "_plain_csv", return_value=False):
        return read_outcome(read, path)


class ExactReaderCalled(Exception):
    pass


def exact_reader_called(path, schema):
    raise ExactReaderCalled(path)


class TestTextEdges:
    """Bytes that are not UTF-8, a leading byte-order mark and an
    oversized cell, in either schema and file format."""

    @pytest.mark.parametrize("suffix", [".csv", ".jsonl"])
    def test_non_utf8_byte_names_file_and_line(self, tmp_path, suffix):
        path = tmp_path / f"events{suffix}"
        write_events([make_event(contributor_id=f"c{i}") for i in range(3)],
                     path)
        path.write_bytes(path.read_bytes().replace(b"c1", b"c\xff", 1))
        with pytest.raises(ValidationError) as exc:
            load_stream(path)
        header = 1 if suffix == ".csv" else 0
        assert exc.value.line == 2 + header
        assert exc.value.message == f"{path}: byte 0xff is not UTF-8"

    def test_non_utf8_header_names_line_one(self, tmp_path):
        path = tmp_path / "stream.csv"
        write_stream(path, "aggregates")
        path.write_bytes(b"\xe9" + path.read_bytes())
        with pytest.raises(ValidationError) as exc:
            load_stream(path)
        assert exc.value.line == 1
        assert exc.value.message == f"{path}: byte 0xe9 is not UTF-8"

    @pytest.mark.parametrize("suffix", [".csv", ".jsonl"])
    @pytest.mark.parametrize("schema", ["events", "aggregates"])
    def test_byte_order_mark_is_accepted(self, tmp_path, suffix, schema):
        path = tmp_path / f"stream{suffix}"
        write_stream(path, schema)
        expected = load_stream(path)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert_same_table(load_stream(path), expected)

    @pytest.mark.parametrize("schema", ["events", "aggregates"])
    def test_cell_over_the_field_size_limit_names_its_line(self, tmp_path,
                                                           schema):
        path = tmp_path / "stream.csv"
        write_stream(path, schema)
        rewrite_cells(path, 1, contributor_id="c" * csv.field_size_limit())
        assert len(load_stream(path)) == 2  # at the limit
        rewrite_cells(path, 1, contributor_id="c" * (csv.field_size_limit()
                                                     + 1))
        with pytest.raises(ValidationError) as exc:
            load_stream(path)
        assert exc.value.line == 3
        assert "field larger than field limit" in exc.value.message
