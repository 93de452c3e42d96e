"""
File ingestion: parse edit-event files, validate, aggregate per
contributor-day and emit a time-ordered stream.

Two on-disk schemas are supported:

* the event schema (one raw edit per row), and
* the aggregate schema (one contributor-day per row) used to persist
  balanced / synthetic streams. Aggregate files carry a ``synthetic``
  provenance column.

Each schema is one table of (column, parser) pairs. Every line-oriented
file of the package is written by ``write_rows`` and read through one
CSV and one JSON-lines reader, chosen by the ``.jsonl`` suffix.
"""

from __future__ import annotations

import csv
import json
import math
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from datetime import datetime
from pathlib import Path

from .model import (
    EVENT_COUNT_FIELDS,
    FEATURE_COLUMNS,
    FEATURE_IDS,
    FEATURE_INDEX,
    PROB_COLUMNS,
    PROB_FEATURE_IDS,
    DailyAggregate,
    EditEvent,
    ValidationError,
    joint_class,
)


def _is_jsonl(path):
    return Path(path).suffix == ".jsonl"


def _parse_str(raw, name, line):
    return str(raw)


def _parse_bool(raw, name, line):
    raw = str(raw)
    if raw in ("0", "false", "False"):
        return False
    if raw in ("1", "true", "True"):
        return True
    raise ValidationError(f"expected 0/1 boolean, got {raw!r}", field=name, line=line)


def _parse_float(raw, name, line):
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise ValidationError(f"not a number: {raw!r}", field=name, line=line)
    if not math.isfinite(value):
        raise ValidationError(f"non-finite value {raw!r}", field=name, line=line)
    return value


def _parse_day(raw, name, line):
    try:
        return datetime.fromisoformat(str(raw)).date()
    except ValueError:
        raise ValidationError(
            f"not an ISO-8601 date or datetime: {raw!r}", field=name, line=line)


# The file schemas: (column, parser) per column, in file order. An event
# row's columns follow EditEvent's fields, an aggregate row's are
# DailyAggregate's with ``synthetic`` moved ahead of the feature values.
EVENT_SCHEMA = (
    ("contributor_id", _parse_str), ("is_bot", _parse_bool),
    ("page_id", _parse_str), ("timestamp", _parse_day),
    *((name, _parse_float) for name in EVENT_COUNT_FIELDS),
    ("was_reverted", _parse_bool),
    *((column, _parse_float) for column in PROB_COLUMNS))

AGGREGATE_SCHEMA = (
    ("contributor_id", _parse_str), ("day", _parse_day),
    ("is_bot", _parse_bool), ("synthetic", _parse_bool),
    *((column, _parse_float) for column in FEATURE_COLUMNS))

EVENT_COLUMNS = tuple(column for column, _ in EVENT_SCHEMA)

AGGREGATE_COLUMNS = tuple(column for column, _ in AGGREGATE_SCHEMA)

# Columns of an event row before its probabilities.
_N_EVENT_SCALARS = len(EVENT_COLUMNS) - len(PROB_COLUMNS)


def read_jsonl(path):
    """Yield (object, line number) per non-blank line of a JSON-lines
    file. A line that is not a JSON object raises ValidationError
    naming it."""
    with open(path, encoding="utf-8") as handle:
        for line, raw in enumerate(handle, start=1):
            if not raw.strip():
                continue
            try:
                record = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"invalid JSON: {exc}",
                                      line=line) from None
            if not isinstance(record, dict):
                raise ValidationError("expected a JSON object", line=line)
            yield record, line


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        for record in reader:
            yield record, reader.line_num


def _records(path):
    """(record dict, line number) pairs of a file: JSON lines when its
    suffix is ``.jsonl``, CSV with a header otherwise."""
    if not Path(path).exists():
        raise ValidationError(f"file not found: {path}", field="path")
    return read_jsonl(path) if _is_jsonl(path) else _read_csv(path)


def _read_rows(path, schema):
    """Yield (row, line number) per record of ``path``: the row lists
    ``schema``'s columns, each parsed. A missing or unparsable cell, or
    a CSV row with more cells than its header (filed under the key
    None), raises ValidationError naming its line (and column)."""
    for record, line in _records(path):
        if None in record:
            raise ValidationError(
                f"{len(record[None])} cell(s) beyond the header", line=line)
        missing = [c for c, _ in schema if record.get(c) in (None, "")]
        if missing:
            raise ValidationError(f"missing column(s) {missing}", line=line)
        yield [parse(record[c], c, line) for c, parse in schema], line


def write_rows(rows, columns, path):
    """Write ``rows``, sequences of cells in ``columns`` order, to
    ``path``: one JSON object per line when its suffix is ``.jsonl``,
    CSV under a header row otherwise. Cells are written as they are:
    str, int (0/1 for a flag) or float (written as its repr)."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        if _is_jsonl(path):
            handle.writelines(json.dumps(dict(zip(columns, row))) + "\n"
                              for row in rows)
        else:
            writer = csv.writer(handle)
            writer.writerow(columns)
            writer.writerows(rows)


def parse_events(path):
    """Parse and validate all edit events of a file.

    Raises ValidationError carrying the offending line number and field.
    """
    events = [EditEvent(*row[:_N_EVENT_SCALARS],
                        tuple(row[_N_EVENT_SCALARS:])).validate(line)
              for row, line in _read_rows(path, EVENT_SCHEMA)]
    events.sort(key=lambda e: (e.day, e.contributor_id))
    return events


def _check_bot_flags(rows):
    """Reject a contributor whose ``is_bot`` flag changes between rows."""
    first = {}
    for row in rows:
        if first.setdefault(row.contributor_id, row.is_bot) != row.is_bot:
            raise ValidationError(
                f"contributor {row.contributor_id!r} changes its is_bot "
                "flag between rows", field="is_bot")


def aggregate_daily(events):
    """Fold validated events into one DailyAggregate per (contributor, day).

    Counts are summed, probabilities averaged; the link ratios divide the
    day's total links by the day's total review characters. Output sorted
    by day then contributor id. A contributor whose ``is_bot`` flag
    changes between events is rejected.
    """
    _check_bot_flags(events)
    groups = defaultdict(list)
    for event in events:
        groups[(event.contributor_id, event.day)].append(event)

    aggregates = []
    for (contributor_id, day), members in groups.items():
        n = len(members)
        total_chars = sum(e.review_length for e in members)
        n_pages = len({e.page_id for e in members})
        n_reverts = sum(1 for e in members if e.was_reverted)
        values = [0.0] * len(FEATURE_IDS)
        values[FEATURE_INDEX["3"]] = float(n)
        values[FEATURE_INDEX["4"]] = total_chars / n
        values[FEATURE_INDEX["5"]] = float(n_pages)
        values[FEATURE_INDEX["6"]] = n / n_pages
        # One calendar day spans a single week, so the weekly rates
        # coincide with the day's counts.
        values[FEATURE_INDEX["7"]] = float(n)
        values[FEATURE_INDEX["8"]] = float(n_pages)
        values[FEATURE_INDEX["9"]] = float(n_reverts)
        values[FEATURE_INDEX["10"]] = n_reverts / n
        links = sum(e.links for e in members)
        repeated = sum(e.repeated_links for e in members)
        values[FEATURE_INDEX["11"]] = links / total_chars if total_chars else 0.0
        values[FEATURE_INDEX["12"]] = repeated / total_chars if total_chars else 0.0
        values[FEATURE_INDEX["13"]] = sum(e.chars_inserted for e in members)
        values[FEATURE_INDEX["14"]] = sum(e.chars_deleted for e in members)
        columns = zip(*(e.probs for e in members))
        for feature_id, column in zip(PROB_FEATURE_IDS, columns):
            values[FEATURE_INDEX[feature_id]] = sum(column) / n
        aggregates.append(DailyAggregate(
            contributor_id=contributor_id,
            day=day,
            is_bot=members[0].is_bot,
            values=tuple(values),
        ))
    aggregates.sort(key=lambda a: (a.day, a.contributor_id))
    return aggregates


@dataclass
class DatasetSummary:
    """Headline counts of a stream, at contributor granularity."""

    n_pages: int = 0
    n_contributors: int = 0
    n_events: int = 0
    n_bots: int = 0
    n_humans: int = 0
    joint_histogram: dict = field(default_factory=dict)

    def to_dict(self):
        return {"schema_version": 1, **asdict(self)}


def summarize(aggregates, events=None):
    """Summarize a stream of aggregates.

    A contributor's joint class is the majority over its aggregates'
    labels, ties broken toward malign. ``n_pages`` needs the raw events
    (aggregates only keep per-day distinct page counts) and is zero when
    they are not supplied.
    """
    per_contributor = defaultdict(list)
    for agg in aggregates:
        per_contributor[agg.contributor_id].append(agg)

    histogram = {name: 0 for name in
                 ("human-benign", "human-malign", "bot-benign", "bot-malign")}
    n_bots = 0
    for members in per_contributor.values():
        user_type = members[0].user_type
        n_bots += user_type
        positives = sum(1 for a in members if a.contribution_type == 0)
        negatives = len(members) - positives
        contribution = 0 if positives > negatives else 1
        histogram[joint_class(user_type, contribution)] += 1

    return DatasetSummary(
        n_pages=len({e.page_id for e in events}) if events else 0,
        n_contributors=len(per_contributor),
        n_events=int(round(sum(a.value("3") for a in aggregates))),
        n_bots=n_bots,
        n_humans=len(per_contributor) - n_bots,
        joint_histogram=histogram,
    )


def read_aggregates(path):
    """Read and validate a stream persisted in the aggregate schema.

    Rows are checked as event rows are: every non-probability column
    finite and >= 0, every probability group in [0, 1] summing to 1.
    A contributor whose ``is_bot`` flag changes between rows is rejected.
    """
    aggregates = []
    for row, line in _read_rows(path, AGGREGATE_SCHEMA):
        contributor_id, day, is_bot, synthetic = row[:4]
        try:
            agg = DailyAggregate(contributor_id, day, is_bot,
                                 tuple(row[4:]), synthetic)
        except ValidationError as exc:
            raise exc.at(line) from None
        aggregates.append(agg.validate(line))
    _check_bot_flags(aggregates)
    aggregates.sort(key=lambda a: (a.day, a.contributor_id))
    return aggregates


def write_aggregates(aggregates, path):
    """Persist aggregates in the aggregate schema: JSON lines when the
    suffix is ``.jsonl``, CSV otherwise."""
    write_rows(((a.contributor_id, a.day.isoformat(), int(a.is_bot),
                 int(a.synthetic), *map(float, a.values))
                for a in aggregates), AGGREGATE_COLUMNS, path)


def is_aggregate_file(path):
    """Sniff whether a file uses the aggregate schema (vs raw events):
    its first record has an ``f3`` column."""
    for record, _ in _records(path):
        return "f3" in record
    return False


def load_stream(path):
    """Load a time-ordered aggregate stream from either schema."""
    if is_aggregate_file(path):
        return read_aggregates(path)
    return aggregate_daily(parse_events(path))
