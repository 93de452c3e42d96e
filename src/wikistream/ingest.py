"""
File ingestion: parse edit-event files, validate, aggregate per
contributor-day and emit a time-ordered stream.

Two on-disk schemas are supported:

* the event schema (one raw edit per row), and
* the aggregate schema (one contributor-day per row) used to persist
  balanced / synthetic streams. Aggregate files carry a ``synthetic``
  provenance column.
"""

from __future__ import annotations

import csv
import json
import math
from collections import defaultdict
from dataclasses import dataclass, field
from datetime import date, datetime
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

EVENT_COLUMNS = (("contributor_id", "is_bot", "page_id", "timestamp")
                 + EVENT_COUNT_FIELDS + ("was_reverted",) + PROB_COLUMNS)

AGGREGATE_COLUMNS = (
    ("contributor_id", "day", "is_bot", "synthetic") + FEATURE_COLUMNS)


def _is_jsonl(path):
    return Path(path).suffix == ".jsonl"


def _parse_bool(raw, name, line):
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


def _event_from_record(record, line):
    missing = [c for c in EVENT_COLUMNS if record.get(c) in (None, "")]
    if missing:
        raise ValidationError(f"missing column(s) {missing}", line=line)
    event = EditEvent(
        contributor_id=str(record["contributor_id"]),
        is_bot=_parse_bool(str(record["is_bot"]), "is_bot", line),
        page_id=str(record["page_id"]),
        timestamp=_parse_day(record["timestamp"], "timestamp", line),
        **{name: _parse_float(record[name], name, line)
           for name in EVENT_COUNT_FIELDS},
        was_reverted=_parse_bool(str(record["was_reverted"]), "was_reverted", line),
        probs=tuple(_parse_float(record[c], c, line) for c in PROB_COLUMNS),
    )
    return event.validate(line=line)


def _iter_records(path):
    """Yield (record dict, line number) pairs from a file: JSON lines when
    its suffix is ``.jsonl``, CSV otherwise."""
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"file not found: {path}", field="path")
    if not _is_jsonl(path):
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.DictReader(handle)
            if reader.fieldnames is None:
                return
            for record in reader:
                yield record, reader.line_num
    else:
        with open(path, encoding="utf-8") as handle:
            for line_num, raw in enumerate(handle, start=1):
                raw = raw.strip()
                if not raw:
                    continue
                try:
                    record = json.loads(raw)
                except json.JSONDecodeError as exc:
                    raise ValidationError(f"invalid JSON: {exc}", line=line_num)
                yield record, line_num


def parse_events(path):
    """Parse and validate all edit events of a file.

    Raises ValidationError carrying the offending line number and field.
    """
    events = []
    for record, line in _iter_records(path):
        events.append(_event_from_record(record, line))
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
        return {
            "schema_version": 1,
            "n_pages": self.n_pages,
            "n_contributors": self.n_contributors,
            "n_events": self.n_events,
            "n_bots": self.n_bots,
            "n_humans": self.n_humans,
            "joint_histogram": dict(self.joint_histogram),
        }


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


def _aggregate_from_record(record, line):
    missing = [c for c in AGGREGATE_COLUMNS if record.get(c) in (None, "")]
    if missing:
        raise ValidationError(f"missing column(s) {missing}", line=line)
    values = tuple(_parse_float(record[c], c, line) for c in FEATURE_COLUMNS)
    return DailyAggregate(
        contributor_id=str(record["contributor_id"]),
        day=_parse_day(record["day"], "day", line),
        is_bot=_parse_bool(str(record["is_bot"]), "is_bot", line),
        values=values,
        synthetic=_parse_bool(str(record["synthetic"]), "synthetic", line),
    ).validate(line)


def read_aggregates(path):
    """Read and validate a stream persisted in the aggregate schema.

    Rows are checked as event rows are: every non-probability column
    finite and >= 0, every probability group in [0, 1] summing to 1.
    A contributor whose ``is_bot`` flag changes between rows is rejected.
    """
    aggregates = []
    for record, line in _iter_records(path):
        aggregates.append(_aggregate_from_record(record, line))
    _check_bot_flags(aggregates)
    aggregates.sort(key=lambda a: (a.day, a.contributor_id))
    return aggregates


def aggregate_to_record(agg):
    record = {
        "contributor_id": agg.contributor_id,
        "day": agg.day.isoformat(),
        "is_bot": int(agg.is_bot),
        "synthetic": int(agg.synthetic),
    }
    for column, value in zip(FEATURE_COLUMNS, agg.values):
        record[column] = repr(float(value))
    return record


def write_aggregates(aggregates, path):
    """Persist aggregates in the aggregate schema: JSON lines when the
    suffix is ``.jsonl``, CSV otherwise."""
    if _is_jsonl(path):
        with open(path, "w", encoding="utf-8") as handle:
            for agg in aggregates:
                record = aggregate_to_record(agg)
                record.update(zip(FEATURE_COLUMNS, agg.values))
                handle.write(json.dumps(record) + "\n")
    else:
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.DictWriter(handle, fieldnames=AGGREGATE_COLUMNS)
            writer.writeheader()
            for agg in aggregates:
                writer.writerow(aggregate_to_record(agg))


def is_aggregate_file(path):
    """Sniff whether a file uses the aggregate schema (vs raw events)."""
    if _is_jsonl(path):
        with open(path, encoding="utf-8") as handle:
            for raw in handle:
                raw = raw.strip()
                if raw:
                    return "f3" in json.loads(raw)
        return False
    with open(path, newline="", encoding="utf-8") as handle:
        header = handle.readline()
    return "f3" in header.split(",")


def load_stream(path):
    """Load a time-ordered aggregate stream from either schema."""
    if is_aggregate_file(path):
        return read_aggregates(path)
    return aggregate_daily(parse_events(path))
