"""
File ingestion: parse edit-event files, validate, aggregate per
contributor-day and emit a time-ordered stream.

Two on-disk schemas are supported:

* the event schema (one raw edit per row), and
* the aggregate schema (one contributor-day per row) used to persist
  balanced / synthetic streams. Aggregate files carry a ``synthetic``
  provenance column.

Each schema is one table of (column, parser) pairs. Every line-oriented
file of the package is written by ``write_rows``. Both schemas are read
column-wise. A plain CSV file is read in one ``np.loadtxt`` pass; any
other file (JSON lines, chosen by the ``.jsonl`` suffix, included), and
one that pass fails on, by the exact row reader: text, flag and date
cells are parsed per row, float cells go into one float matrix whose
range rules are checked in bulk.
"""

from __future__ import annotations

import csv
import json
from array import array
from dataclasses import asdict, dataclass, field
from datetime import datetime
from functools import lru_cache
from operator import itemgetter
from pathlib import Path

import numpy as np

from .model import (
    EVENT_COUNT_FIELDS,
    FEATURE_COLUMNS,
    FEATURE_INDEX,
    N_FEATURES,
    PROB_COLUMNS,
    AggregateBatch,
    EditEvent,
    ValidationError,
    check_finite,
    check_rows,
    contributor_slots,
    event_counts,
    flag_change_error,
    joint_class,
)


def _is_jsonl(path):
    return Path(path).suffix == ".jsonl"


_FLAGS = {"0": False, "false": False, "False": False,
          "1": True, "true": True, "True": True}


def _flag(raw):
    return _FLAGS[str(raw)]


@lru_cache(maxsize=1024)  # a stream spans few distinct days
def _day(raw):
    return datetime.fromisoformat(str(raw)).date()


# The file schemas: (column, parser) per column, in file order. An event
# row's columns follow EditEvent's fields, an aggregate row's are
# DailyAggregate's with ``synthetic`` moved ahead of the feature values.
# In both, the float columns are counts followed by PROB_COLUMNS.
EVENT_SCHEMA = (
    ("contributor_id", str), ("is_bot", _flag),
    ("page_id", str), ("timestamp", _day),
    *((name, float) for name in EVENT_COUNT_FIELDS),
    ("was_reverted", _flag),
    *((column, float) for column in PROB_COLUMNS))

AGGREGATE_SCHEMA = (
    ("contributor_id", str), ("day", _day),
    ("is_bot", _flag), ("synthetic", _flag),
    *((column, float) for column in FEATURE_COLUMNS))

# The message for a cell its column's parser rejects; {0} is the cell,
# {1} the cell as text.
_REJECTED = {
    _flag: "expected 0/1 boolean, got {1!r}",
    _day: "not an ISO-8601 date or datetime: {0!r}",
    float: "not a number: {0!r}",
}

EVENT_COLUMNS = tuple(column for column, _ in EVENT_SCHEMA)

AGGREGATE_COLUMNS = tuple(column for column, _ in AGGREGATE_SCHEMA)


def _text_lines(path, newline=None):
    """Yield the lines of the text file ``path``, read as UTF-8 with a
    leading byte-order mark dropped. A line holding a byte that is not
    UTF-8 raises ValidationError naming the file and the line."""
    with open(path, newline=newline, encoding="utf-8-sig",
              errors="surrogateescape") as handle:
        for line, text in enumerate(handle, start=1):
            if not text.isascii():
                try:
                    text.encode("utf-8")
                except UnicodeEncodeError as exc:
                    byte = ord(text[exc.start]) - 0xDC00  # the escaped byte
                    raise ValidationError(
                        f"{path}: byte 0x{byte:02x} is not UTF-8",
                        line=line) from None
            yield text


def _csv_rows(path):
    """Yield (cells, line number) per row of the CSV file ``path``, its
    header first, its lines read by ``_text_lines``. A cell longer than
    ``csv.field_size_limit()`` raises ValidationError naming its line."""
    reader = csv.reader(_text_lines(path, newline=""))
    try:
        for row in reader:
            yield row, reader.line_num
    except csv.Error as exc:
        raise ValidationError(f"{path}: {exc}",
                              line=reader.line_num) from None


def read_jsonl(path):
    """Yield (object, line number) per non-blank line of a JSON-lines
    file, its lines read by ``_text_lines``. A line that is not a JSON
    object raises ValidationError naming it."""
    for line, raw in enumerate(_text_lines(path), start=1):
        if not raw.strip():
            continue
        try:
            record = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"invalid JSON: {exc}", line=line) from None
        if not isinstance(record, dict):
            raise ValidationError("expected a JSON object", line=line)
        yield record, line


def _check_exists(path):
    if not Path(path).exists():
        raise ValidationError(f"file not found: {path}", field="path")


def _check_present(columns, cells, line):
    if None in cells or "" in cells:
        missing = [c for c, cell in zip(columns, cells) if cell in (None, "")]
        raise ValidationError(f"missing column(s) {missing}", line=line)


def _check_json_types(schema, cells, line):
    """Reject a JSON array or object in any column, and a JSON boolean
    outside the flag columns, naming the first such cell."""
    for (column, parse), cell in zip(schema, cells):
        if isinstance(cell, (list, dict)) or (
                isinstance(cell, bool) and parse is not _flag):
            raise ValidationError(f"unexpected JSON value {json.dumps(cell)}",
                                  field=column, line=line)


def _cells(path, schema):
    """Yield (cells, line number) per record of ``path``: its cells of
    the ``schema`` columns, in that order, as read. A file is JSON lines
    when its suffix is ``.jsonl``, CSV with a header otherwise; each
    column's header position is found once per file. A missing or empty
    cell, a CSV row with more cells than its header, a JSON value of the
    wrong type, and what ``_text_lines`` and ``_csv_rows`` reject raise
    ValidationError naming its line."""
    columns = [column for column, _ in schema]
    if _is_jsonl(path):
        for record, line in read_jsonl(path):
            cells = [record.get(c) for c in columns]
            _check_present(columns, cells, line)
            _check_json_types(schema, cells, line)
            yield cells, line
        return
    rows = _csv_rows(path)
    header = next(rows, ([], 0))[0]
    width = len(header)
    # the last of repeated header names wins; a column the header lacks
    # reads the empty cell appended to each row
    position = {column: i for i, column in enumerate(header)}
    take = itemgetter(*(position.get(c, width) for c in columns))
    for row, line in rows:
        if len(row) != width:
            if not row:
                continue
            if len(row) > width:
                raise ValidationError(
                    f"{len(row) - width} cell(s) beyond the header",
                    line=line)
            row += [""] * (width - len(row))
        row.append("")
        cells = take(row)
        _check_present(columns, cells, line)
        yield cells, line


def _reject(schema, cells, line):
    """Raise ValidationError for a row with a cell its parser rejects:
    the first such cell in schema order, unless a float cell before it
    is not finite (``check_finite``)."""
    values, names = [], []
    for (column, parse), cell in zip(schema, cells):
        try:
            value = parse(cell)
        except (TypeError, ValueError, OverflowError, KeyError):
            check_finite(values, names, line)
            raise ValidationError(_REJECTED[parse].format(cell, str(cell)),
                                  field=column, line=line) from None
        if parse is float:
            values.append(value)
            names.append(column)


def _exact_table(path, schema):
    """Read and check ``path`` row by row. Returns (rows, values): per
    row a list of its text, flag and date cells parsed, and the (rows, k)
    matrix of its k float cells, both in schema order.

    The first breach in file order raises ValidationError. A missing or
    surplus cell, or a cell its parser rejects, stops the read, and is
    raised once the rows before it pass ``check_rows``, which checks the
    range rules of every row read in bulk."""
    floats_at = [i for i, (_, parse) in enumerate(schema) if parse is float]
    others = [(i, parse) for i, (_, parse) in enumerate(schema)
              if parse is not float]
    floats = itemgetter(*floats_at)
    rows, values, lines, error = [], array("d"), [], None
    try:
        for cells, line in _cells(path, schema):
            try:
                row = [parse(cells[i]) for i, parse in others]
                values.extend(map(float, floats(cells)))
            except (TypeError, ValueError, OverflowError, KeyError):
                _reject(schema, cells, line)  # raises
            rows.append(row)
            lines.append(line)
    except ValidationError as exc:
        error = exc
    del values[len(rows) * len(floats_at):]  # a rejected row's cells
    values = np.frombuffer(values).reshape(len(rows), len(floats_at))
    n_counts = len(floats_at) - len(PROB_COLUMNS)
    check_rows(values[:, :n_counts], values[:, n_counts:],
               [schema[i][0] for i in floats_at[:n_counts]], lines)
    if error is not None:
        raise error
    return rows, values


def _plain_csv(path, columns):
    """Whether ``np.loadtxt`` reads ``path`` as ``csv.reader`` does, one
    data row per line: a CSV file (not ``.jsonl``) whose header line is
    ``columns`` in order, with at least one line after it. A binary scan
    in 1 MiB chunks finds no quote (csv.reader's quoting), no byte
    0x1c-0x1f (np.loadtxt strips them around a number as whitespace,
    float() rejects them), no blank line, no carriage return outside a
    CRLF line end and no line longer than ``csv.field_size_limit()``."""
    if _is_jsonl(path):
        return False
    header = ",".join(columns).encode()
    limit = csv.field_size_limit() + 1  # a line's bytes, its "\n" included
    with open(path, "rb") as handle:
        if handle.readline(len(header) + 2) not in (header + b"\n",
                                                    header + b"\r\n"):
            return False
        last, rows = -1, False  # the last "\n", relative to the chunk
        while chunk := handle.read(1 << 20):
            if chunk.endswith(b"\r"):  # keep a CRLF in one chunk
                chunk += handle.read(1)
            if any(byte in chunk for byte in b'"\x1c\x1d\x1e\x1f'):
                return False
            data = np.frombuffer(chunk, dtype=np.uint8)
            ends = np.flatnonzero(data == 10)
            crlf = (data[ends - 1] == 13) & (ends > 0)
            lengths = np.diff(ends, prepend=last)
            last = (ends[-1] if len(ends) else last) - len(chunk)
            if (np.count_nonzero(data == 13) != np.count_nonzero(crlf)
                    or (lengths - crlf <= 1).any()  # "\n" or "\r\n" alone
                    or (lengths > limit).any() or -last > limit):
                return False
            rows = True
    return rows


def _fast_table(path, schema):
    """``_exact_table``'s result as columns, for a ``_plain_csv`` file:
    one ``np.loadtxt`` pass, then the schema's parsers over the text,
    flag and date columns and ``check_rows`` over the float matrix.
    Raises ValueError, TypeError, KeyError or OverflowError on any file
    the exact reader rejects (and on some it accepts)."""
    table = np.loadtxt(
        path, dtype=[(column, float if parse is float else object)
                     for column, parse in schema],
        delimiter=",", skiprows=1, comments=None, encoding="utf-8", ndmin=1)
    floats = [column for column, parse in schema if parse is float]
    values = np.column_stack([table[column] for column in floats])
    others = [(table[column].tolist(), parse) for column, parse in schema
              if parse is not float]
    del table  # before the parsers run: it holds every cell
    if any("" in cells for cells, _ in others):  # a missing column
        raise ValueError("empty cell")
    columns = [cells if parse is str else list(map(parse, cells))
               for cells, parse in others]
    n_counts = len(floats) - len(PROB_COLUMNS)
    check_rows(values[:, :n_counts], values[:, n_counts:], floats[:n_counts],
               range(2, len(values) + 2))
    return columns, values


def _read_table(path, schema):
    """Read and check ``path`` column-wise. Returns (columns, values): a
    sequence per text, flag and date column of its cells parsed, and the
    (rows, k) matrix of the k float cells, both in schema order.

    A ``_plain_csv`` file is read by ``_fast_table``. Any other file, and
    one that the fast reader fails on, is read by ``_exact_table``, which
    raises ValidationError for the first breach in file order."""
    _check_exists(path)
    if _plain_csv(path, [column for column, _ in schema]):
        try:
            return _fast_table(path, schema)
        except (ValueError, TypeError, KeyError, OverflowError):
            pass  # a ValidationError or UnicodeDecodeError is a ValueError
    rows, values = _exact_table(path, schema)
    width = sum(parse is not float for _, parse in schema)
    return list(zip(*rows)) or [()] * width, values


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


_N_COUNTS = len(EVENT_COUNT_FIELDS)
_N_VALUES = _N_COUNTS + len(PROB_COLUMNS)
_N_SCALARS = N_FEATURES - len(PROB_COLUMNS)
_F3 = FEATURE_INDEX["3"]


@dataclass(eq=False)
class EventTable:
    """Edit events as columns: one list per text, flag and date field
    and one (events, 24) float matrix ``values`` of the count fields
    (EVENT_COUNT_FIELDS order) and then the probabilities (PROB_COLUMNS
    order). Iterating yields EditEvents. Two tables are equal when
    their columns are."""

    contributor_ids: list
    is_bot: list
    page_ids: list
    days: list
    was_reverted: list
    values: np.ndarray

    @classmethod
    def from_events(cls, events):
        return cls([e.contributor_id for e in events],
                   [e.is_bot for e in events],
                   [e.page_id for e in events],
                   [e.day for e in events],
                   [e.was_reverted for e in events],
                   np.array([(*event_counts(e), *e.probs) for e in events],
                            dtype=float).reshape(len(events), _N_VALUES))

    @classmethod
    def of(cls, events):
        """``events``, a table or a list of EditEvents, as a table."""
        return events if isinstance(events, cls) else cls.from_events(events)

    def __len__(self):
        return len(self.contributor_ids)

    def __eq__(self, other):
        if not isinstance(other, EventTable):
            return NotImplemented
        return (self.contributor_ids == other.contributor_ids
                and self.is_bot == other.is_bot
                and self.page_ids == other.page_ids
                and self.days == other.days
                and self.was_reverted == other.was_reverted
                and np.array_equal(self.values, other.values))

    def __iter__(self):
        for cid, bot, page, day, reverted, values in zip(
                self.contributor_ids, self.is_bot, self.page_ids, self.days,
                self.was_reverted, self.values.tolist()):
            yield EditEvent(cid, bot, page, day, *values[:_N_COUNTS],
                            reverted, tuple(values[_N_COUNTS:]))

    def check(self):
        """Check every event's range rules in bulk (``check_rows``)."""
        check_rows(self.values[:, :_N_COUNTS], self.values[:, _N_COUNTS:],
                   EVENT_COUNT_FIELDS)


def parse_events(path):
    """Parse and validate all edit events of a file, as an EventTable
    sorted by day then contributor id (file order within each).

    Raises ValidationError carrying the line number and field of the
    first breach in file order.
    """
    columns, values = _read_table(path, EVENT_SCHEMA)
    # contributor_id, is_bot, page_id, timestamp, was_reverted
    ids, days = columns[0], columns[3]
    order = sorted(range(len(values)), key=lambda i: (days[i], ids[i]))
    return EventTable(*([column[i] for i in order] for column in columns),
                      values[np.array(order, dtype=np.intp)])


def _check_bot_flags(contributor_ids, flags):
    """Reject a contributor whose ``is_bot`` flag changes between rows."""
    change = contributor_slots(contributor_ids, flags, {})[-1]
    if change is not None:
        raise flag_change_error(contributor_ids[change])


def aggregate_daily(events):
    """Fold events, an EventTable or a list of EditEvents, into an
    AggregateBatch of one row per (contributor, day).

    Counts are summed, probabilities averaged; the link ratios divide the
    day's total links by the day's total review characters. Each sum adds
    the day's events one by one in input order (``np.add.at``), as a
    Python loop would. Output sorted by day then contributor id. A
    contributor whose ``is_bot`` flag changes between events is
    rejected.
    """
    table = EventTable.of(events)
    _check_bot_flags(table.contributor_ids, table.is_bot)
    index = {}
    keys = zip(table.contributor_ids, table.days)
    group = np.fromiter((index.setdefault(key, len(index)) for key in keys),
                        dtype=np.intp, count=len(table))
    size = len(index)
    n = np.bincount(group, minlength=size).astype(float)
    sums = np.zeros((size, table.values.shape[1]))
    np.add.at(sums, group, table.values)
    pages = set(zip(group.tolist(), table.page_ids))
    n_pages = np.bincount(np.fromiter((g for g, _ in pages), dtype=np.intp,
                                      count=len(pages)),
                          minlength=size).astype(float)
    n_reverts = np.bincount(group, weights=table.was_reverted,
                            minlength=size)
    chars, links, repeated, inserted, deleted = sums[:, :_N_COUNTS].T
    has_chars = chars != 0

    # Features 3 to 14 come first in the catalogue, the probabilities
    # after them. One calendar day spans a single week, so the weekly
    # rates (7, 8) coincide with the day's counts.
    values = np.empty((size, N_FEATURES))
    values[:, :_N_SCALARS] = np.column_stack([
        n, chars / n, n_pages, n / n_pages, n, n_pages, n_reverts,
        n_reverts / n,
        np.divide(links, chars, out=np.zeros(size), where=has_chars),
        np.divide(repeated, chars, out=np.zeros(size), where=has_chars),
        inserted, deleted])
    values[:, _N_SCALARS:] = sums[:, _N_COUNTS:] / n[:, None]
    is_bot = np.empty(size, dtype=bool)
    is_bot[group] = table.is_bot
    return AggregateBatch(np.array([cid for cid, _ in index], dtype=object),
                          np.array([day for _, day in index],
                                   dtype="datetime64[D]"),
                          is_bot, np.zeros(size, dtype=bool), values).sorted()


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
    """Summarize a stream of aggregates, an AggregateBatch or a list of
    DailyAggregates.

    A contributor's joint class is the majority over its aggregates'
    labels, ties broken toward malign; its bot flag is its first
    aggregate's. ``n_pages`` needs the raw events, an EventTable or a
    list of EditEvents (aggregates only keep per-day distinct page
    counts), and is zero when they are not supplied.
    """
    batch = AggregateBatch.of(aggregates)
    codes, ids, _, is_bot, _, _ = contributor_slots(
        batch.contributor_ids.tolist(), batch.is_bot, {})
    positives = np.bincount(codes, weights=batch.contribution_type == 0,
                            minlength=len(ids))
    malign = positives <= np.bincount(codes, minlength=len(ids)) - positives
    joint = np.bincount(2 * is_bot + malign, minlength=4).tolist()
    n_bots = int(is_bot.sum())
    return DatasetSummary(
        n_pages=len(set(EventTable.of(events).page_ids)) if events else 0,
        n_contributors=len(ids),
        n_events=int(round(sum(batch.values[:, _F3].tolist()))),
        n_bots=n_bots,
        n_humans=len(ids) - n_bots,
        joint_histogram={joint_class(user, contribution):
                         joint[2 * user + contribution]
                         for user in (0, 1) for contribution in (0, 1)},
    )


def read_aggregates(path):
    """Read and validate a stream persisted in the aggregate schema.

    Rows are checked as event rows are (``check_rows``): every
    non-probability column finite and >= 0, ``f3`` at least 1, every
    probability group in [0, 1] summing to 1; the first breach in file
    order is named. A contributor whose ``is_bot`` flag changes between
    rows is rejected.
    """
    columns, values = _read_table(path, AGGREGATE_SCHEMA)
    ids, days, is_bot, synthetic = columns
    _check_bot_flags(ids, is_bot)
    return AggregateBatch(np.array(ids, dtype=object),
                          np.array(days, dtype="datetime64[D]"),
                          np.array(is_bot, dtype=bool),
                          np.array(synthetic, dtype=bool), values).sorted()


def write_aggregates(aggregates, path):
    """Persist aggregates, an AggregateBatch or a list of
    DailyAggregates, in the aggregate schema: JSON lines when the suffix
    is ``.jsonl``, CSV otherwise."""
    batch = AggregateBatch.of(aggregates)
    write_rows(([cid, day.isoformat(), int(bot), int(synthetic), *values]
                for cid, day, bot, values, synthetic in batch.cells()),
               AGGREGATE_COLUMNS, path)


def is_aggregate_file(path):
    """Sniff whether a file uses the aggregate schema (vs raw events):
    its first record has an ``f3`` column."""
    _check_exists(path)
    if _is_jsonl(path):
        for record, _ in read_jsonl(path):
            return "f3" in record
        return False
    rows = _csv_rows(path)
    return "f3" in next(rows, ([], 0))[0] and any(row for row, _ in rows)


def load_stream(path):
    """Load a time-ordered aggregate stream from either schema."""
    if is_aggregate_file(path):
        return read_aggregates(path)
    return aggregate_daily(parse_events(path))
