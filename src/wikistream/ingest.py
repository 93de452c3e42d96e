"""
File ingestion: parse edit-event files, validate, aggregate per
contributor-day and emit a time-ordered stream.

Two on-disk schemas are supported:

* the event schema (one raw edit per row), and
* the aggregate schema (one contributor-day per row) used to persist
  balanced / synthetic streams. Aggregate files carry a ``synthetic``
  provenance column.

Each schema is one table of (column, parser) pairs. Every line-oriented
file of the package is written by ``write_table``. Both schemas are read
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
from itertools import repeat
from operator import itemgetter
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .model import (
    EVENT_COUNT_FIELDS,
    FEATURE_COLUMNS,
    FEATURE_INDEX,
    N_FEATURES,
    PROB_COLUMNS,
    ROW_BLOCK,
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


def coded(cells, parse=None):
    """A column as (codes, distinct): ``distinct`` the sorted distinct
    values of ``cells``, each parsed once by ``parse`` when it is given,
    and ``codes`` per cell the index of its value in ``distinct``, an
    intp array. Code order is value order, and two cells that parse to
    one value share its code."""
    index = dict.fromkeys(cells)
    parsed = list(index) if parse is None else list(map(parse, index))
    distinct = sorted(set(parsed))
    rank = dict(zip(distinct, range(len(distinct))))
    index = dict(zip(index, map(rank.__getitem__, parsed)))
    return (np.fromiter(map(index.__getitem__, cells), dtype=np.intp,
                        count=len(cells)), distinct)


def _fast_table(path, schema):
    """``_read_table``'s result for a ``_plain_csv`` file: one
    ``np.loadtxt`` pass, then the text, flag and date columns coded with
    their parsers run once per distinct cell, and ``check_rows`` over the
    float matrix. Raises ValueError, TypeError, KeyError or OverflowError
    on any file the exact reader rejects (and on some it accepts)."""
    table = np.loadtxt(
        path, dtype=[(column, float if parse is float else object)
                     for column, parse in schema],
        delimiter=",", skiprows=1, comments=None, encoding="utf-8", ndmin=1)
    floats = [column for column, parse in schema if parse is float]
    values = np.column_stack([table[column] for column in floats])
    others = [(table[column].tolist(), parse) for column, parse in schema
              if parse is not float]
    del table  # before the coding: it holds every cell
    columns = [coded(cells, parse) for cells, parse in others]
    if any("" in distinct for _, distinct in columns):  # a missing column
        raise ValueError("empty cell")
    n_counts = len(floats) - len(PROB_COLUMNS)
    check_rows(values[:, :n_counts], values[:, n_counts:], floats[:n_counts],
               range(2, len(values) + 2))
    return columns, values


def _read_table(path, schema):
    """Read and check ``path`` column-wise. Returns (columns, values): per
    text, flag and date column its parsed cells ``coded``, and the
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
    return [coded(cells) for cells in list(zip(*rows)) or [()] * width], \
        values


def _flags(column):
    """A ``coded`` flag column as a bool array."""
    codes, distinct = column
    return np.array(distinct, dtype=bool)[codes]


class _CsvCells:
    """Renders a list of cells as the texts ``csv.writer`` writes for
    them in a row of ``width`` cells under ``dialect``. Cells that are
    all ints and floats are their reprs, as csv formats them. Any other
    cell is rendered by a writer of that dialect, a str once per file;
    other types are not kept, since equal values may differ in text
    (``-0.0`` and ``0.0``). The dialect decides the quoting (Python 3.11
    does not quote a lone ``\\r`` under a ``\\n`` line end), and csv
    quotes an empty cell only alone in its row, so a cell is rendered
    beside an empty second cell when the row has one."""

    def __init__(self, dialect, width):
        self._lines = []
        self._writer = csv.writer(SimpleNamespace(write=self._lines.append),
                                  dialect)
        self._pad = (repeat(""),) if width > 1 else ()
        self._trim = itemgetter(slice(None, -len(
            dialect.delimiter * len(self._pad) + dialect.lineterminator)))
        self._texts = {}

    def _render(self, cells):
        self._writer.writerows(zip(cells, *self._pad))
        texts = list(map(self._trim, self._lines))
        self._lines.clear()
        return texts

    def __call__(self, cells):
        kinds = set(map(type, cells))
        if kinds <= {int, float}:
            return list(map(repr, cells))
        if kinds != {str}:
            return self._render(cells)
        new = list(set(cells).difference(self._texts))
        self._texts.update(zip(new, self._render(new)))
        return list(map(self._texts.__getitem__, cells))


def _block_cells(columns, block, render=None):
    """The cells of the rows in ``block``, a slice, of ``write_table``'s
    ``columns``: one list per file column, of Python values, or of text
    when ``render`` (a ``_CsvCells``) is given and each coded column's
    ``distinct`` holds its rendered values."""
    cells = []
    for column in columns:
        if isinstance(column, tuple):
            codes, distinct = column
            cells.append(list(map(distinct.__getitem__,
                                  codes[block].tolist())))
        elif isinstance(column, np.ndarray) and column.dtype.kind in "biuf":
            part = column[block]
            values = part.T.tolist() if part.ndim == 2 else [part.tolist()]
            cells.extend(values if render is None
                         else [list(map(repr, value)) for value in values])
        else:
            part = column[block]
            values = part.tolist() if isinstance(part, np.ndarray) else part
            cells.append(values if render is None else render(values))
    return cells


def write_table(columns, header, path):
    """Write the table of ``columns``, each of one length, under
    ``header`` to ``path``: one JSON object per line when its suffix is
    ``.jsonl``, CSV otherwise, in the bytes that ``json.dumps`` or
    ``csv.writer`` gives its rows. A column is one of

    - a bool, int or float array, one file column per column of a 2-D
      array, each cell written as its Python value's repr;
    - a tuple (codes, distinct), as ``coded`` gives: per row the value
      ``distinct[code]``, each distinct value rendered once;
    - any other sequence of cells: str, int, float or any value
      ``csv.writer`` writes.

    Rows are converted ROW_BLOCK at a time; a CSV block is each column's
    cells as text, joined by the dialect's delimiter and line end."""
    first = columns[0]
    n = len(first[0] if isinstance(first, tuple) else first)
    blocks = (slice(start, start + ROW_BLOCK)
              for start in range(0, n, ROW_BLOCK))
    with open(path, "w", newline="", encoding="utf-8") as handle:
        if _is_jsonl(path):
            for block in blocks:
                handle.writelines(json.dumps(dict(zip(header, row))) + "\n"
                                  for row in zip(*_block_cells(columns, block)))
            return
        writer = csv.writer(handle)
        writer.writerow(header)
        render = _CsvCells(writer.dialect, len(header))
        columns = [(column[0], render(list(column[1])))
                   if isinstance(column, tuple) else column
                   for column in columns]
        delimiter = writer.dialect.delimiter
        terminator = writer.dialect.lineterminator
        for block in blocks:
            handle.write(terminator.join(map(
                delimiter.join, zip(*_block_cells(columns, block, render)))))
            handle.write(terminator)


def write_rows(rows, columns, path):
    """Write ``rows``, sequences of cells in ``columns`` order, to
    ``path`` (``write_table``, its columns the rows' cells)."""
    cells = [list(column) for column in zip(*rows)]
    write_table(cells or [[]] * len(columns), columns, path)


_N_COUNTS = len(EVENT_COUNT_FIELDS)
_N_VALUES = _N_COUNTS + len(PROB_COLUMNS)
_N_SCALARS = N_FEATURES - len(PROB_COLUMNS)
_F3 = FEATURE_INDEX["3"]


def _decoded(codes, distinct):
    """The values of ``coded`` column (codes, distinct), as a list."""
    return list(map(distinct.__getitem__, codes.tolist()))


@dataclass(eq=False)
class EventTable:
    """Edit events as columns, in EditEvent's field order. Contributor
    ids, pages and days are intp arrays of codes (``id_codes``,
    ``page_codes``, ``day_codes``) into sorted tables of their distinct
    values (``ids``, ``pages``, ``dates``), so code order is value
    order. The flags are bool arrays, and ``values`` is the (events, 24)
    float matrix of the count fields (EVENT_COUNT_FIELDS order) and then
    the probabilities (PROB_COLUMNS order).

    Each field reads as a list too: ``contributor_ids``, ``is_bot``,
    ``page_ids``, ``days`` and ``was_reverted``. Iterating yields
    EditEvents. Two tables are equal when those lists and ``values``
    are, whatever values their distinct tables hold."""

    id_codes: np.ndarray
    ids: list
    bot_flags: np.ndarray
    page_codes: np.ndarray
    pages: list
    day_codes: np.ndarray
    dates: list
    reverted_flags: np.ndarray
    values: np.ndarray

    @classmethod
    def from_events(cls, events):
        return cls(*coded([e.contributor_id for e in events]),
                   np.array([e.is_bot for e in events], dtype=bool),
                   *coded([e.page_id for e in events]),
                   *coded([e.day for e in events]),
                   np.array([e.was_reverted for e in events], dtype=bool),
                   np.array([(*event_counts(e), *e.probs) for e in events],
                            dtype=float).reshape(len(events), _N_VALUES))

    @classmethod
    def of(cls, events):
        """``events``, a table or a list of EditEvents, as a table."""
        return events if isinstance(events, cls) else cls.from_events(events)

    @property
    def contributor_ids(self):
        return _decoded(self.id_codes, self.ids)

    @property
    def is_bot(self):
        return self.bot_flags.tolist()

    @property
    def page_ids(self):
        return _decoded(self.page_codes, self.pages)

    @property
    def days(self):
        return _decoded(self.day_codes, self.dates)

    @property
    def was_reverted(self):
        return self.reverted_flags.tolist()

    def __len__(self):
        return len(self.id_codes)

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
    (ids, id_table), bots, (pages, page_table), (days, dates), reverted = \
        columns
    order = np.lexsort((ids, days))
    return EventTable(ids[order], id_table, _flags(bots)[order],
                      pages[order], page_table, days[order], dates,
                      _flags(reverted)[order], values[order])


def _check_bot_flags(ids, codes, flags):
    """Reject a contributor whose ``is_bot`` flag changes between rows,
    naming the first row, in the given order, whose flag differs from
    its contributor's first row's. ``codes`` index the distinct
    ``ids``."""
    present, first = np.unique(codes, return_index=True)
    first_flags = np.empty(len(ids), dtype=bool)
    first_flags[present] = flags[first]
    changed = np.flatnonzero(flags != first_flags[codes])
    if changed.size:
        raise flag_change_error(ids[codes[changed[0]]])


def aggregate_daily(events):
    """Fold events, an EventTable or a list of EditEvents, into an
    AggregateBatch of one row per (contributor, day).

    Counts are summed, probabilities averaged; the link ratios divide the
    day's total links by the day's total review characters. Each sum adds
    the day's events one by one in input order (``np.add.at``), as a
    Python loop would. Output sorted by day then contributor id. A
    contributor whose ``is_bot`` flag changes between events is
    rejected, and so is a contributor-day whose sums overflow or whose
    links divide by too few review characters: the first non-finite
    value raises ValidationError naming its contributor, day and
    aggregate column.
    """
    table = EventTable.of(events)
    _check_bot_flags(table.ids, table.id_codes, table.bot_flags)
    # codes are in value order, so the groups come out in (day, id) order
    n_ids, n_page_ids = len(table.ids), len(table.pages)
    keys, first, group = np.unique(table.day_codes * n_ids + table.id_codes,
                                   return_index=True, return_inverse=True)
    size = len(keys)
    n = np.bincount(group, minlength=size).astype(float)
    sums = np.zeros((size, table.values.shape[1]))
    with np.errstate(over="ignore"):  # checked below
        np.add.at(sums, group, table.values)
    pages = np.unique(group * n_page_ids + table.page_codes)
    n_pages = np.bincount(pages // n_page_ids, minlength=size).astype(float)
    n_reverts = np.bincount(group, weights=table.reverted_flags,
                            minlength=size)
    chars, links, repeated, inserted, deleted = sums[:, :_N_COUNTS].T
    has_chars = chars != 0

    # Features 3 to 14 come first in the catalogue, the probabilities
    # after them. One calendar day spans a single week, so the weekly
    # rates (7, 8) coincide with the day's counts.
    values = np.empty((size, N_FEATURES))
    with np.errstate(over="ignore", invalid="ignore"):
        values[:, :_N_SCALARS] = np.column_stack([
            n, chars / n, n_pages, n / n_pages, n, n_pages, n_reverts,
            n_reverts / n,
            np.divide(links, chars, out=np.zeros(size), where=has_chars),
            np.divide(repeated, chars, out=np.zeros(size), where=has_chars),
            inserted, deleted])
        values[:, _N_SCALARS:] = sums[:, _N_COUNTS:] / n[:, None]
    days, ids = np.divmod(keys, n_ids)
    finite = np.isfinite(values)
    if not finite.all():
        row, column = divmod(int(np.argmin(finite)), N_FEATURES)
        raise ValidationError(
            f"contributor {table.ids[ids[row]]!r} on "
            f"{table.dates[days[row]].isoformat()}: non-finite value "
            f"{float(values[row, column])!r}", field=FEATURE_COLUMNS[column])
    return AggregateBatch(np.array(table.ids, dtype=object)[ids],
                          np.array(table.dates, dtype="datetime64[D]")[days],
                          table.bot_flags[first], np.zeros(size, dtype=bool),
                          values)


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
        n_pages=np.unique(EventTable.of(events).page_codes).size
        if events else 0,
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
    (ids, id_table), (days, dates), is_bot, synthetic = columns
    is_bot = _flags(is_bot)
    _check_bot_flags(id_table, ids, is_bot)
    order = np.lexsort((ids, days))  # AggregateBatch.sorted's order
    return AggregateBatch(np.array(id_table, dtype=object)[ids[order]],
                          np.array(dates, dtype="datetime64[D]")[days[order]],
                          is_bot[order], _flags(synthetic)[order],
                          values[order])


def write_aggregates(aggregates, path):
    """Persist aggregates, an AggregateBatch or a list of
    DailyAggregates, in the aggregate schema: JSON lines when the suffix
    is ``.jsonl``, CSV otherwise."""
    batch = AggregateBatch.of(aggregates)
    dates, days = np.unique(batch.days, return_inverse=True)
    write_table([batch.contributor_ids,
                 (days, [day.isoformat() for day in dates.tolist()]),
                 batch.is_bot.astype(int), batch.synthetic.astype(int),
                 batch.values], AGGREGATE_COLUMNS, path)


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
