"""
Domain types shared across the library.

Defines the raw edit event, its per-day aggregation, target label
derivation and the canonical feature catalogue (feature ids, column
order and probability groupings) every other module relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date
from functools import lru_cache
from itertools import groupby
from operator import attrgetter

import numpy as np

PROB_TOL = 1e-6

# The feature catalogue, in the canonical order of every feature matrix:
# feature id, aggregate-file column and probability group. Multi-probability
# features are flattened into sub-components that sum to one per group; their
# columns carry the same name in the event schema.
CATALOGUE = (
    ("3", "f3", None),            # number of reviews
    ("4", "f4", None),            # average review length
    ("5", "f5", None),            # number of pages
    ("6", "f6", None),            # average revisions per page
    ("7", "f7", None),            # revisions per week
    ("8", "f8", None),            # pages revised per week
    ("9", "f9", None),            # number of reverts
    ("10", "f10", None),          # revert frequency
    ("11", "f11", None),          # links ratio
    ("12", "f12", None),          # repeated links ratio
    ("13", "f13", None),          # characters inserted
    ("14", "f14", None),          # characters deleted
    ("15.damaging_true", "dmg_t", "damaging"),
    ("15.damaging_false", "dmg_f", "damaging"),
    ("15.goodfaith_true", "gf_t", "goodfaith"),
    ("15.goodfaith_false", "gf_f", "goodfaith"),
    ("16.A", "item_a", "item_quality"),
    ("16.B", "item_b", "item_quality"),
    ("16.C", "item_c", "item_quality"),
    ("16.D", "item_d", "item_quality"),
    ("16.E", "item_e", "item_quality"),
    ("17.ok", "art_ok", "article_quality"),
    ("17.attack", "art_attack", "article_quality"),
    ("17.spam", "art_spam", "article_quality"),
    ("17.vandalism", "art_vandalism", "article_quality"),
    ("18.B", "wp10_b", "wp10"),
    ("18.C", "wp10_c", "wp10"),
    ("18.FA", "wp10_fa", "wp10"),
    ("18.GA", "wp10_ga", "wp10"),
    ("18.start", "wp10_start", "wp10"),
    ("18.stub", "wp10_stub", "wp10"),
)

FEATURE_IDS = tuple(fid for fid, _, _ in CATALOGUE)

FEATURE_INDEX = {fid: i for i, fid in enumerate(FEATURE_IDS)}

N_FEATURES = len(FEATURE_IDS)

FEATURE_COLUMNS = tuple(column for _, column, _ in CATALOGUE)

# The count fields of an edit event, in event-schema order, and a
# function that returns an event's values of them as a tuple.
EVENT_COUNT_FIELDS = ("review_length", "links", "repeated_links",
                      "chars_inserted", "chars_deleted")
event_counts = attrgetter(*EVENT_COUNT_FIELDS)

# The probability features and their columns: the order of EditEvent.probs.
PROB_FEATURE_IDS = tuple(fid for fid, _, group in CATALOGUE if group)
PROB_COLUMNS = tuple(column for _, column, group in CATALOGUE if group)


def _probability_group_slices():
    """(group name, slice of EditEvent.probs) per group, in catalogue order."""
    slices, start = [], 0
    for name, members in groupby(group for _, _, group in CATALOGUE if group):
        stop = start + len(list(members))
        slices.append((name, slice(start, stop)))
        start = stop
    return tuple(slices)


_PROB_GROUP_SLICES = _probability_group_slices()

# Probability sub-components that must each sum to one.
PROBABILITY_GROUPS = tuple(PROB_FEATURE_IDS[s] for _, s in _PROB_GROUP_SLICES)

JOINT_CLASS_NAMES = {
    (0, 0): "human-benign",
    (0, 1): "human-malign",
    (1, 0): "bot-benign",
    (1, 1): "bot-malign",
}


class ValidationError(ValueError):
    """Raised when a record or argument violates a documented invariant."""

    def __init__(self, message, field=None, line=None):
        self.message = message
        self.field = field
        self.line = line
        prefix = ""
        if line is not None:
            prefix += f"line {line}: "
        if field is not None:
            prefix += f"field '{field}': "
        super().__init__(prefix + message)


# The least value of a count column with a floor other than 0, by file
# column: an aggregate covers at least one review.
COUNT_FLOORS = {"f3": 1}


def check_finite(values, names, line):
    """Raise ValidationError naming the first of a row's float cells
    ``values``, named by ``names``, that is not finite."""
    for name, value in zip(names, values):
        if not math.isfinite(value):
            raise ValidationError(f"non-finite value {value!r}", field=name,
                                  line=line)


def probability_group_sums(probs):
    """Each group's sum, its columns added left to right, per row of the
    (rows, 19) PROB_COLUMNS matrix ``probs``: a (rows, groups) matrix."""
    sums = np.empty((len(probs), len(_PROB_GROUP_SLICES)))
    for g, (_, span) in enumerate(_PROB_GROUP_SLICES):
        total = probs[:, span.start]
        for column in range(span.start + 1, span.stop):
            total = total + probs[:, column]
        sums[:, g] = total
    return sums


def check_rows(counts, probs, count_names, lines=None):
    """Check event or aggregate rows in bulk: every cell of the (rows, c)
    matrix ``counts``, with columns ``count_names``, and of the (rows,
    19) matrix ``probs``, in PROB_COLUMNS order, finite; each count at
    least its floor (COUNT_FLOORS, else 0); and each row of ``probs`` one
    probability vector per group: values in [0, 1] summing to 1 within
    PROB_TOL (``probability_group_sums``). Raises ValidationError with
    the line (``lines[i]`` of row i) and field of the first breach in row
    order; within a row, the first non-finite cell, then the counts in
    column order (``f3``, the one floor above 0, leads the aggregate
    columns), then each group's values and its sum."""
    floors = [COUNT_FLOORS.get(name, 0) for name in count_names]
    bad_counts = ~(np.isfinite(counts) & (counts >= np.array(floors)))
    bad_probs = ~((probs >= 0.0) & (probs <= 1.0))  # NaN fails both
    with np.errstate(invalid="ignore"):  # inf + -inf in a bad group
        sums = probability_group_sums(probs)
    bad_sums = np.abs(sums - 1.0) > PROB_TOL
    bad = bad_counts.any(axis=1) | bad_probs.any(axis=1) | bad_sums.any(axis=1)
    if not bad.any():
        return
    i = int(bad.argmax())
    line = None if lines is None else lines[i]
    check_finite(counts[i].tolist() + probs[i].tolist(),
                 (*count_names, *PROB_COLUMNS), line)
    for name, value, floor, breach in zip(count_names, counts[i].tolist(),
                                          floors, bad_counts[i]):
        if breach:
            raise ValidationError(
                f"count {value!r} must be finite and >= {floor}",
                field=name, line=line)
    for g, (name, span) in enumerate(_PROB_GROUP_SLICES):
        for value, breach in zip(probs[i, span].tolist(), bad_probs[i, span]):
            if breach:
                raise ValidationError(f"probability {value!r} outside [0, 1]",
                                      field=name, line=line)
        if bad_sums[i, g]:
            raise ValidationError(
                f"probability group sum {float(sums[i, g]):.8f} != 1",
                field=name, line=line)


@dataclass(frozen=True)
class EditEvent:
    """One raw contribution record."""

    contributor_id: str
    is_bot: bool
    page_id: str
    timestamp: date
    review_length: float
    links: float
    repeated_links: float
    chars_inserted: float
    chars_deleted: float
    was_reverted: bool
    probs: tuple      # the probability columns, in PROB_COLUMNS order

    def validate(self, line=None):
        """Check all invariants; raises ValidationError on the first breach."""
        if len(self.probs) != len(PROB_COLUMNS):
            raise ValidationError(
                f"expected {len(PROB_COLUMNS)} probabilities, "
                f"got {len(self.probs)}", field="probs", line=line)
        check_rows(np.array([event_counts(self)], dtype=float),
                   np.array([self.probs], dtype=float), EVENT_COUNT_FIELDS,
                   [line])
        return self

    @property
    def day(self):
        return self.timestamp


def derive_contribution_type(ok_probability):
    """Map an OK probability to a contribution label.

    Returns 0 (positive) iff the probability is strictly above 0.5,
    else 1 (negative). The boundary 0.5 maps to negative.
    """
    if not math.isfinite(ok_probability) or not 0.0 <= ok_probability <= 1.0:
        raise ValidationError(
            f"value {ok_probability!r} outside [0, 1]", field="ok_probability")
    return 0 if ok_probability > 0.5 else 1


def derive_user_type(is_bot):
    """Map the bot flag to a user label: 0 for human, 1 for bot."""
    return 1 if is_bot else 0


def joint_class(user_type, contribution_type):
    """Cross product of the two binary labels, as a readable name."""
    return JOINT_CLASS_NAMES[(user_type, contribution_type)]


def largest_remainder(weights, total, least):
    """``total`` split in proportion to ``weights`` as a list of int
    shares of at least ``least``: the floors, raised to ``least``, then
    one more to each, or one less from each above ``least``, by falling
    remainder (ties to the first), cycling until they sum to ``total``."""
    if total < least * len(weights):
        raise ValidationError(f"{total} is below {least} per share")
    raw = np.asarray(weights, dtype=float)
    raw = raw / raw.sum() * total
    floors = np.floor(raw)
    shares = np.maximum(floors.astype(int), least)
    diff = total - int(shares.sum())
    order = np.argsort(floors - raw, kind="stable")
    i = 0
    while diff:
        at = order[i % len(order)]
        step = 1 if diff > 0 else -int(shares[at] > least)
        shares[at] += step
        diff -= step
        i += 1
    return shares.tolist()


def contributor_slots(contributor_ids, is_bot, profiles):
    """Rows grouped by contributor, a list of ids, under the bot-flag
    rule: a contributor's ``is_bot`` is its profile's in ``profiles``,
    else its first row's. Returns per row its slot; per slot (by first
    row) the id, profile or None, flag and first row; and the first row
    whose flag differs, or None."""
    slots = {}
    codes = np.fromiter((slots.setdefault(cid, len(slots))
                         for cid in contributor_ids),
                        dtype=np.intp, count=len(contributor_ids))
    ids = list(slots)
    stored = [profiles.get(cid) for cid in ids]
    is_bot = np.asarray(is_bot, dtype=bool)
    first = np.unique(codes, return_index=True)[1]
    flags = is_bot[first]
    for slot, profile in enumerate(stored):
        if profile is not None:
            flags[slot] = profile.is_bot
    changed = np.flatnonzero(is_bot != flags[codes])
    return (codes, ids, stored, flags, first,
            int(changed[0]) if changed.size else None)


def flag_change_error(contributor_id):
    return ValidationError(f"contributor {contributor_id!r} changes its "
                           "is_bot flag between rows", field="is_bot")


def sample_error(index, exc):
    """``exc``, a ValidationError, re-raised for sample ``index`` of a
    stream."""
    return ValidationError(f"sample {index}: {exc}")


@dataclass(frozen=True)
class DailyAggregate:
    """Per-contributor-per-day aggregation of the feature catalogue: one
    row of an AggregateBatch.

    ``values`` holds all canonical feature columns in FEATURE_IDS order.
    """

    contributor_id: str
    day: date
    is_bot: bool
    values: tuple
    synthetic: bool = False

    def __post_init__(self):
        if len(self.values) != N_FEATURES:
            raise ValidationError(
                f"expected {N_FEATURES} feature values, got {len(self.values)}")
        reviews, floor = self.value("3"), COUNT_FLOORS["f3"]
        if reviews < floor:
            raise ValidationError(f"count {reviews!r} must be >= {floor}",
                                  field="f3")

    def value(self, feature_id):
        return self.values[FEATURE_INDEX[feature_id]]

    @property
    def user_type(self):
        return derive_user_type(self.is_bot)

    @property
    def contribution_type(self):
        return derive_contribution_type(self.value("17.ok"))


_OK = FEATURE_INDEX["17.ok"]

# Rows converted to Python values at a time by ``column_rows``.
ROW_BLOCK = 1024


def column_rows(*columns):
    """Yield the rows of ``columns``, arrays or lists of one length, as
    tuples of Python values (a row of a 2-D array as a list), converting
    ROW_BLOCK rows of each column at a time (``tolist``), so that no more
    than one block of rows is held as Python objects."""
    for start in range(0, len(columns[0]), ROW_BLOCK):
        block = slice(start, start + ROW_BLOCK)
        yield from zip(*(column[block].tolist()
                         if isinstance(column, np.ndarray) else column[block]
                         for column in columns))


class ColumnarList:
    """Columns of one length that behave as a list of row objects, built
    on demand and not kept: ``len``, iteration, an integer index and
    ``==`` against an object of the same type or a list of rows. A
    slice, an index array or a boolean mask selects rows as an object of
    the same type.

    A subclass names its columns in COLUMNS, in the order of the
    arguments of its ``_row``, which builds one row from its cells.
    """

    COLUMNS = ()

    def __len__(self):
        return len(getattr(self, self.COLUMNS[0]))

    def __iter__(self):
        for cells in column_rows(*(getattr(self, name)
                                   for name in self.COLUMNS)):
            yield self._row(*cells)

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            at = range(len(self))[index]  # IndexError past either end
            return next(iter(self[at:at + 1]))
        return type(self)(**{name: getattr(self, name)[index]
                             for name in self.COLUMNS})

    def __eq__(self, other):
        if isinstance(other, (type(self), list)):
            return len(self) == len(other) and all(
                mine == theirs for mine, theirs in zip(self, other))
        return NotImplemented


@dataclass(eq=False)
class AggregateBatch(ColumnarList):
    """Contributor-days as columns: an (n, 31) float matrix ``values`` in
    FEATURE_IDS order and one array each of contributor ids (object),
    days (``datetime64[D]``), ``is_bot`` and ``synthetic`` flags.

    It behaves as a list of DailyAggregate rows (``ColumnarList``), and
    a row can be assigned by integer index.
    """

    contributor_ids: np.ndarray
    days: np.ndarray
    is_bot: np.ndarray
    synthetic: np.ndarray
    values: np.ndarray

    COLUMNS = ("contributor_ids", "days", "is_bot", "values", "synthetic")

    @classmethod
    def of(cls, aggregates):
        """``aggregates``, a batch or an iterable of DailyAggregates, as a
        batch."""
        if isinstance(aggregates, cls):
            return aggregates
        rows = list(aggregates)
        return cls(np.array([a.contributor_id for a in rows], dtype=object),
                   np.array([a.day for a in rows], dtype="datetime64[D]"),
                   np.array([a.is_bot for a in rows], dtype=bool),
                   np.array([a.synthetic for a in rows], dtype=bool),
                   np.array([a.values for a in rows], dtype=float)
                   .reshape(len(rows), N_FEATURES))

    @classmethod
    def concat(cls, batches):
        return cls(**{name: np.concatenate([getattr(b, name) for b in batches])
                      for name in cls.COLUMNS})

    @staticmethod
    def _row(contributor_id, day, is_bot, values, synthetic):
        return DailyAggregate(contributor_id, day, is_bot, tuple(values),
                              synthetic)

    def __setitem__(self, index, row):
        """Replace row ``index``, an integer, with the DailyAggregate
        ``row``. The columns are copied first: slices share them."""
        for name, value in zip(self.COLUMNS, (
                row.contributor_id, row.day, row.is_bot, row.values,
                row.synthetic)):
            column = getattr(self, name).copy()
            column[index] = value
            setattr(self, name, column)

    def sorted(self):
        """The rows ordered by day, then contributor id; rows equal in
        both keep their order."""
        order = np.argsort(self.contributor_ids, kind="stable")
        return self[order[np.argsort(self.days[order], kind="stable")]]

    @property
    def user_type(self):
        return self.is_bot.astype(np.int64)

    @property
    def contribution_type(self):
        """The rows' contribution labels (``derive_contribution_type``);
        the first row whose OK probability is outside [0, 1] raises
        ValidationError naming it as a sample."""
        ok = self.values[:, _OK]
        valid = (ok >= 0.0) & (ok <= 1.0)
        if not valid.all():
            index = int(np.argmin(valid))
            try:
                derive_contribution_type(float(ok[index]))
            except ValidationError as exc:
                raise sample_error(index, exc) from None
        return np.where(ok > 0.5, 0, 1)


@lru_cache(maxsize=64)
def feature_columns(feature_ids):
    """Positions of ``feature_ids`` in FEATURE_IDS order, as a read-only
    index array. Validated once per tuple of ids: every id must be known
    and appear once."""
    if len(set(feature_ids)) != len(feature_ids):
        raise ValidationError("duplicate feature identifiers")
    for fid in feature_ids:
        if fid not in FEATURE_INDEX:
            raise ValidationError(f"unknown feature id {fid!r}")
    columns = np.array([FEATURE_INDEX[fid] for fid in feature_ids],
                       dtype=np.intp)
    columns.setflags(write=False)
    return columns
