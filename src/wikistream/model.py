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

# The count fields of an edit event, in event-schema order.
EVENT_COUNT_FIELDS = ("review_length", "links", "repeated_links",
                      "chars_inserted", "chars_deleted")

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
        self.field = field
        self.line = line
        prefix = ""
        if line is not None:
            prefix += f"line {line}: "
        if field is not None:
            prefix += f"field '{field}': "
        super().__init__(prefix + message)


def check_row(counts, probs, line):
    """Check one event or aggregate row: each (name, value) of ``counts``
    finite and >= 0, and ``probs``, in PROB_COLUMNS order, one
    probability vector per group. Raises ValidationError with the line
    and field of the first breach."""
    for name, value in counts:
        if not math.isfinite(value) or value < 0:
            raise ValidationError(f"count {value!r} must be finite and >= 0",
                                  field=name, line=line)
    if len(probs) != len(PROB_COLUMNS):
        raise ValidationError(
            f"expected {len(PROB_COLUMNS)} probabilities, got {len(probs)}",
            field="probs", line=line)
    for name, span in _PROB_GROUP_SLICES:
        group = probs[span]
        for v in group:
            if not math.isfinite(v) or v < 0.0 or v > 1.0:
                raise ValidationError(f"probability {v!r} outside [0, 1]",
                                      field=name, line=line)
        total = sum(group)
        if abs(total - 1.0) > PROB_TOL:
            raise ValidationError(f"probability group sum {total:.8f} != 1",
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
        check_row(((name, getattr(self, name)) for name in EVENT_COUNT_FIELDS),
                  self.probs, line)
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


@dataclass(frozen=True)
class DailyAggregate:
    """Per-contributor-per-day aggregation of the feature catalogue.

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
        if self.value("3") < 1:
            raise ValidationError(
                "aggregate must cover at least one review", field="3")

    def value(self, feature_id):
        return self.values[FEATURE_INDEX[feature_id]]

    @property
    def user_type(self):
        return derive_user_type(self.is_bot)

    @property
    def contribution_type(self):
        return derive_contribution_type(self.value("17.ok"))

    def validate(self, line):
        """Check all invariants of an aggregate read from file ``line``:
        every column that is not a probability is a count, mean or ratio,
        so finite and >= 0. Raises ValidationError on the first breach."""
        values = self.values
        check_row(((column, values[i])
                   for i, (_, column, group) in enumerate(CATALOGUE)
                   if not group),
                  tuple(values[FEATURE_INDEX[f]] for f in PROB_FEATURE_IDS),
                  line)
        return self


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
