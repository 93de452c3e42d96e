"""
Incremental contributor profiling.

Each DailyAggregate folds into its contributor's profile: counting
features accumulate as sums, quality features as running means, and the
weekly-rate and revert-frequency features are recomputed after every
update from the accumulated numerators.
"""

from __future__ import annotations

import json
import math
from datetime import date
from pathlib import Path

import numpy as np

from .ingest import read_jsonl
from .model import (
    FEATURE_INDEX,
    N_FEATURES,
    PROB_FEATURE_IDS,
    ValidationError,
    feature_columns,
)

SUM_FEATURES = ("3", "5", "9", "11", "12", "13", "14")
MEAN_FEATURES = ("4", "6") + PROB_FEATURE_IDS

_SUMS = feature_columns(SUM_FEATURES)
_MEANS = feature_columns(MEAN_FEATURES)
_REVIEWS, _PAGES, _REVERTS, _REVIEW_RATE, _PAGE_RATE, _REVERT_FREQUENCY = (
    FEATURE_INDEX[fid] for fid in ("3", "5", "9", "7", "8", "10"))


def elapsed_weeks(first_seen, last_seen):
    """Calendar weeks spanned by [first_seen, last_seen], at least 1."""
    days = (last_seen - first_seen).days + 1
    return max(1, math.ceil(days / 7))


class ContributorProfile:
    """Mutable per-contributor state, updated by each DailyAggregate.

    ``values`` is one float row in FEATURE_IDS order: sums at the
    SUM_FEATURES columns, running means at the MEAN_FEATURES columns,
    and the weekly rates (7, 8) and revert frequency (10) derived from
    the sums.
    """

    def __init__(self, contributor_id, is_bot, first_seen):
        self.contributor_id = contributor_id
        self.is_bot = is_bot
        self.first_seen = first_seen
        self.last_seen = first_seen
        self.n_updates = 0
        self.values = np.zeros(N_FEATURES)

    def update(self, agg):
        self.n_updates += 1
        if agg.day < self.first_seen:
            self.first_seen = agg.day
        if agg.day > self.last_seen:
            self.last_seen = agg.day
        x = np.array(agg.values, dtype=float)
        values = self.values
        values[_SUMS] += x[_SUMS]
        means = values[_MEANS]
        values[_MEANS] = means + (x[_MEANS] - means) / self.n_updates
        self._derive()

    def _derive(self):
        values = self.values
        weeks = elapsed_weeks(self.first_seen, self.last_seen)
        reviews = values[_REVIEWS]
        values[_REVIEW_RATE] = reviews / weeks
        values[_PAGE_RATE] = values[_PAGES] / weeks
        values[_REVERT_FREQUENCY] = (values[_REVERTS] / reviews if reviews
                                     else 0.0)

    def to_record(self):
        return {
            "contributor_id": self.contributor_id,
            "is_bot": self.is_bot,
            "first_seen": self.first_seen.isoformat(),
            "last_seen": self.last_seen.isoformat(),
            "n_updates": self.n_updates,
            "sums": dict(zip(SUM_FEATURES, self.values[_SUMS].tolist())),
            "means": dict(zip(MEAN_FEATURES, self.values[_MEANS].tolist())),
        }

    @classmethod
    def from_record(cls, record, line=None):
        """The profile ``to_record`` wrote. A missing field, a wrong type,
        a negative or non-finite number, ``n_updates`` < 1 or
        ``last_seen`` < ``first_seen`` raise ValidationError naming it."""
        def fail(message, name):
            raise ValidationError(message, field=name, line=line) from None

        def checked(value, kind, name):
            # bool is an int subclass: only a bool field takes a bool
            if not isinstance(value, kind) or (
                    isinstance(value, bool) and kind is not bool):
                fail(f"unexpected value {value!r}", name)
            return value

        def field(name, kind):
            if name not in record:
                fail("missing", name)
            return checked(record[name], kind, name)

        def day(name):
            value = field(name, str)
            try:
                return date.fromisoformat(value)
            except ValueError:
                fail(f"not an ISO date: {value!r}", name)

        def number(value, name):
            try:
                value = float(checked(value, (int, float), name))
            except OverflowError:  # an integer beyond the float range
                value = math.inf
            if not math.isfinite(value) or value < 0:
                fail(f"{value!r} is not a finite value >= 0", name)
            return value

        def table(name, ids):
            values = field(name, dict)
            return [number(values.get(fid), f"{name}.{fid}") for fid in ids]

        profile = cls(field("contributor_id", str), field("is_bot", bool),
                      day("first_seen"))
        profile.last_seen = day("last_seen")
        if profile.last_seen < profile.first_seen:
            fail("before first_seen", "last_seen")
        profile.n_updates = field("n_updates", int)
        if profile.n_updates < 1:
            fail(f"{profile.n_updates} is below 1", "n_updates")
        profile.values[_SUMS] = table("sums", SUM_FEATURES)
        profile.values[_MEANS] = table("means", MEAN_FEATURES)
        profile._derive()
        return profile


class ProfileStore:
    """Map of contributor id to profile; at most one profile per id."""

    def __init__(self):
        self._profiles = {}

    def __len__(self):
        return len(self._profiles)

    def __contains__(self, contributor_id):
        return contributor_id in self._profiles

    def get(self, contributor_id):
        return self._profiles.get(contributor_id)

    def profiles(self):
        return self._profiles.values()

    def update(self, agg):
        """Fold one aggregate in; returns a copy of the profile's
        refreshed feature row.

        An aggregate whose ``is_bot`` flag differs from its contributor's
        profile is rejected.
        """
        profile = self._profiles.get(agg.contributor_id)
        if profile is None:
            profile = ContributorProfile(agg.contributor_id, agg.is_bot, agg.day)
            self._profiles[agg.contributor_id] = profile
        elif profile.is_bot != agg.is_bot:
            raise ValidationError(
                f"contributor {agg.contributor_id!r} changes its is_bot flag "
                "between rows", field="is_bot")
        profile.update(agg)
        return profile.values.copy()

    def export_jsonl(self, path):
        with open(Path(path), "w", encoding="utf-8") as handle:
            for contributor_id in sorted(self._profiles):
                record = self._profiles[contributor_id].to_record()
                handle.write(json.dumps(record) + "\n")

    @classmethod
    def import_jsonl(cls, path):
        store = cls()
        for record, line in read_jsonl(path):
            profile = ContributorProfile.from_record(record, line=line)
            store._profiles[profile.contributor_id] = profile
        return store


def to_feature_vector(values, feature_set):
    """A profile row's values for ``feature_set``, as a float array in the
    set's order. Rejects unknown or duplicate ids and non-finite values."""
    ids = tuple(feature_set.feature_ids)
    x = np.asarray(values, dtype=float)[feature_columns(ids)]
    finite = np.isfinite(x)
    if not finite.all():
        raise ValidationError(
            f"non-finite value for {ids[int(np.argmin(finite))]}")
    return x
