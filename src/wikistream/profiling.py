"""
Incremental contributor profiling.

Each contributor-day folds into its contributor's profile: counting
features accumulate as sums, quality features as running means, and the
weekly-rate and revert-frequency features are recomputed after every
update from the accumulated numerators. ``ContributorProfile.update``
folds one row; ``ProfileStore.fold`` folds a whole AggregateBatch, one
vectorized step per update rank, through the same ``_fold``.
"""

from __future__ import annotations

import json
import math
from datetime import date
from pathlib import Path

import numpy as np

from .ingest import read_jsonl
from .model import (
    COUNT_FLOORS,
    FEATURE_INDEX,
    N_FEATURES,
    PROB_FEATURE_IDS,
    PROB_TOL,
    PROBABILITY_GROUPS,
    AggregateBatch,
    ValidationError,
    contributor_slots,
    feature_columns,
    flag_change_error,
    probability_group_sums,
    sample_error,
)

SUM_FEATURES = ("3", "5", "9", "11", "12", "13", "14")
MEAN_FEATURES = ("4", "6") + PROB_FEATURE_IDS

_SUMS = feature_columns(SUM_FEATURES)
_MEANS = feature_columns(MEAN_FEATURES)
# The columns a profile record holds, and their record fields.
_RECORDED = np.concatenate((_SUMS, _MEANS))
_RECORD_FIELDS = ([f"sums.{fid}" for fid in SUM_FEATURES]
                  + [f"means.{fid}" for fid in MEAN_FEATURES])
_REVIEWS, _PAGES, _REVERTS, _REVIEW_RATE, _PAGE_RATE, _REVERT_FREQUENCY = (
    FEATURE_INDEX[fid] for fid in ("3", "5", "9", "7", "8", "10"))


def _weeks(span):
    """Calendar weeks covered by ``span`` + 1 days: an int, or an int
    array of spans >= 0."""
    return span // 7 + 1


def elapsed_weeks(first_seen, last_seen):
    """Calendar weeks spanned by [first_seen, last_seen], at least 1."""
    return max(1, _weeks((last_seen - first_seen).days))


def _fold(values, x, n, weeks):
    """Fold aggregate rows ``x`` into profile rows ``values`` in place as
    each profile's ``n``-th update, then derive the rates over ``weeks``:
    one row with int ``n`` and ``weeks``, or k rows with int arrays of
    length k. Columns are indexed through ``.T``, which serves both."""
    columns, x = values.T, x.T
    columns[_SUMS] += x[_SUMS]
    means = columns[_MEANS]
    columns[_MEANS] = means + (x[_MEANS] - means) / n
    _derive(values, weeks)


def _derive(values, weeks):
    """The weekly rates (7, 8) and revert frequency (10) of profile rows
    ``values`` from their sums, in place. Every profile covers at least
    one review."""
    columns = values.T
    reviews = columns[_REVIEWS]
    columns[_REVIEW_RATE] = reviews / weeks
    columns[_PAGE_RATE] = columns[_PAGES] / weeks
    columns[_REVERT_FREQUENCY] = columns[_REVERTS] / reviews


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
        _fold(self.values, np.array(agg.values, dtype=float), self.n_updates,
              elapsed_weeks(self.first_seen, self.last_seen))

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
        a negative or non-finite number, a review sum (``sums.3``) below
        1, a probability mean above 1, a probability group whose means do
        not sum to 1 within PROB_TOL (named by its first id),
        ``n_updates`` < 1 or ``last_seen`` < ``first_seen`` raise
        ValidationError naming it."""
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
        if profile.values[_REVIEWS] < COUNT_FLOORS["f3"]:
            fail(f"{profile.values[_REVIEWS]!r} is below "
                 f"{COUNT_FLOORS['f3']}: a profile covers a review", "sums.3")
        means = dict(zip(MEAN_FEATURES, table("means", MEAN_FEATURES)))
        sums = probability_group_sums(
            np.array([[means[fid] for fid in PROB_FEATURE_IDS]]))[0].tolist()
        for group, total in zip(PROBABILITY_GROUPS, sums):
            for fid in group:
                if means[fid] > 1.0:
                    fail(f"{means[fid]!r} is not a probability in [0, 1]",
                         f"means.{fid}")
            if abs(total - 1.0) > PROB_TOL:
                # + 0.0: -0.0 reads 0.0, as in a sum from 0
                fail(f"probability group sum {total + 0.0:.8f} != 1",
                     f"means.{group[0]}")
        profile.values[_MEANS] = list(means.values())
        _derive(profile.values,
                elapsed_weeks(profile.first_seen, profile.last_seen))
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
            raise flag_change_error(agg.contributor_id)
        profile.update(agg)
        return profile.values.copy()

    def flag_change(self, batch):
        """Index of the first row of ``batch`` whose ``is_bot`` flag
        differs from its contributor's profile or first row, or None."""
        return contributor_slots(batch.contributor_ids.tolist(),
                                 batch.is_bot, self._profiles)[-1]

    def fold(self, batch):
        """Fold every row of ``batch``, an AggregateBatch or a list of
        DailyAggregates, into its contributor's profile in stream order, as ``update`` row by row
        would, and return the profile rows after each update: an (n, 31)
        matrix.

        Stored profiles, imported ones included, seed their contributors'
        state. The r-th rows of all contributors are independent, so each
        update rank folds in one vectorized ``_fold``: as many steps as
        the most rows of one contributor. Each element takes update's
        arithmetic, so rows and profiles match it bit for bit. Sums that
        overflow are left to ``to_feature_vector`` to reject.

        A row whose ``is_bot`` flag differs from its contributor's
        profile or first row raises ValidationError naming it as a
        sample (``flag_change``), before anything folds in.
        """
        batch = AggregateBatch.of(batch)
        codes, ids, profiles, flags, first, change = contributor_slots(
            batch.contributor_ids.tolist(), batch.is_bot, self._profiles)
        if change is not None:
            raise sample_error(change, flag_change_error(ids[codes[change]]))
        state = np.zeros((len(ids), N_FEATURES))
        n = np.zeros(len(ids), dtype=np.int64)
        first_seen = batch.days[first]
        last_seen = first_seen.copy()
        for slot, profile in enumerate(profiles):
            if profile is not None:
                state[slot] = profile.values
                n[slot] = profile.n_updates
                first_seen[slot] = profile.first_seen
                last_seen[slot] = profile.last_seen

        # rank of each row among its contributor's rows, then the rows
        # by rank, in stream order within one rank
        by_contributor = np.argsort(codes, kind="stable")
        counts = np.bincount(codes, minlength=len(ids))
        rank = np.empty(len(batch), dtype=np.intp)
        rank[by_contributor] = (np.arange(len(batch))
                                - np.repeat(np.cumsum(counts) - counts, counts))
        by_rank = np.argsort(rank, kind="stable")
        rows = np.empty((len(batch), N_FEATURES))
        start = 0
        with np.errstate(over="ignore", invalid="ignore"):
            for stop in np.cumsum(np.bincount(rank)).tolist():
                at = by_rank[start:stop]
                start = stop
                slot = codes[at]
                n[slot] += 1
                days = batch.days[at]
                first_seen[slot] = np.minimum(first_seen[slot], days)
                last_seen[slot] = np.maximum(last_seen[slot], days)
                values = state[slot]
                _fold(values, batch.values[at], n[slot],
                      _weeks((last_seen[slot] - first_seen[slot])
                             .astype(np.int64)))
                state[slot] = values
                rows[at] = values

        for slot, (cid, profile, is_bot, first_day, last_day) in enumerate(
                zip(ids, profiles, flags.tolist(), first_seen.tolist(),
                    last_seen.tolist())):
            if profile is None:
                profile = self._profiles[cid] = ContributorProfile(
                    cid, is_bot, first_day)
            profile.first_seen, profile.last_seen = first_day, last_day
            profile.n_updates = int(n[slot])
            profile.values = state[slot]
        return rows

    def export_jsonl(self, path):
        """Write one ``to_record`` line per profile, in contributor id
        order. A profile holding a sum or mean that is not finite (a sum
        can overflow) raises ValidationError naming its contributor and
        field (``sums.3``), as ``from_record`` would, before the file is
        opened."""
        ids = sorted(self._profiles)
        if ids:
            values = np.array([self._profiles[cid].values for cid in ids])
            finite = np.isfinite(values[:, _RECORDED])
            if not finite.all():
                row, column = divmod(int(np.argmin(finite)), len(_RECORDED))
                raise ValidationError(
                    f"profile of {ids[row]!r}: non-finite value "
                    f"{float(values[row, _RECORDED[column]])!r}",
                    field=_RECORD_FIELDS[column])
        with open(Path(path), "w", encoding="utf-8") as handle:
            for contributor_id in ids:
                record = self._profiles[contributor_id].to_record()
                handle.write(json.dumps(record) + "\n")

    @classmethod
    def import_jsonl(cls, path):
        """The store ``export_jsonl`` wrote. A record that fails
        ``ContributorProfile.from_record``, or a second record of one
        ``contributor_id``, raises ValidationError naming its line."""
        store = cls()
        for record, line in read_jsonl(path):
            profile = ContributorProfile.from_record(record, line=line)
            if profile.contributor_id in store._profiles:
                raise ValidationError(
                    f"second record of {profile.contributor_id!r}",
                    field="contributor_id", line=line)
            store._profiles[profile.contributor_id] = profile
        return store


def to_feature_vector(values, feature_set):
    """A profile row's values for ``feature_set``, as a float array in the
    set's order, or those of every row of an (n, 31) matrix of profile
    rows, as an (n, d) matrix. Rejects unknown or duplicate ids and
    non-finite values; in a matrix, the first non-finite value in row
    order raises ValidationError naming its row as a sample."""
    ids = tuple(feature_set.feature_ids)
    x = np.asarray(values, dtype=float)[..., feature_columns(ids)]
    finite = np.isfinite(x)
    if not finite.all():
        *row, column = np.unravel_index(int(np.argmin(finite)), x.shape)
        error = ValidationError(f"non-finite value for {ids[column]}")
        raise sample_error(int(row[0]), error) if row else error
    return x
