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
from dataclasses import dataclass
from datetime import date
from pathlib import Path

import numpy as np

from .model import (
    FEATURE_IDS,
    FEATURE_INDEX,
    PROB_FEATURE_IDS,
    ValidationError,
    feature_columns,
)

SUM_FEATURES = ("3", "5", "9", "11", "12", "13", "14")
MEAN_FEATURES = ("4", "6") + PROB_FEATURE_IDS


def elapsed_weeks(first_seen, last_seen):
    """Calendar weeks spanned by [first_seen, last_seen], at least 1."""
    days = (last_seen - first_seen).days + 1
    return max(1, math.ceil(days / 7))


@dataclass(frozen=True)
class ProfileSnapshot:
    """Immutable view of a profile, safe to hand to classifiers."""

    contributor_id: str
    is_bot: bool
    first_seen: date
    last_seen: date
    n_updates: int
    values: tuple

    def value(self, feature_id):
        return self.values[FEATURE_INDEX[feature_id]]


class ContributorProfile:
    """Mutable per-contributor state, updated by each DailyAggregate."""

    def __init__(self, contributor_id, is_bot, first_seen):
        self.contributor_id = contributor_id
        self.is_bot = is_bot
        self.first_seen = first_seen
        self.last_seen = first_seen
        self.n_updates = 0
        self.sums = {fid: 0.0 for fid in SUM_FEATURES}
        self.means = {fid: 0.0 for fid in MEAN_FEATURES}

    def update(self, agg):
        self.n_updates += 1
        if agg.day < self.first_seen:
            self.first_seen = agg.day
        if agg.day > self.last_seen:
            self.last_seen = agg.day
        for fid in SUM_FEATURES:
            self.sums[fid] += agg.value(fid)
        n = self.n_updates
        for fid in MEAN_FEATURES:
            m = self.means[fid]
            self.means[fid] = m + (agg.value(fid) - m) / n
        return self.snapshot()

    def snapshot(self):
        weeks = elapsed_weeks(self.first_seen, self.last_seen)
        values = [0.0] * len(FEATURE_IDS)
        for fid in SUM_FEATURES:
            values[FEATURE_INDEX[fid]] = self.sums[fid]
        for fid in MEAN_FEATURES:
            values[FEATURE_INDEX[fid]] = self.means[fid]
        reviews = self.sums["3"]
        values[FEATURE_INDEX["7"]] = reviews / weeks
        values[FEATURE_INDEX["8"]] = self.sums["5"] / weeks
        values[FEATURE_INDEX["10"]] = self.sums["9"] / reviews if reviews else 0.0
        return ProfileSnapshot(
            contributor_id=self.contributor_id,
            is_bot=self.is_bot,
            first_seen=self.first_seen,
            last_seen=self.last_seen,
            n_updates=self.n_updates,
            values=tuple(values),
        )

    def to_record(self):
        return {
            "contributor_id": self.contributor_id,
            "is_bot": self.is_bot,
            "first_seen": self.first_seen.isoformat(),
            "last_seen": self.last_seen.isoformat(),
            "n_updates": self.n_updates,
            "sums": self.sums,
            "means": self.means,
        }

    @classmethod
    def from_record(cls, record):
        profile = cls(
            record["contributor_id"],
            record["is_bot"],
            date.fromisoformat(record["first_seen"]),
        )
        profile.last_seen = date.fromisoformat(record["last_seen"])
        profile.n_updates = record["n_updates"]
        profile.sums = {k: float(v) for k, v in record["sums"].items()}
        profile.means = {k: float(v) for k, v in record["means"].items()}
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
        """Fold one aggregate in; returns the refreshed snapshot.

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
        return profile.update(agg)

    def export_jsonl(self, path):
        with open(Path(path), "w", encoding="utf-8") as handle:
            for contributor_id in sorted(self._profiles):
                record = self._profiles[contributor_id].to_record()
                handle.write(json.dumps(record) + "\n")

    @classmethod
    def import_jsonl(cls, path):
        store = cls()
        with open(Path(path), encoding="utf-8") as handle:
            for raw in handle:
                raw = raw.strip()
                if not raw:
                    continue
                profile = ContributorProfile.from_record(json.loads(raw))
                store._profiles[profile.contributor_id] = profile
        return store


def to_feature_vector(snapshot, feature_set):
    """The snapshot's values for ``feature_set``, as a float array in the
    set's order. Rejects unknown or duplicate ids and non-finite values."""
    ids = tuple(feature_set.feature_ids)
    x = np.array(snapshot.values)[feature_columns(ids)]
    finite = np.isfinite(x)
    if not finite.all():
        raise ValidationError(
            f"non-finite value for {ids[int(np.argmin(finite))]}")
    return x
