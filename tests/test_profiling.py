from datetime import date, timedelta

import numpy as np
import pytest

from wikistream.analysis import SET1, SET3_TARGET1, SET3_TARGET2
from wikistream.ingest import aggregate_daily
from wikistream.model import FEATURE_INDEX, ValidationError
from wikistream.profiling import (
    ProfileStore,
    elapsed_weeks,
    to_feature_vector,
)
from tests.test_model import make_event


def day_aggregate(**overrides):
    defaults = dict(contributor_id="c1", timestamp=date(2020, 1, 1))
    defaults.update(overrides)
    return aggregate_daily([make_event(**defaults)])[0]


class TestElapsedWeeks:
    def test_same_day_is_one_week(self):
        d = date(2020, 1, 1)
        assert elapsed_weeks(d, d) == 1

    def test_exact_week_boundary(self):
        assert elapsed_weeks(date(2020, 1, 1), date(2020, 1, 7)) == 1
        assert elapsed_weeks(date(2020, 1, 1), date(2020, 1, 8)) == 2

    def test_span_rounds_up(self):
        # 10 days -> ceil(10/7) = 2 weeks
        assert elapsed_weeks(date(2020, 1, 1), date(2020, 1, 10)) == 2


class TestProfileUpdates:
    def test_weekly_review_rate_first_week(self):
        store = ProfileStore()
        snapshot = None
        for d in range(1, 8):
            events = [make_event(timestamp=date(2020, 1, d))
                      for _ in range(2)]
            snapshot = store.update(aggregate_daily(events)[0])
        # 14 reviews in one calendar week
        assert snapshot.value("7") == pytest.approx(14.0)
        assert snapshot.value("3") == 14.0

    def test_revert_ratio_accumulates(self):
        store = ProfileStore()
        events_by_day = {
            date(2020, 1, 1): [make_event(timestamp=date(2020, 1, 1),
                                          was_reverted=(i == 0))
                               for i in range(5)],
            date(2020, 1, 2): [make_event(timestamp=date(2020, 1, 2))
                               for _ in range(5)],
        }
        snapshot = None
        for day in sorted(events_by_day):
            snapshot = store.update(aggregate_daily(events_by_day[day])[0])
        # 1 revert over 10 reviews
        assert snapshot.value("10") == pytest.approx(0.1)

    def test_quality_features_are_running_means(self):
        store = ProfileStore()
        snapshot = store.update(day_aggregate(art_ok=0.6, art_attack=0.2,
                                              art_spam=0.1, art_vandalism=0.1))
        snapshot = store.update(day_aggregate(timestamp=date(2020, 1, 2),
                                              art_ok=0.2, art_attack=0.4,
                                              art_spam=0.2, art_vandalism=0.2))
        assert snapshot.value("17.ok") == pytest.approx(0.4)

    def test_running_mean_matches_batch_oracle(self):
        rng = np.random.default_rng(0)
        store = ProfileStore()
        lengths = rng.uniform(5.0, 500.0, size=50)
        snapshot = None
        for i, length in enumerate(lengths):
            agg = day_aggregate(timestamp=date(2020, 1, 1)
                                + timedelta(days=i),
                                review_length=float(length))
            snapshot = store.update(agg)
        assert snapshot.value("4") == pytest.approx(float(np.mean(lengths)),
                                                    abs=1e-9)

    def test_sum_features_accumulate(self):
        store = ProfileStore()
        store.update(day_aggregate(chars_inserted=30.0))
        snapshot = store.update(day_aggregate(timestamp=date(2020, 1, 2),
                                              chars_inserted=50.0))
        assert snapshot.value("13") == 80.0

    def test_snapshot_is_immutable_view(self):
        store = ProfileStore()
        first = store.update(day_aggregate())
        second = store.update(day_aggregate(timestamp=date(2020, 1, 2)))
        assert first.n_updates == 1
        assert second.n_updates == 2
        assert first.values != second.values

    def test_bot_flag_change_rejected(self):
        store = ProfileStore()
        store.update(day_aggregate(contributor_id="c7"))
        flipped = day_aggregate(contributor_id="c7", is_bot=True,
                                timestamp=date(2020, 1, 2))
        with pytest.raises(ValidationError) as exc:
            store.update(flipped)
        assert exc.value.field == "is_bot"
        assert "c7" in str(exc.value)

    def test_deterministic_replay(self):
        aggs = [day_aggregate(timestamp=date(2020, 1, 1 + i),
                              review_length=float(10 + i))
                for i in range(5)]
        a = ProfileStore()
        b = ProfileStore()
        for agg in aggs:
            snap_a = a.update(agg)
            snap_b = b.update(agg)
        assert snap_a == snap_b


class TestFeatureVectors:
    def _snapshot(self):
        return ProfileStore().update(day_aggregate())

    def test_preset_sizes(self):
        snapshot = self._snapshot()
        assert to_feature_vector(snapshot, SET1).shape == (12,)
        assert to_feature_vector(snapshot, SET3_TARGET1).shape == (10,)
        assert to_feature_vector(snapshot, SET3_TARGET2).shape == (5,)

    def test_order_matches_feature_set(self):
        snapshot = self._snapshot()
        x = to_feature_vector(snapshot, SET3_TARGET2)
        assert x.dtype == np.float64
        for fid, value in zip(SET3_TARGET2.feature_ids, x):
            assert value == snapshot.values[FEATURE_INDEX[fid]]

    def test_unknown_feature_rejected(self):
        from wikistream.analysis import FeatureSet
        with pytest.raises(ValidationError):
            to_feature_vector(self._snapshot(), FeatureSet("bad", ("99",)))

    def test_non_finite_rejected(self):
        from dataclasses import replace
        snapshot = self._snapshot()
        values = list(snapshot.values)
        values[FEATURE_INDEX["4"]] = float("nan")
        with pytest.raises(ValidationError) as exc:
            to_feature_vector(replace(snapshot, values=tuple(values)), SET1)
        assert "non-finite value for 4" in str(exc.value)


class TestPersistence:
    def test_jsonl_round_trip(self, tmp_path):
        store = ProfileStore()
        store.update(day_aggregate(contributor_id="a"))
        store.update(day_aggregate(contributor_id="b", is_bot=True))
        store.update(day_aggregate(contributor_id="a",
                                   timestamp=date(2020, 1, 5)))
        path = tmp_path / "profiles.jsonl"
        store.export_jsonl(path)
        restored = ProfileStore.import_jsonl(path)
        assert len(restored) == 2
        for cid in ("a", "b"):
            assert restored.get(cid).snapshot() == store.get(cid).snapshot()

    def test_restored_store_continues_identically(self, tmp_path):
        store = ProfileStore()
        store.update(day_aggregate())
        path = tmp_path / "profiles.jsonl"
        store.export_jsonl(path)
        restored = ProfileStore.import_jsonl(path)
        follow_up = day_aggregate(timestamp=date(2020, 1, 9),
                                  review_length=42.0)
        assert restored.update(follow_up) == store.update(follow_up)
