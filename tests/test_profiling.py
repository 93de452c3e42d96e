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


def value(row, feature_id):
    return row[FEATURE_INDEX[feature_id]]


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
        row = None
        for d in range(1, 8):
            events = [make_event(timestamp=date(2020, 1, d))
                      for _ in range(2)]
            row = store.update(aggregate_daily(events)[0])
        # 14 reviews in one calendar week
        assert value(row, "7") == pytest.approx(14.0)
        assert value(row, "3") == 14.0

    def test_revert_ratio_accumulates(self):
        store = ProfileStore()
        events_by_day = {
            date(2020, 1, 1): [make_event(timestamp=date(2020, 1, 1),
                                          was_reverted=(i == 0))
                               for i in range(5)],
            date(2020, 1, 2): [make_event(timestamp=date(2020, 1, 2))
                               for _ in range(5)],
        }
        row = None
        for day in sorted(events_by_day):
            row = store.update(aggregate_daily(events_by_day[day])[0])
        # 1 revert over 10 reviews
        assert value(row, "10") == pytest.approx(0.1)

    def test_quality_features_are_running_means(self):
        store = ProfileStore()
        store.update(day_aggregate(art_ok=0.6, art_attack=0.2,
                                   art_spam=0.1, art_vandalism=0.1))
        row = store.update(day_aggregate(timestamp=date(2020, 1, 2),
                                         art_ok=0.2, art_attack=0.4,
                                         art_spam=0.2, art_vandalism=0.2))
        assert value(row, "17.ok") == pytest.approx(0.4)

    def test_running_mean_matches_batch_oracle(self):
        rng = np.random.default_rng(0)
        store = ProfileStore()
        lengths = rng.uniform(5.0, 500.0, size=50)
        row = None
        for i, length in enumerate(lengths):
            agg = day_aggregate(timestamp=date(2020, 1, 1)
                                + timedelta(days=i),
                                review_length=float(length))
            row = store.update(agg)
        assert value(row, "4") == pytest.approx(float(np.mean(lengths)),
                                                abs=1e-9)

    def test_sum_features_accumulate(self):
        store = ProfileStore()
        store.update(day_aggregate(chars_inserted=30.0))
        row = store.update(day_aggregate(timestamp=date(2020, 1, 2),
                                         chars_inserted=50.0))
        assert value(row, "13") == 80.0

    def test_snapshot_is_immutable_view(self):
        # update returns a copy of the row: later updates leave it as it was
        store = ProfileStore()
        first = store.update(day_aggregate())
        kept = first.copy()
        second = store.update(day_aggregate(timestamp=date(2020, 1, 2)))
        assert store.get("c1").n_updates == 2
        assert np.array_equal(first, kept)
        assert not np.array_equal(first, second)

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
            row_a = a.update(agg)
            row_b = b.update(agg)
        assert np.array_equal(row_a, row_b)
        assert a.get("c1").to_record() == b.get("c1").to_record()


class TestFeatureVectors:
    def _row(self):
        return ProfileStore().update(day_aggregate())

    def test_preset_sizes(self):
        row = self._row()
        assert to_feature_vector(row, SET1).shape == (12,)
        assert to_feature_vector(row, SET3_TARGET1).shape == (10,)
        assert to_feature_vector(row, SET3_TARGET2).shape == (5,)

    def test_order_matches_feature_set(self):
        row = self._row()
        x = to_feature_vector(row, SET3_TARGET2)
        assert x.dtype == np.float64
        for fid, x_value in zip(SET3_TARGET2.feature_ids, x):
            assert x_value == value(row, fid)

    def test_unknown_feature_rejected(self):
        from wikistream.analysis import FeatureSet
        with pytest.raises(ValidationError):
            to_feature_vector(self._row(), FeatureSet("bad", ("99",)))

    def test_non_finite_rejected(self):
        row = self._row()
        row[FEATURE_INDEX["4"]] = float("nan")
        with pytest.raises(ValidationError) as exc:
            to_feature_vector(row, SET1)
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
            back, original = restored.get(cid), store.get(cid)
            assert back.to_record() == original.to_record()
            assert np.array_equal(back.values, original.values)

    def test_restored_store_continues_identically(self, tmp_path):
        store = ProfileStore()
        store.update(day_aggregate())
        path = tmp_path / "profiles.jsonl"
        store.export_jsonl(path)
        restored = ProfileStore.import_jsonl(path)
        follow_up = day_aggregate(timestamp=date(2020, 1, 9),
                                  review_length=42.0)
        assert np.array_equal(restored.update(follow_up),
                              store.update(follow_up))


class TestImportValidation:
    def _export(self, tmp_path):
        store = ProfileStore()
        store.update(day_aggregate(contributor_id="a"))
        store.update(day_aggregate(contributor_id="b", is_bot=True))
        path = tmp_path / "profiles.jsonl"
        store.export_jsonl(path)
        return path

    def _rewrite_second(self, path, edit):
        import json
        lines = path.read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[1])
        edit(record)
        lines[1] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    @pytest.mark.parametrize("name", ["contributor_id", "is_bot",
                                      "first_seen", "last_seen",
                                      "n_updates", "sums", "means"])
    def test_missing_field_names_line_and_field(self, tmp_path, name):
        path = self._export(tmp_path)
        self._rewrite_second(path, lambda record: record.pop(name))
        with pytest.raises(ValidationError) as exc:
            ProfileStore.import_jsonl(path)
        assert exc.value.line == 2 and exc.value.field == name

    @pytest.mark.parametrize("name,value,field", [
        ("is_bot", "yes", "is_bot"),
        ("n_updates", True, "n_updates"),
        ("n_updates", 1.5, "n_updates"),
        ("first_seen", "2020-13-01", "first_seen"),
        ("contributor_id", 7, "contributor_id"),
        ("sums", {"3": 1.0}, "sums.5"),
        ("means", [], "means"),
        ("sums", {"3": float("nan")}, "sums.3"),
        ("means", {"4": float("inf")}, "means.4"),
        ("means", {"4": float("-inf")}, "means.4"),
        ("sums", {"3": 10 ** 400}, "sums.3"),  # beyond the float range
    ])
    def test_wrong_type_names_line_and_field(self, tmp_path, name, value,
                                             field):
        path = self._export(tmp_path)
        self._rewrite_second(path,
                             lambda record: record.update({name: value}))
        with pytest.raises(ValidationError) as exc:
            ProfileStore.import_jsonl(path)
        assert exc.value.line == 2 and exc.value.field == field

    # A continued run would fold these silently: an f3 sum of -48, or
    # n_updates of -1 after one update.
    @pytest.mark.parametrize("field,edit", [
        ("n_updates", lambda record: record.update(n_updates=0)),
        ("n_updates", lambda record: record.update(n_updates=-2)),
        ("last_seen", lambda record: record.update(last_seen="2019-12-31")),
        ("sums.3", lambda record: record["sums"].update({"3": -48.0})),
        ("sums.14", lambda record: record["sums"].update({"14": -1})),
        ("means.4", lambda record: record["means"].update({"4": -0.5})),
        ("means.15.damaging_true",
         lambda record: record["means"].update({"15.damaging_true": -0.1})),
    ], ids=["n_updates-0", "n_updates-negative", "last_seen-before-first",
            "sums.3", "sums.14", "means.4", "means.15.damaging_true"])
    def test_degenerate_record_names_line_and_field(self, tmp_path, field,
                                                    edit):
        path = self._export(tmp_path)
        self._rewrite_second(path, edit)
        with pytest.raises(ValidationError) as exc:
            ProfileStore.import_jsonl(path)
        assert exc.value.line == 2 and exc.value.field == field

    def test_malformed_json_names_line(self, tmp_path):
        path = self._export(tmp_path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("{not json\n")
        with pytest.raises(ValidationError) as exc:
            ProfileStore.import_jsonl(path)
        assert exc.value.line == 3
