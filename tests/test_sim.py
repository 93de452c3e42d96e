import hashlib
from dataclasses import replace
from datetime import timedelta

import numpy as np
import pytest

from wikistream.analysis import pearson
from wikistream.ingest import aggregate_daily, parse_events
from wikistream.model import FEATURE_IDS, ValidationError
from wikistream.profiling import ProfileStore
from wikistream.sim import (
    ARCHETYPE_NAMES,
    DEFAULT_ARCHETYPES,
    START_DAY,
    SimConfig,
    _event_table,
    simulate,
    write_simulation,
)


def file_digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestConfigValidation:
    def test_unknown_archetype_rejected(self):
        with pytest.raises(ValidationError):
            SimConfig(counts={"alien": 3})

    def test_zero_population_rejected(self):
        with pytest.raises(ValidationError):
            SimConfig(counts={"human-benign": 0})

    def test_noise_range_enforced(self):
        with pytest.raises(ValidationError):
            SimConfig(counts={"human-benign": 1}, noise=1.5)

    @pytest.mark.parametrize("events", [-1, 1, 39])
    def test_event_count_below_population_rejected(self, events):
        with pytest.raises(ValidationError) as exc:
            SimConfig(counts={"human-benign": 40}, target_events=events)
        assert exc.value.field == "events"

    @pytest.mark.parametrize("seed", [-1, 1.5, "7", None, True])
    def test_seed_must_be_non_negative_integer(self, seed):
        with pytest.raises(ValidationError) as exc:
            SimConfig(counts={"human-benign": 1}, seed=seed)
        assert exc.value.field == "seed"

    def test_span_past_the_calendar_rejected(self):
        # 2020-01-01 plus 2 914 634 days is 9999-12-31, the last date
        with pytest.raises(ValidationError) as exc:
            SimConfig(counts={"human-benign": 1}, n_days=2_914_636)
        assert exc.value.field == "days"
        events, _ = simulate(SimConfig(counts={"human-benign": 1},
                                       n_days=2_914_635, target_events=1))
        assert len(events) == 1

    def test_event_count_of_one_per_contributor_accepted(self):
        cfg = SimConfig(counts={"human-benign": 40}, target_events=40)
        events, _ = simulate(cfg)
        assert len(events) == 40

    @pytest.mark.parametrize("counts,named", [
        ({"alien": 3}, "alien"),
        ({"human-benign": 2, "bot-malign": -1}, "bot-malign"),
        ({"human-benign": 0}, "zero total"),
    ])
    def test_population_errors_name_counts(self, counts, named):
        with pytest.raises(ValidationError) as exc:
            SimConfig(counts=counts)
        assert exc.value.field == "counts"
        assert named in str(exc.value)

    @pytest.mark.parametrize("noise,change,field", [
        # numpy's beta rejects a <= 0, its dirichlet alpha < 0
        (0.0, {"damaging_mean": 0.0}, "damaging_mean"),
        (0.0, {"goodfaith_mean": 1.0}, "goodfaith_mean"),
        (0.5, {"damaging_mean": -1.0}, "damaging_mean"),
        (0.0, {"damaging_mean": float("nan")}, "damaging_mean"),
        (0.0, {"item_means": (-0.1, 0.3, 0.3, 0.3, 0.2)}, "item_means"),
        (0.0, {"art_means": (0.5, float("inf"), 0.25, 0.25)}, "art_means"),
        # a largest alpha below 0.1 is drawn by stick-breaking
        (0.0, {"wp10_means": (0.002,) * 6}, "wp10_means"),
        (0.0, {"wp10_means": (0.5, 0.5)}, "wp10_means"),
        # these blend to a zero total
        (0.5, {"art_means": (-1.0, 0.0, 0.0, 0.0)}, "art_means"),
    ])
    def test_degenerate_score_means_rejected(self, noise, change, field):
        archetypes = dict(DEFAULT_ARCHETYPES)
        archetypes["bot-benign"] = replace(archetypes["bot-benign"], **change)
        with pytest.raises(ValidationError) as exc:
            SimConfig(counts={"human-benign": 1, "bot-benign": 1},
                      noise=noise, archetypes=archetypes)
        assert exc.value.field == f"archetypes.bot-benign.{field}"

    def test_score_means_checked_after_the_noise_blend(self):
        # a Beta mean of 0 blends to 0.25 and a negative Dirichlet mean
        # to a positive one; an archetype without contributors is not
        # drawn from
        archetypes = dict(DEFAULT_ARCHETYPES)
        archetypes["bot-benign"] = replace(
            archetypes["bot-benign"], damaging_mean=0.0,
            item_means=(-0.1, 0.3, 0.3, 0.3, 0.2))
        archetypes["bot-malign"] = replace(archetypes["bot-malign"],
                                           damaging_mean=0.0)
        events, _ = simulate(SimConfig(
            counts={"bot-benign": 2, "bot-malign": 0}, n_days=2, noise=0.5,
            archetypes=archetypes))
        assert len(events) > 0

    @pytest.mark.parametrize("rate", [0.0, -1.0, float("nan"), float("inf")])
    @pytest.mark.parametrize("noise", [0.0, 0.1])
    def test_edit_rate_must_be_finite_and_positive(self, rate, noise):
        # numpy rejects a negative or NaN rate itself; at noise 0.1 a
        # rate of 0 blends every rate to 0, one event per contributor
        archetypes = dict(DEFAULT_ARCHETYPES)
        archetypes["bot-benign"] = replace(archetypes["bot-benign"],
                                           edit_rate=rate)
        with pytest.raises(ValidationError) as exc:
            SimConfig(counts={"human-benign": 3, "bot-benign": 2}, n_days=3,
                      noise=noise, archetypes=archetypes)
        assert exc.value.field == "archetypes.bot-benign.edit_rate"


    @pytest.mark.parametrize("parameter,field", [
        ("review_length_log_mean", "review_length"),
        ("chars_inserted_log_mean", "chars_inserted"),
        ("chars_deleted_log_mean", "chars_deleted"),
    ])
    def test_non_finite_draw_rejected(self, parameter, field):
        archetypes = dict(DEFAULT_ARCHETYPES)
        archetypes["human-benign"] = replace(archetypes["human-benign"],
                                             **{parameter: 1000.0})
        cfg = SimConfig(counts={"human-benign": 2}, archetypes=archetypes)
        with pytest.raises(ValidationError) as exc:
            simulate(cfg)
        assert exc.value.field == field


class TestSimulate:
    def test_all_archetypes_present(self):
        cfg = SimConfig(counts={name: 10 for name in ARCHETYPE_NAMES},
                        n_days=5, seed=0)
        events, labels = simulate(cfg)
        assert len(labels) == 40
        assert set(labels.values()) == set(ARCHETYPE_NAMES)
        assert {e.contributor_id for e in events} == set(labels)

    def test_every_contributor_emits_events(self):
        cfg = SimConfig(counts={"human-benign": 5, "bot-malign": 5},
                        n_days=3, seed=1)
        events, labels = simulate(cfg)
        emitted = {e.contributor_id for e in events}
        assert emitted == set(labels)

    def test_events_sorted_and_valid(self):
        cfg = SimConfig(counts={name: 3 for name in ARCHETYPE_NAMES},
                        n_days=7, seed=2)
        events, _ = simulate(cfg)
        keys = [(e.day, e.contributor_id) for e in events]
        assert keys == sorted(keys)
        for event in events:
            event.validate()  # raises on any invariant violation

    def test_exact_event_budget(self):
        cfg = SimConfig(counts={name: 5 for name in ARCHETYPE_NAMES},
                        n_days=10, seed=3, target_events=1234)
        events, _ = simulate(cfg)
        assert len(events) == 1234

    def test_exact_event_budget_under_rate_skew(self):
        # the bot's share rounds up to far more events than the budget
        # leaves once every human holds one; trimming must continue
        cfg = SimConfig(counts={"human-benign": 999, "bot-malign": 1},
                        n_days=5, seed=0, target_events=1000)
        events, _ = simulate(cfg)
        assert len(events) == 1000

    def test_bot_flag_matches_archetype(self):
        cfg = SimConfig(counts={name: 4 for name in ARCHETYPE_NAMES},
                        n_days=5, seed=4)
        events, labels = simulate(cfg)
        for event in events:
            assert event.is_bot == labels[event.contributor_id].startswith("bot")

    def test_same_seed_same_stream(self):
        cfg = SimConfig(counts={"human-benign": 5, "bot-benign": 5},
                        n_days=5, seed=7)
        a, _ = simulate(cfg)
        b, _ = simulate(cfg)
        assert a == b

    def test_different_seed_different_stream(self):
        base = dict(counts={"human-benign": 5}, n_days=5)
        a, _ = simulate(SimConfig(seed=0, **base))
        b, _ = simulate(SimConfig(seed=1, **base))
        assert a != b

    def test_sorted_by_day_then_id_as_text(self):
        # c100000 sorts before c99999; the day comes first, and events
        # equal in both keep their draw order
        ids = ["c99999", "c100000", "c99999", "c100000", "c100000"]
        probs = [0.5, 0.5, 0.5, 0.5, *[0.2] * 5, *[0.25] * 4, *[0.125] * 4,
                 0.25, 0.25]
        values = np.array([[1.0, i, 0.0, 0.0, 0.0, *probs] for i in range(5)])
        table = _event_table(ids, [False] * 5, [0, 1, 2, 3, 4],
                             np.array([0, 0, 1, 1, 0]), [False] * 5, values)
        assert table.contributor_ids == ["c100000", "c100000", "c99999",
                                         "c100000", "c99999"]
        assert table.page_ids == ["p0001", "p0004", "p0000", "p0003", "p0002"]
        assert table.days == [START_DAY] * 3 + [START_DAY
                                                + timedelta(days=1)] * 2
        assert table.values[:, 1].tolist() == [1.0, 4.0, 0.0, 3.0, 2.0]


class TestSeparability:
    def _profiles(self, noise, seed=0):
        cfg = SimConfig(counts={name: 15 for name in ARCHETYPE_NAMES},
                        n_days=14, seed=seed, noise=noise)
        events, labels = simulate(cfg)
        store = ProfileStore()
        for agg in aggregate_daily(events):
            store.update(agg)
        return [(labels[profile.contributor_id],
                 dict(zip(FEATURE_IDS, profile.values.tolist())))
                for profile in store.profiles()]

    def test_weekly_rate_separates_bots_when_noiseless(self):
        rows = self._profiles(noise=0.0)
        rates = [snap["7"] for _, snap in rows]
        is_bot = [1.0 if name.startswith("bot") else 0.0 for name, _ in rows]
        assert abs(pearson(rates, is_bot)) > 0.9

    def test_noiseless_profiles_linearly_separable(self):
        # threshold oracle on (weekly rate, mean OK score): bots edit an
        # order of magnitude more, malign profiles sit below OK = 0.5
        rows = self._profiles(noise=0.0)
        rates = np.array([snap["7"] for _, snap in rows])
        boundary = np.sqrt(rates.min() * rates.max())
        for name, snap in rows:
            predicted_bot = snap["7"] > boundary
            predicted_malign = snap["17.ok"] < 0.5
            assert predicted_bot == name.startswith("bot")
            assert predicted_malign == name.endswith("malign")

    def test_noise_degrades_separation(self):
        def spread(noise):
            rows = self._profiles(noise=noise)
            ok = {True: [], False: []}
            for name, snap in rows:
                ok[name.endswith("malign")].append(snap["17.ok"])
            return np.mean(ok[False]) - np.mean(ok[True])

        assert spread(0.0) > spread(0.8) > 0


class TestOutputFiles:
    def test_written_stream_parses_back(self, tmp_path):
        cfg = SimConfig(counts={"human-benign": 3, "bot-malign": 3},
                        n_days=4, seed=0)
        events_path, labels_path = write_simulation(cfg, tmp_path)
        assert parse_events(events_path) == simulate(cfg)[0]
        text = labels_path.read_text(encoding="utf-8")
        assert text.startswith("contributor_id,archetype")

    def test_byte_identical_across_runs(self, tmp_path):
        cfg = SimConfig(counts={"human-benign": 4, "bot-benign": 4},
                        n_days=4, seed=9)
        first = tmp_path / "a"
        second = tmp_path / "b"
        write_simulation(cfg, first)
        write_simulation(cfg, second)
        assert file_digest(first / "events.csv") == file_digest(
            second / "events.csv")
        assert file_digest(first / "labels.csv") == file_digest(
            second / "labels.csv")
