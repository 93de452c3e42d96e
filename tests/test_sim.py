import hashlib

import numpy as np
import pytest

from wikistream.analysis import pearson
from wikistream.ingest import aggregate_daily, parse_events
from wikistream.model import FEATURE_IDS, ValidationError
from wikistream.profiling import ProfileStore
from wikistream.sim import (
    ARCHETYPE_NAMES,
    SimConfig,
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

    def test_event_count_of_one_per_contributor_accepted(self):
        cfg = SimConfig(counts={"human-benign": 40}, target_events=40)
        events, _ = simulate(cfg)
        assert len(events) == 40


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
        events = parse_events(events_path)
        reference, _ = simulate(cfg)
        assert events == reference
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
