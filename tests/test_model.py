import math
from datetime import date

import pytest

from wikistream.model import (
    FEATURE_IDS,
    FEATURE_INDEX,
    PROB_COLUMNS,
    PROBABILITY_GROUPS,
    DailyAggregate,
    EditEvent,
    ValidationError,
    derive_contribution_type,
    derive_user_type,
    feature_columns,
    joint_class,
)


def make_event(**overrides):
    """An EditEvent; probabilities are overridden by their column name."""
    base = dict(
        contributor_id="c1", is_bot=False, page_id="p1",
        timestamp=date(2020, 1, 1),
        review_length=100.0, links=2.0, repeated_links=1.0,
        chars_inserted=50.0, chars_deleted=10.0, was_reverted=False,
    )
    probs = dict(
        dmg_t=0.2, dmg_f=0.8, gf_t=0.9, gf_f=0.1,
        item_a=0.1, item_b=0.2, item_c=0.3, item_d=0.2, item_e=0.2,
        art_ok=0.7, art_attack=0.1, art_spam=0.1, art_vandalism=0.1,
        wp10_b=0.2, wp10_c=0.2, wp10_fa=0.1, wp10_ga=0.1,
        wp10_start=0.2, wp10_stub=0.2,
    )
    for key, value in overrides.items():
        (probs if key in probs else base)[key] = value
    return EditEvent(**base, probs=tuple(probs[c] for c in PROB_COLUMNS))


class TestContributionType:
    def test_high_ok_is_positive(self):
        assert derive_contribution_type(0.9) == 0

    def test_low_ok_is_negative(self):
        assert derive_contribution_type(0.1) == 1

    def test_boundary_is_negative(self):
        # "above" is strict: exactly 0.5 is not positive
        assert derive_contribution_type(0.5) == 1

    @pytest.mark.parametrize("bad", [-0.1, 1.5, float("nan"), float("inf")])
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(ValidationError) as exc:
            derive_contribution_type(bad)
        assert "ok_probability" in str(exc.value)


class TestUserType:
    def test_encoding(self):
        assert derive_user_type(False) == 0
        assert derive_user_type(True) == 1

    def test_round_trip(self):
        for flag in (True, False):
            assert (derive_user_type(flag) == 1) is flag


class TestJointClass:
    def test_cross_product_is_total(self):
        names = {joint_class(u, c) for u in (0, 1) for c in (0, 1)}
        assert names == {"human-benign", "human-malign",
                         "bot-benign", "bot-malign"}

    def test_target_labels(self):
        assert joint_class(1, 1) == "bot-malign"
        assert joint_class(0, 0) == "human-benign"


class TestEditEventValidation:
    def test_valid_event_passes(self):
        make_event().validate()

    def test_probability_group_sum_checked(self):
        event = make_event(dmg_t=0.7, dmg_f=0.7)
        with pytest.raises(ValidationError) as exc:
            event.validate()
        assert "probability group sum" in str(exc.value)

    def test_negative_count_rejected(self):
        with pytest.raises(ValidationError):
            make_event(links=-1.0).validate()

    def test_probability_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            make_event(art_ok=1.2, art_attack=-0.2).validate()

    def test_probability_count_checked(self):
        event = make_event()
        short = EditEvent(**{**event.__dict__, "probs": event.probs[:-1]})
        with pytest.raises(ValidationError) as exc:
            short.validate()
        assert "probs" in str(exc.value)


class TestDailyAggregate:
    def _values(self, **overrides):
        values = [0.0] * len(FEATURE_IDS)
        values[FEATURE_INDEX["3"]] = 1.0
        for group in PROBABILITY_GROUPS:
            for fid in group:
                values[FEATURE_INDEX[fid]] = 1.0 / len(group)
        for fid, v in overrides.items():
            values[FEATURE_INDEX[fid]] = v
        return tuple(values)

    def test_label_follows_daily_ok_average(self):
        agg = DailyAggregate("c1", date(2020, 1, 1), False,
                             self._values(**{"17.ok": 0.8, "17.attack": 0.1,
                                             "17.spam": 0.05,
                                             "17.vandalism": 0.05}))
        assert agg.contribution_type == 0
        assert joint_class(agg.user_type,
                           agg.contribution_type) == "human-benign"

    def test_requires_at_least_one_review(self):
        with pytest.raises(ValidationError):
            DailyAggregate("c1", date(2020, 1, 1), False,
                           self._values(**{"3": 0.0}))

    def test_averaging_preserves_group_normalization(self):
        # mean of two valid groups still sums to one
        a = [0.2, 0.8]
        b = [0.6, 0.4]
        mean = [(x + y) / 2 for x, y in zip(a, b)]
        assert math.isclose(sum(mean), 1.0, abs_tol=1e-6)


class TestCatalogue:
    def test_feature_order(self):
        assert FEATURE_IDS == (
            "3", "4", "5", "6", "7", "8", "9", "10", "11", "12", "13", "14",
            "15.damaging_true", "15.damaging_false",
            "15.goodfaith_true", "15.goodfaith_false",
            "16.A", "16.B", "16.C", "16.D", "16.E",
            "17.ok", "17.attack", "17.spam", "17.vandalism",
            "18.B", "18.C", "18.FA", "18.GA", "18.start", "18.stub",
        )

    def test_probability_groups(self):
        assert PROBABILITY_GROUPS == (
            ("15.damaging_true", "15.damaging_false"),
            ("15.goodfaith_true", "15.goodfaith_false"),
            ("16.A", "16.B", "16.C", "16.D", "16.E"),
            ("17.ok", "17.attack", "17.spam", "17.vandalism"),
            ("18.B", "18.C", "18.FA", "18.GA", "18.start", "18.stub"),
        )


class TestFeatureColumns:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValidationError):
            feature_columns(("3", "3"))

    def test_unknown_id_rejected(self):
        with pytest.raises(ValidationError):
            feature_columns(("99",))

    def test_keeps_given_order(self):
        columns = feature_columns(("5", "3"))
        assert columns.tolist() == [FEATURE_INDEX["5"], FEATURE_INDEX["3"]]
        assert not columns.flags.writeable  # shared by every caller
