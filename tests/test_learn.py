import math

import numpy as np
import pytest

from wikistream.analysis import SET3_TARGET1, SET3_TARGET2
from wikistream.learn import (
    HOEFFDING_MAX_DEPTH,
    BaggingForest,
    GaussianNaiveBayes,
    HoeffdingTree,
    OnlineBoosting,
    StackingModel,
    TreeStore,
    hoeffding_bound,
    make_classifier,
)
from wikistream.model import FEATURE_IDS, ValidationError, feature_columns


class TestGaussianNaiveBayes:
    def test_untrained_is_uniform(self):
        clf = GaussianNaiveBayes()
        probs = clf.predict_proba([1.0, 2.0])
        assert np.allclose(probs, [0.5, 0.5])

    def test_single_class_certainty(self):
        clf = GaussianNaiveBayes()
        for v in (1.0, 1.1, 0.9):
            clf.learn_one([v], 0)
        probs = clf.predict_proba([1.0])
        assert probs[0] == pytest.approx(1.0)

    def test_two_gaussians_oracle(self):
        rng = np.random.default_rng(0)
        clf = GaussianNaiveBayes()
        for _ in range(500):
            clf.learn_one([rng.normal(0.0, 0.05)], 0)
            clf.learn_one([rng.normal(1.0, 0.05)], 1)
        assert clf.predict([0.01]) == 0
        assert clf.predict([0.99]) == 1

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(1)
        clf = GaussianNaiveBayes()
        for _ in range(50):
            clf.learn_one(rng.normal(size=3), int(rng.random() > 0.5))
        assert clf.predict_proba(rng.normal(size=3)).sum() == pytest.approx(1.0)

    def test_arity_fixed_by_first_call(self):
        clf = GaussianNaiveBayes()
        clf.learn_one([1.0, 2.0], 0)
        with pytest.raises(ValidationError):
            clf.predict_proba([1.0])

    def test_state_round_trip(self):
        rng = np.random.default_rng(2)
        clf = GaussianNaiveBayes()
        for _ in range(30):
            clf.learn_one(rng.normal(size=2), int(rng.random() > 0.5))
        restored = GaussianNaiveBayes.from_state(clf.to_state())
        x = rng.normal(size=2)
        assert np.allclose(restored.predict_proba(x), clf.predict_proba(x))


class TestHoeffdingBound:
    def test_reference_value(self):
        # R=1 (binary), delta=1e-7, n=200
        assert hoeffding_bound(1.0, 1e-7, 200) == pytest.approx(0.2007,
                                                                abs=1e-4)

    def test_shrinks_with_n(self):
        values = [hoeffding_bound(1.0, 1e-7, n) for n in (10, 100, 1000)]
        assert values == sorted(values, reverse=True)

    def test_closed_form(self):
        for r, d, n in [(1.0, 1e-7, 200), (2.0, 0.05, 50)]:
            expected = math.sqrt(r * r * math.log(1 / d) / (2 * n))
            assert hoeffding_bound(r, d, n) == expected


def threshold_stream(n, seed=0, boundary=0.5):
    """One informative feature; label = feature above the boundary."""
    rng = np.random.default_rng(seed)
    xs = rng.random((n, 3))
    ys = (xs[:, 0] > boundary).astype(int)
    return xs, ys


class TestHoeffdingTree:
    def test_no_split_before_grace_period(self):
        xs, ys = threshold_stream(199)
        tree = HoeffdingTree()
        for x, y in zip(xs, ys):
            tree.learn_one(x, int(y))
        assert tree.store.is_leaf(0)

    def test_learns_threshold_concept(self):
        xs, ys = threshold_stream(5000, seed=1)
        tree = HoeffdingTree()
        correct = 0
        for i, (x, y) in enumerate(zip(xs, ys)):
            if i >= 4000 and tree.predict(x) == y:
                correct += 1
            tree.learn_one(x, int(y))
        assert correct / 1000 >= 0.95
        assert not tree.store.is_leaf(0)

    def test_untrained_predicts_uniform(self):
        tree = HoeffdingTree()
        assert np.allclose(tree.predict_proba([0.0, 0.0]), [0.5, 0.5])

    def test_state_round_trip_preserves_behavior(self):
        xs, ys = threshold_stream(2000, seed=2)
        tree = HoeffdingTree()
        for x, y in zip(xs, ys):
            tree.learn_one(x, int(y))
        restored = HoeffdingTree.from_state(tree.to_state())
        probe, _ = threshold_stream(50, seed=3)
        for x in probe:
            assert np.allclose(restored.predict_proba(x),
                               tree.predict_proba(x))

    @pytest.mark.parametrize("name,value", [
        ("delta", 1e-3), ("tie_threshold", 0.1), ("grace_period", 50),
        ("max_depth", 5)])
    def test_checkpoint_with_other_setting_rejected(self, name, value):
        tree = HoeffdingTree()
        tree.learn_one([0.0, 1.0], 0)
        state = tree.to_state()
        assert state[name] == HoeffdingTree().to_state()[name]
        state[name] = value
        with pytest.raises(ValidationError) as exc:
            HoeffdingTree.from_state(state)
        assert exc.value.field == name

    def test_round_trip_continues_identically(self):
        xs, ys = threshold_stream(1000, seed=4)
        tree = HoeffdingTree()
        for x, y in zip(xs[:500], ys[:500]):
            tree.learn_one(x, int(y))
        restored = HoeffdingTree.from_state(tree.to_state())
        for x, y in zip(xs[500:], ys[500:]):
            tree.learn_one(x, int(y))
            restored.learn_one(x, int(y))
        probe, _ = threshold_stream(20, seed=5)
        for x in probe:
            assert np.allclose(restored.predict_proba(x),
                               tree.predict_proba(x))


def attempted(counts, mean, m2=0.0, depth=0):
    """A one-member store whose root leaf, at ``depth``, holds class
    ``counts`` and per-class ``mean`` and ``m2`` rows (one entry per
    feature; m2 0 is the variance floor), after one split attempt."""
    mean = np.array(mean, dtype=float)
    store = TreeStore([np.arange(mean.shape[1])], len(counts))
    store.counts[0], store.mean[0], store.m2[0] = counts, mean, m2
    store.depth[0] = depth
    store._attempt_split(0, 0)
    return store


# Three classes with far apart means on feature 0: the pairs (0, 1) at
# 5 and (1, 2) at 15 each part one class from the other two, with equal
# gains, above the Hoeffding radius of 3000 examples; (0, 2) at 10 halves
# class 1 and gains less.
THREE_CLASSES = [1000.0] * 3
SPREAD = [0.0, 10.0, 20.0]


class TestSplitTieBreaks:
    def test_lowest_feature_wins_equal_gains(self):
        # features 1 and 2 part the classes alike; feature 0, of unit
        # variance, less; 2e5 examples shrink the radius below the tie
        # threshold
        store = attempted([1e5, 1e5], [[0.0, 0.0, 0.0], [1.0, 10.0, 10.0]],
                          [[1e5, 0.0, 0.0]] * 2)
        assert store.nodes[0] == (1, 5.0, 1, 2)

    def test_first_class_pair_wins_within_a_feature(self):
        store = attempted(THREE_CLASSES, [[m] for m in SPREAD])
        assert store.nodes[0] == (0, 5.0, 1, 2)

    def test_leaf_at_max_depth_never_splits(self):
        mean = [[m] for m in SPREAD]
        assert attempted(THREE_CLASSES, mean,
                         depth=HOEFFDING_MAX_DEPTH).is_leaf(0)
        store = attempted(THREE_CLASSES, mean, depth=HOEFFDING_MAX_DEPTH - 1)
        assert not store.is_leaf(0)
        assert store.depth[[1, 2]].tolist() == [HOEFFDING_MAX_DEPTH] * 2

    def test_runner_up_is_zero_with_one_scoring_feature(self):
        # feature 1 gives every class one mean, so only feature 0 scores;
        # its second best pair's equal gain is not the runner-up, which
        # would leave a gap of 0, below the radius
        store = attempted(THREE_CLASSES, [[m, 5.0] for m in SPREAD])
        assert store.nodes[0] == (0, 5.0, 1, 2)


BAD_VECTORS = [([float("nan"), 2.0], "feature 0"),
               ([1.0, float("inf")], "feature 1"),
               ([-float("inf"), float("nan")], "feature 0"),
               ([], "non-empty")]


class TestFeatureVectorEdge:
    """An empty or non-finite feature vector raises ValidationError
    before any state changes, so the checkpoint stays loadable."""

    @pytest.mark.parametrize("kind", ["nb", "dt", "rf", "bc"])
    @pytest.mark.parametrize("learned", [False, True])
    @pytest.mark.parametrize("x,named", BAD_VECTORS)
    def test_rejected_before_any_change(self, kind, learned, x, named):
        model = make_classifier(kind)
        if learned:
            model.learn_one([1.0, 2.0], 0)
        before = model.to_state()
        for step in (model.predict_proba, lambda x: model.learn_one(x, 0),
                     lambda x: model.predict_learn(x, 0)):
            with pytest.raises(ValidationError, match=named):
                step(x)
        assert model.to_state() == before
        restored = type(model).from_state(model.to_state())
        assert restored.to_state() == before

    @pytest.mark.parametrize("learned", [False, True])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_stacking_rejects_a_non_finite_feature(self, learned, value):
        model = StackingModel(seed=0)
        if learned:
            model.learn(profile_vector(), 1, 0)
        before = model.to_state()
        x = profile_vector()
        x[5] = value
        for step in (model.predict, lambda x: model.learn(x, 1, 0)):
            with pytest.raises(ValidationError, match="feature 5"):
                step(x)
        assert model.to_state() == before
        assert StackingModel.from_state(before).to_state() == before

    @pytest.mark.parametrize("kind", ["nb", "dt", "rf", "bc"])
    def test_flat_vector_required(self, kind):
        with pytest.raises(ValidationError, match="flat"):
            make_classifier(kind).learn_one([[1.0, 2.0]], 0)


class TestBaggingForest:
    def test_single_member_full_features_equals_tree(self):
        xs, ys = threshold_stream(1500, seed=0)
        forest = BaggingForest(n_members=1, max_features=None,
                               use_poisson=False, seed=0)
        tree = HoeffdingTree()
        for x, y in zip(xs, ys):
            forest.learn_one(x, int(y))
            tree.learn_one(x, int(y))
        probe, _ = threshold_stream(30, seed=9)
        for x in probe:
            assert np.allclose(forest.predict_proba(x), tree.predict_proba(x))

    def test_feature_subsets_have_sqrt_size(self):
        forest = BaggingForest(n_members=5, seed=0)
        forest.learn_one(np.zeros(9), 0)
        assert all(len(s) == 3 for s in forest.subsets)
        assert all(len(set(s.tolist())) == len(s) for s in forest.subsets)

    def test_seeded_reproducibility(self):
        xs, ys = threshold_stream(800, seed=1)
        runs = []
        for _ in range(2):
            forest = BaggingForest(n_members=5, seed=42)
            for x, y in zip(xs, ys):
                forest.learn_one(x, int(y))
            runs.append([forest.predict_proba(x).tolist() for x in xs[:20]])
        assert runs[0] == runs[1]

    def test_different_seeds_differ(self):
        forest_a = BaggingForest(n_members=5, seed=0)
        forest_b = BaggingForest(n_members=5, seed=1)
        forest_a.learn_one(np.zeros(16), 0)
        forest_b.learn_one(np.zeros(16), 0)
        assert any(not np.array_equal(a, b)
                   for a, b in zip(forest_a.subsets, forest_b.subsets))

    def test_learns_concept(self):
        xs, ys = threshold_stream(4000, seed=2)
        forest = BaggingForest(n_members=10, seed=0)
        correct = 0
        for i, (x, y) in enumerate(zip(xs, ys)):
            if i >= 3000 and forest.predict(x) == y:
                correct += 1
            forest.learn_one(x, int(y))
        assert correct / 1000 >= 0.9

    def test_member_with_other_setting_rejected(self):
        forest = BaggingForest(n_members=3, seed=0)
        forest.learn_one(np.zeros(4), 0)
        state = forest.to_state()
        state["members"][2]["grace_period"] = 10
        with pytest.raises(ValidationError) as exc:
            BaggingForest.from_state(state)
        assert exc.value.field == "members.2.grace_period"

    def test_state_round_trip(self):
        xs, ys = threshold_stream(600, seed=3)
        forest = BaggingForest(n_members=4, seed=7)
        for x, y in zip(xs, ys):
            forest.learn_one(x, int(y))
        restored = BaggingForest.from_state(forest.to_state())
        for x, y in zip(*threshold_stream(100, seed=4)):
            assert restored.predict(x) == forest.predict(x)
            forest.learn_one(x, int(y))
            restored.learn_one(x, int(y))
        probe, _ = threshold_stream(10, seed=5)
        for x in probe:
            assert np.allclose(restored.predict_proba(x),
                               forest.predict_proba(x))


class TestOnlineBoosting:
    def test_untrained_is_uniform(self):
        clf = OnlineBoosting(n_members=3, seed=0)
        assert np.allclose(clf.predict_proba([0.0]), [0.5, 0.5])

    def test_learns_concept(self):
        xs, ys = threshold_stream(4000, seed=6)
        clf = OnlineBoosting(n_members=10, seed=0)
        correct = 0
        for i, (x, y) in enumerate(zip(xs, ys)):
            if i >= 3000 and clf.predict(x) == y:
                correct += 1
            clf.learn_one(x, int(y))
        assert correct / 1000 >= 0.9

    def test_lambda_bookkeeping_grows(self):
        xs, ys = threshold_stream(300, seed=7)
        clf = OnlineBoosting(n_members=3, seed=0)
        for x, y in zip(xs, ys):
            clf.learn_one(x, int(y))
        totals = clf.lambda_correct + clf.lambda_wrong
        assert np.all(totals > 0)

    def test_state_round_trip(self):
        xs, ys = threshold_stream(400, seed=8)
        clf = OnlineBoosting(n_members=3, seed=1)
        for x, y in zip(xs, ys):
            clf.learn_one(x, int(y))
        restored = OnlineBoosting.from_state(clf.to_state())
        probe, _ = threshold_stream(20, seed=9)
        for x in probe:
            assert np.allclose(restored.predict_proba(x),
                               clf.predict_proba(x))


def profile_vector(rng=None, bot=False, malign=False):
    """A plausible feature array in the order of StackingModel.features;
    only the columns the stacking forests read are drawn."""
    ids = tuple(dict.fromkeys(SET3_TARGET1.feature_ids
                              + SET3_TARGET2.feature_ids))
    rng = rng or np.random.default_rng(0)
    values = []
    for fid in ids:
        if fid == "7":
            values.append(float(rng.normal(300 if bot else 10, 2)))
        elif fid == "16.E":
            # informative but overlapping, so no two features tie exactly
            values.append(float(np.clip(
                rng.normal(0.8 if bot else 0.2, 0.25), 0.0, 1.0)))
        elif fid == "18.stub":
            values.append(float(np.clip(
                rng.normal(0.7 if malign else 0.1, 0.1), 0.0, 1.0)))
        else:
            values.append(float(np.clip(rng.random(), 0.0, 1.0)))
    x = np.zeros(len(FEATURE_IDS))
    x[feature_columns(ids)] = values
    return x


class TestStackingModel:
    def test_untrained_predictions_uniform(self):
        model = StackingModel(seed=0)
        user_probs, final_probs, joint = model.predict(profile_vector())
        assert np.allclose(user_probs, [0.5, 0.5])
        assert np.allclose(final_probs, [0.5, 0.5])
        assert joint in {"human-benign", "human-malign",
                         "bot-benign", "bot-malign"}

    def test_level_two_arity(self):
        model = StackingModel(seed=0)
        model.learn(profile_vector(), 0, 0)
        expected = 2 + len(SET3_TARGET2)
        assert model.forest_final.n_features == expected

    def test_input_is_the_full_catalogue(self):
        assert StackingModel(seed=0).features.feature_ids == FEATURE_IDS

    def test_unknown_feature_rejected(self):
        state = StackingModel(seed=0).to_state()
        state["user_features"] = ["99"]
        with pytest.raises(ValidationError) as exc:
            StackingModel.from_state(state)
        assert exc.value.field == "user_features"

    @pytest.mark.parametrize("name,value,field", [
        ("contribution_features", list(SET3_TARGET1.feature_ids),
         "contribution_features"),
        ("include_base_features", False, "include_base_features"),
        ("forest_final", {"n_members": 10}, "forest_final.n_members"),
    ])
    def test_checkpoint_with_other_setting_rejected(self, name, value, field):
        state = StackingModel(seed=0).to_state()
        if isinstance(value, dict):
            state[name].update(value)
        else:
            state[name] = value
        with pytest.raises(ValidationError) as exc:
            StackingModel.from_state(state)
        assert exc.value.field == field

    def test_wrong_input_length_rejected(self):
        model = StackingModel(seed=0)
        with pytest.raises(ValidationError):
            model.predict(profile_vector()[:-1])

    def test_level_one_arities(self):
        model = StackingModel(seed=0)
        model.learn(profile_vector(), 1, 1)
        assert model.forest_user.n_features == len(SET3_TARGET1)
        assert model.forest_contribution.n_features == len(SET3_TARGET2)

    @pytest.mark.parametrize("learned", [False, True])
    @pytest.mark.parametrize("restored", [False, True])
    def test_forests_do_not_step_on_their_own(self, learned, restored):
        """The model steps its forests; the shared store's members read
        catalogue columns, so a forest's own step would read the wrong
        ones."""
        model = StackingModel(seed=0)
        if learned:
            model.learn(profile_vector(), 1, 1)
        if restored:
            model = StackingModel.from_state(model.to_state())
        before = model.to_state()
        forest = model.forest_contribution
        x = np.zeros(len(SET3_TARGET2))
        for step in (forest.predict_proba, lambda x: forest.learn_one(x, 0),
                     lambda x: forest.predict_learn(x, 0)):
            with pytest.raises(ValidationError):
                step(x)
        assert model.to_state() == before

    def test_replay_determinism(self):
        rng = np.random.default_rng(3)
        stream = [(profile_vector(rng, bot=b, malign=m), int(b), int(m))
                  for b, m in ((i % 2 == 0, i % 3 == 0) for i in range(200))]
        outputs = []
        for _ in range(2):
            model = StackingModel(seed=5)
            run = []
            for fv, yu, yc in stream:
                _, final_probs, joint = model.predict(fv)
                run.append((final_probs.tolist(), joint))
                model.learn(fv, yu, yc)
            outputs.append(run)
        assert outputs[0] == outputs[1]

    def test_predict_learn_is_predict_then_learn(self):
        rng = np.random.default_rng(7)
        apart, joined = StackingModel(seed=1), StackingModel(seed=1)
        for i in range(400):
            bot, malign = i % 2 == 0, i % 3 == 0
            fv = profile_vector(rng, bot=bot, malign=malign)
            a = apart.predict(fv)
            apart.learn(fv, int(bot), int(malign))
            b = joined.predict_learn(fv, int(bot), int(malign))
            assert (a[0].tolist(), a[1].tolist(), a[2]) == \
                (b[0].tolist(), b[1].tolist(), b[2])
        assert apart.to_state() == joined.to_state()

    def test_learns_joint_concept(self):
        rng = np.random.default_rng(4)
        model = StackingModel(seed=0)
        correct = 0
        n = 3000
        for i in range(n):
            bot = bool(rng.random() > 0.5)
            malign = bool(rng.random() > 0.5)
            fv = profile_vector(rng, bot=bot, malign=malign)
            _, _, joint = model.predict(fv)
            expected = f"{'bot' if bot else 'human'}-" \
                       f"{'malign' if malign else 'benign'}"
            if i >= n - 500 and joint == expected:
                correct += 1
            model.learn(fv, int(bot), int(malign))
        assert correct / 500 >= 0.9

    def test_state_round_trip_continues_identically(self):
        rng = np.random.default_rng(6)
        model = StackingModel(seed=2)
        for i in range(300):
            bot, malign = i % 2 == 0, i % 5 == 0
            model.learn(profile_vector(rng, bot=bot, malign=malign),
                        int(bot), int(malign))
        restored = StackingModel.from_state(model.to_state())
        for i in range(100):
            fv = profile_vector(rng, bot=i % 2 == 0, malign=i % 3 == 0)
            a = model.predict(fv)
            b = restored.predict(fv)
            assert np.allclose(a[0], b[0]) and np.allclose(a[1], b[1])
            assert a[2] == b[2]
            model.learn(fv, i % 2, i % 3 == 0)
            restored.learn(fv, i % 2, i % 3 == 0)


class TestFactory:
    def test_known_kinds(self):
        assert isinstance(make_classifier("nb"), GaussianNaiveBayes)
        assert isinstance(make_classifier("dt"), HoeffdingTree)
        assert isinstance(make_classifier("rf"), BaggingForest)
        assert isinstance(make_classifier("bc"), OnlineBoosting)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError):
            make_classifier("svm")
