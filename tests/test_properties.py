"""
Property-based tests of the classifiers' contracts.

Hypothesis draws the shape of a stream (arity, length, class count,
value pattern, seed); numpy draws the values from that seed, which keeps
long streams cheap to generate.
"""

import numpy as np
from hypothesis import event, given, settings
from hypothesis import strategies as st

from wikistream.learn import (
    BaggingForest,
    HoeffdingTree,
    StackingModel,
    make_classifier,
)
from wikistream.model import FEATURE_IDS

PATTERNS = ("uniform", "constant", "ties", "wide")


def draw_stream(seed, n, d, n_classes, pattern, noise):
    rng = np.random.default_rng(seed)
    if pattern == "uniform":
        xs = rng.random((n, d))
    elif pattern == "constant":
        xs = np.full((n, d), 3.0)
    elif pattern == "ties":
        xs = rng.integers(0, 3, size=(n, d)).astype(float)
    else:
        xs = rng.normal(0.0, 1e6, size=(n, d))
    # a threshold on feature 0, with a ``noise`` share of random labels
    informative = (xs[:, 0] > np.median(xs[:, 0])).astype(int) % n_classes
    random = rng.integers(0, n_classes, size=n)
    ys = np.where(rng.random(n) < noise, random, informative)
    return xs, ys.tolist()


def assert_distribution(probs, n_classes):
    probs = np.asarray(probs)
    assert probs.shape == (n_classes,)
    assert np.all(probs >= 0.0)
    assert abs(probs.sum() - 1.0) <= 1e-12


streams = st.tuples(st.integers(0, 2 ** 32 - 1), st.integers(1, 700),
                    st.integers(1, 6), st.integers(2, 3),
                    st.sampled_from(PATTERNS),
                    st.sampled_from([0.0, 0.1, 0.5, 1.0]))


@settings(max_examples=25, deadline=None)
@given(kind=st.sampled_from(["nb", "dt", "rf", "bc"]), stream=streams)
def test_classifier_returns_a_distribution(kind, stream):
    seed, n, d, n_classes, pattern, noise = stream
    xs, ys = draw_stream(seed, n, d, n_classes, pattern, noise)
    classes = list(range(n_classes))
    clf = make_classifier(kind, seed=seed % 1000, classes=classes)
    assert_distribution(clf.predict_proba(xs[0]), n_classes)
    for x, y in zip(xs, ys):
        assert_distribution(clf.predict_proba(x), n_classes)
        clf.learn_one(x, y)
    assert_distribution(clf.predict_proba(xs[-1]), n_classes)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 400),
       pattern=st.sampled_from(PATTERNS))
def test_stacking_returns_distributions(seed, n, pattern):
    xs, ys = draw_stream(seed, n, len(FEATURE_IDS), 2, pattern, 0.1)
    labels = np.random.default_rng(seed).integers(0, 2, size=n)
    model = StackingModel(seed=seed % 1000)
    for x, y_user, y_contribution in zip(xs, labels.tolist(), ys):
        user_probs, final_probs, _ = model.predict_learn(
            x, y_user, y_contribution)
        assert_distribution(user_probs, 2)
        assert_distribution(final_probs, 2)


@settings(max_examples=20, deadline=None)
@given(stream=streams.filter(lambda s: s[1] >= 200))
def test_one_member_forest_is_the_tree(stream):
    seed, n, d, n_classes, pattern, noise = stream
    xs, ys = draw_stream(seed, n, d, n_classes, pattern, noise)
    classes = list(range(n_classes))
    forest = BaggingForest(n_members=1, classes=classes, seed=seed % 1000,
                           max_features=None, use_poisson=False)
    tree = HoeffdingTree(classes)
    for x, y in zip(xs, ys):
        assert forest.predict_proba(x).tolist() == \
            tree.predict_proba(x).tolist()
        forest.learn_one(x, y)
        tree.learn_one(x, y)
    assert forest.to_state()["members"] == [tree.to_state()]
    event(f"tree nodes: {len(tree.store.nodes[0])}")
