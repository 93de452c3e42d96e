"""
Property-based tests of the classifiers' contracts, the aggregate files
and the profiles.

For the classifiers, hypothesis draws the shape of a stream (arity,
length, class count, value pattern, seed); numpy draws the values from
that seed, which keeps long streams cheap to generate.
"""

import math
import sys
import tempfile
from datetime import date
from pathlib import Path

import numpy as np
from hypothesis import event, given, settings
from hypothesis import strategies as st

from wikistream.ingest import read_aggregates, write_aggregates
from wikistream.learn import (
    BaggingForest,
    HoeffdingTree,
    StackingModel,
    make_classifier,
)
from wikistream.model import (
    CATALOGUE,
    FEATURE_IDS,
    FEATURE_INDEX,
    DailyAggregate,
)
from wikistream.profiling import ProfileStore

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


# Profile sums of these columns add integers, so any order gives one value.
INTEGER_SUMS = ("3", "5", "9", "13", "14")


@st.composite
def aggregate_values(draw):
    """A valid aggregate row: counts finite and >= 0 (whole numbers at
    INTEGER_SUMS, at least one review), every probability group a
    distribution."""
    values = [0.0] * len(FEATURE_IDS)
    groups = {}
    for fid, _, group in CATALOGUE:
        if group:
            groups.setdefault(group, []).append(FEATURE_INDEX[fid])
        elif fid in INTEGER_SUMS:
            values[FEATURE_INDEX[fid]] = float(draw(st.integers(
                1 if fid == "3" else 0, 10 ** 6)))
        else:
            values[FEATURE_INDEX[fid]] = draw(st.floats(0.0, 1e9))
    for columns in groups.values():
        weights = draw(st.lists(st.floats(0.0, 1.0), min_size=len(columns),
                                max_size=len(columns)))
        total = sum(weights)
        for column, weight in zip(columns, weights):
            values[column] = (weight / total if total > 0
                              else 1.0 / len(columns))
    return tuple(values)


@st.composite
def aggregate_rows(draw):
    ids = draw(st.lists(st.text(st.characters(codec="utf-8",
                                              exclude_categories=("Cs", "Cc")),
                                min_size=1, max_size=8),
                        min_size=1, max_size=4, unique=True))
    bots = {cid: draw(st.booleans()) for cid in ids}
    rows = draw(st.lists(st.tuples(
        st.sampled_from(ids),
        st.dates(date(2000, 1, 1), date(2099, 12, 31)),
        st.booleans(), aggregate_values()), min_size=1, max_size=12))
    return [DailyAggregate(cid, day, bots[cid], values, synthetic)
            for cid, day, synthetic, values in rows]


@settings(max_examples=60, deadline=None)
@given(rows=aggregate_rows(), suffix=st.sampled_from([".csv", ".jsonl"]))
def test_aggregate_file_round_trip_is_exact(rows, suffix):
    rows = sorted(rows, key=lambda a: (a.day, a.contributor_id))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"stream{suffix}"
        write_aggregates(rows, path)
        assert read_aggregates(path) == rows


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_profile_is_independent_of_fold_order(data):
    days = data.draw(st.lists(st.dates(date(2020, 1, 1), date(2021, 12, 31)),
                              min_size=1, max_size=30, unique=True))
    aggs = [DailyAggregate("c", day, False, data.draw(aggregate_values()))
            for day in days]
    stores = []
    for order in (aggs, data.draw(st.permutations(aggs))):
        store = ProfileStore()
        for agg in order:
            store.update(agg)
        stores.append(store.get("c"))
    a, b = stores
    assert (a.n_updates, a.first_seen, a.last_seen) == \
        (b.n_updates, b.first_seen, b.last_seen)
    for fid, x, y in zip(FEATURE_IDS, a.values.tolist(), b.values.tolist()):
        if fid in INTEGER_SUMS:
            assert x == y, fid
        else:
            # relative precision holds down to the smallest normal float;
            # subnormal running means may differ in their last bits
            assert math.isclose(x, y, rel_tol=1e-9,
                                abs_tol=sys.float_info.min), fid
