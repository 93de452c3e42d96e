"""
Property-based tests of the classifiers' contracts, the event and
aggregate files and the profiles.

For the classifiers, hypothesis draws the shape of a stream (arity,
length, class count, value pattern, seed); numpy draws the values from
that seed, which keeps long streams cheap to generate.
"""

import csv
import json
import math
import sys
import tempfile
from datetime import date
from itertools import chain
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from wikistream.analysis import FEATURE_SETS, SET3_TARGET1, SET3_TARGET2
from wikistream.ingest import (
    AGGREGATE_COLUMNS,
    EVENT_COLUMNS,
    load_stream,
    parse_events,
    read_aggregates,
    write_aggregates,
    write_rows,
)
from wikistream.learn import (
    HOEFFDING_DELTA,
    HOEFFDING_GRACE_PERIOD,
    HOEFFDING_MAX_DEPTH,
    HOEFFDING_TIE_THRESHOLD,
    POISSON_BLOCK,
    STACKING_ENSEMBLE_SIZE,
    VARIANCE_FLOOR,
    BaggingForest,
    HoeffdingTree,
    OnlineBoosting,
    StackingModel,
    TreeStore,
    _fold,
    _substream,
    hoeffding_bound,
    make_classifier,
)
from wikistream.model import (
    CATALOGUE,
    EVENT_COUNT_FIELDS,
    FEATURE_IDS,
    FEATURE_INDEX,
    PROBABILITY_GROUPS,
    AggregateBatch,
    DailyAggregate,
    EditEvent,
    ValidationError,
    feature_columns,
)
from wikistream.profiling import ProfileStore, to_feature_vector
from wikistream.sim import write_events

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
    event(f"tree nodes: {len(tree.store.nodes)}")


# Long enough to cross a refill of the Poisson block and to split trees
# (a leaf first tries to split after 200 examples).
long_streams = st.tuples(st.integers(0, 2 ** 32 - 1),
                         st.integers(max(300, POISSON_BLOCK + 1), 800),
                         st.integers(1, 6), st.integers(2, 3),
                         st.sampled_from(PATTERNS),
                         st.sampled_from([0.0, 0.1, 0.5]))


@settings(max_examples=20, deadline=None)
@given(kind=st.sampled_from(["nb", "dt", "rf", "bc"]), stream=long_streams)
def test_predict_learn_is_predict_then_learn(kind, stream):
    seed, n, d, n_classes, pattern, noise = stream
    xs, ys = draw_stream(seed, n, d, n_classes, pattern, noise)
    classes = list(range(n_classes))
    apart, joined = (make_classifier(kind, seed=seed % 1000, classes=classes)
                     for _ in range(2))
    for x, y in zip(xs, ys):
        expected = apart.predict_proba(x).tolist()
        apart.learn_one(x, y)
        assert joined.predict_learn(x, y).tolist() == expected
    assert joined.to_state() == apart.to_state()
    if kind in ("dt", "rf", "bc"):
        event(f"{kind} nodes: {len(joined.store.nodes)}")


@settings(max_examples=6, deadline=None)
@given(stream=long_streams)
def test_stacking_predict_learn_is_predict_then_learn(stream):
    seed, n, _, _, pattern, noise = stream
    xs, ys = draw_stream(seed, n, len(FEATURE_IDS), 2, pattern, noise)
    labels = np.random.default_rng(seed).integers(0, 2, size=n).tolist()
    apart, joined = StackingModel(seed=seed % 1000), \
        StackingModel(seed=seed % 1000)
    for x, y_user, y_contribution in zip(xs, labels, ys):
        a = apart.predict(x)
        apart.learn(x, y_user, y_contribution)
        b = joined.predict_learn(x, y_user, y_contribution)
        assert (a[0].tolist(), a[1].tolist(), a[2]) == \
            (b[0].tolist(), b[1].tolist(), b[2])
    assert joined.to_state() == apart.to_state()


def node_dicts(state):
    """The number of tree node dicts nested in a checkpoint."""
    if isinstance(state, dict):
        return ("class_counts" in state) + sum(map(node_dicts,
                                                   state.values()))
    if isinstance(state, list):
        return sum(map(node_dicts, state))
    return 0


def null_roots(state):
    """The number of members in a checkpoint that have learned nothing:
    they write a null root but keep their root node."""
    if isinstance(state, dict):
        return (state.get("root", 0) is None) + sum(map(null_roots,
                                                        state.values()))
    if isinstance(state, list):
        return sum(map(null_roots, state))
    return 0


def assert_node_table(model, n_members):
    """Each node of the model's store hangs under exactly one of its
    ``n_members`` roots, node m being member m's; the table holds the
    roots and two nodes per split, as many as the model's checkpoint
    writes and ``from_state`` rebuilds."""
    store = model.store
    reached = []
    for m in range(n_members):
        todo = [m]
        while todo:
            node = todo.pop()
            reached.append(node)
            column, _, left, right = store.nodes[node]
            if column >= 0:
                todo += [left, right]
    assert sorted(reached) == list(range(len(store.nodes)))
    splits = sum(column >= 0 for column, *_ in store.nodes)
    assert len(store.nodes) == n_members + 2 * splits
    state = model.to_state()
    assert len(store.nodes) == node_dicts(state) + null_roots(state)
    restored = type(model).from_state(state)
    assert len(restored.store.nodes) == len(store.nodes)
    return splits


@settings(max_examples=12, deadline=None)
@given(kind=st.sampled_from(["rf", "bc", "stacking"]), stream=long_streams)
def test_node_table_holds_each_tree_once(kind, stream):
    seed, n, d, n_classes, pattern, noise = stream
    if kind == "stacking":
        xs, ys = draw_stream(seed, n, len(FEATURE_IDS), 2, pattern, noise)
        # the informative column to column 25, which every forest reads
        xs = np.roll(xs, 25, axis=1)
        model = StackingModel(seed=seed % 1000)
        for x, y in zip(xs, ys):
            model.predict_learn(x, y, y)
        # the three forests share one store
        n_members = 3 * STACKING_ENSEMBLE_SIZE
    else:
        xs, ys = draw_stream(seed, n, d, n_classes, pattern, noise)
        model = make_classifier(kind, seed=seed % 1000,
                                classes=list(range(n_classes)))
        for x, y in zip(xs, ys):
            model.predict_learn(x, y)
        n_members = model.n_members
    splits = assert_node_table(model, n_members)
    event(f"{kind} splits: {splits}")


def forest_steps(forests, x, y_user, y_contribution):
    """The stacking levels as three stand-alone forests: (user probs,
    final contribution probs) of one ``predict_learn`` each."""
    user, contribution, final = forests
    xc = x[feature_columns(SET3_TARGET2.feature_ids)]
    user_probs = user.predict_learn(
        x[feature_columns(SET3_TARGET1.feature_ids)], y_user)
    contribution_probs = contribution.predict_learn(xc, y_contribution)
    final_probs = final.predict_learn(
        np.concatenate(((user_probs[1], contribution_probs[1]), xc)),
        y_contribution)
    return user_probs, final_probs


@settings(max_examples=6, deadline=None)
@given(stream=long_streams)
def test_stacking_is_three_forests(stream):
    seed, n, _, _, pattern, noise = stream
    seed %= 1000
    xs, ys = draw_stream(seed, n, len(FEATURE_IDS), 2, pattern, noise)
    xs = np.roll(xs, 25, axis=1)  # so that every level can split
    labels = np.random.default_rng(seed).integers(0, 2, size=n).tolist()
    model = StackingModel(seed=seed)
    forests = [BaggingForest(STACKING_ENSEMBLE_SIZE,
                             seed=_substream(seed, i), max_features=None)
               for i in (1, 2, 3)]
    for i, (x, y_user, y_contribution) in enumerate(zip(xs, labels, ys)):
        if i % 97 == 1:  # a prediction alone changes no state
            before = json.dumps(model.to_state())
            predicted = model.predict(x)
            assert json.dumps(model.to_state()) == before
        user_probs, final_probs, _ = model.predict_learn(
            x, y_user, y_contribution)
        expected = forest_steps(forests, x, y_user, y_contribution)
        assert (user_probs.tolist(), final_probs.tolist()) == \
            (expected[0].tolist(), expected[1].tolist())
        if i % 97 == 1:
            assert (predicted[0].tolist(), predicted[1].tolist()) == \
                (user_probs.tolist(), final_probs.tolist())
    state = model.to_state()
    assert json.dumps([state["forest_user"], state["forest_contribution"],
                       state["forest_final"]]) == \
        json.dumps([forest.to_state() for forest in forests])
    event(f"stacking nodes: {len(model.store.nodes)}")


def leaf_distribution(store, leaf):
    """Leaf ``leaf``'s row of ``store.distributions``."""
    return store.distributions([leaf], store.counts[[leaf]])[0]


class ReferenceBoosting(OnlineBoosting):
    """Online boosting's member loop written out: each drawn member's
    Welford step and split attempt inline, and its vote from
    ``np.argmax`` of its leaf's distribution."""

    def _learn(self, x, leaves, y):
        store = self.store
        k = self.classes.index(y)
        correct = self.lambda_correct.tolist()
        wrong = self.lambda_wrong.tolist()
        lam = 1.0
        for m, (rng, leaf) in enumerate(zip(self._rngs, leaves)):
            w = rng.poisson(lam)
            if w > 0:
                n = store.counts[leaf, k] + w
                store.counts[leaf, k] = n
                store.mean[leaf, k], store.m2[leaf, k] = _fold(
                    x[store.columns[m]], store.mean[leaf, k],
                    store.m2[leaf, k], n, w)
                seen = store.seen[leaf] + w
                if seen >= HOEFFDING_GRACE_PERIOD:
                    store.seen[leaf] = 0.0
                    store._attempt_split(m, leaf)
                else:
                    store.seen[leaf] = seen
                if not store.is_leaf(leaf):
                    leaf = store.descend(leaf, x)
            if int(np.argmax(leaf_distribution(store, leaf))) == k:
                correct[m] += lam
                lam *= (correct[m] + wrong[m]) / (2.0 * correct[m])
            else:
                wrong[m] += lam
                lam *= (correct[m] + wrong[m]) / (2.0 * wrong[m])
        self.lambda_correct[:] = correct
        self.lambda_wrong[:] = wrong


# 2 to 9 classes: from 8 on, numpy sums a row of counts pairwise.
many_class_streams = st.tuples(st.integers(0, 2 ** 32 - 1),
                               st.integers(250, 700), st.integers(1, 4),
                               st.integers(2, 9), st.sampled_from(PATTERNS),
                               st.sampled_from([0.0, 0.1, 0.5]))


@settings(max_examples=15, deadline=None)
@given(stream=many_class_streams)
def test_boosting_is_the_reference_member_loop(stream):
    seed, n, d, n_classes, pattern, noise = stream
    xs, ys = draw_stream(seed, n, d, n_classes, pattern, noise)
    # every class, not only the two a threshold gives
    ys = [(y + i) % n_classes if i % 3 == 0 else y
          for i, y in enumerate(ys)]
    classes = list(range(n_classes))
    boosting = OnlineBoosting(n_members=10, classes=classes, seed=seed % 1000)
    reference = ReferenceBoosting(n_members=10, classes=classes,
                                  seed=seed % 1000)
    for x, y in zip(xs, ys):
        assert boosting.predict_learn(x, y).tolist() == \
            reference.predict_learn(x, y).tolist()
    assert json.dumps(boosting.to_state()) == \
        json.dumps(reference.to_state())
    event(f"bc nodes: {len(boosting.store.nodes)}")


@settings(max_examples=20, deadline=None)
@given(stream=long_streams, weights=st.lists(st.integers(1, 6), min_size=1))
def test_member_fold_is_a_one_member_learn(stream, weights):
    """``learn_member`` leaves the node table and tree a one-member
    ``learn`` leaves, also across split attempts. Member 0 of three
    takes three examples in four, at least 225 of weight >= 1, so it
    passes the grace period; member 2 takes the rest. The integer
    weights cycle through ``weights``."""
    seed, n, d, n_classes, pattern, noise = stream
    xs, ys = draw_stream(seed, n, d, n_classes, pattern, noise)
    columns = [np.arange(d)] * 3
    scalar, batch = (TreeStore(columns, n_classes) for _ in range(2))
    for i, (x, y) in enumerate(zip(xs, ys)):
        m, w = 2 * (i % 4 == 3), weights[i % len(weights)]
        scalar.learn_member(m, scalar.descend(m, x), x, y, w)
        leaf = np.array([batch.descend(m, x)])
        batch.learn(np.array([m]), leaf, x, y, np.array([float(w)]),
                    batch.counts[leaf, y])
    assert scalar.nodes == batch.nodes
    for m in range(3):
        assert json.dumps(scalar.root_state(m)) == \
            json.dumps(batch.root_state(m))
    event(f"splits: {sum(c >= 0 for c, *_ in scalar.nodes)}")


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(200, 700),
       n_classes=st.integers(2, 3), pattern=st.sampled_from(PATTERNS))
def test_ragged_members_are_their_own_trees(seed, n, n_classes, pattern):
    """Members of another width than the widest never split on, or
    write, a padded slot: each grows the tree a store of its own grows."""
    # each narrower member pads with its first column, its best one
    columns = [[2, 3, 4], [0], [1, 4], [0, 3]]
    xs, ys = draw_stream(seed, n, 5, n_classes, pattern, 0.1)
    # every column follows the label's column 0, the later ones less
    xs = xs[:, :1] + xs * np.arange(5.0)
    weights = np.random.default_rng(seed).poisson(1.0, (n, len(columns)))
    ragged = TreeStore(columns, n_classes)
    alone = [TreeStore([c], n_classes) for c in columns]
    members = np.arange(len(columns))
    for x, y, w in zip(xs, ys, weights.astype(float)):
        leaves = np.array(ragged.route(x.tolist(), 0, len(columns)))
        hit = np.flatnonzero(w > 0)
        ragged.learn(members[hit], leaves[hit], x, y, w[hit],
                     ragged.counts[leaves[hit], y])
        for m in hit.tolist():
            store = alone[m]
            leaf = np.array(store.route(x.tolist(), 0, 1))
            store.learn(np.zeros(1, dtype=np.intp), leaf, x, y, w[[m]],
                        store.counts[leaf, y])
    for m, store in enumerate(alone):
        assert ragged.root_state(m) == store.root_state(0)
        assert ragged.width[m] == len(columns[m])
        assert {column for column, *_ in ragged.nodes} <= \
            set(sum(columns, [-1]))
    event(f"ragged splits: {sum(c >= 0 for c, *_ in ragged.nodes)}")


def reference_entropy(counts):
    total = counts.sum()
    if total <= 0:
        return 0.0
    p = counts[counts > 0] / total
    return float(-(p * np.log2(p)).sum())


def normal_cdf(z):
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def reference_gain(counts, mean, m2, feature, threshold, base_entropy):
    """Info gain of splitting a leaf at ``threshold``, each class's side
    counts estimated through its Gaussian CDF, one class at a time."""
    total = counts.sum()
    left = np.zeros(len(counts))
    for k in range(len(counts)):
        if counts[k] <= 0:
            continue
        var = max(m2[k, feature] / counts[k], VARIANCE_FLOOR)
        z = (threshold - mean[k, feature]) / math.sqrt(var)
        left[k] = counts[k] * normal_cdf(z)
    right = counts - left
    nl, nr = left.sum(), right.sum()
    weighted = (nl * reference_entropy(left)
                + nr * reference_entropy(right)) / total
    return base_entropy - weighted


class ReferenceSearch(TreeStore):
    """The split search written out: every (feature, class pair)
    candidate scored on its own, in feature then pair order."""

    def _attempt_split(self, m, node):
        if self.depth[node] >= HOEFFDING_MAX_DEPTH:
            return
        counts, mean, m2 = self.counts[node], self.mean[node], self.m2[node]
        present = [k for k in range(len(counts)) if counts[k] >= 2]
        if len(present) < 2:
            return
        base_entropy = reference_entropy(counts)
        if base_entropy <= 0.0:
            return
        best = []  # per-feature best (gain, feature, threshold)
        for f in range(self.width[m]):
            gain, threshold = 0.0, None
            for i, a in enumerate(present):
                for b in present[i + 1:]:
                    candidate = 0.5 * (mean[a, f] + mean[b, f])
                    g = reference_gain(counts, mean, m2, f, candidate,
                                       base_entropy)
                    if g > gain:
                        gain, threshold = g, candidate
            if threshold is not None:
                best.append((gain, f, threshold))
        if not best:
            return
        best.sort(key=lambda item: -item[0])
        g1, feature, threshold = best[0]
        g2 = best[1][0] if len(best) > 1 else 0.0
        n_total = counts.sum()
        value_range = math.log2(max(2, len(counts)))
        epsilon = hoeffding_bound(value_range, HOEFFDING_DELTA, n_total)
        if g1 > 1e-12 and (g1 - g2 > epsilon
                           or epsilon < HOEFFDING_TIE_THRESHOLD):
            children = self._split(m, node, feature, threshold)
            self.fallback[children] = counts / n_total


@st.composite
def split_leaves(draw):
    """A leaf of 2 to 9 classes to attempt a split at: (counts, mean, m2,
    depth, member width), the moments as wide as a store of up to 31
    features and the member up to as wide. Class counts are 0, below 2
    or whole up to 1e6, mostly one value shared, so that partitions of as
    many classes tie. The columns permute a few class layouts of means
    and variances (m2 over the count, 0 at the variance floor), often
    from a few levels, so that candidates tie or differ only in the
    order their terms add in."""
    n_classes = draw(st.integers(2, 7) | st.integers(8, 9))

    def vector(entries):
        return st.lists(entries, min_size=n_classes, max_size=n_classes)

    count = (st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 1e4, 1e6])
             | st.integers(0, 10 ** 6).map(float))
    if draw(st.integers(0, 3)):
        shared = draw(count)
        counts = draw(vector(st.sampled_from([shared, shared, 0.0])))
    else:
        counts = draw(vector(count))
    level = st.sampled_from([0.0, 1.0, 2.0, 3.0])
    layout = st.tuples(vector(level) | vector(st.floats(-100.0, 100.0)),
                       vector(st.floats(0.0, 1.0)) | vector(level))
    layouts = draw(st.lists(layout, min_size=1, max_size=4))
    width = draw(st.integers(1, 31))
    columns = []
    for _ in range(width):
        means, variances = draw(st.sampled_from(layouts))
        order = draw(st.permutations(range(n_classes)))
        columns.append([(means[k], variances[k] * counts[k]) for k in order])
    mean, m2 = np.array(columns).transpose(2, 1, 0)
    depth = draw(st.integers(0, HOEFFDING_MAX_DEPTH))
    return np.array(counts), mean, m2, depth, draw(st.integers(1, width))


@settings(max_examples=300, deadline=None)
@given(leaf=split_leaves())
# numpy adds the 8 entropy terms of the left sides pairwise; summed with
# the dead class's 0 in place, feature 1 wins
@example(leaf=(
    np.array([1e4, 0.0] + [1e4] * 7),
    np.array([[0.0, 1.0, 1.0, 1.0, 3.0, 2.0, 2.0, 1.0, 0.0],
              [0.0, 1.0, 0.0, 1.0, 3.0, 2.0, 2.0, 1.0, 1.0]]).T,
    np.array([[2.0, 0.0, 3.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0],
              [2.0, 0.0, 2.0, 3.0, 1.0, 1.0, 2.0, 1.0, 2.0]]).T * 1e4,
    0, 2))
def test_split_search_is_the_scalar_reference(leaf):
    """The array pass makes the scalar search's decision: the same node
    tuple, children's fallbacks and depths, also on ragged members and
    on ties, whose lowest feature and first class pair win."""
    counts, mean, m2, depth, member_width = leaf
    stores = []
    for cls in (TreeStore, ReferenceSearch):
        # member 1 is narrower than the store, or as wide
        store = cls([np.arange(mean.shape[1]), np.arange(member_width)],
                    len(counts))
        store.counts[1], store.mean[1], store.m2[1] = counts, mean, m2
        store.depth[1] = depth
        store._attempt_split(1, 1)
        stores.append(store)
    array, scalar = stores
    assert repr(array.nodes) == repr(scalar.nodes)
    assert array.fallback.tobytes() == scalar.fallback.tobytes()
    assert array.depth.tolist() == scalar.depth.tolist()
    event(f"classes >= 8: {len(counts) >= 8}, split: {len(array.nodes) > 2}")


# Class counts that tie, cancel to a zero total, or sum to another
# value in another order.
count_entries = st.sampled_from(
    [0.0, 1.0, 2.0, 3.0, 0.5, -1.0, 1e16, -1e16]) | st.floats(-10.0, 10.0)


@st.composite
def leaf_rows(draw):
    """A leaf's class counts and fallback, of 2 to 9 classes."""
    n = draw(st.integers(2, 9))
    row = st.lists(count_entries, min_size=n, max_size=n)
    return draw(row), draw(row)


@settings(max_examples=300, deadline=None)
@given(rows=leaf_rows())
# in order this sums to 0 (fallback), pairwise, as numpy sums 8 values,
# to 2
@example(rows=([0.5, 0.5, 1e16, -1.0, 0.5, 1.0, 1.0, -1e16], [0.0] * 8))
def test_leaf_winner_is_the_argmax_of_its_distribution(rows):
    counts, fallback = rows
    store = TreeStore([[0]], len(counts))
    store.counts[0], store.fallback[0] = counts, fallback
    distribution = leaf_distribution(store, 0)
    expected = int(np.argmax(distribution))
    assert store.winner(0) == expected
    if not store.counts[0].sum() > 0:
        event("fallback")
    elif (distribution == distribution[expected]).sum() > 1:
        event("tie")


# Profile sums of these columns add integers, so any order gives one value.
INTEGER_SUMS = ("3", "5", "9", "13", "14")


@st.composite
def distributions(draw, size):
    """``size`` probabilities in [0, 1] summing to one."""
    weights = draw(st.lists(st.floats(0.0, 1.0), min_size=size,
                            max_size=size))
    total = sum(weights)
    return [weight / total if total > 0 else 1.0 / size
            for weight in weights]


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
        for column, p in zip(columns, draw(distributions(len(columns)))):
            values[column] = p
    return tuple(values)


names = st.text(st.characters(codec="utf-8", exclude_categories=("Cs", "Cc")),
                min_size=1, max_size=8)


@st.composite
def aggregate_rows(draw):
    ids = draw(st.lists(names, min_size=1, max_size=4, unique=True))
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


# Valid edit events: counts finite and >= 0, every probability group a
# distribution.
edit_events = st.builds(
    EditEvent, names, st.booleans(), names,
    st.dates(date(2000, 1, 1), date(2099, 12, 31)),
    *[st.floats(0.0, 1e9)] * len(EVENT_COUNT_FIELDS), st.booleans(),
    st.tuples(*(distributions(len(group)) for group in PROBABILITY_GROUPS))
    .map(lambda groups: tuple(chain(*groups))))


@settings(max_examples=60, deadline=None)
@given(events=st.lists(edit_events, min_size=1, max_size=12),
       suffix=st.sampled_from([".csv", ".jsonl"]))
def test_event_file_round_trip_is_exact(events, suffix):
    events = sorted(events, key=lambda e: (e.day, e.contributor_id))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"events{suffix}"
        write_events(events, path)
        assert list(parse_events(path)) == events


GROUP_OF = {column: group for _, column, group in CATALOGUE if group}
COUNT_COLUMNS = set(EVENT_COUNT_FIELDS) | {
    column for _, column, group in CATALOGUE if not group}


def corruptions(column):
    """(new cell from the old one, field the error names) per corruption
    that applies to ``column``; an empty cell names no field."""
    kinds = [(lambda old: "", None)]
    if column in ("is_bot", "was_reverted", "synthetic"):
        kinds.append((lambda old: "yes", column))
    elif column in ("timestamp", "day"):
        kinds.append((lambda old: "2020-13-45", column))
    elif column in COUNT_COLUMNS:
        kinds += [(lambda old: "many", column), (lambda old: "nan", column),
                  (lambda old: "-1.5", column)]
    elif column in GROUP_OF:
        group = GROUP_OF[column]
        kinds += [(lambda old: "many", column), (lambda old: "nan", column),
                  (lambda old: "1.5", group),
                  (lambda old: repr(float(old) + 1e-3), group)]
    return kinds


def corrupt(path, index, column, rewrite):
    """Rewrite one cell of data row ``index`` of a written file."""
    path = Path(path)
    if path.suffix == ".jsonl":
        records = [json.loads(raw) for raw in
                   path.read_text(encoding="utf-8").splitlines()]
    else:
        with open(path, newline="", encoding="utf-8") as handle:
            records = list(csv.DictReader(handle))
    records[index][column] = rewrite(records[index][column])
    write_rows([list(r.values()) for r in records], list(records[0]), path)


@settings(max_examples=120, deadline=None)
@given(data=st.data(), aggregates=st.booleans(),
       suffix=st.sampled_from([".csv", ".jsonl"]))
def test_first_breach_in_file_order_is_named(data, aggregates, suffix):
    if aggregates:
        rows = data.draw(aggregate_rows().filter(lambda rows: len(rows) > 1))
        columns, write = AGGREGATE_COLUMNS, write_aggregates
    else:
        rows = data.draw(st.lists(edit_events, min_size=2, max_size=12))
        columns, write = EVENT_COLUMNS, write_events
    first, second = sorted(data.draw(st.lists(
        st.integers(0, len(rows) - 1), min_size=2, max_size=2, unique=True)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"stream{suffix}"
        write(rows, path)
        for index in (second, first):
            column = data.draw(st.sampled_from(columns))
            rewrite, field = data.draw(st.sampled_from(corruptions(column)))
            corrupt(path, index, column, rewrite)
        with pytest.raises(ValidationError) as exc:
            load_stream(path)
    header = 1 if suffix == ".csv" else 0
    assert exc.value.line == first + 1 + header
    assert exc.value.field == field
    if field is None:
        assert repr(column) in exc.value.message


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


@st.composite
def profile_streams(draw):
    """Rows of a few contributors, each with one ``is_bot`` flag, in
    stream order."""
    ids = draw(st.lists(names, min_size=1, max_size=5, unique=True))
    bots = {cid: draw(st.booleans()) for cid in ids}
    rows = draw(st.lists(st.tuples(
        st.sampled_from(ids), st.dates(date(2020, 1, 1), date(2021, 12, 31)),
        aggregate_values()), max_size=25))
    return [DailyAggregate(cid, day, bots[cid], values)
            for cid, day, values in rows]


@settings(max_examples=80, deadline=None)
@given(rows=profile_streams(), split=st.integers(0, 25))
def test_bulk_fold_equals_row_by_row_fold(rows, split):
    """``ProfileStore.fold`` gives the rows, feature matrices and final
    profiles of ``update`` row by row, bit for bit, also when both
    continue from the same exported-then-imported profiles."""
    head, tail = rows[:split], rows[split:]
    seed = ProfileStore()
    for agg in head:
        seed.update(agg)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "profiles.jsonl"
        seed.export_jsonl(path)
        by_row, bulk = (ProfileStore.import_jsonl(path) for _ in range(2))
    expected = np.array([by_row.update(agg) for agg in tail])
    folded = bulk.fold(AggregateBatch.of(tail))
    assert folded.tobytes() == expected.tobytes()
    for feature_set in FEATURE_SETS.values():
        assert to_feature_vector(folded, feature_set).tobytes() == b"".join(
            to_feature_vector(row, feature_set).tobytes() for row in expected)
    assert [p.contributor_id for p in bulk.profiles()] == \
        [p.contributor_id for p in by_row.profiles()]
    for a, b in zip(by_row.profiles(), bulk.profiles()):
        assert (a.is_bot, a.n_updates, a.first_seen, a.last_seen) == \
            (b.is_bot, b.n_updates, b.first_seen, b.last_seen)
        assert a.values.tobytes() == b.values.tobytes()
