"""
Property-based tests of the classifiers' contracts, the event and
aggregate files, the profiles, and the row views of batches and
prediction logs.

For the classifiers, hypothesis draws the shape of a stream (arity,
length, class count, value pattern, seed); numpy draws the values from
that seed, which keeps long streams cheap to generate.
"""

import csv
import json
import math
import sys
import tempfile
from dataclasses import replace
from datetime import date, timedelta
from itertools import chain
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, reject, settings
from hypothesis import strategies as st

from wikistream.analysis import FEATURE_SETS, SET1, SET3_TARGET1, SET3_TARGET2
from wikistream.evaluate import (
    ConfusionMatrix,
    MetricsReport,
    PredictionLog,
    PredictionRecord,
    f_measure,
    macro_micro,
    metrics_from_log,
    prequential_run,
    write_prediction_log,
)
from wikistream import ingest
from wikistream.fabricate import split_across_intervals
from wikistream.ingest import (
    AGGREGATE_COLUMNS,
    AGGREGATE_SCHEMA,
    EVENT_COLUMNS,
    EVENT_SCHEMA,
    EventTable,
    aggregate_daily,
    load_stream,
    parse_events,
    read_aggregates,
    write_aggregates,
    write_rows,
)
from wikistream.learn import (
    GaussianNaiveBayes,
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
    N_FEATURES,
    PROB_COLUMNS,
    PROBABILITY_GROUPS,
    ROW_BLOCK,
    AggregateBatch,
    DailyAggregate,
    EditEvent,
    ValidationError,
    contributor_slots,
    event_counts,
    feature_columns,
    flag_change_error,
    joint_class,
    largest_remainder,
)
from wikistream.profiling import ProfileStore, to_feature_vector
from wikistream.sim import (
    ARCHETYPE_NAMES,
    CONCENTRATION,
    DEFAULT_ARCHETYPES,
    MAX_DAYS,
    MIN_LARGEST_ALPHA,
    N_PAGES,
    START_DAY,
    SimConfig,
    _check_score_means,
    _gamma_shapes,
    _noisy_archetype,
    _scores,
    simulate,
    write_events,
)
from tests.test_ingest import exact_outcome, read_outcome

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

    def _learn(self, x, leaves, winners, y):
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
                    leaf = store.route(x, leaf, leaf + 1)[0]
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


class TupleIndexedStore(TreeStore):
    """The tree store's leaf gathers and scatters by (leaf, class) index
    tuples, as they were before flat slots."""

    def distributions(self, leaves, counts):
        total = counts.sum(axis=1, keepdims=True)
        out = self.fallback[leaves]
        np.divide(counts, total, out=out, where=total > 0)
        return out

    def learn(self, members, leaves, x, k, weights, counts):
        at = (leaves, k)
        n = counts + weights
        self.counts[at] = n
        self.mean[at], self.m2[at] = _fold(
            x[self.columns[members]], self.mean[at], self.m2[at],
            n[:, None], weights[:, None])
        seen = self.seen[leaves] + weights
        due = seen >= HOEFFDING_GRACE_PERIOD
        if due.any():
            seen[due] = 0.0
            for m, leaf in zip(members[due].tolist(), leaves[due].tolist()):
                self._attempt_split(m, leaf)
        self.seen[leaves] = seen


def store_arrays(store):
    return [getattr(store, name).tobytes() for name in (
        "counts", "mean", "m2", "seen", "fallback", "depth")]


# few members on an informative column: they split, and the splits
# outgrow the node table
GROWING_STREAM = (3, 700, 2, 2, "uniform", 0.0)


@settings(max_examples=20, deadline=None)
@given(stream=long_streams, per_member=st.booleans())
@example(stream=GROWING_STREAM, per_member=False)
def test_flat_slot_learn_is_the_tuple_indexed_learn(stream, per_member):
    """``TreeStore.learn`` leaves every node array as the tuple-indexed
    learn leaves it, also across splits that grow the node table; the
    class is one for all or one per member."""
    seed, n, d, n_classes, pattern, noise = stream
    xs, ys = draw_stream(seed, n, d, n_classes, pattern, noise)
    rng = np.random.default_rng(seed)
    n_members = 1 + seed % 4
    columns = [rng.permutation(d)[:1 + m % d] for m in range(n_members)]
    flat, tuples = (cls(columns, n_classes)
                    for cls in (TreeStore, TupleIndexedStore))
    grown = 0
    for x, y in zip(xs, ys):
        weights = rng.poisson(1.0, n_members).astype(float)
        hit = weights.nonzero()[0]
        k = ((y + hit) % n_classes if per_member else y)
        capacity = len(flat.counts)
        for store in (flat, tuples):
            leaves = np.array(store.route(x.tolist(), 0, n_members))[hit]
            store.learn(hit, leaves, x, k, weights[hit],
                        store.counts[leaves, k])
        grown += len(flat.counts) > capacity
        assert flat.nodes == tuples.nodes
    assert store_arrays(flat) == store_arrays(tuples)
    if (stream, per_member) == (GROWING_STREAM, False):
        assert grown >= 2
    event(f"node table grown: {grown > 0}")


class ReferenceStacking(StackingModel):
    """The stacking step as it was before flat slots: leaf counts gathered
    and the members' classes, weights and counts picked by index tuples
    and masks, in a ``TupleIndexedStore``."""

    def _share(self):
        super()._share()
        self.store.__class__ = TupleIndexedStore

    def _run(self, x, labels=None):
        x = np.asarray(x, dtype=float)
        row = x.tolist()
        if self.store is None:
            self._share()
        store, size = self.store, STACKING_ENSEMBLE_SIZE
        first = np.array(store.route(row, 0, 2 * size), dtype=np.intp)
        first_counts = store.counts[first]
        level_one = store.distributions(first, first_counts).reshape(
            2, size, -1).sum(axis=1) / size
        user_probs = level_one[0]
        row += level_one[:, 1].tolist()
        final = np.array(store.route(row, 2 * size, 3 * size), dtype=np.intp)
        final_counts = store.counts[final]
        final_probs = store.distributions(final, final_counts).sum(
            axis=0) / size
        if labels is not None:
            self._learn(row, np.concatenate((first, final)),
                        np.concatenate((first_counts, final_counts)), *labels)
        return (user_probs, final_probs,
                joint_class(int(user_probs.argmax()),
                            int(final_probs.argmax())))

    def _learn(self, row, leaves, counts, y_user, y_contribution):
        forests = self._forests()
        k = np.array([forest.classes.index(y) for forest, y in zip(
            forests, (y_user, y_contribution, y_contribution))]).repeat(
                STACKING_ENSEMBLE_SIZE)
        weights = np.concatenate([forest._weights() for forest in forests])
        hit = np.flatnonzero(weights > 0)
        k = k[hit]
        self.store.learn(hit, leaves[hit], np.array(row), k, weights[hit],
                         counts[hit, k])


LABEL_TYPES = st.sampled_from([int, bool, np.int64])
# a stream on which each level's first tree splits
SPLITTING_STREAM = (0, 800, 1, 2, "uniform", 0.0)
# long, informative two-class streams, on which the levels split
stacking_streams = st.tuples(st.integers(0, 2 ** 32 - 1),
                             st.integers(500, 800), st.just(1), st.just(2),
                             st.sampled_from(["uniform", "ties", "wide"]),
                             st.sampled_from([0.0, 0.1]))


@settings(max_examples=8, deadline=None)
@given(stream=stacking_streams, types=st.tuples(LABEL_TYPES, LABEL_TYPES),
       restore=st.integers(0, 800))
@example(stream=SPLITTING_STREAM, types=(bool, np.int64), restore=400)
def test_stacking_is_the_tuple_indexed_reference(stream, types, restore):
    """The stacking model returns the reference's outputs and writes its
    checkpoint, byte for byte, with int, bool or numpy labels. It is
    restored from its checkpoint at step ``restore`` (mod n) and
    continues as the uninterrupted reference."""
    seed, n, _, _, pattern, noise = stream
    seed %= 1000
    xs, ys = draw_stream(seed, n, len(FEATURE_IDS), 2, pattern, noise)
    xs = np.roll(xs, 25, axis=1)  # so that every level can split
    # the user label follows the contribution label, a tenth flipped
    flips = np.random.default_rng(seed).random(n) < 0.1
    users = [int(y != flip) for y, flip in zip(ys, flips.tolist())]
    user_type, contribution_type = types
    model, reference = StackingModel(seed=seed), ReferenceStacking(seed=seed)
    for i, (x, y_user, y_contribution) in enumerate(zip(xs, users, ys)):
        if i == restore % n:
            model = StackingModel.from_state(
                json.loads(json.dumps(model.to_state())))
        labels = user_type(y_user), contribution_type(y_contribution)
        got = model.predict_learn(x, *labels)
        expected = reference.predict_learn(x, *labels)
        assert (got[0].tolist(), got[1].tolist(), got[2]) == \
            (expected[0].tolist(), expected[1].tolist(), expected[2])
    assert json.dumps(model.to_state()) == json.dumps(reference.to_state())
    # the split levels: 0 for level 1a, 1 for 1b, 2 for level 2
    levels = {node // STACKING_ENSEMBLE_SIZE for node, (column, *_)
              in enumerate(model.store.nodes[:3 * STACKING_ENSEMBLE_SIZE])
              if column >= 0}
    if stream == SPLITTING_STREAM:
        assert levels == {0, 1, 2}
    event(f"levels split: {sorted(levels)}")


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
        scalar.learn_member(m, scalar.route(x, m, m + 1)[0], x, y, w)
        leaf = np.array(batch.route(x, m, m + 1))
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


# Edits of one CSV cell: the text that replaces it, or None to drop it.
NON_ASCII_DIGITS = str.maketrans("0123456789",
                                 "".join(chr(0x660 + d) for d in range(10)))
CELL_EDITS = [
    lambda cell: cell[:1] + "_" + cell[1:],
    lambda cell: f" {cell} ",
    lambda cell: f"\t{cell}",
    lambda cell: f'"{cell}"',
    lambda cell: cell + '"',
    lambda cell: cell + "#",
    lambda cell: "#" + cell,
    lambda cell: "",
    lambda cell: None,
    lambda cell: cell + ",surplus",
    lambda cell: "nan",
    lambda cell: "inf",
    lambda cell: "1e400",
    lambda cell: "-0",
    lambda cell: cell.translate(NON_ASCII_DIGITS),
    lambda cell: cell + "\x00\x00",
    lambda cell: cell + "\x1c",
]


RARELY = st.sampled_from([False] * 9 + [True])


@settings(max_examples=300, deadline=None)
@given(data=st.data(), aggregates=st.booleans())
def test_fast_csv_reader_agrees_with_exact_reader(data, aggregates):
    """A written CSV file with edited cells, lines, line ends and bytes
    reads to the same table, float bytes included, or the same
    ValidationError, whether the fast reader runs or only the exact
    reader does."""
    if aggregates:
        rows = data.draw(aggregate_rows())
        write, read = write_aggregates, read_aggregates
    else:
        rows = data.draw(st.lists(edit_events, min_size=1, max_size=8))
        write, read = write_events, parse_events
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "stream.csv"
        write(rows, path)
        lines = path.read_bytes().decode().split("\r\n")[:-1]
        for _ in range(data.draw(st.sampled_from([0, 1, 1, 1, 2]))):
            index = data.draw(st.integers(0, len(lines) - 1))
            cells = lines[index].split(",")
            at = data.draw(st.integers(0, len(cells) - 1))
            cell = data.draw(st.sampled_from(CELL_EDITS))(cells[at])
            cells[at:at + 1] = [] if cell is None else [cell]
            lines[index] = ",".join(cells)
        if data.draw(RARELY):
            lines.insert(data.draw(st.integers(1, len(lines))), "")
        if data.draw(RARELY):
            lines = lines[:1]  # header only
        ends = [data.draw(st.sampled_from(["\r\n", "\n"]))] * len(lines)
        if data.draw(RARELY):
            ends[data.draw(st.integers(0, len(ends) - 1))] = "\r"
        if data.draw(st.booleans()):
            ends[-1] = ""
        text = "".join(line + end for line, end in zip(lines, ends))
        raw = (("\ufeff" if data.draw(RARELY) else "") + text).encode()
        if data.draw(RARELY):
            at = data.draw(st.integers(0, len(raw)))
            raw = raw[:at] + b"\xff" + raw[at:]
        path.write_bytes(raw)
        with mock.patch.object(ingest, "_exact_table",
                               wraps=ingest._exact_table) as exact:
            fast = read_outcome(read, path)
        event(f"exact reader called: {exact.called}")
        slow = exact_outcome(read, path)
    assert type(fast) is type(slow)
    assert fast == slow
    if not isinstance(slow, tuple):
        assert fast.values.tobytes() == slow.values.tobytes()


# The dict-and-sorted ingest that integer codes replaced: text, flag
# and date columns held as lists of parsed values, events sorted with a
# tuple key, contributor-days grouped with a (contributor, day) dict and
# pages counted with a (group, page) set.
def reference_columns(path, schema):
    """Per text, flag and date column of ``path`` its parsed cells as a
    list, and the float matrix, read by the exact row reader."""
    rows, values = ingest._exact_table(path, schema)
    width = sum(parse is not float for _, parse in schema)
    return [list(column) for column in zip(*rows)] or [[]] * width, values


def reference_check_bot_flags(contributor_ids, flags):
    change = contributor_slots(contributor_ids, flags, {})[-1]
    if change is not None:
        raise flag_change_error(contributor_ids[change])


def reference_parse_events(path):
    """(contributor ids, flags, pages, days, reverted flags) as lists and
    the float matrix, sorted by day then contributor id."""
    columns, values = reference_columns(path, EVENT_SCHEMA)
    ids, days = columns[0], columns[3]
    order = sorted(range(len(values)), key=lambda i: (days[i], ids[i]))
    return ([[column[i] for i in order] for column in columns],
            values[np.array(order, dtype=np.intp)])


def reference_aggregate_daily(columns, values):
    contributor_ids, is_bot, page_ids, days, was_reverted = columns
    reference_check_bot_flags(contributor_ids, is_bot)
    n_counts, n_scalars = len(EVENT_COUNT_FIELDS), N_FEATURES - len(
        PROB_COLUMNS)
    index = {}
    group = np.fromiter((index.setdefault(key, len(index))
                         for key in zip(contributor_ids, days)),
                        dtype=np.intp, count=len(contributor_ids))
    size = len(index)
    n = np.bincount(group, minlength=size).astype(float)
    sums = np.zeros((size, values.shape[1]))
    np.add.at(sums, group, values)
    pages = set(zip(group.tolist(), page_ids))
    n_pages = np.bincount(np.fromiter((g for g, _ in pages), dtype=np.intp,
                                      count=len(pages)),
                          minlength=size).astype(float)
    n_reverts = np.bincount(group, weights=was_reverted, minlength=size)
    chars, links, repeated, inserted, deleted = sums[:, :n_counts].T
    has_chars = chars != 0
    features = np.empty((size, N_FEATURES))
    features[:, :n_scalars] = np.column_stack([
        n, chars / n, n_pages, n / n_pages, n, n_pages, n_reverts,
        n_reverts / n,
        np.divide(links, chars, out=np.zeros(size), where=has_chars),
        np.divide(repeated, chars, out=np.zeros(size), where=has_chars),
        inserted, deleted])
    features[:, n_scalars:] = sums[:, n_counts:] / n[:, None]
    bots = np.empty(size, dtype=bool)
    bots[group] = is_bot
    return AggregateBatch(np.array([cid for cid, _ in index], dtype=object),
                          np.array([day for _, day in index],
                                   dtype="datetime64[D]"),
                          bots, np.zeros(size, dtype=bool), features).sorted()


def reference_read_aggregates(path):
    columns, values = reference_columns(path, AGGREGATE_SCHEMA)
    ids, days, is_bot, synthetic = columns
    reference_check_bot_flags(ids, is_bot)
    return AggregateBatch(np.array(ids, dtype=object),
                          np.array(days, dtype="datetime64[D]"),
                          np.array(is_bot, dtype=bool),
                          np.array(synthetic, dtype=bool), values).sorted()


def outcome(call, *args):
    """What ``call`` makes of ``args``: its result, or the line, field
    and message of the ValidationError it raises."""
    try:
        return call(*args)
    except ValidationError as exc:
        return exc.line, exc.field, exc.message


def batch_columns(batch):
    """A batch's columns as lists, its matrix as bytes; an error as is."""
    if isinstance(batch, tuple):
        return batch
    return (batch.contributor_ids.tolist(), batch.days.tolist(),
            batch.is_bot.tolist(), batch.synthetic.tolist(),
            batch.values.tobytes())


# Ids that sort as text, not as numbers, and ids that are not ASCII.
CODED_IDS = ["c99999", "c100000", "c1", "é", "Ωmega", "日本", "A", "a"]


@st.composite
def coded_rows(draw, make):
    """Rows built by ``make(draw, cid, flag, page, day)`` from a few ids
    (text, numbers as text and non-ASCII), pages and days, so that rows
    repeat a (contributor, day, page); each id keeps one bot flag, except
    that now and then one or two rows flip theirs. Also, per row, the
    hour of a datetime cell for its day, or None for a date cell."""
    ids = draw(st.lists(st.sampled_from(CODED_IDS) | names, min_size=1,
                        max_size=5, unique=True))
    pages = draw(st.lists(names, min_size=1, max_size=3, unique=True))
    days = draw(st.lists(st.dates(date(2000, 1, 1), date(2099, 12, 31)),
                         min_size=1, max_size=3, unique=True))
    bots = {cid: draw(st.booleans()) for cid in ids}
    rows, hours = [], []
    for _ in range(draw(st.integers(1, 16))):
        cid = draw(st.sampled_from(ids))
        rows.append(make(draw, cid, bots[cid], draw(st.sampled_from(pages)),
                         draw(st.sampled_from(days))))
        hours.append(draw(st.none() | st.integers(0, 23)))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        at = draw(st.integers(0, len(rows) - 1))
        rows[at] = replace(rows[at], is_bot=not rows[at].is_bot)
    return rows, hours


def stamp(day, hour):
    """A date cell, or a datetime cell on that date."""
    return day.isoformat() if hour is None else f"{day}T{hour:02d}:00"


def coded_event(draw, cid, flag, page, day):
    # a review length of at least 1, as simulated: links divided by a
    # subnormal length overflow to inf, in either ingest
    return replace(draw(edit_events), contributor_id=cid, is_bot=flag,
                   page_id=page, timestamp=day,
                   review_length=draw(st.floats(1.0, 1e9)))


def coded_aggregate(draw, cid, flag, page, day):
    return DailyAggregate(cid, day, flag, draw(aggregate_values()),
                          draw(st.booleans()))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), suffix=st.sampled_from([".csv", ".jsonl"]))
@example(data=None, suffix=".csv")
def test_coded_ingest_is_the_dict_and_sorted_reference(data, suffix):
    """parse_events and aggregate_daily on codes give the lists, flags
    and float bytes of the dict-and-sorted ingest, or the same
    ValidationError, from a file and from a list of EditEvents."""
    if data is None:  # two datetime cells of one day, c99999 by c100000
        base = EditEvent("c99999", False, "p", date(2020, 1, 1), 1.0, 2.0,
                         0.0, 3.0, 4.0, True, tuple(
                             value for group in PROBABILITY_GROUPS
                             for value in [1.0] + [0.0] * (len(group) - 1)))
        events = [base, replace(base, contributor_id="c100000"), base,
                  replace(base, review_length=0.1, was_reverted=False)]
        hours = [None, 5, 5, 23]
    else:
        events, hours = data.draw(coded_rows(coded_event))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"events{suffix}"
        write_rows(([e.contributor_id, int(e.is_bot), e.page_id,
                     stamp(e.day, hour), *event_counts(e),
                     int(e.was_reverted), *e.probs]
                    for e, hour in zip(events, hours)), EVENT_COLUMNS, path)
        table = parse_events(path)
        columns, values = reference_parse_events(path)
    for column, expected in zip(("contributor_ids", "is_bot", "page_ids",
                                 "days", "was_reverted"), columns):
        assert getattr(table, column) == expected, column
    assert table.values.tobytes() == values.tobytes()
    assert batch_columns(outcome(aggregate_daily, table)) == batch_columns(
        outcome(reference_aggregate_daily, columns, values))
    listed = [[getattr(e, name) for e in events] for name in (
        "contributor_id", "is_bot", "page_id", "day", "was_reverted")]
    assert batch_columns(outcome(aggregate_daily, events)) == batch_columns(
        outcome(reference_aggregate_daily, listed,
                EventTable.from_events(events).values))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), suffix=st.sampled_from([".csv", ".jsonl"]))
def test_coded_read_aggregates_is_the_dict_and_sorted_reference(data,
                                                                suffix):
    """read_aggregates on codes gives the dict-and-sorted reader's
    columns and float bytes, or the same ValidationError: a changed bot
    flag is named at its first row in file order."""
    rows, hours = data.draw(coded_rows(coded_aggregate))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"stream{suffix}"
        write_rows(([a.contributor_id, stamp(a.day, hour), int(a.is_bot),
                     int(a.synthetic), *a.values]
                    for a, hour in zip(rows, hours)), AGGREGATE_COLUMNS, path)
        assert batch_columns(outcome(read_aggregates, path)) == \
            batch_columns(outcome(reference_read_aggregates, path))


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


# The three largest-remainder splits that ``largest_remainder`` replaced,
# written out as they were: the simulator's event allocation (at least
# one event each, ``weights`` being the archetype rates), the split of
# synthetic bots across K-means clusters, and the four quartile
# intervals' equal shares.

def reference_allocate_events(weights, target):
    weights = np.array(weights, dtype=float)
    raw = weights / weights.sum() * target
    alloc = np.maximum(np.floor(raw).astype(int), 1)
    diff = target - int(alloc.sum())
    order = np.argsort(-(raw - np.floor(raw)), kind="stable")
    i = 0
    while diff != 0:
        idx = order[i % len(order)]
        if diff > 0:
            alloc[idx] += 1
            diff -= 1
        elif alloc[idx] > 1:
            alloc[idx] -= 1
            diff += 1
        i += 1
    return alloc.tolist()


def reference_cluster_split(sizes, count):
    sizes = np.array(sizes)
    raw = sizes / sizes.sum() * count
    alloc = np.floor(raw).astype(int)
    remainder = count - alloc.sum()
    by_fraction = np.argsort(-(raw - alloc), kind="stable")
    for c in by_fraction[:remainder]:
        alloc[c] += 1
    return alloc.tolist()


def reference_intervals(count):
    base, remainder = divmod(count, 4)
    return tuple(base + (1 if i < remainder else 0) for i in range(4))


rates = st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=40)


@settings(max_examples=300, deadline=None)
@given(weights=rates, extra=st.integers(0, 2000))
def test_largest_remainder_is_the_event_allocation(weights, extra):
    target = len(weights) + extra
    assert largest_remainder(weights, target, 1) == \
        reference_allocate_events(weights, target)


@settings(max_examples=300, deadline=None)
@given(sizes=st.lists(st.integers(0, 60), min_size=1, max_size=6).filter(any),
       count=st.integers(1, 100_000))
def test_largest_remainder_is_the_cluster_split(sizes, count):
    assert largest_remainder(np.array(sizes), count, 0) == \
        reference_cluster_split(sizes, count)


@settings(max_examples=300, deadline=None)
@given(count=st.integers(0, 10 ** 9))
def test_largest_remainder_is_the_interval_split(count):
    assert split_across_intervals(count) == reference_intervals(count)


@settings(max_examples=300, deadline=None)
@given(weights=rates, least=st.integers(0, 3), extra=st.integers(0, 500))
def test_largest_remainder_shares_sum_to_the_total(weights, least, extra):
    total = least * len(weights) + extra
    shares = largest_remainder(weights, total, least)
    assert sum(shares) == total
    assert min(shares) >= least
    assert all(type(share) is int for share in shares)


# The simulator as it drew its events before the fused draw: one EditEvent
# per event, its scores from two ``rng.beta`` and three ``rng.dirichlet``
# calls, each Dirichlet draw divided by its sum once more, and the events
# sorted by (day, contributor id) at the end.

def reference_beta_pair(rng, mean):
    p = rng.beta(mean * CONCENTRATION, (1.0 - mean) * CONCENTRATION)
    return float(p), float(1.0 - p)


def reference_dirichlet(rng, means):
    draw = rng.dirichlet(np.array(means) * CONCENTRATION)
    return (draw / draw.sum()).tolist()


def reference_scores(rng, archetype):
    return (*reference_beta_pair(rng, archetype.damaging_mean),
            *reference_beta_pair(rng, archetype.goodfaith_mean),
            *reference_dirichlet(rng, archetype.item_means),
            *reference_dirichlet(rng, archetype.art_means),
            *reference_dirichlet(rng, archetype.wp10_means))


def reference_contributor_events(contributor_id, archetype, n_events, n_days,
                                 rng):
    days = rng.integers(0, n_days, size=n_events)
    events = []
    for day_offset in sorted(days.tolist()):
        length = max(1.0, round(rng.lognormal(
            archetype.review_length_log_mean,
            archetype.review_length_log_sigma), 0))
        links = float(rng.poisson(archetype.links_rate))
        repeated = float(rng.binomial(int(links),
                                      archetype.repeated_link_fraction))
        probs = reference_scores(rng, archetype)
        events.append(EditEvent(
            contributor_id=contributor_id,
            is_bot=archetype.is_bot,
            page_id=f"p{rng.integers(N_PAGES):04d}",
            timestamp=START_DAY + timedelta(days=int(day_offset)),
            review_length=length,
            links=links,
            repeated_links=repeated,
            chars_inserted=round(rng.lognormal(
                archetype.chars_inserted_log_mean, 0.7), 0),
            chars_deleted=round(rng.lognormal(
                archetype.chars_deleted_log_mean, 0.7), 0),
            was_reverted=bool(rng.random() < archetype.revert_probability),
            probs=probs,
        ))
    return events


def reference_simulate(config):
    plan = []
    log_rates = [np.log(config.archetypes[n].edit_rate)
                 for n in ARCHETYPE_NAMES if config.counts.get(n, 0) > 0]
    pooled_log_rate = float(np.mean(log_rates))
    labels = {}
    for name in ARCHETYPE_NAMES:
        archetype = _noisy_archetype(
            config.archetypes[name], config.noise, pooled_log_rate)
        for _ in range(config.counts.get(name, 0)):
            contributor_id = f"c{len(labels):05d}"
            plan.append((contributor_id, archetype))
            labels[contributor_id] = name
    if config.target_events:
        allocation = largest_remainder([a.edit_rate for _, a in plan],
                                       config.target_events, 1)
    else:
        allocation = [
            max(1, int(np.random.default_rng(
                [config.seed, 7919, i]).poisson(a.edit_rate * config.n_days)))
            for i, (_, a) in enumerate(plan)
        ]
    events = []
    for i, (contributor_id, archetype) in enumerate(plan):
        rng = np.random.default_rng([config.seed, i])
        events.extend(reference_contributor_events(
            contributor_id, archetype, allocation[i], config.n_days, rng))
    events.sort(key=lambda e: (e.day, e.contributor_id))
    return EventTable.from_events(events), labels


@st.composite
def score_archetypes(draw):
    """An archetype whose score means meet the fused draw's precondition
    (``_check_score_means``): Beta means inside (0, 1), Dirichlet means
    >= 0 with at least one per group reaching MIN_LARGEST_ALPHA once
    scaled by CONCENTRATION, the boundary included."""
    beta_means = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    groups = []
    for size in (5, 4, 6):
        means = draw(st.lists(st.floats(0.0, 5.0), min_size=size,
                              max_size=size))
        means[draw(st.integers(0, size - 1))] = draw(st.floats(
            MIN_LARGEST_ALPHA / CONCENTRATION, 5.0))
        groups.append(tuple(means))
    archetype = replace(DEFAULT_ARCHETYPES["human-benign"],
                        damaging_mean=draw(beta_means),
                        goodfaith_mean=draw(beta_means),
                        item_means=groups[0], art_means=groups[1],
                        wp10_means=groups[2])
    try:
        _check_score_means("human-benign", archetype)
    except ValidationError:
        event("largest alpha rounds below the least")
        reject()
    return archetype


@settings(max_examples=300, deadline=None)
@given(archetype=score_archetypes(), seed=st.integers(0, 2 ** 64 - 1),
       n=st.integers(1, 12))
def test_one_gamma_draw_is_numpys_beta_and_dirichlet_draws(archetype, seed,
                                                           n):
    fused, reference = np.random.default_rng(seed), \
        np.random.default_rng(seed)
    alpha = _gamma_shapes(archetype)
    scores = _scores(np.array([fused.standard_gamma(alpha)
                               for _ in range(n)]))
    expected = [list(reference_scores(reference, archetype))
                for _ in range(n)]
    assert scores.tolist() == expected
    assert fused.bit_generator.state == reference.bit_generator.state


@st.composite
def sim_configs(draw):
    """A small simulation plan: up to three contributors per archetype,
    any noise, and either the rate-driven allocation over a few days or
    an exact event count over any span."""
    counts = {name: draw(st.integers(0, 3)) for name in ARCHETYPE_NAMES}
    if not any(counts.values()):
        counts[draw(st.sampled_from(ARCHETYPE_NAMES))] = 1
    population = sum(counts.values())
    if draw(st.booleans()):
        target_events = population + draw(st.integers(0, 80))
        n_days = draw(st.integers(1, MAX_DAYS))
    else:
        target_events, n_days = 0, draw(st.integers(1, 4))
    return SimConfig(counts=counts, n_days=n_days,
                     seed=draw(st.integers(0, 2 ** 32)),
                     noise=draw(st.floats(0.0, 1.0)),
                     target_events=target_events)


@settings(max_examples=60, deadline=None)
@given(config=sim_configs())
@example(config=SimConfig(counts={"bot-malign": 2}, n_days=MAX_DAYS,
                          noise=1.0, target_events=5))
def test_simulate_is_the_per_event_reference(config):
    table, labels = simulate(config)
    expected, expected_labels = reference_simulate(config)
    assert labels == expected_labels
    for column in ("contributor_ids", "is_bot", "page_ids", "days",
                   "was_reverted"):
        assert getattr(table, column) == getattr(expected, column), column
    assert table.values.tolist() == expected.values.tolist()
    assert table == expected


# Sizes at the edges of ``column_rows``' blocks; None draws a size.
BLOCK_SIZES = [0, 1, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1,
               2 * ROW_BLOCK + 1, None]


def random_batch(n, seed):
    rng = np.random.default_rng(seed)
    values = rng.random((n, N_FEATURES))
    values[:, FEATURE_INDEX["3"]] += 1.0
    return AggregateBatch(
        np.array([f"c{i}" for i in rng.integers(0, 50, n).tolist()],
                 dtype=object),
        np.datetime64("2020-01-01") + rng.integers(0, 400, n),
        rng.random(n) < 0.5, rng.random(n) < 0.2, values)


def reference_rows(batch):
    """The row views as the batch once built them on first use and kept
    them: one list of every row."""
    return [DailyAggregate(cid, day, bot, tuple(values), synthetic)
            for cid, day, bot, values, synthetic in zip(
                batch.contributor_ids.tolist(), batch.days.tolist(),
                batch.is_bot.tolist(), batch.values.tolist(),
                batch.synthetic.tolist())]


def reprs(rows):
    # repr tells a Python value from a numpy scalar equal to it
    return [repr(row) for row in rows]


@pytest.mark.parametrize("n", BLOCK_SIZES)
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_batch_views_are_the_kept_rows(n, data):
    if n is None:
        n = data.draw(st.integers(0, 3 * ROW_BLOCK))
    batch = random_batch(n, data.draw(st.integers(0, 2 ** 32 - 1)))
    expected = reference_rows(batch)
    assert len(batch) == n
    assert reprs(batch) == reprs(expected)
    assert reprs(batch) == reprs(expected)  # a second pass builds them anew
    assert batch == expected and batch == AggregateBatch.of(expected)
    assert batch != 5 and not batch == expected[:-1] + [None]
    for i in data.draw(st.lists(st.integers(-n, n - 1), max_size=12)) \
            if n else []:
        assert repr(batch[i]) == repr(expected[i])
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            batch[i]
    if not n:
        return
    at = data.draw(st.integers(-n, n - 1))
    row = DailyAggregate("new", date(2021, 5, 5), not expected[at].is_bot,
                         tuple(float(v) for v in range(1, N_FEATURES + 1)),
                         not expected[at].synthetic)
    before = batch[:]
    batch[at] = row
    assert repr(batch[at]) == repr(row)
    assert before == expected and batch != expected  # copy on write
    expected[at] = row
    assert reprs(batch) == reprs(expected) and batch == expected
    assert batch[:-1] != batch


def reference_metrics(records, classes, window, elapsed):
    """The report as it was computed record by record from a list of
    PredictionRecords."""
    cm = ConfusionMatrix(classes)
    for record in records:
        cm.add(record.true, record.predicted)
    macro, micro = macro_micro(cm)
    correct = [1 if r.true == r.predicted else 0 for r in records]
    series = [(end, sum(correct[end - window:end]) / window)
              for end in range(window, len(correct) + 1, window)]
    tail = correct[-window:]
    n = len(records)
    return MetricsReport(
        classifier="", target="", n_samples=n, accuracy=cm.accuracy(),
        per_class={c: {"precision": cm.precision(c), "recall": cm.recall(c),
                       "f": f_measure(cm, c)} for c in classes},
        macro_f=macro, micro_f=micro, confusion=cm.to_lists(),
        window_size=window, window_series=series,
        final_window_accuracy=sum(tail) / len(tail) if tail else 0.0,
        elapsed_seconds=elapsed,
        events_per_second=n / elapsed if elapsed else 0.0,
        ms_per_event=elapsed / n * 1000.0 if n else 0.0)


def reference_log_file(records, path):
    """The prediction log CSV written record by record."""
    write_rows(((r.index, r.contributor_id, r.true, r.predicted,
                 ";".join(map(repr, r.probabilities)), f"{r.latency_us:.1f}")
                for r in records),
               ("index", "contributor_id", "true", "predicted",
                "probabilities", "latency_us"), path)


def log_bytes(write, log):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "predictions.csv"
        write(log, path)
        return path.read_bytes()


def assert_log_is_records(log, records, classes, window):
    assert len(log) == len(records)
    assert reprs(log) == reprs(records) and log == records
    expected = log_bytes(reference_log_file, records)
    assert log_bytes(write_prediction_log, log) == expected
    assert log_bytes(write_prediction_log, records) == expected
    report = reference_metrics(records, classes, window, 1.5).to_dict()
    for given in (log, records):
        assert metrics_from_log(given, classes, window=window,
                                elapsed=1.5).to_dict() == report


@pytest.mark.parametrize("n", BLOCK_SIZES)
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_columnar_log_is_the_record_list(n, data):
    if n is None:
        n = data.draw(st.integers(0, 3 * ROW_BLOCK))
    classes = list(range(data.draw(st.integers(2, 3))))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    probabilities = rng.random((n, len(classes)))
    # a skilled classifier agrees with the label most of the time
    true = rng.integers(0, len(classes), n)
    predicted = np.where(rng.random(n) < 0.7, true,
                         probabilities.argmax(axis=1))
    log = PredictionLog(np.arange(n) + 7,
                        np.array([f"c{i}" for i in rng.integers(0, 40, n)],
                                 dtype=object),
                        true, predicted, probabilities,
                        rng.exponential(150.0, n))
    records = [PredictionRecord(*cells[:4], tuple(cells[4]), cells[5])
               for cells in zip(log.index.tolist(),
                                log.contributor_id.tolist(),
                                true.tolist(), predicted.tolist(),
                                probabilities.tolist(),
                                log.latency_us.tolist())]
    window = data.draw(st.integers(1, n + 5))
    assert_log_is_records(log, records, classes, window)
    start, stop = sorted(data.draw(st.lists(st.integers(-n - 2, n + 2),
                                            min_size=2, max_size=2)))
    assert_log_is_records(log[start:stop], records[start:stop], classes,
                          window)
    assert PredictionLog.of(records) == log
    if n:
        i = data.draw(st.integers(-n, n - 1))
        assert repr(log[i]) == repr(records[i])


def test_record_list_cells_are_kept_as_given():
    # a column of mixed labels keeps each one's type: True stays True
    records = [PredictionRecord(0, "a", True, 1, (0.5, 0.5), 1.0),
               PredictionRecord(1, "b", 0, False, (0.25, 0.75), 2.25)]
    assert log_bytes(write_prediction_log, records) == \
        log_bytes(reference_log_file, records)
    assert reprs(PredictionLog.of(records)) == reprs(records)


def test_prequential_log_is_the_record_loop():
    """A prequential run's log equals a loop that profiles, predicts,
    learns and records one sample at a time, but for the latency."""
    events, _ = simulate(SimConfig(counts={a: 15 for a in ARCHETYPE_NAMES},
                                   n_days=30, seed=5))
    stream = aggregate_daily(events)
    _, log = prequential_run(stream, GaussianNaiveBayes(), SET1,
                             "contribution_type")
    model, store, records = GaussianNaiveBayes(), ProfileStore(), []
    for index, agg in enumerate(stream):
        x = to_feature_vector(store.update(agg), SET1)
        probs = model.predict_learn(x, agg.contribution_type)
        records.append(PredictionRecord(
            index, agg.contributor_id, agg.contribution_type,
            model.classes[probs.argmax()], tuple(probs.tolist()), 0.0))
    assert len(stream) > ROW_BLOCK
    assert reprs(replace(r, latency_us=0.0) for r in log) == reprs(records)


def reference_write_rows(rows, columns, path):
    """``write_rows`` as the row loop of ``csv.writer`` and
    ``json.dumps`` wrote it before the columnar writer."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        if Path(path).suffix == ".jsonl":
            handle.writelines(json.dumps(dict(zip(columns, row))) + "\n"
                              for row in rows)
        else:
            writer = csv.writer(handle)
            writer.writerow(columns)
            writer.writerows(rows)


# Text that csv quotes, or that a cache or a renderer on another dialect
# gets wrong: a lone "\r" is not quoted under a "\n" line end.
WRITER_TEXTS = st.one_of(
    st.sampled_from(["", ",", '"', "\r", "\n", "\r\n", "a\rb", " x", "x ",
                     " ", "é", "\x1c", "1", "1.0", "True", 'say "hi", ok']),
    st.text(alphabet=st.sampled_from('ab ,"\r\n\x1cé;'), max_size=6))
WRITER_FLOATS = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, 1e-5, 1e16, float(2**53 + 2),
                     1.7976931348623157e308, 1.0, math.inf, -math.inf]),
    st.floats(allow_nan=False))
# 1, 1.0 and True are equal keys to a dict, but csv writes each its own
# way; so do np.float64(-0.0) and np.float64(0.0)
WRITER_CELLS = st.one_of(
    WRITER_TEXTS, WRITER_FLOATS, st.integers(-2**70, 2**70),
    st.sampled_from([True, False, 1, 0, 1.0]),
    WRITER_FLOATS.map(np.float64))


@settings(max_examples=300, deadline=None)
@given(width=st.integers(1, 4), kinds=st.data(), n=st.integers(0, 6))
@example(width=1, kinds=None, n=0)
def test_write_rows_is_the_csv_writer_row_loop(width, kinds, n):
    """``write_rows`` gives the bytes of the csv.writer row loop and of
    ``json.dumps`` per row, for text that csv quotes, numbers that a
    cache keyed by value would merge, and a lone empty cell."""
    columns = [f"c{i}" for i in range(width)]
    if kinds is None:  # one column of one empty cell: csv writes '""'
        rows = [[""]]
    else:
        strategies = [kinds.draw(st.sampled_from([WRITER_TEXTS, WRITER_FLOATS,
                                                  WRITER_CELLS]))
                      for _ in range(width)]
        rows = [[kinds.draw(strategy) for strategy in strategies]
                for _ in range(n)]
    with tempfile.TemporaryDirectory() as tmp:
        for suffix in (".csv", ".jsonl"):
            mine, theirs = Path(tmp, "mine" + suffix), Path(tmp, "ref" + suffix)
            write_rows(iter(rows), columns, mine)
            reference_write_rows(rows, columns, theirs)
            assert mine.read_bytes() == theirs.read_bytes(), suffix
