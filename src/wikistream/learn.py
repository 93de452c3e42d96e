"""
Online classifiers behind a uniform predict-then-learn contract.

Implements Gaussian naive Bayes, a Hoeffding tree over continuous
features, an online bagging forest (Poisson(1) resampling with
per-member feature subsets), online boosting, and the two-level
stacking model that classifies user type and contribution type jointly.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from .analysis import SET2, SET3_TARGET1, SET3_TARGET2
from .model import ValidationError, feature_columns, joint_class

VARIANCE_FLOOR = 1e-9
_LEAST = np.nextafter(0.0, 1.0)

# Fixed Hoeffding tree settings (Domingos & Hulten 2000). Checkpoints
# carry them, and ``from_state`` rejects a checkpoint with other values.
HOEFFDING_DELTA = 1e-7
HOEFFDING_TIE_THRESHOLD = 0.05
HOEFFDING_GRACE_PERIOD = 200
HOEFFDING_MAX_DEPTH = 20
_TREE_SETTINGS = {
    "delta": HOEFFDING_DELTA,
    "tie_threshold": HOEFFDING_TIE_THRESHOLD,
    "grace_period": HOEFFDING_GRACE_PERIOD,
    "max_depth": HOEFFDING_MAX_DEPTH,
}
_TREE_CHECKS = {"kind": "hoeffding_tree", **_TREE_SETTINGS}


def hoeffding_bound(value_range, delta, n):
    """Confidence radius licensing a split from n observations."""
    return math.sqrt(value_range ** 2 * math.log(1.0 / delta) / (2.0 * n))


def _check_settings(state, settings, where=""):
    """Reject a checkpoint that is not an object, or whose fixed settings
    differ from ``settings``."""
    if not isinstance(state, dict):
        raise ValidationError("not an object", field=where[:-1] or None)
    for name, value in settings.items():
        if state.get(name) != value:
            raise ValidationError(
                f"checkpoint has {state.get(name)!r}, expected {value!r}",
                field=where + name)


def _field(state, name, where=""):
    """Field ``name`` of checkpoint object ``state``, which must have it."""
    if name not in state:
        raise ValidationError("not in the checkpoint", field=where + name)
    return state[name]


def _check_integer(value, least, field):
    """Reject ``value`` unless it is an integer of at least ``least``."""
    if type(value) is not int or value < least:
        raise ValidationError(f"{value!r} is not an integer >= {least}",
                              field=field)


def _entropy(counts, total):
    """The entropy in bits of each row of class weights ``counts`` (the
    class axis last, contiguous) with row sums ``total``: bit for bit
    ``-(p * log2(p)).sum()`` over the row's nonzero p = counts / total
    alone; 0 where the total is 0."""
    # the least positive float stands in for a total of 0, and for p = 0
    # in the log, whose term is then 0
    p = counts / np.maximum(total, _LEAST)[..., None]
    terms = p * np.log2(np.maximum(p, _LEAST))
    if counts.shape[-1] < 8:
        # numpy adds fewer than eight values in order: zeros in place
        # change no sum
        return -terms.sum(axis=-1)
    # from eight on it adds them pairwise, so each row's nonzero terms,
    # moved to the front in order, are summed alone
    live = counts > 0
    n = live.sum(axis=-1)
    terms = np.take_along_axis(
        terms, np.argsort(~live, axis=-1, kind="stable"), axis=-1)
    sums = np.empty(n.shape)
    for k in np.unique(n).tolist():
        rows = n == k
        sums[rows] = terms[rows, :k].sum(axis=-1)
    return -sums


def _check_finite(row):
    """Raise ValidationError naming the first feature of the list of
    floats ``row`` that is not finite."""
    # a finite sum proves every value finite; only a row with a
    # non-finite value or an overflowing sum is scanned
    if not math.isfinite(sum(row)):
        bad = [i for i, v in enumerate(row) if not math.isfinite(v)]
        if bad:
            raise ValidationError(
                f"non-finite value {row[bad[0]]!r} at feature {bad[0]}")


class OnlineClassifier:
    """Predict-then-learn contract over a fixed class list.

    The feature arity is fixed by the first call. Predictions always
    return a probability vector summing to one and change no learned
    statistic, but a first call may set an ensemble up, which changes
    its ``to_state()``: a fresh ``BaggingForest`` with feature subsets
    draws them there, advancing its member RNGs.
    """

    def __init__(self, classes=(0, 1)):
        if not isinstance(classes, (list, tuple)) or not classes or any(
                classes.index(c) != i for i, c in enumerate(classes)):
            raise ValidationError(
                f"classes {classes!r} are not a list of distinct labels",
                field="classes")
        self.classes = list(classes)
        self.n_features = None

    def _check_arity(self, x):
        """``x`` as a float array: a flat, non-empty vector of finite
        features as long as the first call's, else ValidationError
        before any state changes."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 1 or not len(x):
            raise ValidationError("expected a flat, non-empty feature vector")
        _check_finite(x.tolist())
        if self.n_features is None:
            self.n_features = x.shape[0]
        elif x.shape[0] != self.n_features:
            raise ValidationError(
                f"arity mismatch: trained on {self.n_features} features, "
                f"got {x.shape[0]}")
        return x

    def predict_proba(self, x):
        raise NotImplementedError

    def learn_one(self, x, y):
        raise NotImplementedError

    def predict_learn(self, x, y):
        """``predict_proba(x)``, then ``learn_one(x, y)``; returns the
        probabilities."""
        probs = self.predict_proba(x)
        self.learn_one(x, y)
        return probs

    def predict(self, x):
        probs = self.predict_proba(x)
        return self.classes[int(np.argmax(probs))]

    def to_state(self):
        raise NotImplementedError


class GaussianNaiveBayes(OnlineClassifier):
    """Per-class, per-feature Gaussian likelihoods with running moments."""

    def __init__(self, classes=(0, 1)):
        super().__init__(classes)
        self._counts = None
        self._mean = None
        self._m2 = None

    def _ensure(self, d):
        if self._counts is None:
            c = len(self.classes)
            self._counts = np.zeros(c)
            self._mean = np.zeros((c, d))
            self._m2 = np.zeros((c, d))

    def learn_one(self, x, y):
        x = self._check_arity(x)
        self._ensure(x.shape[0])
        k = self.classes.index(y)
        self._counts[k] += 1
        self._mean[k], self._m2[k] = _fold(x, self._mean[k], self._m2[k],
                                           self._counts[k], 1)

    def predict_proba(self, x):
        x = self._check_arity(x)
        if self._counts is None or self._counts.sum() == 0:
            return np.full(len(self.classes), 1.0 / len(self.classes))
        log_probs = np.full(len(self.classes), -np.inf)
        total = self._counts.sum()
        for k in range(len(self.classes)):
            if self._counts[k] == 0:
                continue
            var = np.maximum(self._m2[k] / self._counts[k], VARIANCE_FLOOR)
            log_lik = -0.5 * np.sum(
                np.log(2.0 * np.pi * var) + (x - self._mean[k]) ** 2 / var)
            log_probs[k] = math.log(self._counts[k] / total) + log_lik
        log_probs -= log_probs.max()
        probs = np.exp(log_probs)
        return probs / probs.sum()

    def to_state(self):
        return {
            "kind": "nb",
            "classes": self.classes,
            "n_features": self.n_features,
            "counts": None if self._counts is None else self._counts.tolist(),
            "mean": None if self._mean is None else self._mean.tolist(),
            "m2": None if self._m2 is None else self._m2.tolist(),
        }

    @classmethod
    def from_state(cls, state):
        """The model ``to_state`` wrote. Moments of another shape than
        (classes, n_features), or negative counts, raise ValidationError
        naming the field."""
        _check_settings(state, {"kind": "nb"})
        clf = cls(_field(state, "classes"))
        clf.n_features = _field(state, "n_features")
        if _field(state, "counts") is not None:
            c = len(clf.classes)
            clf._counts = _counts(state, "counts", (c,))
            clf._mean = _array(state, "mean", (c, clf.n_features))
            clf._m2 = _array(state, "m2", (c, clf.n_features))
        return clf


def _array(state, name, shape, where=""):
    """Checkpoint list ``name`` as a float array, which must have
    ``shape`` and finite entries (null reads as NaN)."""
    try:
        value = np.array(state[name], dtype=float)
    except (KeyError, TypeError, ValueError):  # missing, ragged, not numeric
        value = None
    if value is None or value.shape != shape or not np.isfinite(value).all():
        raise ValidationError(
            f"checkpoint does not hold a finite {shape} array",
            field=where + name)
    return value


def _counts(state, name, shape, where=""):
    """``_array`` of counts, weights or probabilities, whose entries
    must be >= 0."""
    value = _array(state, name, shape, where)
    if (value < 0).any():
        raise ValidationError("checkpoint holds a negative entry",
                              field=where + name)
    return value


def _feature_count(state):
    """The checkpoint's ``n_features``, which its learned trees need."""
    _check_integer(_field(state, "n_features"), 1, "n_features")
    return state["n_features"]


def _fold(x, mean, m2, n, weight):
    """A weighted Welford step: the new (mean, m2) of one class's
    per-feature moments after ``weight`` copies of ``x``, ``n`` being the
    class count including them."""
    weighted = weight * (x - mean)
    mean = mean + weighted / n
    return mean, m2 + weighted * (x - mean)


_LEAF = (-1, None, None, None)


class TreeStore:
    """Hoeffding trees packed into one node table, one tree per member.

    Member m's tree reads the input columns ``columns[m]``, its
    ``width[m]`` features; its feature f is input column
    ``columns[m][f]``. Members may read different numbers of columns:
    the moment arrays are as wide as the widest member, and a narrower
    member's padded slots fold a copy of its first column but never
    reach a split or a checkpoint. Node ids run over the whole store:
    node m is member m's root, and a split appends its two children.
    The structure changes only at a split and is kept as one plain list
    of node tuples (input column, threshold, left, right), with column
    -1 at a leaf: plain lists route one row faster than numpy does. Node
    statistics are arrays indexed [node, class(, feature)]: class
    counts, per-class Gaussian moments per feature (mean and m2), the
    weight seen since the last split attempt, the fallback distribution
    (the parent's at split time) and depth. Their node capacity doubles
    when the table outgrows it. ``learn`` folds a row into many members'
    leaves at once (bagging, stacking); ``learn_member`` folds it into
    one member's leaf on scalars (boosting's loop, the lone tree).

    Candidate thresholds are midpoints between class means. A leaf
    splits when the best info gain beats the runner-up by the Hoeffding
    radius, or on a tie once the radius shrinks below the tie threshold.
    """

    def __init__(self, columns, n_classes):
        columns = [np.asarray(c, dtype=np.intp) for c in columns]
        self.width = [len(c) for c in columns]
        n_members, width = len(columns), max(self.width)
        self.columns = np.array([
            np.concatenate((c, c[:1].repeat(width - len(c))))
            for c in columns])
        self.nodes = [_LEAF] * n_members
        self.counts = np.zeros((n_members, n_classes))
        self.mean = np.zeros((n_members, n_classes, width))
        self.m2 = np.zeros((n_members, n_classes, width))
        self.seen = np.zeros(n_members)
        self.fallback = np.full((n_members, n_classes), 1.0 / n_classes)
        self.depth = np.zeros(n_members, dtype=np.int64)

    def is_leaf(self, node):
        return self.nodes[node][0] < 0

    def route(self, row, start, stop):
        """The leaf input row ``row`` reaches from each node ``start`` to
        ``stop`` - 1: from nodes m to n, in members m to n - 1's trees."""
        nodes = self.nodes
        leaves = []
        for node in range(start, stop):
            column, threshold, left, right = nodes[node]
            while column >= 0:
                node = left if row[column] <= threshold else right
                column, threshold, left, right = nodes[node]
            leaves.append(node)
        return leaves

    def distributions(self, leaves, counts):
        """One class distribution per leaf, ``counts`` being the leaves'
        rows of ``self.counts``: its normalised class counts, or its
        fallback while it has none."""
        total = counts.sum(axis=1, keepdims=True)
        out = self.fallback.take(leaves, axis=0)
        np.divide(counts, total, out=out, where=total > 0)
        return out

    def winner(self, leaf):
        """``distributions``' argmax for one leaf, on plain floats:
        the first most likely class. The total is numpy's: below 8
        classes numpy sums a row in order, from 8 on pairwise."""
        counts = self.counts[leaf].tolist()
        if len(counts) < 8:
            total = 0.0
            for c in counts:
                total += c
        else:
            total = float(self.counts[leaf].sum())
        if total > 0:
            probs = [c / total for c in counts]
        else:
            probs = self.fallback[leaf].tolist()
        return probs.index(max(probs))

    def learn(self, members, leaves, x, k, weights, counts):
        """Fold input row ``x``, an array, into one leaf per member of the
        index array ``members``, with the members' positive ``weights``;
        ``k`` is the class, one for all or an index array with one per
        member, and ``counts`` are the leaves' class-k counts before the
        fold. A leaf that has seen a grace period's weight since its last
        attempt tries to split, in member order.

        Each (leaf, class) pair is one flat slot, ``leaf * n_classes +
        k``, of the counts and of the moments' (node * class, feature)
        views: one ``take`` gathers the members' rows, where a (leaf,
        class) index would cost three times as much. ``_grow`` replaces
        the arrays, so the views are derived on each call."""
        slot = leaves * self.counts.shape[1] + k
        n = counts + weights
        self.counts.reshape(-1)[slot] = n
        width = self.mean.shape[2]
        mean, m2 = self.mean.reshape(-1, width), self.m2.reshape(-1, width)
        mean[slot], m2[slot] = _fold(
            x.take(self.columns.take(members, axis=0)),
            mean.take(slot, axis=0), m2.take(slot, axis=0),
            n[:, None], weights[:, None])
        seen = self.seen.take(leaves) + weights
        due = seen >= HOEFFDING_GRACE_PERIOD
        if due.any():
            seen[due] = 0.0
            for m, leaf in zip(members[due].tolist(), leaves[due].tolist()):
                self._attempt_split(m, leaf)
        self.seen[leaves] = seen

    def learn_member(self, m, leaf, x, k, weight):
        """``learn`` for member ``m`` alone, on scalars."""
        at = (leaf, k)
        n = self.counts[at] + weight
        self.counts[at] = n
        self.mean[at], self.m2[at] = _fold(
            x[self.columns[m]], self.mean[at], self.m2[at], n, weight)
        seen = self.seen[leaf] + weight
        if seen >= HOEFFDING_GRACE_PERIOD:
            self.seen[leaf] = 0.0
            self._attempt_split(m, leaf)
        else:
            self.seen[leaf] = seen

    def _attempt_split(self, m, node):
        """Split leaf ``node`` of member ``m``'s tree if its best
        candidate passes the Hoeffding test. Every candidate, one
        threshold per (feature, class pair), is scored in one array pass
        over the member's own ``width[m]`` features: the thresholds as a
        (feature, pair) array, each class's weight left of them (its
        count times its Gaussian CDF) as (feature, pair, class), and both
        sides' entropies in one call."""
        if self.depth[node] >= HOEFFDING_MAX_DEPTH:
            return
        counts = self.counts[node]
        present = [k for k, n in enumerate(counts.tolist()) if n >= 2]
        if len(present) < 2:
            return
        total = counts.sum()
        base_entropy = _entropy(counts, total)
        if base_entropy <= 0.0:
            return
        d = self.width[m]
        mean = self.mean[node, :, :d]
        a, b = np.array(list(combinations(present, 2))).T
        thresholds = (0.5 * (mean[a] + mean[b])).T
        # a class without weight divides by 1: its share, weight 0 times
        # its CDF, is 0
        n = np.where(counts > 0, counts, 1.0)[:, None]
        sd = np.sqrt(np.maximum(self.m2[node, :, :d] / n, VARIANCE_FLOOR)).T
        z = (thresholds[:, :, None] - mean.T[:, None]) / sd[:, None]
        # the Gaussian CDF through math.erf, element by element: a
        # vectorised erf may differ in the last bit
        scaled = (z / math.sqrt(2.0)).ravel().tolist()
        erf = np.array(list(map(math.erf, scaled))).reshape(z.shape)
        cdf = 0.5 * (1.0 + erf)
        sides = np.empty((2,) + z.shape)
        np.multiply(counts, cdf, out=sides[0])
        np.subtract(counts, sides[0], out=sides[1])
        sums = sides.sum(axis=-1)
        left, right = sums * _entropy(sides, sums)
        gain = base_entropy - (left + right) / total
        # a feature's best pair is its first highest gain above 0; the
        # first feature of the highest wins, and the runner-up is the
        # best of another feature, 0 without one
        gain = np.fmax(gain, 0.0)
        best = gain.max(axis=1).tolist()
        g1 = max(best)
        feature = best.index(g1)
        g2 = sorted(best)[-2] if d > 1 else 0.0
        value_range = math.log2(max(2, len(counts)))
        epsilon = hoeffding_bound(value_range, HOEFFDING_DELTA, total)
        if g1 > 1e-12 and (g1 - g2 > epsilon
                           or epsilon < HOEFFDING_TIE_THRESHOLD):
            threshold = thresholds[feature, gain[feature].argmax()]
            children = self._split(m, node, feature, threshold)
            self.fallback[children] = counts / total

    def _split(self, m, node, feature, threshold):
        """Turn leaf ``node`` of member ``m``'s tree into a split on its
        feature ``feature`` with two fresh leaves; returns their node
        ids."""
        nodes = self.nodes
        first = len(nodes)
        while first + 2 > len(self.counts):
            self._grow()
        nodes.extend((_LEAF, _LEAF))
        nodes[node] = (int(self.columns[m, feature]), float(threshold),
                       first, first + 1)
        children = [first, first + 1]
        self.depth[children] = self.depth[node] + 1
        return children

    def _grow(self):
        size = len(self.counts)
        for name in ("counts", "mean", "m2", "seen", "fallback", "depth"):
            old = getattr(self, name)
            grown = np.zeros((2 * size,) + old.shape[1:], dtype=old.dtype)
            grown[:size] = old
            setattr(self, name, grown)

    def root_state(self, m):
        """Member ``m``'s tree as nested node dicts; None while it has
        learned nothing."""
        if self.is_leaf(m) and not self.counts[m].any():
            return None
        return self._node_state(m, m)

    def _node_state(self, m, node):
        column, threshold, left, right = self.nodes[node]
        leaf = column < 0
        d = self.width[m]
        return {
            "class_counts": self.counts[node].tolist(),
            "mean": self.mean[node, :, :d].tolist(),
            "m2": self.m2[node, :, :d].tolist(),
            "seen_since_attempt": float(self.seen[node]),
            "split_feature": (None if leaf else
                              self.columns[m, :d].tolist().index(column)),
            "threshold": threshold,
            "fallback": self.fallback[node].tolist(),
            "depth": int(self.depth[node]),
            "left": None if leaf else self._node_state(m, left),
            "right": None if leaf else self._node_state(m, right),
        }

    def load_node(self, m, node, state, where):
        """Rebuild the subtree at leaf ``node`` of member ``m``'s tree
        from ``root_state`` output other than None; ``load_node(m, m,
        state, "root")`` loads member m's tree. A node field that is
        missing, of another shape, not finite, negative or out of range,
        or a split without a child, raises ValidationError naming its
        path (``root.left.mean``). The ``n`` field of older checkpoints,
        equal to the class counts, is ignored."""
        where += "."
        _check_settings(state, {}, where)
        c, d = self.counts.shape[1], self.width[m]
        self.counts[node] = _counts(state, "class_counts", (c,), where)
        self.fallback[node] = _counts(state, "fallback", (c,), where)
        self.mean[node, :, :d] = _array(state, "mean", (c, d), where)
        self.m2[node, :, :d] = _array(state, "m2", (c, d), where)
        self.seen[node] = _counts(state, "seen_since_attempt", (), where)
        feature = _field(state, "split_feature", where)
        depth = _field(state, "depth", where)
        if type(depth) is not int or depth < 0:
            raise ValidationError(f"depth {depth!r} is not a count",
                                  field=where + "depth")
        self.depth[node] = depth
        if feature is not None:
            if type(feature) is not int or not 0 <= feature < d:
                raise ValidationError(
                    f"split feature {feature!r} is not one of {d}",
                    field=where + "split_feature")
            threshold = _array(state, "threshold", (), where)
            left, right = self._split(m, node, feature, threshold)
            self.load_node(m, left, state.get("left"), where + "left")
            self.load_node(m, right, state.get("right"), where + "right")


def _tree_state(classes, n_features, root):
    return {
        "kind": "hoeffding_tree",
        "classes": classes,
        "n_features": n_features,
        **_TREE_SETTINGS,
        "root": root,
    }


class HoeffdingTree(OnlineClassifier):
    """Incremental decision tree split-guarded by the Hoeffding bound:
    a one-member ``TreeStore`` learning through ``learn_member``."""

    def __init__(self, classes=(0, 1)):
        super().__init__(classes)
        self.store = None

    def _ensure(self, d):
        if self.store is None:
            self.store = TreeStore([np.arange(d)], len(self.classes))

    def learn_one(self, x, y):
        x = self._check_arity(x)
        self._ensure(x.shape[0])
        store = self.store
        store.learn_member(0, store.route(x, 0, 1)[0], x,
                           self.classes.index(y), 1)

    def predict_proba(self, x):
        x = self._check_arity(x)
        if self.store is None:
            return np.full(len(self.classes), 1.0 / len(self.classes))
        leaves = self.store.route(x, 0, 1)
        return self.store.distributions(leaves, self.store.counts[leaves])[0]

    def to_state(self):
        return _tree_state(
            self.classes, self.n_features,
            None if self.store is None else self.store.root_state(0))

    @classmethod
    def from_state(cls, state):
        _check_settings(state, _TREE_CHECKS)
        tree = cls(_field(state, "classes"))
        tree.n_features = _field(state, "n_features")
        if _field(state, "root") is not None:
            tree._ensure(_feature_count(state))
            tree.store.load_node(0, 0, state["root"], "root")
        return tree


def _check_length(state, name, n_members):
    """Checkpoint list ``name``, which must hold one entry per member."""
    value = _field(state, name)
    if not isinstance(value, list) or len(value) != n_members:
        raise ValidationError(
            f"checkpoint does not list one entry for each of {n_members} "
            "members", field=name)
    return value


# Online bagging draws each member's Poisson(1) weights this many
# examples at a time; one array draw yields the values, and leaves the
# generator in the state, of as many scalar draws.
POISSON_BLOCK = 64


class _Ensemble(OnlineClassifier):
    """Member trees held in a ``TreeStore``, each member with its own
    RNG substream derived from (seed, member index).

    Member m's tree is store member ``offset + m``. The offset is 0 for
    a forest with a store of its own. ``StackingModel``'s forests are
    ``shared``: they share one store, each with its own member range,
    the model steps them and their own steps raise; their checkpoints
    read and write their range. An example is routed
    once through every member's tree: the ensemble predicts from those
    leaves and, in ``predict_learn``, learns at them.
    ``_route`` returns the checked row and then what ``_vote`` and
    ``_learn`` take. Only member m's own learn changes member m's tree.
    """

    def __init__(self, n_members, classes, seed):
        super().__init__(classes)
        _check_integer(n_members, 1, "n_members")
        _check_integer(seed, 0, "seed")
        self.n_members = n_members
        self.seed = seed
        self._rngs = [np.random.default_rng([seed, m])
                      for m in range(n_members)]
        self.store = None
        self.offset = 0
        self.shared = False

    def _route(self, x):
        """``x`` checked, and the leaf it reaches in each member's tree."""
        if self.shared:
            raise ValidationError("a stacking model's forest is stepped by "
                                  "the model, not on its own")
        x = self._check_arity(x)
        self._ensure(x.shape[0])
        return x, self.store.route(x.tolist(), 0, self.n_members)

    def predict_proba(self, x):
        _, *routed = self._route(x)
        return self._vote(*routed)

    def learn_one(self, x, y):
        self._learn(*self._route(x), y)

    def predict_learn(self, x, y):
        x, *routed = self._route(x)
        probs = self._vote(*routed)
        self._learn(x, *routed, y)
        return probs

    def _rng_states(self):
        return [rng.bit_generator.state for rng in self._rngs]

    def _state(self, kind, settings):
        """The checkpoint: ``settings`` between the shared fields and
        the members."""
        store = self.store
        members = range(self.offset, self.offset + self.n_members)
        return {
            "kind": kind,
            "classes": self.classes,
            "n_features": self.n_features,
            "n_members": self.n_members,
            "seed": self.seed,
            **settings,
            "members": [
                _tree_state(self.classes, None, None) if store is None
                else _tree_state(self.classes, store.width[m],
                                 store.root_state(m))
                for m in members],
            "rng_states": self._rng_states(),
        }

    def _load(self, state):
        """Load the member trees and RNG states of checkpoint ``state``
        into the store. A list without one entry per member, or a
        learned tree without a feature count, raises ValidationError
        naming it."""
        members = _check_length(state, "members", self.n_members)
        rng_states = _check_length(state, "rng_states", self.n_members)
        for m, member in enumerate(members):
            where = f"members.{m}."
            _check_settings(member, _TREE_CHECKS, where)
            if _field(member, "root", where) is not None:
                if self.store is None:  # no feature count or subsets
                    _feature_count(state)
                    raise ValidationError("checkpoint has learned trees "
                                          "but no subsets", field="subsets")
                root = self.offset + m
                self.store.load_node(root, root, member["root"],
                                     where + "root")
        for m, (rng, rng_state) in enumerate(zip(self._rngs, rng_states)):
            try:
                rng.bit_generator.state = rng_state
            except (TypeError, ValueError, KeyError):
                raise ValidationError("checkpoint has no generator state",
                                      field=f"rng_states.{m}") from None


class BaggingForest(_Ensemble):
    """Online bagging of Hoeffding trees (Oza & Russell 2001).

    Each member sees each example Poisson(1) times and is restricted to
    a random sqrt(d)-sized feature subset fixed at its birth
    (``max_features=None`` keeps the full set). The weights come from a
    block of ``POISSON_BLOCK`` draws per member, refilled member by
    member, so each member's substream yields the draws one-per-example
    scalar draws would; a checkpoint carries each member's state after
    the draws used so far.
    """

    def __init__(self, n_members=10, classes=(0, 1), seed=0,
                 max_features="sqrt", use_poisson=True):
        super().__init__(n_members, classes, seed)
        if max_features not in (None, "sqrt"):
            raise ValidationError(
                f"{max_features!r} is not None or 'sqrt'",
                field="max_features")
        if type(use_poisson) is not bool:
            raise ValidationError(f"{use_poisson!r} is not a boolean",
                                  field="use_poisson")
        self.max_features = max_features
        self.use_poisson = use_poisson
        # each member's feature subset (sorted input columns), or None
        # before the first call
        self.subsets = None
        self._block = None         # (n_members, POISSON_BLOCK) weights
        self._block_states = None  # each member's RNG state before it
        self._drawn = 0            # block columns used

    def _subset_size(self, d):
        """How many of ``d`` input columns each member reads."""
        if self.max_features is None:
            return d
        return max(1, math.ceil(math.sqrt(d)))

    def _ensure(self, d):
        if self.store is not None:
            return
        if self.max_features is None:
            self.subsets = [np.arange(d) for _ in range(self.n_members)]
        else:
            size = self._subset_size(d)
            self.subsets = [
                np.sort(self._rngs[m].choice(d, size=size, replace=False))
                for m in range(self.n_members)
            ]
        self.store = TreeStore(self.subsets, len(self.classes))

    def _weights(self):
        """Each member's weight for the next example: its next Poisson(1)
        draw, or 1 without Poisson resampling."""
        if not self.use_poisson:
            return np.ones(self.n_members)
        if self._block is None or self._drawn == POISSON_BLOCK:
            self._block_states = [rng.bit_generator.state
                                  for rng in self._rngs]
            self._block = np.array(
                [rng.poisson(1.0, size=POISSON_BLOCK) for rng in self._rngs],
                dtype=float)
            self._drawn = 0
        self._drawn += 1
        return self._block[:, self._drawn - 1]

    def _rng_states(self):
        """Each member's RNG state after the draws used so far: its state
        before the block, advanced by that many draws."""
        if self._block is None:
            return super()._rng_states()
        states = []
        for rng, state in zip(self._rngs, self._block_states):
            replay = np.random.Generator(type(rng.bit_generator)())
            replay.bit_generator.state = state
            replay.poisson(1.0, size=self._drawn)
            states.append(replay.bit_generator.state)
        return states

    def _route(self, x):
        """``x`` checked, the index array of the leaf it reaches in each
        member's tree, and their class counts, gathered once for the
        vote and the learn."""
        x, leaves = super()._route(x)
        leaves = np.array(leaves, dtype=np.intp)
        return x, leaves, self.store.counts.take(leaves, axis=0)

    def _vote(self, leaves, counts):
        return (self.store.distributions(leaves, counts).sum(axis=0)
                / self.n_members)

    def _learn(self, x, leaves, counts, y):
        k = self.classes.index(y)
        weights = self._weights()
        hit = weights.nonzero()[0]  # Poisson weights are >= 0
        self.store.learn(hit, leaves.take(hit), x, k, weights.take(hit),
                         counts[:, k].take(hit))

    def to_state(self):
        return self._state("bagging_forest", {
            "max_features": self.max_features,
            "use_poisson": self.use_poisson,
            "subsets": (None if self.subsets is None
                        else [s.tolist() for s in self.subsets]),
        })

    @classmethod
    def from_state(cls, state):
        """The forest ``to_state`` wrote, with an empty Poisson block. A
        subset that is not the expected number of distinct input columns
        raises ValidationError naming it (``subsets.0``)."""
        forest = cls._settings_from_state(state)
        if forest.subsets is not None:
            forest.store = TreeStore(forest.subsets, len(forest.classes))
        forest._load(state)
        return forest

    @classmethod
    def _settings_from_state(cls, state):
        """The forest of checkpoint ``state`` with its checked subsets
        but without a store or member trees."""
        _check_settings(state, {"kind": "bagging_forest"})
        forest = cls(**{name: _field(state, name) for name in (
            "n_members", "classes", "seed", "max_features", "use_poisson")})
        forest.n_features = _field(state, "n_features")
        if _field(state, "subsets") is not None:
            subsets = _check_length(state, "subsets", forest.n_members)
            d = _feature_count(state)
            size = forest._subset_size(d)
            for m, subset in enumerate(subsets):
                if not (isinstance(subset, list) and all(
                        type(c) is int and 0 <= c < d for c in subset)
                        and len(subset) == len(set(subset)) == size):
                    raise ValidationError(
                        f"checkpoint subset is not {size} distinct columns "
                        f"of {d}", field=f"subsets.{m}")
            forest.subsets = [np.array(s) for s in subsets]
        return forest


class OnlineBoosting(_Ensemble):
    """Sequential Poisson-weighted boosting of Hoeffding trees, held in
    one ``TreeStore``.

    Each member draws Poisson(lambda) replications; lambda is raised on
    members' mistakes and lowered on their successes, concentrating
    later members on the hard examples. Lambda changes per member and
    per example, so the draws are scalar. Each member in turn draws,
    folds (``TreeStore.learn_member``) and votes after its fold. The
    ensemble's vote finds each member's winner (its leaf's first most
    likely class) once per example, and a member that draws 0 votes with
    it: only its own fold changes its leaf.
    """

    def __init__(self, n_members=10, classes=(0, 1), seed=0):
        super().__init__(n_members, classes, seed)
        self.lambda_correct = np.zeros(n_members)
        self.lambda_wrong = np.zeros(n_members)

    def _ensure(self, d):
        if self.store is None:
            self.store = TreeStore([np.arange(d)] * self.n_members,
                                   len(self.classes))

    def _route(self, x):
        """``x`` checked, the leaf it reaches in each member's tree, and
        each leaf's winner."""
        x, leaves = super()._route(x)
        store = self.store
        winners = store.distributions(
            leaves, store.counts.take(leaves, axis=0)).argmax(axis=1)
        return x, leaves, winners.tolist()

    def _learn(self, x, leaves, winners, y):
        store = self.store
        k = self.classes.index(y)
        correct = self.lambda_correct.tolist()
        wrong = self.lambda_wrong.tolist()
        lam = 1.0
        for m, (rng, leaf, winner) in enumerate(
                zip(self._rngs, leaves, winners)):
            w = rng.poisson(lam)
            if w > 0:
                store.learn_member(m, leaf, x, k, w)
                if not store.is_leaf(leaf):  # the learn split it
                    leaf = store.route(x, leaf, leaf + 1)[0]
                winner = store.winner(leaf)
            if winner == k:
                correct[m] += lam
                lam *= (correct[m] + wrong[m]) / (2.0 * correct[m])
            else:
                wrong[m] += lam
                lam *= (correct[m] + wrong[m]) / (2.0 * wrong[m])
        self.lambda_correct[:] = correct
        self.lambda_wrong[:] = wrong

    def _member_weights(self):
        weights = []
        for correct, wrong in zip(self.lambda_correct.tolist(),
                                  self.lambda_wrong.tolist()):
            total = correct + wrong
            if total == 0:
                weights.append(0.0)
                continue
            error = min(max(wrong / total, 1e-10), 1.0 - 1e-10)
            weights.append(max(0.0, math.log((1.0 - error) / error)))
        return weights

    def _vote(self, leaves, winners):
        weights = self._member_weights()
        if not any(weights):  # none is negative
            return np.full(len(self.classes), 1.0 / len(self.classes))
        # bincount adds the weights in member order, as a loop would
        votes = np.bincount(winners, weights=weights,
                            minlength=len(self.classes))
        return votes / votes.sum()

    def to_state(self):
        return self._state("online_boosting", {
            "lambda_correct": self.lambda_correct.tolist(),
            "lambda_wrong": self.lambda_wrong.tolist(),
        })

    @classmethod
    def from_state(cls, state):
        """The model ``to_state`` wrote. Negative λ entries raise
        ValidationError naming the list."""
        _check_settings(state, {"kind": "online_boosting"})
        clf = cls(**{name: _field(state, name)
                     for name in ("n_members", "classes", "seed")})
        clf.n_features = _field(state, "n_features")
        clf.lambda_correct = _counts(state, "lambda_correct",
                                     (clf.n_members,))
        clf.lambda_wrong = _counts(state, "lambda_wrong", (clf.n_members,))
        if clf.n_features is not None:
            clf._ensure(_feature_count(state))
        clf._load(state)
        return clf


STACKING_ENSEMBLE_SIZE = 15

_USER_COLUMNS = feature_columns(SET3_TARGET1.feature_ids)
_CONTRIBUTION_COLUMNS = feature_columns(SET3_TARGET2.feature_ids)
# Level 2 reads [P(bot), P(malign)], appended to the catalogue row, and
# the level-1b columns.
_FINAL_COLUMNS = np.concatenate((
    [len(SET2.feature_ids), len(SET2.feature_ids) + 1],
    _CONTRIBUTION_COLUMNS))
_FORESTS = {"forest_user": _USER_COLUMNS,
            "forest_contribution": _CONTRIBUTION_COLUMNS,
            "forest_final": _FINAL_COLUMNS}
# The class index each of the 45 members learns, by the (user,
# contribution) class indices: level 1a learns the user class, level 1b
# and level 2 the contribution class.
_MEMBER_CLASSES = [
    [np.repeat([user, contribution, contribution], STACKING_ENSEMBLE_SIZE)
     for contribution in (0, 1)]
    for user in (0, 1)]


def _stacking_settings():
    """The fixed settings every stacking checkpoint carries."""
    return {
        "user_features": list(SET3_TARGET1.feature_ids),
        "contribution_features": list(SET3_TARGET2.feature_ids),
        "include_base_features": True,
    }


def _in_forest(name, load, state):
    """``load(state)``, a ValidationError's field prefixed with the
    forest's ``name``."""
    try:
        return load(state)
    except ValidationError as exc:
        raise ValidationError(exc.message,
                              field=f"{name}.{exc.field}") from None


class StackingModel:
    """Two-level stack of three bagging forests of
    ``STACKING_ENSEMBLE_SIZE`` full-feature members each.

    Level 1a predicts user type from the ``SET3_TARGET1`` columns, level
    1b predicts contribution type from the ``SET3_TARGET2`` columns, and
    level 2 refines the contribution prediction from [P(bot), P(malign)]
    plus the level-1b columns. Level 2 trains on level-1 outputs
    computed before the level-1 update, keeping them out-of-sample.

    ``predict`` and ``learn`` take a profile's feature array in the order
    of ``features``, the full catalogue. The three forests share one
    ``TreeStore`` of 45 members, set up by the first call, and the model
    steps them: their members read the columns of the catalogue row with
    [P(bot), P(malign)] appended, so the forests' own ``predict_proba``
    and ``learn_one`` do not apply. Each forest keeps its own RNGs,
    Poisson block and checkpoint.
    """

    features = SET2

    def __init__(self, seed=0):
        _check_integer(seed, 0, "seed")
        self.seed = seed
        self.forest_user, self.forest_contribution, self.forest_final = (
            BaggingForest(STACKING_ENSEMBLE_SIZE, seed=_substream(seed, i),
                          max_features=None)
            for i in (1, 2, 3))
        for forest in self._forests():
            forest.shared = True
        self.store = None

    def _forests(self):
        return self.forest_user, self.forest_contribution, self.forest_final

    def _share(self):
        """Put the forests' members into one store, forest i's as members
        i * STACKING_ENSEMBLE_SIZE onwards; each member reads its subset
        of its forest's input columns. A forest without subsets yet gets
        its full input."""
        forests = self._forests()
        for forest, columns in zip(forests, _FORESTS.values()):
            if forest.subsets is None:
                forest.n_features = len(columns)
                forest.subsets = [np.arange(len(columns))] * forest.n_members
        self.store = TreeStore(
            [columns[s] for forest, columns in zip(forests, _FORESTS.values())
             for s in forest.subsets], 2)
        for i, forest in enumerate(forests):
            forest.store = self.store
            forest.offset = i * STACKING_ENSEMBLE_SIZE

    def _run(self, x, labels=None):
        """One pass through the levels, learning (y_user, y_contribution)
        ``labels`` unless None; returns (user probs, final contribution
        probs, joint class name).

        Level 1a and 1b route together, gather their leaves' counts once
        and take their distributions in one call. Level 2 then routes
        the row with their probabilities, and all 45 members learn in
        one ``TreeStore.learn``."""
        x = np.asarray(x, dtype=float)
        if x.shape != (len(self.features),):
            raise ValidationError(
                f"expected {len(self.features)} features, got shape {x.shape}")
        row = x.tolist()
        _check_finite(row)
        if self.store is None:
            self._share()
        store, size = self.store, STACKING_ENSEMBLE_SIZE
        first = np.array(store.route(row, 0, 2 * size), dtype=np.intp)
        first_counts = store.counts.take(first, axis=0)
        level_one = store.distributions(first, first_counts).reshape(
            2, size, -1).sum(axis=1) / size
        user_probs = level_one[0]
        row += level_one[:, 1].tolist()
        final = np.array(store.route(row, 2 * size, 3 * size), dtype=np.intp)
        final_counts = store.counts.take(final, axis=0)
        final_probs = store.distributions(final, final_counts).sum(
            axis=0) / size
        if labels is not None:
            self._learn(row, np.concatenate((first, final)),
                        np.concatenate((first_counts, final_counts)), *labels)
        joint = joint_class(int(user_probs.argmax()),
                            int(final_probs.argmax()))
        return user_probs, final_probs, joint

    def _learn(self, row, leaves, counts, y_user, y_contribution):
        """Fold ``row`` into the 45 members' ``leaves``, whose class
        ``counts`` were gathered before the fold: level 1a learns the
        user label, level 1b and level 2 the contribution label."""
        # the labels' class indices, as each forest reads them: a bool or
        # numpy label maps to its index, an unknown one raises
        k = _MEMBER_CLASSES[self.forest_user.classes.index(y_user)][
            self.forest_contribution.classes.index(y_contribution)]
        weights = np.concatenate(
            [forest._weights() for forest in self._forests()])
        hit = weights.nonzero()[0]  # Poisson weights are >= 0
        k = k.take(hit)
        self.store.learn(hit, leaves.take(hit), np.array(row), k,
                         weights.take(hit), counts.reshape(-1).take(
                             hit * counts.shape[1] + k))

    def predict(self, x):
        """Returns (user probs, final contribution probs, joint class name)."""
        return self._run(x)

    def learn(self, x, y_user, y_contribution):
        """``predict_learn`` without its outputs."""
        self.predict_learn(x, y_user, y_contribution)

    def predict_learn(self, x, y_user, y_contribution):
        """``predict(x)`` then ``learn(x, y_user, y_contribution)``: every
        level predicts from the leaves it learns at."""
        return self._run(x, (y_user, y_contribution))

    def to_state(self):
        return {
            "kind": "stacking",
            "seed": self.seed,
            **_stacking_settings(),
            **{name: getattr(self, name).to_state() for name in _FORESTS},
        }

    @classmethod
    def from_state(cls, state):
        """The model ``to_state`` wrote. A checkpoint whose fixed settings,
        forest sizes, classes or feature counts differ, or whose forest
        does not load, raises ValidationError naming the field."""
        _check_settings(state, {"kind": "stacking", **_stacking_settings()})
        model = cls(seed=_field(state, "seed"))
        for name, columns in _FORESTS.items():
            forest_state = _field(state, name)
            _check_settings(forest_state, {
                "kind": "bagging_forest", "classes": [0, 1],
                "n_members": STACKING_ENSEMBLE_SIZE, "max_features": None},
                name + ".")
            if forest_state.get("n_features") is not None:
                _check_settings(forest_state, {"n_features": len(columns)},
                                name + ".")
            forest = _in_forest(name, BaggingForest._settings_from_state,
                                forest_state)
            forest.shared = True
            setattr(model, name, forest)
        # forests without subsets load before the shared store exists,
        # so learned trees in them raise as in a stand-alone forest
        forests = sorted(zip(_FORESTS, model._forests()),
                         key=lambda item: item[1].subsets is not None)
        for name, forest in forests:
            if forest.subsets is not None and model.store is None:
                model._share()
            _in_forest(name, forest._load, state[name])
        return model


def _substream(seed, index):
    # distinct deterministic member seeds without colliding across forests
    return (seed * 1000003 + index) % (2 ** 63)


def make_classifier(kind, seed=0, classes=(0, 1)):
    """Factory for the classifier ids used by the CLI."""
    if kind == "nb":
        return GaussianNaiveBayes(classes)
    if kind == "dt":
        return HoeffdingTree(classes)
    if kind == "rf":
        return BaggingForest(n_members=10, classes=classes, seed=seed)
    if kind == "bc":
        return OnlineBoosting(n_members=10, classes=classes, seed=seed)
    raise ValidationError(f"unknown classifier id {kind!r}", field="classifier")
