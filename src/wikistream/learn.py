"""
Online classifiers behind a uniform predict-then-learn contract.

Implements Gaussian naive Bayes, a Hoeffding tree over continuous
features, an online bagging forest (Poisson(1) resampling with
per-member feature subsets), online boosting, and the two-level
stacking model that classifies user type and contribution type jointly.
"""

from __future__ import annotations

import math

import numpy as np

from .analysis import SET2, SET3_TARGET1, SET3_TARGET2
from .model import ValidationError, feature_columns, joint_class

VARIANCE_FLOOR = 1e-9

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


def hoeffding_bound(value_range, delta, n):
    """Confidence radius licensing a split from n observations."""
    return math.sqrt(value_range ** 2 * math.log(1.0 / delta) / (2.0 * n))


def _normal_cdf(z):
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def _check_settings(state, settings, where=""):
    """Reject a checkpoint whose fixed settings differ from ``settings``."""
    for name, value in settings.items():
        if state.get(name) != value:
            raise ValidationError(
                f"checkpoint has {state.get(name)!r}, expected {value!r}",
                field=where + name)


def _check_integer(value, least, field):
    """Reject ``value`` unless it is an integer of at least ``least``."""
    if type(value) is not int or value < least:
        raise ValidationError(f"{value!r} is not an integer >= {least}",
                              field=field)


def _entropy(counts):
    total = counts.sum()
    if total <= 0:
        return 0.0
    p = counts[counts > 0] / total
    return float(-(p * np.log2(p)).sum())


class OnlineClassifier:
    """Predict-then-learn contract over a fixed class list.

    The feature arity is fixed by the first call. Predictions always
    return a probability vector summing to one and change no learned
    statistic, but a first call may set the model up: a fresh
    ``BaggingForest`` with feature subsets draws them there, which
    advances its member RNGs and so changes its ``to_state()``.
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
        x = np.asarray(x, dtype=float)
        if x.ndim != 1:
            raise ValidationError("expected a flat feature vector")
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
        (classes, n_features) raise ValidationError naming the field."""
        clf = cls(state["classes"])
        clf.n_features = state["n_features"]
        if state["counts"] is not None:
            c = len(clf.classes)
            clf._counts = _array(state, "counts", (c,))
            clf._mean = _array(state, "mean", (c, clf.n_features))
            clf._m2 = _array(state, "m2", (c, clf.n_features))
        return clf


def _array(state, name, shape, where=""):
    """Checkpoint list ``name`` as a float array, which must have
    ``shape`` and finite entries (null reads as NaN)."""
    try:
        value = np.array(state[name], dtype=float)
    except (TypeError, ValueError):  # ragged or not numeric
        value = None
    if value is None or value.shape != shape or not np.isfinite(value).all():
        raise ValidationError(
            f"checkpoint does not hold a finite {shape} array",
            field=where + name)
    return value


def _feature_count(state):
    """The checkpoint's ``n_features``, which its learned trees need."""
    _check_integer(state["n_features"], 1, "n_features")
    return state["n_features"]


def _split_gain(counts, mean, m2, feature, threshold, base_entropy):
    """Info gain of splitting a leaf's (counts, mean, m2) at ``threshold``,
    with each class's side counts estimated through its Gaussian CDF."""
    total = counts.sum()
    left = np.zeros(len(counts))
    for k in range(len(counts)):
        if counts[k] <= 0:
            continue
        var = max(m2[k, feature] / counts[k], VARIANCE_FLOOR)
        z = (threshold - mean[k, feature]) / math.sqrt(var)
        left[k] = counts[k] * _normal_cdf(z)
    right = counts - left
    nl, nr = left.sum(), right.sum()
    weighted = (nl * _entropy(left) + nr * _entropy(right)) / total
    return base_entropy - weighted


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

    Member m's tree reads the input columns ``columns[m]``; its feature
    f is input column ``columns[m][f]``. Node ids run over the whole
    store: node m is member m's root, and a split appends its two
    children. The structure changes only at a split and is kept as one
    plain list of node tuples (input column, threshold, left, right),
    with column -1 at a leaf: plain lists route one row faster than
    numpy does. Node statistics are arrays indexed [node, class(,
    feature)]: class counts, per-class Gaussian moments per feature
    (mean and m2), the weight seen since the last split attempt, the
    fallback distribution (the parent's at split time) and depth. Their
    node capacity doubles when the table outgrows it.

    Candidate thresholds are midpoints between class means. A leaf
    splits when the best info gain beats the runner-up by the Hoeffding
    radius, or on a tie once the radius shrinks below the tie threshold.
    """

    def __init__(self, columns, n_classes):
        self.columns = np.asarray(columns)
        n_members, self.n_features = self.columns.shape
        self.nodes = [_LEAF] * n_members
        self.counts = np.zeros((n_members, n_classes))
        self.mean = np.zeros((n_members, n_classes, self.n_features))
        self.m2 = np.zeros((n_members, n_classes, self.n_features))
        self.seen = np.zeros(n_members)
        self.fallback = np.full((n_members, n_classes), 1.0 / n_classes)
        self.depth = np.zeros(n_members, dtype=np.int64)

    def is_leaf(self, node):
        return self.nodes[node][0] < 0

    def descend(self, node, x):
        """The leaf input row ``x`` reaches from node ``node``; from node
        m, the leaf it reaches in member m's tree."""
        nodes = self.nodes
        column, threshold, left, right = nodes[node]
        while column >= 0:
            node = left if x[column] <= threshold else right
            column, threshold, left, right = nodes[node]
        return node

    def route(self, row):
        """``descend`` from every member's root: the leaf input row
        ``row`` reaches in each member's tree."""
        nodes = self.nodes
        leaves = []
        for node in range(len(self.columns)):
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
        out = self.fallback[leaves]
        np.divide(counts, total, out=out, where=total > 0)
        return out

    def distribution(self, leaf):
        """One leaf's ``distributions``."""
        counts = self.counts[leaf]
        total = counts.sum()
        if total > 0:
            return counts / total
        return self.fallback[leaf].copy()

    def winner(self, leaf):
        """``int(np.argmax(self.distribution(leaf)))`` on plain floats:
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
        """Fold input row ``x`` of class ``k`` into one leaf per member
        of the index array ``members``, with the members' positive
        ``weights``; ``counts`` are the leaves' class-k counts before
        the fold. A leaf that has seen a grace period's weight since its
        last attempt tries to split."""
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

    def learn_member(self, m, leaf, x, k, weight):
        """``learn`` for one member."""
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
        if self.depth[node] >= HOEFFDING_MAX_DEPTH:
            return
        counts, mean, m2 = self.counts[node], self.mean[node], self.m2[node]
        present = [k for k in range(len(counts)) if counts[k] >= 2]
        if len(present) < 2:
            return
        base_entropy = _entropy(counts)
        if base_entropy <= 0.0:
            return

        best = []  # per-feature best (gain, feature, threshold)
        for f in range(self.n_features):
            gain, threshold = 0.0, None
            for i, a in enumerate(present):
                for b in present[i + 1:]:
                    candidate = 0.5 * (mean[a, f] + mean[b, f])
                    g = _split_gain(counts, mean, m2, f, candidate,
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
        return {
            "class_counts": self.counts[node].tolist(),
            "mean": self.mean[node].tolist(),
            "m2": self.m2[node].tolist(),
            "seen_since_attempt": float(self.seen[node]),
            "split_feature": (None if leaf else
                              self.columns[m].tolist().index(column)),
            "threshold": threshold,
            "fallback": self.fallback[node].tolist(),
            "depth": int(self.depth[node]),
            "left": None if leaf else self._node_state(m, left),
            "right": None if leaf else self._node_state(m, right),
        }

    def load_node(self, m, node, state, where):
        """Rebuild the subtree at leaf ``node`` of member ``m``'s tree
        from ``root_state`` output other than None; ``load_node(m, m,
        state, "root")`` loads member m's tree. A node whose statistics
        have another shape than (classes(, features)) or are not finite,
        whose depth is not a count, whose split feature is out of range
        or whose split lacks a child raises ValidationError naming its
        path (``root.left.mean``). An ``n``
        field, which older checkpoints carry beside the equal class
        counts, is ignored."""
        if not isinstance(state, dict):
            raise ValidationError("checkpoint has no tree node here",
                                  field=where)
        where += "."
        c, d = self.counts.shape[1], self.n_features
        self.counts[node] = _array(state, "class_counts", (c,), where)
        self.fallback[node] = _array(state, "fallback", (c,), where)
        self.mean[node] = _array(state, "mean", (c, d), where)
        self.m2[node] = _array(state, "m2", (c, d), where)
        self.seen[node] = _array(state, "seen_since_attempt", (), where)
        feature, depth = state["split_feature"], state["depth"]
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
            self.load_node(m, left, state["left"], where + "left")
            self.load_node(m, right, state["right"], where + "right")


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
    a one-member ``TreeStore``."""

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
        store.learn_member(0, store.descend(0, x), x,
                           self.classes.index(y), 1)

    def predict_proba(self, x):
        x = self._check_arity(x)
        if self.store is None:
            return np.full(len(self.classes), 1.0 / len(self.classes))
        store = self.store
        return store.distribution(store.descend(0, x))

    def to_state(self):
        return _tree_state(
            self.classes, self.n_features,
            None if self.store is None else self.store.root_state(0))

    @classmethod
    def from_state(cls, state):
        _check_settings(state, _TREE_SETTINGS)
        tree = cls(state["classes"])
        tree.n_features = state["n_features"]
        if state["root"] is not None:
            tree._ensure(_feature_count(state))
            tree.store.load_node(0, 0, state["root"], "root")
        return tree


def _check_length(state, name, n_members):
    """Reject a checkpoint whose list ``name`` has other than one entry
    per member."""
    if len(state[name]) != n_members:
        raise ValidationError(
            f"checkpoint lists {len(state[name])} entries for "
            f"{n_members} members", field=name)


# Online bagging draws each member's Poisson(1) weights this many
# examples at a time; one array draw yields the values, and leaves the
# generator in the state, of as many scalar draws.
POISSON_BLOCK = 64


class _Ensemble(OnlineClassifier):
    """Member trees held in one ``TreeStore``, each member with its own
    RNG substream derived from (seed, member index).

    An example is routed once through every member's tree: the ensemble
    predicts from those leaves and, in ``predict_learn``, learns at them.
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

    def _route(self, x):
        """``x`` checked, and the leaf it reaches in each member's tree."""
        x = self._check_arity(x)
        self._ensure(x.shape[0])
        return x, self.store.route(x.tolist())

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
        return {
            "kind": kind,
            "classes": self.classes,
            "n_features": self.n_features,
            "n_members": self.n_members,
            "seed": self.seed,
            **settings,
            "members": [
                _tree_state(self.classes, None, None) if store is None
                else _tree_state(self.classes, store.n_features,
                                 store.root_state(m))
                for m in range(self.n_members)],
            "rng_states": self._rng_states(),
        }

    def _load(self, state):
        """Load the member trees and RNG states of checkpoint ``state``
        into the store. A list without one entry per member, or a
        learned tree without a feature count, raises ValidationError
        naming it."""
        _check_length(state, "members", self.n_members)
        _check_length(state, "rng_states", self.n_members)
        for m, member in enumerate(state["members"]):
            _check_settings(member, _TREE_SETTINGS, f"members.{m}.")
            if member["root"] is not None:
                if self.store is None:  # no feature count or subsets
                    _feature_count(state)
                    raise ValidationError("checkpoint has learned trees "
                                          "but no subsets", field="subsets")
                self.store.load_node(m, m, member["root"],
                                     f"members.{m}.root")
        for rng, rng_state in zip(self._rngs, state["rng_states"]):
            rng.bit_generator.state = rng_state


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
        self._block = None         # (n_members, POISSON_BLOCK) weights
        self._block_states = None  # each member's RNG state before it
        self._drawn = 0            # block columns used

    @property
    def subsets(self):
        """Each member's feature subset (sorted column indices), or None
        before the first call."""
        return None if self.store is None else list(self.store.columns)

    def _subset_size(self, d):
        """How many of ``d`` input columns each member reads."""
        if self.max_features is None:
            return d
        return max(1, math.ceil(math.sqrt(d)))

    def _ensure(self, d):
        if self.store is not None:
            return
        if self.max_features is None:
            subsets = [np.arange(d) for _ in range(self.n_members)]
        else:
            size = self._subset_size(d)
            subsets = [
                np.sort(self._rngs[m].choice(d, size=size, replace=False))
                for m in range(self.n_members)
            ]
        self.store = TreeStore(subsets, len(self.classes))

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
        return x, leaves, self.store.counts[leaves]

    def _vote(self, leaves, counts):
        return (self.store.distributions(leaves, counts).sum(axis=0)
                / self.n_members)

    def _learn(self, x, leaves, counts, y):
        k = self.classes.index(y)
        weights = self._weights()
        hit = np.flatnonzero(weights > 0)
        self.store.learn(hit, leaves[hit], x, k, weights[hit], counts[hit, k])

    def to_state(self):
        subsets = self.subsets
        return self._state("bagging_forest", {
            "max_features": self.max_features,
            "use_poisson": self.use_poisson,
            "subsets": (None if subsets is None
                        else [s.tolist() for s in subsets]),
        })

    @classmethod
    def from_state(cls, state):
        """The forest ``to_state`` wrote, with an empty Poisson block. A
        subset that is not the expected number of distinct input columns
        raises ValidationError naming it (``subsets.0``)."""
        forest = cls(
            n_members=state["n_members"], classes=state["classes"],
            seed=state["seed"], max_features=state["max_features"],
            use_poisson=state["use_poisson"])
        forest.n_features = state["n_features"]
        if state["subsets"] is not None:
            _check_length(state, "subsets", forest.n_members)
            d = _feature_count(state)
            size = forest._subset_size(d)
            for m, subset in enumerate(state["subsets"]):
                if not (len(subset) == len(set(subset)) == size and all(
                        type(c) is int and 0 <= c < d for c in subset)):
                    raise ValidationError(
                        f"checkpoint subset is not {size} distinct columns "
                        f"of {d}", field=f"subsets.{m}")
            forest.store = TreeStore(state["subsets"], len(forest.classes))
        forest._load(state)
        return forest


class OnlineBoosting(_Ensemble):
    """Sequential Poisson-weighted boosting of Hoeffding trees, held in
    one ``TreeStore``.

    Each member draws Poisson(lambda) replications; lambda is raised on
    members' mistakes and lowered on their successes, concentrating
    later members on the hard examples. Lambda changes per member and
    per example, so the draws are scalar.
    """

    def __init__(self, n_members=10, classes=(0, 1), seed=0):
        super().__init__(n_members, classes, seed)
        self.lambda_correct = np.zeros(n_members)
        self.lambda_wrong = np.zeros(n_members)

    def _ensure(self, d):
        if self.store is None:
            self.store = TreeStore([np.arange(d)] * self.n_members,
                                   len(self.classes))

    def _learn(self, x, leaves, y):
        store = self.store
        k = self.classes.index(y)
        correct = self.lambda_correct.tolist()
        wrong = self.lambda_wrong.tolist()
        lam = 1.0
        for m, (rng, leaf) in enumerate(zip(self._rngs, leaves)):
            w = rng.poisson(lam)
            if w > 0:
                store.learn_member(m, leaf, x, k, w)
                if not store.is_leaf(leaf):  # the learn split it
                    leaf = store.descend(leaf, x)
            if store.winner(leaf) == k:
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

    def predict_proba(self, x):
        if self.store is None:  # nothing learned yet
            self._check_arity(x)
            return np.full(len(self.classes), 1.0 / len(self.classes))
        return super().predict_proba(x)

    def _vote(self, leaves):
        weights = self._member_weights()
        if not any(weights):  # none is negative
            return np.full(len(self.classes), 1.0 / len(self.classes))
        store = self.store
        winners = store.distributions(leaves, store.counts[leaves]).argmax(
            axis=1)
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
        clf = cls(n_members=state["n_members"], classes=state["classes"],
                  seed=state["seed"])
        clf.n_features = state["n_features"]
        clf.lambda_correct = _array(state, "lambda_correct", (clf.n_members,))
        clf.lambda_wrong = _array(state, "lambda_wrong", (clf.n_members,))
        if clf.n_features is not None:
            clf._ensure(_feature_count(state))
        clf._load(state)
        return clf


STACKING_ENSEMBLE_SIZE = 15

_USER_COLUMNS = feature_columns(SET3_TARGET1.feature_ids)
_CONTRIBUTION_COLUMNS = feature_columns(SET3_TARGET2.feature_ids)


def _stacking_settings():
    """The fixed settings every stacking checkpoint carries."""
    return {
        "user_features": list(SET3_TARGET1.feature_ids),
        "contribution_features": list(SET3_TARGET2.feature_ids),
        "include_base_features": True,
    }


class StackingModel:
    """Two-level stack of three bagging forests of
    ``STACKING_ENSEMBLE_SIZE`` full-feature members each.

    Level 1a predicts user type from the ``SET3_TARGET1`` columns, level
    1b predicts contribution type from the ``SET3_TARGET2`` columns, and
    level 2 refines the contribution prediction from [P(bot), P(malign)]
    plus the level-1b columns. Level 2 trains on level-1 outputs
    computed before the level-1 update, keeping them out-of-sample.

    ``predict`` and ``learn`` take a profile's feature array in the order
    of ``features``, the full catalogue; each level-1 forest reads its
    own columns of it.
    """

    features = SET2

    def __init__(self, seed=0):
        _check_integer(seed, 0, "seed")
        self.seed = seed
        self.forest_user, self.forest_contribution, self.forest_final = (
            BaggingForest(STACKING_ENSEMBLE_SIZE, seed=_substream(seed, i),
                          max_features=None)
            for i in (1, 2, 3))

    def _run(self, x, step, y_user, y_contribution):
        """One pass through the levels, ``step(forest, input, label)``
        giving each forest's probabilities; returns (user probs, final
        contribution probs, joint class name)."""
        x = np.asarray(x, dtype=float)
        if x.shape != (len(self.features),):
            raise ValidationError(
                f"expected {len(self.features)} features, got shape {x.shape}")
        xc = x[_CONTRIBUTION_COLUMNS]
        user_probs = step(self.forest_user, x[_USER_COLUMNS], y_user)
        contrib_probs = step(self.forest_contribution, xc, y_contribution)
        x2 = np.concatenate(((user_probs[1], contrib_probs[1]), xc))
        final_probs = step(self.forest_final, x2, y_contribution)
        joint = joint_class(int(np.argmax(user_probs)),
                            int(np.argmax(final_probs)))
        return user_probs, final_probs, joint

    def predict(self, x):
        """Returns (user probs, final contribution probs, joint class name)."""
        return self._run(x, lambda forest, xf, _y: forest.predict_proba(xf),
                         None, None)

    def learn(self, x, y_user, y_contribution):
        """``predict_learn`` without its outputs."""
        self.predict_learn(x, y_user, y_contribution)

    def predict_learn(self, x, y_user, y_contribution):
        """``predict(x)`` then ``learn(x, y_user, y_contribution)``: each
        forest predicts and learns in one ``predict_learn``, in the order
        user, contribution, final. The forests share no state, so the
        level-1 forests may learn before level 2 predicts."""
        return self._run(x, BaggingForest.predict_learn, y_user,
                         y_contribution)

    def to_state(self):
        return {
            "kind": "stacking",
            "seed": self.seed,
            **_stacking_settings(),
            "forest_user": self.forest_user.to_state(),
            "forest_contribution": self.forest_contribution.to_state(),
            "forest_final": self.forest_final.to_state(),
        }

    @classmethod
    def from_state(cls, state):
        """The model ``to_state`` wrote. A checkpoint whose fixed settings
        or forest sizes differ, or whose forest does not load, raises
        ValidationError naming the field."""
        _check_settings(state, _stacking_settings())
        model = cls(seed=state["seed"])
        for name in ("forest_user", "forest_contribution", "forest_final"):
            _check_settings(state[name],
                            {"n_members": STACKING_ENSEMBLE_SIZE}, name + ".")
            try:
                setattr(model, name, BaggingForest.from_state(state[name]))
            except ValidationError as exc:
                raise ValidationError(
                    exc.message, field=f"{name}.{exc.field}") from None
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
