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


def _entropy(counts):
    total = counts.sum()
    if total <= 0:
        return 0.0
    p = counts[counts > 0] / total
    return float(-(p * np.log2(p)).sum())


class OnlineClassifier:
    """Predict-then-learn contract over a fixed class list.

    The feature arity is fixed by the first call; predictions never
    mutate state and always return a probability vector summing to one.
    """

    def __init__(self, classes=(0, 1)):
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
        delta = x - self._mean[k]
        self._mean[k] += delta / self._counts[k]
        self._m2[k] += delta * (x - self._mean[k])

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
        clf = cls(state["classes"])
        clf.n_features = state["n_features"]
        if state["counts"] is not None:
            clf._counts = np.array(state["counts"], dtype=float)
            clf._mean = np.array(state["mean"], dtype=float)
            clf._m2 = np.array(state["m2"], dtype=float)
        return clf


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
_ONE_MEMBER = (0,)  # the member list of a one-member store


class TreeStore:
    """Hoeffding trees packed into arrays, one per member.

    Member m's tree reads the input columns ``columns[m]``; its feature
    f is input column ``columns[m][f]``. Node 0 is every member's root.
    The structure changes only at a split and is kept per member as a
    plain list of node tuples (input column, threshold, left, right),
    with column -1 at a leaf: plain lists route one row faster than
    numpy does. Node statistics are arrays indexed [member, node,
    class(, feature)]: class counts, per-class Gaussian moments per
    feature (mean and m2), the weight seen since the last split
    attempt, the fallback distribution (the parent's at split time) and
    depth. Their node capacity doubles when a member outgrows it.

    Candidate thresholds are midpoints between class means. A leaf
    splits when the best info gain beats the runner-up by the Hoeffding
    radius, or on a tie once the radius shrinks below the tie threshold.
    """

    def __init__(self, columns, n_classes):
        self.columns = np.asarray(columns)
        n_members, self.n_features = self.columns.shape
        self.members = np.arange(n_members)
        self.nodes = [[_LEAF] for _ in range(n_members)]
        self.counts = np.zeros((n_members, 1, n_classes))
        self.mean = np.zeros((n_members, 1, n_classes, self.n_features))
        self.m2 = np.zeros((n_members, 1, n_classes, self.n_features))
        self.seen = np.zeros((n_members, 1))
        self.fallback = np.full((n_members, 1, n_classes), 1.0 / n_classes)
        self.depth = np.zeros((n_members, 1), dtype=np.int64)

    def is_leaf(self, member, node):
        return self.nodes[member][node][0] < 0

    def leaves(self, members, x):
        """The leaf input row ``x`` reaches in each of ``members``' trees."""
        out = []
        for m in members:
            nodes = self.nodes[m]
            node = 0
            column, threshold, left, right = nodes[0]
            while column >= 0:
                node = left if x[column] <= threshold else right
                column, threshold, left, right = nodes[node]
            out.append(node)
        return out

    def distributions(self, members, leaves):
        """One class distribution per member: its leaf's normalised class
        counts, or the leaf's fallback while it has none."""
        counts = self.counts[members, leaves]
        total = counts.sum(axis=1, keepdims=True)
        out = self.fallback[members, leaves]
        np.divide(counts, total, out=out, where=total > 0)
        return out

    def distribution(self, m, leaf):
        """One member's ``distributions``."""
        counts = self.counts[m, leaf]
        total = counts.sum()
        if total > 0:
            return counts / total
        return self.fallback[m, leaf].copy()

    def learn(self, members, leaves, x, k, weights):
        """Fold input row ``x`` of class ``k`` into one leaf per member
        of the index array ``members``, with the members' positive
        ``weights``. A leaf that has seen a grace period's weight since
        its last attempt tries to split."""
        leaves = np.asarray(leaves, dtype=np.intp)
        at = (members, leaves, k)
        n = self.counts[at] + weights
        self.counts[at] = n
        self.mean[at], self.m2[at] = _fold(
            x[self.columns[members]], self.mean[at], self.m2[at],
            n[:, None], weights[:, None])
        seen = self.seen[members, leaves] + weights
        due = seen >= HOEFFDING_GRACE_PERIOD
        if due.any():
            seen[due] = 0.0
            for m, leaf in zip(members[due].tolist(), leaves[due].tolist()):
                self._attempt_split(m, leaf)
        self.seen[members, leaves] = seen

    def learn_member(self, m, leaf, x, k, weight):
        """``learn`` for one member."""
        at = (m, leaf, k)
        n = self.counts[at] + weight
        self.counts[at] = n
        self.mean[at], self.m2[at] = _fold(
            x[self.columns[m]], self.mean[at], self.m2[at], n, weight)
        seen = self.seen[m, leaf] + weight
        if seen >= HOEFFDING_GRACE_PERIOD:
            self.seen[m, leaf] = 0.0
            self._attempt_split(m, leaf)
        else:
            self.seen[m, leaf] = seen

    def _attempt_split(self, m, node):
        if self.depth[m, node] >= HOEFFDING_MAX_DEPTH:
            return
        counts, mean, m2 = (self.counts[m, node], self.mean[m, node],
                            self.m2[m, node])
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
            self.fallback[m, children] = counts / n_total

    def _split(self, m, node, feature, threshold):
        """Turn leaf ``node`` of member ``m`` into a split on its feature
        ``feature`` with two fresh leaves; returns their node ids."""
        nodes = self.nodes[m]
        first = len(nodes)
        while first + 2 > self.counts.shape[1]:
            self._grow()
        nodes.extend((_LEAF, _LEAF))
        nodes[node] = (int(self.columns[m, feature]), float(threshold),
                       first, first + 1)
        children = [first, first + 1]
        self.depth[m, children] = self.depth[m, node] + 1
        return children

    def _grow(self):
        size = self.counts.shape[1]
        for name in ("counts", "mean", "m2", "seen", "fallback", "depth"):
            old = getattr(self, name)
            grown = np.zeros((old.shape[0], 2 * size) + old.shape[2:],
                             dtype=old.dtype)
            grown[:, :size] = old
            setattr(self, name, grown)

    def root_state(self, m):
        """Member ``m``'s tree as nested node dicts; None while it has
        learned nothing."""
        if self.is_leaf(m, 0) and not self.counts[m, 0].any():
            return None
        return self._node_state(m, 0)

    def _node_state(self, m, node):
        column, threshold, left, right = self.nodes[m][node]
        leaf = column < 0
        return {
            "class_counts": self.counts[m, node].tolist(),
            "mean": self.mean[m, node].tolist(),
            "m2": self.m2[m, node].tolist(),
            "seen_since_attempt": float(self.seen[m, node]),
            "split_feature": (None if leaf else
                              self.columns[m].tolist().index(column)),
            "threshold": threshold,
            "fallback": self.fallback[m, node].tolist(),
            "depth": int(self.depth[m, node]),
            "left": None if leaf else self._node_state(m, left),
            "right": None if leaf else self._node_state(m, right),
        }

    def load_root(self, m, state):
        """Rebuild member ``m``'s tree from ``root_state`` output other
        than None. An ``n`` field, which older checkpoints carry beside
        the equal class counts, is ignored."""
        self._load_node(m, 0, state)

    def _load_node(self, m, node, state):
        self.counts[m, node] = state["class_counts"]
        self.mean[m, node] = state["mean"]
        self.m2[m, node] = state["m2"]
        self.seen[m, node] = state["seen_since_attempt"]
        self.fallback[m, node] = state["fallback"]
        self.depth[m, node] = state["depth"]
        if state["split_feature"] is not None:
            left, right = self._split(m, node, state["split_feature"],
                                      state["threshold"])
            self._load_node(m, left, state["left"])
            self._load_node(m, right, state["right"])


def _tree_state(classes, n_features, root):
    return {
        "kind": "hoeffding_tree",
        "classes": classes,
        "n_features": n_features,
        **_TREE_SETTINGS,
        "root": root,
    }


def _member_states(classes, store, n_members):
    """The per-member tree states of an ensemble's store."""
    if store is None:
        return [_tree_state(classes, None, None) for _ in range(n_members)]
    return [_tree_state(classes, store.n_features, store.root_state(m))
            for m in range(n_members)]


def _load_ensemble(clf, state):
    """Load an ensemble's member trees into its store and its member
    RNG states."""
    for m, member in enumerate(state["members"]):
        _check_settings(member, _TREE_SETTINGS, f"members.{m}.")
        if member["root"] is not None:
            clf.store.load_root(m, member["root"])
    for rng, rng_state in zip(clf._rngs, state["rng_states"]):
        rng.bit_generator.state = rng_state


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
        store.learn_member(0, store.leaves(_ONE_MEMBER, x)[0], x,
                           self.classes.index(y), 1)

    def predict_proba(self, x):
        x = self._check_arity(x)
        if self.store is None:
            return np.full(len(self.classes), 1.0 / len(self.classes))
        store = self.store
        return store.distribution(0, store.leaves(_ONE_MEMBER, x)[0])

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
            tree._ensure(tree.n_features)
            tree.store.load_root(0, state["root"])
        return tree


class BaggingForest(OnlineClassifier):
    """Online bagging of Hoeffding trees, held in one ``TreeStore``.

    Each member sees each example Poisson(1) times and is restricted to
    a random sqrt(d)-sized feature subset fixed at its birth
    (``max_features=None`` keeps the full set). Member RNG substreams
    derive from (seed, member index).
    """

    def __init__(self, n_members=10, classes=(0, 1), seed=0,
                 max_features="sqrt", use_poisson=True):
        super().__init__(classes)
        self.n_members = n_members
        self.seed = seed
        self.max_features = max_features
        self.use_poisson = use_poisson
        self._rngs = [np.random.default_rng([seed, m])
                      for m in range(n_members)]
        self.store = None

    @property
    def subsets(self):
        """Each member's feature subset (sorted column indices), or None
        before the first call."""
        return None if self.store is None else list(self.store.columns)

    def _ensure(self, d):
        if self.store is not None:
            return
        if self.max_features is None:
            subsets = [np.arange(d) for _ in range(self.n_members)]
        else:
            size = max(1, math.ceil(math.sqrt(d)))
            subsets = [
                np.sort(self._rngs[m].choice(d, size=size, replace=False))
                for m in range(self.n_members)
            ]
        self.store = TreeStore(subsets, len(self.classes))

    def learn_one(self, x, y):
        x = self._check_arity(x)
        self._ensure(x.shape[0])
        k = self.classes.index(y)
        if self.use_poisson:
            weights = np.array([rng.poisson(1.0) for rng in self._rngs],
                               dtype=float)
        else:
            weights = np.ones(self.n_members)
        hit = np.flatnonzero(weights > 0)
        store = self.store
        store.learn(hit, store.leaves(hit.tolist(), x.tolist()), x, k,
                    weights[hit])

    def predict_proba(self, x):
        x = self._check_arity(x)
        self._ensure(x.shape[0])
        store = self.store
        leaves = store.leaves(range(self.n_members), x.tolist())
        return (store.distributions(store.members, leaves).sum(axis=0)
                / self.n_members)

    def to_state(self):
        subsets = self.subsets
        return {
            "kind": "bagging_forest",
            "classes": self.classes,
            "n_features": self.n_features,
            "n_members": self.n_members,
            "seed": self.seed,
            "max_features": self.max_features,
            "use_poisson": self.use_poisson,
            "subsets": (None if subsets is None
                        else [s.tolist() for s in subsets]),
            "members": _member_states(self.classes, self.store,
                                      self.n_members),
            "rng_states": [rng.bit_generator.state for rng in self._rngs],
        }

    @classmethod
    def from_state(cls, state):
        forest = cls(
            n_members=state["n_members"], classes=state["classes"],
            seed=state["seed"], max_features=state["max_features"],
            use_poisson=state["use_poisson"])
        forest.n_features = state["n_features"]
        if state["subsets"] is not None:
            forest.store = TreeStore(state["subsets"], len(forest.classes))
        _load_ensemble(forest, state)
        return forest


class OnlineBoosting(OnlineClassifier):
    """Sequential Poisson-weighted boosting of Hoeffding trees, held in
    one ``TreeStore``.

    Each member draws Poisson(lambda) replications; lambda is raised on
    members' mistakes and lowered on their successes, concentrating
    later members on the hard examples.
    """

    def __init__(self, n_members=10, classes=(0, 1), seed=0):
        super().__init__(classes)
        self.n_members = n_members
        self.seed = seed
        self._rngs = [np.random.default_rng([seed, m])
                      for m in range(n_members)]
        self.lambda_correct = np.zeros(n_members)
        self.lambda_wrong = np.zeros(n_members)
        self.store = None

    def _ensure(self, d):
        if self.store is None:
            self.store = TreeStore([np.arange(d)] * self.n_members,
                                   len(self.classes))

    def learn_one(self, x, y):
        x = self._check_arity(x)
        self._ensure(x.shape[0])
        store = self.store
        k = self.classes.index(y)
        row = x.tolist()
        lam = 1.0
        for m, rng in enumerate(self._rngs):
            member = (m,)
            w = rng.poisson(lam)
            if w > 0:
                store.learn_member(m, store.leaves(member, row)[0], x, k, w)
            probs = store.distribution(m, store.leaves(member, row)[0])
            if int(np.argmax(probs)) == k:
                self.lambda_correct[m] += lam
                total = self.lambda_correct[m] + self.lambda_wrong[m]
                lam *= total / (2.0 * self.lambda_correct[m])
            else:
                self.lambda_wrong[m] += lam
                total = self.lambda_correct[m] + self.lambda_wrong[m]
                lam *= total / (2.0 * self.lambda_wrong[m])

    def _member_weights(self):
        weights = np.zeros(self.n_members)
        for m in range(self.n_members):
            total = self.lambda_correct[m] + self.lambda_wrong[m]
            if total == 0:
                continue
            error = min(max(self.lambda_wrong[m] / total, 1e-10), 1.0 - 1e-10)
            weights[m] = max(0.0, math.log((1.0 - error) / error))
        return weights

    def predict_proba(self, x):
        x = self._check_arity(x)
        weights = self._member_weights()
        if weights.sum() == 0:
            return np.full(len(self.classes), 1.0 / len(self.classes))
        store = self.store
        leaves = store.leaves(range(self.n_members), x.tolist())
        winners = store.distributions(store.members, leaves).argmax(axis=1)
        # bincount adds the weights in member order, as a loop would
        votes = np.bincount(winners, weights=weights,
                            minlength=len(self.classes))
        return votes / votes.sum()

    def to_state(self):
        return {
            "kind": "online_boosting",
            "classes": self.classes,
            "n_features": self.n_features,
            "n_members": self.n_members,
            "seed": self.seed,
            "lambda_correct": self.lambda_correct.tolist(),
            "lambda_wrong": self.lambda_wrong.tolist(),
            "members": _member_states(self.classes, self.store,
                                      self.n_members),
            "rng_states": [rng.bit_generator.state for rng in self._rngs],
        }

    @classmethod
    def from_state(cls, state):
        clf = cls(n_members=state["n_members"], classes=state["classes"],
                  seed=state["seed"])
        clf.n_features = state["n_features"]
        clf.lambda_correct = np.array(state["lambda_correct"])
        clf.lambda_wrong = np.array(state["lambda_wrong"])
        if clf.n_features is not None:
            clf._ensure(clf.n_features)
        _load_ensemble(clf, state)
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
        self.seed = seed
        self.forest_user, self.forest_contribution, self.forest_final = (
            BaggingForest(STACKING_ENSEMBLE_SIZE, seed=_substream(seed, i),
                          max_features=None)
            for i in (1, 2, 3))

    def _level1(self, x):
        """The level-1 inputs, the level-2 input and the user probs."""
        x = np.asarray(x, dtype=float)
        if x.shape != (len(self.features),):
            raise ValidationError(
                f"expected {len(self.features)} features, got shape {x.shape}")
        xu, xc = x[_USER_COLUMNS], x[_CONTRIBUTION_COLUMNS]
        user_probs = self.forest_user.predict_proba(xu)
        contrib_probs = self.forest_contribution.predict_proba(xc)
        x2 = np.concatenate(((user_probs[1], contrib_probs[1]), xc))
        return xu, xc, x2, user_probs

    def _predict(self, level1):
        _, _, x2, user_probs = level1
        final_probs = self.forest_final.predict_proba(x2)
        joint = joint_class(int(np.argmax(user_probs)),
                            int(np.argmax(final_probs)))
        return user_probs, final_probs, joint

    def _learn(self, level1, y_user, y_contribution):
        xu, xc, x2, _ = level1
        self.forest_user.learn_one(xu, y_user)
        self.forest_contribution.learn_one(xc, y_contribution)
        self.forest_final.learn_one(x2, y_contribution)

    def predict(self, x):
        """Returns (user probs, final contribution probs, joint class name)."""
        return self._predict(self._level1(x))

    def learn(self, x, y_user, y_contribution):
        self._learn(self._level1(x), y_user, y_contribution)

    def predict_learn(self, x, y_user, y_contribution):
        """``predict(x)`` then ``learn(x, y_user, y_contribution)``, with
        the level-1 forests predicting once; returns what ``predict``
        returns."""
        level1 = self._level1(x)
        outputs = self._predict(level1)
        self._learn(level1, y_user, y_contribution)
        return outputs

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
        or forest sizes differ raises ValidationError naming the field."""
        _check_settings(state, _stacking_settings())
        model = cls(seed=state["seed"])
        for name in ("forest_user", "forest_contribution", "forest_final"):
            _check_settings(state[name],
                            {"n_members": STACKING_ENSEMBLE_SIZE}, name + ".")
            setattr(model, name, BaggingForest.from_state(state[name]))
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
