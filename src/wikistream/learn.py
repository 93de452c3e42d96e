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

from .analysis import SET2, SET3_TARGET1, SET3_TARGET2, FeatureSet
from .model import ValidationError, feature_columns, joint_class

VARIANCE_FLOOR = 1e-9

HOEFFDING_DELTA = 1e-7
HOEFFDING_TIE_THRESHOLD = 0.05
HOEFFDING_GRACE_PERIOD = 200


def hoeffding_bound(value_range, delta, n):
    """Confidence radius licensing a split from n observations."""
    return math.sqrt(value_range ** 2 * math.log(1.0 / delta) / (2.0 * n))


def _normal_cdf(z):
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


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

    def learn_one(self, x, y, weight=1):
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

    def learn_one(self, x, y, weight=1):
        x = self._check_arity(x)
        self._ensure(x.shape[0])
        k = self.classes.index(y)
        self._counts[k] += weight
        delta = x - self._mean[k]
        self._mean[k] += weight * delta / self._counts[k]
        self._m2[k] += weight * delta * (x - self._mean[k])

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


class _TreeNode:
    __slots__ = ("class_counts", "n", "mean", "m2", "seen_since_attempt",
                 "split_feature", "threshold", "left", "right", "fallback",
                 "depth")

    def __init__(self, n_classes, n_features, fallback, depth):
        self.class_counts = np.zeros(n_classes)
        self.n = np.zeros(n_classes)
        self.mean = np.zeros((n_classes, n_features))
        self.m2 = np.zeros((n_classes, n_features))
        self.seen_since_attempt = 0.0
        self.split_feature = None
        self.threshold = None
        self.left = None
        self.right = None
        self.fallback = fallback  # parent distribution at split time
        self.depth = depth

    @property
    def is_leaf(self):
        return self.split_feature is None

    def route(self, x):
        return self.left if x[self.split_feature] <= self.threshold else self.right

    def distribution(self):
        total = self.class_counts.sum()
        if total > 0:
            return self.class_counts / total
        return self.fallback.copy()


class HoeffdingTree(OnlineClassifier):
    """Incremental decision tree split-guarded by the Hoeffding bound.

    Leaves keep per-class Gaussian moments per feature; candidate
    thresholds are midpoints between class means, with side counts
    estimated through the Gaussian CDF. A split is taken when the best
    info gain beats the runner-up by the Hoeffding radius, or on a tie
    once the radius shrinks below the tie threshold.
    """

    def __init__(self, classes=(0, 1), delta=HOEFFDING_DELTA,
                 tie_threshold=HOEFFDING_TIE_THRESHOLD,
                 grace_period=HOEFFDING_GRACE_PERIOD, max_depth=20):
        super().__init__(classes)
        self.delta = delta
        self.tie_threshold = tie_threshold
        self.grace_period = grace_period
        self.max_depth = max_depth
        self.root = None

    def _ensure(self, d):
        if self.root is None:
            uniform = np.full(len(self.classes), 1.0 / len(self.classes))
            self.root = _TreeNode(len(self.classes), d, uniform, depth=0)

    def _sort_to_leaf(self, x):
        node = self.root
        while not node.is_leaf:
            node = node.route(x)
        return node

    def learn_one(self, x, y, weight=1):
        x = self._check_arity(x)
        self._ensure(x.shape[0])
        leaf = self._sort_to_leaf(x)
        k = self.classes.index(y)
        leaf.class_counts[k] += weight
        leaf.n[k] += weight
        delta = x - leaf.mean[k]
        leaf.mean[k] += weight * delta / leaf.n[k]
        leaf.m2[k] += weight * delta * (x - leaf.mean[k])
        leaf.seen_since_attempt += weight
        if leaf.seen_since_attempt >= self.grace_period:
            leaf.seen_since_attempt = 0.0
            self._attempt_split(leaf)

    def _split_gain(self, leaf, feature, threshold, base_entropy):
        total = leaf.class_counts.sum()
        left = np.zeros(len(self.classes))
        for k in range(len(self.classes)):
            if leaf.n[k] <= 0:
                continue
            var = max(leaf.m2[k, feature] / leaf.n[k], VARIANCE_FLOOR)
            z = (threshold - leaf.mean[k, feature]) / math.sqrt(var)
            left[k] = leaf.class_counts[k] * _normal_cdf(z)
        right = leaf.class_counts - left
        nl, nr = left.sum(), right.sum()
        weighted = (nl * _entropy(left) + nr * _entropy(right)) / total
        return base_entropy - weighted

    def _attempt_split(self, leaf):
        if leaf.depth >= self.max_depth:
            return
        present = [k for k in range(len(self.classes)) if leaf.n[k] >= 2]
        if len(present) < 2:
            return
        base_entropy = _entropy(leaf.class_counts)
        if base_entropy <= 0.0:
            return

        best = []  # per-feature best (gain, threshold)
        for f in range(self.n_features):
            gain, threshold = 0.0, None
            for i, a in enumerate(present):
                for b in present[i + 1:]:
                    candidate = 0.5 * (leaf.mean[a, f] + leaf.mean[b, f])
                    g = self._split_gain(leaf, f, candidate, base_entropy)
                    if g > gain:
                        gain, threshold = g, candidate
            if threshold is not None:
                best.append((gain, f, threshold))
        if not best:
            return
        best.sort(key=lambda item: -item[0])
        g1, feature, threshold = best[0]
        g2 = best[1][0] if len(best) > 1 else 0.0
        n_total = leaf.class_counts.sum()
        value_range = math.log2(max(2, len(self.classes)))
        epsilon = hoeffding_bound(value_range, self.delta, n_total)
        if g1 > 1e-12 and (g1 - g2 > epsilon or epsilon < self.tie_threshold):
            fallback = leaf.distribution()
            leaf.split_feature = feature
            leaf.threshold = threshold
            leaf.left = _TreeNode(len(self.classes), self.n_features,
                                  fallback, leaf.depth + 1)
            leaf.right = _TreeNode(len(self.classes), self.n_features,
                                   fallback, leaf.depth + 1)

    def predict_proba(self, x):
        x = self._check_arity(x)
        if self.root is None:
            return np.full(len(self.classes), 1.0 / len(self.classes))
        return self._sort_to_leaf(x).distribution()

    def _node_state(self, node):
        if node is None:
            return None
        return {
            "class_counts": node.class_counts.tolist(),
            "n": node.n.tolist(),
            "mean": node.mean.tolist(),
            "m2": node.m2.tolist(),
            "seen_since_attempt": node.seen_since_attempt,
            "split_feature": node.split_feature,
            "threshold": node.threshold,
            "fallback": node.fallback.tolist(),
            "depth": node.depth,
            "left": self._node_state(node.left),
            "right": self._node_state(node.right),
        }

    def _node_from_state(self, state):
        if state is None:
            return None
        node = _TreeNode(len(self.classes), self.n_features,
                         np.array(state["fallback"]), state["depth"])
        node.class_counts = np.array(state["class_counts"])
        node.n = np.array(state["n"])
        node.mean = np.array(state["mean"])
        node.m2 = np.array(state["m2"])
        node.seen_since_attempt = state["seen_since_attempt"]
        node.split_feature = state["split_feature"]
        node.threshold = state["threshold"]
        node.left = self._node_from_state(state["left"])
        node.right = self._node_from_state(state["right"])
        return node

    def to_state(self):
        return {
            "kind": "hoeffding_tree",
            "classes": self.classes,
            "n_features": self.n_features,
            "delta": self.delta,
            "tie_threshold": self.tie_threshold,
            "grace_period": self.grace_period,
            "max_depth": self.max_depth,
            "root": self._node_state(self.root),
        }

    @classmethod
    def from_state(cls, state):
        tree = cls(state["classes"], delta=state["delta"],
                   tie_threshold=state["tie_threshold"],
                   grace_period=state["grace_period"],
                   max_depth=state["max_depth"])
        tree.n_features = state["n_features"]
        tree.root = tree._node_from_state(state["root"])
        return tree


class BaggingForest(OnlineClassifier):
    """Online bagging of Hoeffding trees.

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
        self.members = [HoeffdingTree(classes) for _ in range(n_members)]
        self._rngs = [np.random.default_rng([seed, m])
                      for m in range(n_members)]
        self.subsets = None

    def _ensure(self, d):
        if self.subsets is not None:
            return
        if self.max_features is None:
            self.subsets = [np.arange(d) for _ in range(self.n_members)]
        else:
            size = max(1, math.ceil(math.sqrt(d)))
            self.subsets = [
                np.sort(self._rngs[m].choice(d, size=size, replace=False))
                for m in range(self.n_members)
            ]

    def learn_one(self, x, y, weight=1):
        x = self._check_arity(x)
        self._ensure(x.shape[0])
        for m, tree in enumerate(self.members):
            w = self._rngs[m].poisson(1.0) if self.use_poisson else 1
            if w > 0:
                tree.learn_one(x[self.subsets[m]], y, weight=w * weight)

    def predict_proba(self, x):
        x = self._check_arity(x)
        self._ensure(x.shape[0])
        probs = np.zeros(len(self.classes))
        for m, tree in enumerate(self.members):
            probs += tree.predict_proba(x[self.subsets[m]])
        return probs / self.n_members

    def to_state(self):
        return {
            "kind": "bagging_forest",
            "classes": self.classes,
            "n_features": self.n_features,
            "n_members": self.n_members,
            "seed": self.seed,
            "max_features": self.max_features,
            "use_poisson": self.use_poisson,
            "subsets": (None if self.subsets is None
                        else [s.tolist() for s in self.subsets]),
            "members": [t.to_state() for t in self.members],
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
            forest.subsets = [np.array(s) for s in state["subsets"]]
        forest.members = [HoeffdingTree.from_state(s) for s in state["members"]]
        for rng, rng_state in zip(forest._rngs, state["rng_states"]):
            rng.bit_generator.state = rng_state
        return forest


class OnlineBoosting(OnlineClassifier):
    """Sequential Poisson-weighted boosting of Hoeffding trees.

    Each member draws Poisson(lambda) replications; lambda is raised on
    members' mistakes and lowered on their successes, concentrating
    later members on the hard examples.
    """

    def __init__(self, n_members=10, classes=(0, 1), seed=0):
        super().__init__(classes)
        self.n_members = n_members
        self.seed = seed
        self.members = [HoeffdingTree(classes) for _ in range(n_members)]
        self._rngs = [np.random.default_rng([seed, m])
                      for m in range(n_members)]
        self.lambda_correct = np.zeros(n_members)
        self.lambda_wrong = np.zeros(n_members)

    def learn_one(self, x, y, weight=1):
        x = self._check_arity(x)
        lam = float(weight)
        for m, tree in enumerate(self.members):
            w = self._rngs[m].poisson(lam)
            if w > 0:
                tree.learn_one(x, y, weight=w)
            if tree.predict(x) == y:
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
        votes = np.zeros(len(self.classes))
        for m, tree in enumerate(self.members):
            if weights[m] > 0:
                probs = tree.predict_proba(x)
                votes[int(np.argmax(probs))] += weights[m]
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
            "members": [t.to_state() for t in self.members],
            "rng_states": [rng.bit_generator.state for rng in self._rngs],
        }

    @classmethod
    def from_state(cls, state):
        clf = cls(n_members=state["n_members"], classes=state["classes"],
                  seed=state["seed"])
        clf.n_features = state["n_features"]
        clf.lambda_correct = np.array(state["lambda_correct"])
        clf.lambda_wrong = np.array(state["lambda_wrong"])
        clf.members = [HoeffdingTree.from_state(s) for s in state["members"]]
        for rng, rng_state in zip(clf._rngs, state["rng_states"]):
            rng.bit_generator.state = rng_state
        return clf


STACKING_ENSEMBLE_SIZE = 15


class StackingModel:
    """Two-level stack of three bagging forests.

    Level 1a predicts user type from its own feature columns, level 1b
    predicts contribution type from its columns, and level 2 refines the
    contribution prediction from [P(bot), P(malign)] plus (optionally)
    the level-1b feature columns. Level 2 trains on level-1 outputs
    computed before the level-1 update, keeping them out-of-sample.

    ``predict`` and ``learn`` take a profile's feature array in the order
    of ``features``, the full catalogue; each level-1 forest reads its
    own columns of it.
    """

    def __init__(self, user_features=SET3_TARGET1,
                 contribution_features=SET3_TARGET2, seed=0,
                 n_members=STACKING_ENSEMBLE_SIZE,
                 include_base_features=True):
        self.user_features = user_features
        self.contribution_features = contribution_features
        self.seed = seed
        self.include_base_features = include_base_features
        self.features = SET2
        self._user_columns = feature_columns(tuple(user_features.feature_ids))
        self._contribution_columns = feature_columns(
            tuple(contribution_features.feature_ids))
        self.forest_user = BaggingForest(
            n_members, seed=_substream(seed, 1), max_features=None)
        self.forest_contribution = BaggingForest(
            n_members, seed=_substream(seed, 2), max_features=None)
        self.forest_final = BaggingForest(
            n_members, seed=_substream(seed, 3), max_features=None)

    def _slice(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (len(self.features),):
            raise ValidationError(
                f"expected {len(self.features)} features, got shape {x.shape}")
        return x[self._user_columns], x[self._contribution_columns]

    def _level2_input(self, p_bot, p_malign, xc):
        head = np.array([p_bot, p_malign])
        return np.concatenate([head, xc]) if self.include_base_features else head

    def predict(self, x):
        """Returns (user probs, final contribution probs, joint class name)."""
        xu, xc = self._slice(x)
        user_probs = self.forest_user.predict_proba(xu)
        contrib_probs = self.forest_contribution.predict_proba(xc)
        x2 = self._level2_input(user_probs[1], contrib_probs[1], xc)
        final_probs = self.forest_final.predict_proba(x2)
        joint = joint_class(int(np.argmax(user_probs)),
                            int(np.argmax(final_probs)))
        return user_probs, final_probs, joint

    def learn(self, x, y_user, y_contribution):
        xu, xc = self._slice(x)
        user_probs = self.forest_user.predict_proba(xu)
        contrib_probs = self.forest_contribution.predict_proba(xc)
        x2 = self._level2_input(user_probs[1], contrib_probs[1], xc)
        self.forest_user.learn_one(xu, y_user)
        self.forest_contribution.learn_one(xc, y_contribution)
        self.forest_final.learn_one(x2, y_contribution)

    def to_state(self):
        return {
            "kind": "stacking",
            "seed": self.seed,
            "user_features": list(self.user_features.feature_ids),
            "contribution_features": list(self.contribution_features.feature_ids),
            "include_base_features": self.include_base_features,
            "forest_user": self.forest_user.to_state(),
            "forest_contribution": self.forest_contribution.to_state(),
            "forest_final": self.forest_final.to_state(),
        }

    @classmethod
    def from_state(cls, state):
        model = cls(
            user_features=FeatureSet("user", tuple(state["user_features"])),
            contribution_features=FeatureSet(
                "contribution", tuple(state["contribution_features"])),
            seed=state["seed"],
            include_base_features=state["include_base_features"])
        model.forest_user = BaggingForest.from_state(state["forest_user"])
        model.forest_contribution = BaggingForest.from_state(
            state["forest_contribution"])
        model.forest_final = BaggingForest.from_state(state["forest_final"])
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
