"""
Checkpoints: a model restored mid-stream from its JSON state continues
exactly as the uninterrupted model does, and checkpoints written by the
pointer-tree implementation (whose nodes carried an ``n`` field equal to
``class_counts``) still load and continue exactly.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from wikistream.learn import (
    BaggingForest,
    GaussianNaiveBayes,
    HoeffdingTree,
    OnlineBoosting,
    StackingModel,
    make_classifier,
)
from tests.test_learn import profile_vector

KINDS = {"nb": GaussianNaiveBayes, "dt": HoeffdingTree, "rf": BaggingForest,
         "bc": OnlineBoosting}


def json_round_trip(state):
    return json.loads(json.dumps(state))


def concept_stream(n, seed, d=3):
    """Rounded uniform features; the label is a noisy linear threshold."""
    rng = np.random.default_rng(seed)
    xs = np.round(rng.random((n, d)), 6)
    ys = (xs[:, 0] + 0.2 * xs[:, 1] > 0.6).astype(int)
    return xs, ys


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_resume_continues_exactly(kind):
    xs, ys = concept_stream(1500, seed=4, d=5)
    model = make_classifier(kind, seed=9)
    for x, y in zip(xs[:900], ys[:900]):
        model.learn_one(x, int(y))
    restored = KINDS[kind].from_state(json_round_trip(model.to_state()))
    for x, y in zip(xs[900:], ys[900:]):
        assert restored.predict_proba(x).tolist() == \
            model.predict_proba(x).tolist()
        model.learn_one(x, int(y))
        restored.learn_one(x, int(y))
    assert restored.to_state() == model.to_state()


def test_stacking_resume_continues_exactly():
    rng = np.random.default_rng(8)
    stream = [(profile_vector(rng, bot=i % 2 == 0, malign=i % 3 == 0),
               i % 2, int(i % 3 == 0)) for i in range(900)]
    model = StackingModel(seed=4)
    for x, y_user, y_contribution in stream[:500]:
        model.learn(x, y_user, y_contribution)
    restored = StackingModel.from_state(json_round_trip(model.to_state()))
    for x, y_user, y_contribution in stream[500:]:
        a = model.predict_learn(x, y_user, y_contribution)
        b = restored.predict_learn(x, y_user, y_contribution)
        assert a[0].tolist() == b[0].tolist()
        assert a[1].tolist() == b[1].tolist()
        assert a[2] == b[2]
    assert restored.to_state() == model.to_state()


POINTER_TREE_CHECKPOINTS = Path(__file__).parent / "data" / \
    "pointer_tree_checkpoints.json"


def without_n(state):
    if isinstance(state, dict):
        return {k: without_n(v) for k, v in state.items() if k != "n"}
    if isinstance(state, list):
        return [without_n(v) for v in state]
    return state


@pytest.mark.parametrize("kind", ["bc", "dt", "rf"])
def test_pointer_tree_checkpoint_loads_and_continues(kind):
    # Written after 500 examples of concept_stream(700, seed=21); the
    # digest is of the probability lists predicted over the other 200
    # while learning them, by the model that wrote the checkpoint.
    fixture = json.loads(POINTER_TREE_CHECKPOINTS.read_text(encoding="utf-8"))
    state = fixture["states"][kind]
    model = KINDS[kind].from_state(state)
    assert model.to_state() == without_n(state)
    xs, ys = concept_stream(700, seed=21)
    probs = []
    for x, y in zip(xs[500:], ys[500:]):
        probs.append(model.predict_proba(x).tolist())
        model.learn_one(x, int(y))
    digest = hashlib.sha256(json.dumps(probs).encode()).hexdigest()
    assert digest == fixture["continuation_sha256"][kind]
