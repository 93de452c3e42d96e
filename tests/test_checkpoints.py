"""
Checkpoints: a model restored mid-stream from its JSON state continues
exactly as the uninterrupted model does, also from inside a block of
Poisson weights; checkpoints written by the pointer-tree implementation
(whose nodes carried an ``n`` field equal to ``class_counts``) still
load and continue exactly; and an ensemble checkpoint without one entry
per member in each per-member list, a feature subset that is not the
expected number of distinct input columns, naive Bayes moments of
another shape, a tree node with statistics of another shape, a split
feature out of range or a missing child, a learned tree without a
feature count, a negative count, fallback, weight seen or λ, or a
setting or scalar of the wrong type or range (``classes``,
``n_members``, ``seed``, ``max_features``, ``use_poisson``) is rejected.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from wikistream.learn import (
    POISSON_BLOCK,
    BaggingForest,
    GaussianNaiveBayes,
    HoeffdingTree,
    OnlineBoosting,
    StackingModel,
    make_classifier,
)
from wikistream.model import ValidationError
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


# Ends inside the forests' third block of Poisson weights, after the
# first trees split.
MID_BLOCK = 3 * POISSON_BLOCK + 17


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_mid_block_resume_continues_through_predict_learn(kind):
    xs, ys = concept_stream(MID_BLOCK + 2 * POISSON_BLOCK, seed=6, d=5)
    model = make_classifier(kind, seed=2)
    for x, y in zip(xs[:MID_BLOCK], ys[:MID_BLOCK]):
        model.predict_learn(x, int(y))
    restored = KINDS[kind].from_state(json_round_trip(model.to_state()))
    for x, y in zip(xs[MID_BLOCK:], ys[MID_BLOCK:]):
        assert restored.predict_learn(x, int(y)).tolist() == \
            model.predict_learn(x, int(y)).tolist()
    assert restored.to_state() == model.to_state()


def test_stacking_mid_block_resume_continues_exactly():
    rng = np.random.default_rng(5)
    stream = [(profile_vector(rng, bot=i % 2 == 0, malign=i % 3 == 0),
               i % 2, int(i % 3 == 0))
              for i in range(MID_BLOCK + 2 * POISSON_BLOCK)]
    model = StackingModel(seed=6)
    for x, y_user, y_contribution in stream[:MID_BLOCK]:
        model.predict_learn(x, y_user, y_contribution)
    restored = StackingModel.from_state(json_round_trip(model.to_state()))
    for x, y_user, y_contribution in stream[MID_BLOCK:]:
        a = model.predict_learn(x, y_user, y_contribution)
        b = restored.predict_learn(x, y_user, y_contribution)
        assert (a[0].tolist(), a[1].tolist(), a[2]) == \
            (b[0].tolist(), b[1].tolist(), b[2])
    assert restored.to_state() == model.to_state()


def resized(items, change):
    """``items`` one entry short (change -1) or one entry long (+1)."""
    return items[:change] if change < 0 else items + items[:change]


@pytest.mark.parametrize("change", [-1, 1])
@pytest.mark.parametrize("kind,field", [
    ("rf", "members"), ("rf", "rng_states"), ("rf", "subsets"),
    ("bc", "members"), ("bc", "rng_states"), ("bc", "lambda_correct"),
    ("bc", "lambda_wrong")])
def test_member_list_length_checked(kind, field, change):
    xs, ys = concept_stream(20, seed=3)
    model = make_classifier(kind, seed=1)
    for x, y in zip(xs, ys):
        model.learn_one(x, int(y))
    state = json_round_trip(model.to_state())
    state[field] = resized(state[field], change)
    with pytest.raises(ValidationError) as exc:
        KINDS[kind].from_state(state)
    assert exc.value.field == field


@pytest.mark.parametrize("change", [-1, 1])
@pytest.mark.parametrize("field", ["members", "rng_states"])
def test_stacking_forest_list_length_checked(field, change):
    state = json_round_trip(StackingModel(seed=0).to_state())
    forest = state["forest_contribution"]
    forest[field] = resized(forest[field], change)
    with pytest.raises(ValidationError) as exc:
        StackingModel.from_state(state)
    assert exc.value.field == f"forest_contribution.{field}"


# Each edits a subset of three of nine columns.
BAD_SUBSETS = [lambda s: s[:-1], lambda s: s[:-1] + [50],
               lambda s: s[:-1] + [-1], lambda s: s[:1] + s[:-1]]


@pytest.mark.parametrize("edit", BAD_SUBSETS)
def test_subset_columns_checked(edit):
    xs, ys = concept_stream(20, seed=3, d=9)
    model = make_classifier("rf", seed=1)
    for x, y in zip(xs, ys):
        model.learn_one(x, int(y))
    state = json_round_trip(model.to_state())
    state["subsets"][0] = edit(state["subsets"][0])
    with pytest.raises(ValidationError) as exc:
        BaggingForest.from_state(state)
    assert exc.value.field == "subsets.0"


def test_subsets_need_a_feature_count():
    model = make_classifier("rf", seed=1)
    model.learn_one(np.zeros(9), 0)
    state = json_round_trip(model.to_state())
    state["n_features"] = None
    with pytest.raises(ValidationError) as exc:
        BaggingForest.from_state(state)
    assert exc.value.field == "n_features"


def test_stacking_forest_subset_checked():
    model = StackingModel(seed=0)
    model.learn(profile_vector(np.random.default_rng(0), bot=True,
                               malign=False), 1, 0)
    state = json_round_trip(model.to_state())
    subsets = state["forest_user"]["subsets"]
    subsets[0] = subsets[0][:-1]
    with pytest.raises(ValidationError) as exc:
        StackingModel.from_state(state)
    assert exc.value.field == "forest_user.subsets.0"


@pytest.mark.parametrize("n_features,field", [
    (None, "forest_final.n_features"), (7, "forest_final.subsets")])
def test_stacking_learned_trees_need_subsets(n_features, field):
    model = StackingModel(seed=0)
    model.learn(profile_vector(np.random.default_rng(0), bot=True,
                               malign=False), 1, 0)
    state = json_round_trip(model.to_state())
    state["forest_final"]["subsets"] = None
    state["forest_final"]["n_features"] = n_features
    with pytest.raises(ValidationError) as exc:
        StackingModel.from_state(state)
    assert exc.value.field == field


@pytest.mark.parametrize("field,edit", [
    ("counts", lambda v: v[:-1]),
    ("mean", lambda v: [row[:-1] for row in v]),
    ("mean", lambda v: [v[0][:-1]] + v[1:]),
    ("m2", lambda v: v + v[:1])])
def test_naive_bayes_moment_shapes_checked(field, edit):
    xs, ys = concept_stream(20, seed=3)
    model = GaussianNaiveBayes()
    for x, y in zip(xs, ys):
        model.learn_one(x, int(y))
    state = json_round_trip(model.to_state())
    state[field] = edit(state[field])
    with pytest.raises(ValidationError) as exc:
        GaussianNaiveBayes.from_state(state)
    assert exc.value.field == field


def learned_state(kind, n):
    xs, ys = concept_stream(n, seed=3)
    model = make_classifier(kind, seed=1)
    for x, y in zip(xs, ys):
        model.learn_one(x, int(y))
    return json_round_trip(model.to_state())


def drop_column(rows):
    return [row[:-1] for row in rows]


# Edits of a node dict, and the field under the node that they name.
BAD_NODES = [
    ("class_counts", lambda node: node.update(
        class_counts=node["class_counts"][:1])),
    ("fallback", lambda node: node.update(fallback=node["fallback"] * 2)),
    ("mean", lambda node: node.update(mean=drop_column(node["mean"]))),
    ("m2", lambda node: node.update(m2=node["m2"][:1])),
    ("split_feature", lambda node: node.update(split_feature=7)),
    ("split_feature", lambda node: node.update(split_feature=-1)),
    ("threshold", lambda node: node.update(threshold=None)),
    ("seen_since_attempt", lambda node: node.update(seen_since_attempt=[1])),
    ("depth", lambda node: node.update(depth=None)),
    ("depth", lambda node: node.update(depth=-1)),
    ("right", lambda node: node.update(right=None)),
    ("left", lambda node: node.update(left=[])),
]


@pytest.mark.parametrize("field,edit", BAD_NODES)
def test_tree_nodes_checked(field, edit):
    state = learned_state("dt", 400)
    assert state["root"]["split_feature"] is not None
    edit(state["root"])
    with pytest.raises(ValidationError) as exc:
        HoeffdingTree.from_state(state)
    assert exc.value.field == f"root.{field}"


@pytest.mark.parametrize("field,value", [
    ("class_counts", [-3.0, 5.0]), ("fallback", [-0.5, 1.5]),
    ("seen_since_attempt", -1.0)])
def test_negative_node_values_rejected(field, value):
    state = learned_state("dt", 400)
    state["root"][field] = value
    with pytest.raises(ValidationError) as exc:
        HoeffdingTree.from_state(state)
    assert exc.value.field == f"root.{field}"


def test_child_nodes_checked():
    state = learned_state("dt", 400)
    left = state["root"]["left"]
    left["mean"] = drop_column(left["mean"])
    with pytest.raises(ValidationError) as exc:
        HoeffdingTree.from_state(state)
    assert exc.value.field == "root.left.mean"


@pytest.mark.parametrize("kind", ["rf", "bc"])
def test_member_tree_nodes_checked(kind):
    state = learned_state(kind, 40)
    root = state["members"][3]["root"]
    root["class_counts"] = root["class_counts"][:1]
    with pytest.raises(ValidationError) as exc:
        KINDS[kind].from_state(state)
    assert exc.value.field == "members.3.root.class_counts"


@pytest.mark.parametrize("field", ["lambda_correct", "lambda_wrong"])
def test_negative_lambdas_rejected(field):
    state = learned_state("bc", 50)
    state[field] = [-value for value in state[field]]
    with pytest.raises(ValidationError) as exc:
        OnlineBoosting.from_state(state)
    assert exc.value.field == field


def test_negative_naive_bayes_counts_rejected():
    state = learned_state("nb", 20)
    state["counts"][0] = -1.0
    with pytest.raises(ValidationError) as exc:
        GaussianNaiveBayes.from_state(state)
    assert exc.value.field == "counts"


def test_negative_stacking_child_fallback_rejected():
    rng = np.random.default_rng(8)
    model = StackingModel(seed=4)
    for i in range(500):
        model.learn(profile_vector(rng, bot=i % 2 == 0, malign=i % 3 == 0),
                    i % 2, int(i % 3 == 0))
    state = json_round_trip(model.to_state())
    m, root = next((m, member["root"]) for m, member in
                   enumerate(state["forest_user"]["members"])
                   if member["root"]["left"] is not None)
    root["left"]["fallback"][0] = -0.25
    with pytest.raises(ValidationError) as exc:
        StackingModel.from_state(state)
    assert exc.value.field == \
        f"forest_user.members.{m}.root.left.fallback"


def test_stacking_tree_nodes_checked():
    model = StackingModel(seed=0)
    model.learn(profile_vector(np.random.default_rng(0), bot=True,
                               malign=False), 1, 0)
    state = json_round_trip(model.to_state())
    m, root = next((m, member["root"]) for m, member in
                   enumerate(state["forest_user"]["members"])
                   if member["root"] is not None)
    root["class_counts"] = root["class_counts"][:1]
    with pytest.raises(ValidationError) as exc:
        StackingModel.from_state(state)
    assert exc.value.field == f"forest_user.members.{m}.root.class_counts"


@pytest.mark.parametrize("kind", ["dt", "bc"])
def test_learned_trees_need_a_feature_count(kind):
    state = learned_state(kind, 40)
    state["n_features"] = None
    with pytest.raises(ValidationError) as exc:
        KINDS[kind].from_state(state)
    assert exc.value.field == "n_features"


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


# Checkpoint fields with a value of the wrong type or range, per kind.
BAD_SCALARS = [
    *((kind, "classes", value) for kind in sorted(KINDS)
      for value in (None, 5, [0, 0], [])),
    *((kind, "n_members", value) for kind in ("rf", "bc")
      for value in (2.0, "10", 0, -1)),
    *((kind, "seed", value) for kind in ("rf", "bc")
      for value in ("x", None, 1.5, -1)),
    *(("rf", "max_features", value) for value in ("log2", 5, 0.5)),
    *(("rf", "use_poisson", value) for value in ("no", 0, None)),
]


@pytest.mark.parametrize("kind,field,value", BAD_SCALARS)
def test_checkpoint_scalars_checked(kind, field, value):
    state = learned_state(kind, 40)
    state[field] = value
    with pytest.raises(ValidationError) as exc:
        KINDS[kind].from_state(state)
    assert exc.value.field == field


@pytest.mark.parametrize("kind,field,value", BAD_SCALARS)
def test_constructor_settings_checked(kind, field, value):
    with pytest.raises(ValidationError) as exc:
        KINDS[kind](**{field: value})
    assert exc.value.field == field


@pytest.mark.parametrize("field,value", [
    ("seed", "x"), ("seed", -1), ("forest_user.use_poisson", "no"),
    ("forest_final.max_features", "log2"), ("forest_contribution.seed", 1.5),
    # a stacking forest is binary, full-feature and reads its level's
    # columns
    ("forest_final.max_features", "sqrt"), ("forest_user.classes", [0, 1, 2]),
    ("forest_contribution.n_features", 7)])
def test_stacking_checkpoint_scalars_checked(field, value):
    state = json_round_trip(StackingModel(seed=0).to_state())
    *forest, name = field.split(".")
    (state[forest[0]] if forest else state)[name] = value
    with pytest.raises(ValidationError) as exc:
        StackingModel.from_state(state)
    assert exc.value.field == field
