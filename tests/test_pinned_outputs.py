"""
The prediction logs of the single-target classifiers and the JSON-lines
aggregate file, pinned.

Each classifier runs prequentially over one small simulated stream; the
log, without its wall-clock ``latency_us`` column, must hash to the
digest recorded for it. The stacking model's log and the pipeline's
other outputs are pinned in ``test_acceptance.test_determinism``. The
JSON checkpoints of the forests and the stacking model are pinned after
a prefix of the stream that ends inside a block of Poisson weights, and
the ensembles' logs and checkpoints once more over three classes.
"""

import csv
import hashlib
import json
from io import StringIO

import pytest

from wikistream.analysis import FEATURE_SETS
from wikistream.evaluate import (
    PredictionRecord,
    prequential_run,
    prequential_run_stacking,
    write_prediction_log,
)
from wikistream.ingest import aggregate_daily, write_aggregates
from wikistream.learn import POISSON_BLOCK, StackingModel, make_classifier
from wikistream.profiling import ProfileStore, to_feature_vector
from wikistream.sim import SimConfig, simulate


@pytest.fixture(scope="module")
def stream():
    cfg = SimConfig(counts={name: 60 for name in
                            ("human-benign", "human-malign",
                             "bot-benign", "bot-malign")},
                    n_days=30, seed=11, noise=0.1, target_events=8000)
    events, _ = simulate(cfg)
    return aggregate_daily(events)


def log_digest(log, path):
    write_prediction_log(log, path)
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    drop = rows[0].index("latency_us")
    out = StringIO()
    writer = csv.writer(out)
    for row in rows:
        writer.writerow(row[:drop] + row[drop + 1:])
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


# Recorded with numpy 2.4.6 on Python 3.11.7, from the pointer-tree
# implementation that the packed tree store replaced.
PINNED = {
    ("nb", "set2", "contribution_type"):
        "98f12a5bfbc8649cb4991eb8903237956ba8a92d24b3aff0a8ac05fd0e1e7ef2",
    ("dt", "set2", "user_type"):
        "24571a4eff63beabae50abe2db6ea327b4d7bc5f72737f7d5159a63d23603d61",
    ("rf", "set1", "contribution_type"):
        "9febce33fbc2789cbba5da563693817bc32c019ea1e2a03795c1a59e8c319757",
    ("bc", "set1", "user_type"):
        "f0471375d3de70674e7452e379e9a045666ea7fe2c01eb8c22e58b87a841130c",
}


@pytest.mark.parametrize("kind,features,target", sorted(PINNED))
def test_prediction_log_pinned(stream, tmp_path, kind, features, target):
    _, log = prequential_run(stream, make_classifier(kind, seed=3),
                             FEATURE_SETS[features], target)
    digest = log_digest(log, tmp_path / "predictions.csv")
    assert digest == PINNED[(kind, features, target)]


# Recorded with numpy 2.4.6 on Python 3.11.7, from the per-schema writer
# that the shared row codec replaced.
PINNED_AGGREGATE_JSONL = (
    "10ed62a317a89f61359482aa2f4fdd04ddeb833d6511d277d7f5d84e3be02edc")


def test_aggregate_jsonl_pinned(stream, tmp_path):
    path = tmp_path / "stream.jsonl"
    write_aggregates(stream, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        PINNED_AGGREGATE_JSONL


# Recorded with numpy 2.4.6 on Python 3.11.7, from the implementation
# that drew one scalar Poisson weight per member and example: the
# SHA-256 of ``json.dumps(model.to_state(), sort_keys=True)`` after the
# first CHECKPOINT_DAYS contributor-days.
CHECKPOINT_DAYS = 1999
PINNED_CHECKPOINTS = {
    "rf": "a25ba78fae0be27dda7312546a20eee0cf761f30bcc875567fd122e060151405",
    "bc": "b1e0e6aca174c8712777d771e5b2ad247653b5347080d677804980706b9ce406",
    "stacking":
        "190bf9d2f9395ca03987bf8b0edd6fe1ea951b609bcd8518ffb1318bcbb61366",
}


@pytest.mark.parametrize("kind", sorted(PINNED_CHECKPOINTS))
def test_mid_block_checkpoint_pinned(stream, kind):
    assert CHECKPOINT_DAYS % POISSON_BLOCK != 0
    days = stream[:CHECKPOINT_DAYS]
    if kind == "stacking":
        model = StackingModel(seed=3)
        prequential_run_stacking(days, model)
    else:
        model = make_classifier(kind, seed=3)
        prequential_run(days, model, FEATURE_SETS["set1"],
                        "contribution_type")
    state = json.dumps(model.to_state(), sort_keys=True)
    assert hashlib.sha256(state.encode()).hexdigest() == \
        PINNED_CHECKPOINTS[kind]


def three_class_run(stream, kind):
    """The ensemble ``kind`` over the stream's ``set1`` profiles, labelled
    with the number of malign and bot flags (0, 1 or 2); returns its
    prediction log and final model."""
    model = make_classifier(kind, seed=3, classes=[0, 1, 2])
    store = ProfileStore()
    log = []
    for index, agg in enumerate(stream):
        x = to_feature_vector(store.update(agg), FEATURE_SETS["set1"])
        true = agg.user_type + agg.contribution_type
        probs = model.predict_learn(x, true)
        log.append(PredictionRecord(index, agg.contributor_id, true,
                                    int(probs.argmax()),
                                    tuple(probs.tolist()), 0.0))
    return log, model


# Recorded with numpy 2.4.6 on Python 3.11.7, from the implementation
# that took each boosting member's vote through ``np.argmax`` of its
# leaf distribution: the SHA-256 of the prediction log (as in PINNED)
# and of ``json.dumps(model.to_state(), sort_keys=True)`` after the
# whole stream.
PINNED_THREE_CLASS = {
    "rf": ("d162ce738beadf232e12aad562bc6ae76d4f490318ea833df4af7d87a0f25361",
           "4edde214a532bffe5883372dff33102fbd6d17b91c2ef9869e955cbdb00d452a"),
    "bc": ("ae596cdc22b2b8c2ce1ceb563d0e9343f325674161c73394bdac8bb567a164ee",
           "072a4832b358cf525c8758faf8220e6c51f699c2a02e7ab6def2ac34f611b699"),
}


@pytest.mark.parametrize("kind", sorted(PINNED_THREE_CLASS))
def test_three_class_ensemble_pinned(stream, tmp_path, kind):
    log, model = three_class_run(stream, kind)
    assert {record.true for record in log} == {0, 1, 2}
    assert any(column >= 0 for column, *_ in model.store.nodes)
    state = json.dumps(model.to_state(), sort_keys=True)
    assert (log_digest(log, tmp_path / "predictions.csv"),
            hashlib.sha256(state.encode()).hexdigest()) == \
        PINNED_THREE_CLASS[kind]
