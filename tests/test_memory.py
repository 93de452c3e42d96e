"""
Memory guards, traced with tracemalloc: a batch is columns, and
iterating it builds each row view on demand and keeps none; a
prediction log is columns too, a few numbers per step; reading an
events file holds no copy of its text, and folding it into
contributor-days holds codes, not strings; writing events and
contributor-days holds one block of rows as text, not the file.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from wikistream.analysis import SET1
from wikistream.evaluate import prequential_run, prequential_run_stacking
from wikistream.ingest import (aggregate_daily, load_stream, parse_events,
                               write_aggregates)
from wikistream.learn import GaussianNaiveBayes, StackingModel
from wikistream.model import N_FEATURES, ROW_BLOCK, AggregateBatch
from wikistream.sim import ARCHETYPE_NAMES, SimConfig, simulate, write_events


def test_iterating_a_batch_twice_keeps_no_rows():
    n = 10_000
    batch = AggregateBatch(np.array([f"c{i}" for i in range(n)], dtype=object),
                           np.full(n, np.datetime64("2020-01-01")),
                           np.zeros(n, dtype=bool), np.zeros(n, dtype=bool),
                           np.ones((n, N_FEATURES)))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(2):
            for row in batch:
                pass
        del row
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 1 << 20


@pytest.fixture(scope="module")
def stream():
    events, _ = simulate(SimConfig(counts={a: 15 for a in ARCHETYPE_NAMES},
                                   n_days=30, seed=2))
    return aggregate_daily(events)


@pytest.mark.parametrize("stacking", [False, True])
def test_prediction_log_holds_under_64_bytes_per_row(stream, stacking):
    gc.collect()
    tracemalloc.start()
    try:
        if stacking:
            logs = prequential_run_stacking(stream, StackingModel())[2:]
        else:
            logs = prequential_run(stream, GaussianNaiveBayes(), SET1,
                                   "user_type")[1:]
        # what deleting the logs frees is what they hold
        with_logs = tracemalloc.get_traced_memory()[0]
        n_rows = len(stream) * len(logs)
        del logs
        gc.collect()
        held = with_logs - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(stream) > 1000
    assert held < 64 * n_rows


def test_parsing_events_holds_no_copy_of_the_text(tmp_path):
    """parse_events on the 20 000-event acceptance stream peaks at
    12.7 MB (Python 3.11, numpy 2.4.6); the file is 8.5 MB, so holding
    its text as one string or as a list of lines breaks the bound."""
    events, _ = simulate(SimConfig(counts={a: 200 for a in ARCHETYPE_NAMES},
                                   n_days=30, seed=0, noise=0.1,
                                   target_events=20_000))
    path = tmp_path / "events.csv"
    write_events(events, path)
    del events
    gc.collect()
    tracemalloc.start()
    try:
        table = parse_events(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table) == 20_000
    assert peak < 14_000_000  # 10 % above the measured peak


def test_loading_events_peaks_at_the_parse(tmp_path):
    """load_stream on the same 20 000-event stream peaks at 12.7 MB
    (Python 3.11, numpy 2.4.6), where parse_events alone does: the fold
    into contributor-days groups integer codes. Grouping on (contributor,
    day) and (group, page) tuples peaked at 20.3 MB."""
    events, _ = simulate(SimConfig(counts={a: 200 for a in ARCHETYPE_NAMES},
                                   n_days=30, seed=0, noise=0.1,
                                   target_events=20_000))
    path = tmp_path / "events.csv"
    write_events(events, path)
    del events
    gc.collect()
    tracemalloc.start()
    try:
        batch = load_stream(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(batch) == 10_695
    assert peak < 13_950_000  # 10 % above the measured peak


# 10 % above the measured peaks
@pytest.mark.parametrize("write,size,bound", [
    (write_events, 8_549_559, 3_920_000),
    (write_aggregates, 5_045_719, 4_420_000)])
def test_writing_holds_one_block_not_the_file(tmp_path, write, size, bound):
    """On the 20 000-event acceptance stream, write_events peaks at 3.56
    MB and write_aggregates at 4.02 MB (Python 3.11, numpy 2.4.6): one
    ROW_BLOCK of rows as cell strings, their lines and the block's text.
    The files are 8.5 and 5.0 MB, so holding either as one string breaks
    the bound."""
    events, _ = simulate(SimConfig(counts={a: 200 for a in ARCHETYPE_NAMES},
                                   n_days=30, seed=0, noise=0.1,
                                   target_events=20_000))
    table = events if write is write_events else aggregate_daily(events)
    del events
    path = tmp_path / "out.csv"
    gc.collect()
    tracemalloc.start()
    try:
        write(table, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.stat().st_size == size
    assert len(table) > 10 * ROW_BLOCK
    assert peak < bound < size
