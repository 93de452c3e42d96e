"""
Command-line surface for the pipeline.

Commands: simulate, analyze, select, synthesize, balance, profile,
evaluate, report. Exit codes: 0 success, 2 validation failure,
3 runtime failure. Curve data is emitted as plot-ready CSV, reports as
JSON plus a rendered table.
"""

from __future__ import annotations

import json
import sys
from functools import wraps
from pathlib import Path

import click
import numpy as np

from . import analysis, evaluate, fabricate, ingest, learn, profiling, sim
from .model import FEATURE_IDS, ValidationError

EXIT_VALIDATION = 2
EXIT_RUNTIME = 3


def _guarded(fn):
    @wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ValidationError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_VALIDATION)
        except (OSError, RuntimeError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_RUNTIME)
    return wrapper


def _load_config_defaults(ctx, param, value):
    """Key-value config file; explicit flags win over file values.

    A key that names no option of the command, and a byte that is not
    UTF-8 (``ingest._text_lines``), are usage errors (exit 2).
    """
    if value is None:
        return None
    options = {p.name for p in ctx.command.params} - {param.name}
    defaults = {}
    try:
        lines = list(ingest._text_lines(value))
    except ValidationError as exc:
        raise click.BadParameter(str(exc), ctx=ctx, param=param) from None
    for raw in lines:
        raw = raw.strip()
        if not raw or raw.startswith("#"):
            continue
        key, _, val = raw.partition("=")
        key = key.strip().replace("-", "_")
        if key not in options:
            raise click.BadParameter(
                f"{value}: unknown key {key!r}", ctx=ctx, param=param)
        defaults[key] = val.strip()
    ctx.default_map = {**defaults, **(ctx.default_map or {})}
    return value


def _require_input(path):
    if not Path(path).exists():
        raise ValidationError(f"input path does not exist: {path}", field="input")


def _load_rows(path):
    """The contributor-days of an events or aggregate file; a file
    without any is invalid input."""
    _require_input(path)
    aggregates = ingest.load_stream(path)
    if not aggregates:
        raise ValidationError(f"no contributor-days in {path}", field="input")
    return aggregates


@click.group()
def main():
    """Stream-based profiling and classification of wiki contributors."""


@main.command()
@click.option("--config", type=click.Path(exists=True),
              callback=_load_config_defaults, expose_value=False,
              is_eager=True, help="Key-value config file; flags win.")
@click.option("--human-benign", default=10, show_default=True, type=int)
@click.option("--human-malign", default=10, show_default=True, type=int)
@click.option("--bot-benign", default=10, show_default=True, type=int)
@click.option("--bot-malign", default=10, show_default=True, type=int)
@click.option("--days", default=30, show_default=True, type=int)
@click.option("--seed", default=0, show_default=True,
              type=click.IntRange(min=0))
@click.option("--noise", default=0.0, show_default=True, type=float)
@click.option("--events", default=0, show_default=True, type=int,
              help="Exact total event count (0 = rate-driven).")
@click.option("--out", default="simdata", show_default=True,
              type=click.Path(), help="Output directory.")
@_guarded
def simulate(human_benign, human_malign, bot_benign, bot_malign,
             days, seed, noise, events, out):
    """Generate a labelled synthetic event stream."""
    config = sim.SimConfig(
        counts={
            "human-benign": human_benign,
            "human-malign": human_malign,
            "bot-benign": bot_benign,
            "bot-malign": bot_malign,
        },
        n_days=days, seed=seed, noise=noise, target_events=events)
    events_path, labels_path = sim.write_simulation(config, out)
    click.echo(f"wrote {events_path} and {labels_path}")


@main.command()
@click.argument("input", type=click.Path())
@click.option("--target", default="user_type", show_default=True,
              type=click.Choice(["user_type", "contribution_type"]))
@click.option("--threshold", default=analysis.DEFAULT_CORRELATION_THRESHOLD,
              show_default=True, type=float)
@click.option("--out", default=".", show_default=True, type=click.Path())
@_guarded
def analyze(input, target, threshold, out):
    """Correlate features with a target; writes report.csv + report.json."""
    aggregates = _load_rows(input)
    report = analysis.correlation_report(aggregates, target, threshold)
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    report.write_csv(out_dir / "report.csv")
    report.write_json(out_dir / "report.json")
    click.echo(f"wrote {out_dir / 'report.csv'} and {out_dir / 'report.json'}")


@main.command()
@click.argument("input", type=click.Path())
@click.option("--target", default="user_type", show_default=True,
              type=click.Choice(["user_type", "contribution_type"]))
@click.option("--count", default=10, show_default=True, type=int,
              help="Number of features to keep.")
@click.option("--step", default=0.05, show_default=True, type=float)
@click.option("--out", default="selected_features.json", show_default=True,
              type=click.Path())
@_guarded
def select(input, target, count, step, out):
    """Recursive feature elimination on a stream's profile features."""
    aggregates = _load_rows(input)
    X = analysis.feature_matrix(aggregates)
    y = analysis.target_vector(aggregates, target)
    result = analysis.rfe(X, y, FEATURE_IDS, target_count=count,
                          step_fraction=step)
    payload = {
        "schema_version": 1,
        "target": target,
        "selected": list(result.feature_set.feature_ids),
        "elimination_order": result.elimination_order,
    }
    Path(out).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    click.echo(f"wrote {out}")


@main.command()
@click.argument("input", type=click.Path())
@click.option("--count", default=0, show_default=True,
              type=click.IntRange(min=0),
              help="Samples to generate (0 = human/bot contributor gap).")
@click.option("--seed", default=0, show_default=True,
              type=click.IntRange(min=0))
@click.option("--out", default=".", show_default=True, type=click.Path())
@_guarded
def synthesize(input, count, seed, out):
    """Generate synthetic bot samples plus a statistical comparison report."""
    aggregates = _load_rows(input)
    if count <= 0:
        count = fabricate.contributor_gap(aggregates)
    if count <= 0:
        click.echo("warning: classes already balanced, 0 samples generated")
        return
    synthetic, batches = fabricate.synthesize_bot_aggregates(
        aggregates, count, seed=seed)
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    ingest.write_aggregates(synthetic, out_dir / "synthetic.csv")

    original = fabricate.quartile_stats(
        analysis.feature_matrix(aggregates[aggregates.is_bot], analysis.SET2),
        analysis.SET2.feature_ids)
    generated = fabricate.quartile_stats(
        np.vstack([batch.values for batch in batches]),
        analysis.SET2.feature_ids)
    fabricate.compare_stats(original, generated).write_csv(
        out_dir / "comparison.csv")
    click.echo(f"generated {count} samples; wrote {out_dir / 'synthetic.csv'} "
               f"and {out_dir / 'comparison.csv'}")


@main.command()
@click.argument("input", type=click.Path())
@click.option("--seed", default=0, show_default=True,
              type=click.IntRange(min=0))
@click.option("--out", default="balanced.csv", show_default=True,
              type=click.Path())
@_guarded
def balance(input, seed, out):
    """Merge real and synthetic samples into a class-balanced stream."""
    aggregates = _load_rows(input)
    combined = fabricate.balance_dataset(aggregates, seed=seed)
    ingest.write_aggregates(combined, out)
    click.echo(f"wrote {out} ({len(combined)} aggregates, "
               f"{len(combined) - len(aggregates)} synthetic)")


@main.command(name="profile")
@click.argument("input", type=click.Path())
@click.option("--out", default="profiles.jsonl", show_default=True,
              type=click.Path())
@_guarded
def profile_cmd(input, out):
    """Replay a stream into contributor profiles; export them as JSONL."""
    aggregates = _load_rows(input)
    store = profiling.ProfileStore()
    store.fold(aggregates)
    store.export_jsonl(out)
    click.echo(f"wrote {out} ({len(store)} profiles)")


@main.command()
@click.argument("input", type=click.Path())
@click.option("--config", type=click.Path(exists=True),
              callback=_load_config_defaults, expose_value=False,
              is_eager=True, help="Key-value config file; flags win.")
@click.option("--classifier", default="rf", show_default=True,
              type=click.Choice(["nb", "dt", "rf", "bc", "stacking"]))
@click.option("--features", default="set1", show_default=True,
              type=click.Choice(sorted(analysis.FEATURE_SETS)))
@click.option("--target", default="user_type", show_default=True,
              type=click.Choice(["user_type", "contribution_type"]))
@click.option("--seed", default=0, show_default=True,
              type=click.IntRange(min=0))
@click.option("--balance", "do_balance", is_flag=True,
              help="Balance the stream before evaluating.")
@click.option("--window", default=evaluate.DEFAULT_WINDOW,
              show_default=True, type=int)
@click.option("--out", default="evalout", show_default=True,
              type=click.Path())
@_guarded
def evaluate_cmd(input, classifier, features, target, seed, do_balance,
                 window, out):
    """Prequential evaluation of one classifier / feature-set grid cell."""
    aggregates = _load_rows(input)
    if do_balance:
        aggregates = fabricate.balance_dataset(aggregates, seed=seed)
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)

    if classifier == "stacking":
        model = learn.StackingModel(seed=seed)
        report, user_report, log, _ = evaluate.prequential_run_stacking(
            aggregates, model, window=window)
        user_report.write_json(out_dir / "metrics_user.json")
    else:
        clf = learn.make_classifier(classifier, seed=seed)
        feature_set = analysis.FEATURE_SETS[features]
        report, log = evaluate.prequential_run(
            aggregates, clf, feature_set, target, window=window,
            classifier_name=classifier)
    report.write_json(out_dir / "metrics.json")
    evaluate.write_prediction_log(log, out_dir / "predictions.csv")
    ingest.write_rows(report.window_series, ("end_index", "window_accuracy"),
                      out_dir / "window_series.csv")
    click.echo(evaluate.TABLE_HEADER)
    click.echo(evaluate.render_table_row(report.to_dict(), label=classifier))
    click.echo(f"mean latency: {report.ms_per_event:.3f} ms/event")


main.add_command(evaluate_cmd, name="evaluate")


@main.command()
@click.argument("metrics", type=click.Path())
@_guarded
def report(metrics):
    """Render a metrics JSON file as a table row."""
    _require_input(metrics)
    try:
        payload = json.loads("".join(ingest._text_lines(metrics)))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{metrics}: invalid JSON: {exc}",
                              field="metrics")
    row = evaluate.render_table_row(payload)
    click.echo(evaluate.TABLE_HEADER)
    click.echo(row)


if __name__ == "__main__":
    main()
