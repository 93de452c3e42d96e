"""
Output checks of the benchmark, computed apart from the program.

Everything here is rebuilt from the files with the ``csv`` and ``json``
modules and plain Python, following the schemas the README documents;
nothing is imported from the program and nothing is compared with a
stored copy of an earlier output. Each check appends messages to a
``Findings`` object under its own name, so a test can corrupt one
output and see exactly the check that should object.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field

COUNT_COLUMNS = tuple(f"f{i}" for i in range(3, 15))
PROB_GROUPS = (
    ("dmg_t", "dmg_f"),
    ("gf_t", "gf_f"),
    ("item_a", "item_b", "item_c", "item_d", "item_e"),
    ("art_ok", "art_attack", "art_spam", "art_vandalism"),
    ("wp10_b", "wp10_c", "wp10_fa", "wp10_ga", "wp10_start", "wp10_stub"),
)
PROB_COLUMNS = tuple(c for group in PROB_GROUPS for c in group)
# Column order of an aggregate's values: the documented aggregate schema.
VALUE_COLUMNS = COUNT_COLUMNS + PROB_COLUMNS

# Columns that carry wall-clock readings and so differ between repeats.
CLOCK_COLUMNS = ("latency_us",)
CLOCK_KEYS = ("elapsed_seconds", "events_per_second", "ms_per_event")

STACKING_TAIL_FLOOR = 0.90
MAX_MESSAGES = 5


def _close(a, b):
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


@dataclass
class Findings:
    """Failure messages by check name, plus the failed prediction steps."""

    messages: dict = field(default_factory=dict)
    failed_steps: int = 0

    def fail(self, check, message):
        self.messages.setdefault(check, []).append(message)

    @property
    def ok(self):
        return not self.messages and self.failed_steps == 0

    def lines(self):
        for check, messages in sorted(self.messages.items()):
            for message in messages[:MAX_MESSAGES]:
                yield f"{check}: {message}"
            if len(messages) > MAX_MESSAGES:
                yield f"{check}: ... {len(messages) - MAX_MESSAGES} more"


@dataclass
class OracleDay:
    is_bot: bool
    values: dict

    @property
    def contribution_type(self):
        return 0 if self.values["art_ok"] > 0.5 else 1


@dataclass
class Oracle:
    """Contributor-days recomputed from the raw events file."""

    n_events: int
    days: dict                       # (contributor, ISO day) -> OracleDay
    events_per_contributor: dict
    bots: dict                       # contributor -> is_bot

    @property
    def n_bots(self):
        return sum(self.bots.values())

    @property
    def n_humans(self):
        return len(self.bots) - self.n_bots


def build_oracle(events_path):
    """Fold the events CSV into contributor-days with plain Python.

    Counts are summed and probabilities averaged per day; the link
    ratios divide the day's links by its review characters, and a day
    lies within one week, so the weekly rates equal the day's counts.
    """
    acc = {}
    n_events = 0
    with open(events_path, newline="", encoding="utf-8") as handle:
        for row in csv.DictReader(handle):
            n_events += 1
            key = (row["contributor_id"], row["timestamp"][:10])
            day = acc.get(key)
            if day is None:
                day = acc[key] = {
                    "bot": row["is_bot"] == "1", "n": 0, "chars": 0.0,
                    "pages": set(), "reverts": 0, "links": 0.0,
                    "repeated": 0.0, "ins": 0.0, "del": 0.0,
                    "probs": dict.fromkeys(PROB_COLUMNS, 0.0)}
            day["n"] += 1
            day["chars"] += float(row["review_length"])
            day["pages"].add(row["page_id"])
            day["reverts"] += row["was_reverted"] == "1"
            day["links"] += float(row["links"])
            day["repeated"] += float(row["repeated_links"])
            day["ins"] += float(row["chars_inserted"])
            day["del"] += float(row["chars_deleted"])
            for column in PROB_COLUMNS:
                day["probs"][column] += float(row[column])

    days, per_contributor, bots = {}, {}, {}
    for (contributor, iso_day), d in acc.items():
        n, pages, chars = d["n"], len(d["pages"]), d["chars"]
        values = {
            "f3": n, "f4": chars / n, "f5": pages, "f6": n / pages,
            "f7": n, "f8": pages, "f9": d["reverts"],
            "f10": d["reverts"] / n,
            "f11": d["links"] / chars if chars else 0.0,
            "f12": d["repeated"] / chars if chars else 0.0,
            "f13": d["ins"], "f14": d["del"],
        }
        for column, total in d["probs"].items():
            values[column] = total / n
        days[(contributor, iso_day)] = OracleDay(d["bot"], values)
        per_contributor[contributor] = per_contributor.get(contributor, 0) + n
        bots[contributor] = d["bot"]
    return Oracle(n_events, days, per_contributor, bots)


@dataclass
class StreamRow:
    contributor: str
    day: str
    is_bot: bool
    synthetic: bool
    values: dict


def read_stream_file(path):
    """The aggregate file in (day, contributor) order, as load_stream sorts."""
    rows = []
    with open(path, newline="", encoding="utf-8") as handle:
        for row in csv.DictReader(handle):
            rows.append(StreamRow(
                row["contributor_id"], row["day"], row["is_bot"] == "1",
                row["synthetic"] == "1",
                {c: float(row[c]) for c in VALUE_COLUMNS}))
    rows.sort(key=lambda r: (r.day, r.contributor))
    return rows


def check_aggregation(oracle, real, findings):
    """load_stream on the events file equals the oracle's days."""
    seen = set()
    for agg in real:
        key = (agg.contributor_id, agg.day.isoformat())
        seen.add(key)
        expected = oracle.days.get(key)
        if expected is None:
            findings.fail("aggregation", f"{key}: no such contributor-day")
            continue
        if agg.is_bot != expected.is_bot:
            findings.fail("aggregation", f"{key}: is_bot {agg.is_bot}")
        for column, value in zip(VALUE_COLUMNS, agg.values):
            if not _close(value, expected.values[column]):
                findings.fail("aggregation", f"{key} {column}: {value!r} "
                              f"!= {expected.values[column]!r}")
    missing = set(oracle.days) - seen
    if missing or len(real) != len(seen):
        findings.fail("aggregation", f"{len(missing)} days missing, "
                      f"{len(real) - len(seen)} repeated")


def check_round_trip(written, loaded, rows, findings):
    """The aggregate file holds, and reads back as, what was written."""
    if len(written) != len(loaded) or len(written) != len(rows):
        findings.fail("round_trip", f"{len(written)} written, "
                      f"{len(rows)} in file, {len(loaded)} read back")
        return
    order = sorted(written, key=lambda a: (a.day, a.contributor_id))
    for agg, back, row in zip(order, loaded, rows):
        key = (agg.contributor_id, agg.day.isoformat())
        if (back.contributor_id, back.day, back.is_bot, back.synthetic,
                tuple(back.values)) != (agg.contributor_id, agg.day,
                                        agg.is_bot, agg.synthetic,
                                        tuple(agg.values)):
            findings.fail("round_trip", f"{key}: read back differs")
        if ((row.contributor, row.day, row.is_bot, row.synthetic)
                != (key[0], key[1], agg.is_bot, agg.synthetic)
                or tuple(row.values[c] for c in VALUE_COLUMNS)
                != tuple(agg.values)):
            findings.fail("round_trip", f"{key}: file row differs")


def check_synthetic(oracle, rows, findings):
    """Fabricated rows fill the contributor gap inside the bot range."""
    real_rows = [r for r in rows if (r.contributor, r.day) in oracle.days]
    synthetic = [r for r in rows if (r.contributor, r.day) not in oracle.days]
    expected = max(0, oracle.n_humans - oracle.n_bots)
    if len(synthetic) != expected:
        findings.fail("synthetic", f"{len(synthetic)} synthetic rows, "
                      f"expected {oracle.n_humans} humans - "
                      f"{oracle.n_bots} bots = {expected}")
    for r in real_rows:
        if r.synthetic:
            findings.fail("synthetic", f"real row {r.contributor} "
                          f"{r.day} flagged synthetic")
    if not synthetic:
        return
    bot_days = [d.values for d in oracle.days.values() if d.is_bot]
    bounds = {c: (min(v[c] for v in bot_days), max(v[c] for v in bot_days))
              for c in COUNT_COLUMNS}
    for r in synthetic:
        where = f"{r.contributor} {r.day}"
        if not (r.is_bot and r.synthetic):
            findings.fail("synthetic", f"{where}: is_bot {r.is_bot}, "
                          f"synthetic {r.synthetic}")
        for group in PROB_GROUPS:
            total = sum(r.values[c] for c in group)
            if abs(total - 1.0) > 1e-6:
                findings.fail("synthetic", f"{where}: {group[0]} group "
                              f"sums to {total!r}")
        for column in COUNT_COLUMNS:
            low, high = bounds[column]
            value = r.values[column]
            slack = 1e-12 * max(1.0, abs(low), abs(high))
            if not low - slack <= value <= high + slack:
                findings.fail("synthetic", f"{where} {column}: {value!r} "
                              f"outside real bot range [{low!r}, {high!r}]")
        if r.values["f3"] < 1:
            findings.fail("synthetic", f"{where}: f3 {r.values['f3']!r} < 1")


def read_log(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def check_log(oracle, rows, log, target, report, findings):
    """Per step: label, probability sum, argmax; then the report's counts.

    A step failing any of its checks counts once in ``failed_steps``.
    """
    if len(log) != len(rows):
        findings.fail("log", f"{len(log)} log rows for {len(rows)} "
                      "stream rows")
    confusion = [[0, 0], [0, 0]]
    for i, (record, row) in enumerate(zip(log, rows)):
        problems = []
        if int(record["index"]) != i or record["contributor_id"] != row.contributor:
            problems.append(f"row {i} is {record['contributor_id']} "
                            f"#{record['index']}, expected {row.contributor}")
        day = oracle.days.get((row.contributor, row.day))
        if target == "user_type":
            expected = int(day.is_bot if day else row.is_bot)
        elif day is not None:
            expected = day.contribution_type
        else:
            expected = 0 if row.values["art_ok"] > 0.5 else 1
        true, predicted = int(record["true"]), int(record["predicted"])
        if true != expected:
            problems.append(f"row {i}: true {true}, expected {expected}")
        probs = [float(p) for p in record["probabilities"].split(";")]
        if abs(sum(probs) - 1.0) > 1e-9:
            problems.append(f"row {i}: probabilities sum to {sum(probs)!r}")
        if predicted != probs.index(max(probs)):
            problems.append(f"row {i}: predicted {predicted} is not the "
                            f"argmax of {probs}")
        if problems:
            findings.failed_steps += 1
            for problem in problems:
                findings.fail("steps", f"{target}: {problem}")
        if true in (0, 1) and predicted in (0, 1):
            confusion[true][predicted] += 1

    n = sum(map(sum, confusion))
    accuracy = (confusion[0][0] + confusion[1][1]) / n if n else 0.0
    if (report["confusion"] != confusion or report["n_samples"] != len(log)
            or not _close(report["accuracy"], accuracy)):
        findings.fail("report", f"{target}: report confusion "
                      f"{report['confusion']} accuracy {report['accuracy']!r} "
                      f"n {report['n_samples']}, recounted {confusion} "
                      f"{accuracy!r} n {len(log)}")


def tail_accuracy(log, fraction=0.2):
    tail = log[-max(1, int(len(log) * fraction)):]
    return sum(r["true"] == r["predicted"] for r in tail) / len(tail)


def check_profiles(oracle, rows, profiles_path, findings):
    """Each exported profile's f3 sum equals its contributor's events."""
    expected = dict(oracle.events_per_contributor)
    for r in rows:
        if (r.contributor, r.day) not in oracle.days:
            expected[r.contributor] = expected.get(r.contributor, 0.0) + r.values["f3"]
    seen = set()
    with open(profiles_path, encoding="utf-8") as handle:
        for line in handle:
            profile = json.loads(line)
            contributor = profile["contributor_id"]
            seen.add(contributor)
            total = profile["sums"]["3"]
            if not _close(total, expected.get(contributor, math.nan)):
                findings.fail("profiles", f"{contributor}: f3 sum {total!r}, "
                              f"expected {expected.get(contributor)}")
    if seen != set(expected):
        findings.fail("profiles", f"{len(seen)} profiles exported for "
                      f"{len(expected)} contributors")


def check_round(workload, oracle, result):
    """Run every check on one round's outputs."""
    findings = Findings()
    rows = read_stream_file(result.stream_path)
    check_aggregation(oracle, result.real, findings)
    check_round_trip(result.written, result.stream, rows, findings)
    check_synthetic(oracle, rows, findings)
    check_profiles(oracle, rows, result.profiles_path, findings)
    for output in result.logs:
        log = read_log(output.predictions)
        with open(output.metrics, encoding="utf-8") as handle:
            report = json.load(handle)
        check_log(oracle, rows, log, output.target, report, findings)
        if (workload.name == "stacking" and output.target == "contribution_type"
                and tail_accuracy(log) < STACKING_TAIL_FLOOR):
            findings.fail("stacking_floor", f"final-20% accuracy "
                          f"{tail_accuracy(log):.4f} < {STACKING_TAIL_FLOOR}")
    return findings


def _digest_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    keep = [i for i, name in enumerate(rows[0]) if name not in CLOCK_COLUMNS]
    text = "\n".join(",".join(row[i] for i in keep) for row in rows)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _digest_json(path):
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    for key in CLOCK_KEYS:
        payload.pop(key, None)
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def output_digests(result):
    """SHA-256 of each output, leaving out the wall-clock fields."""
    digests = {}
    for path in sorted(result.out_dir.iterdir()):
        if path.suffix == ".csv" and path.name != "stream.csv":
            digests[path.name] = _digest_csv(path)
        elif path.suffix == ".json":
            digests[path.name] = _digest_json(path)
        else:
            digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests
