"""
Ground-truth contributor behaviour simulator.

Produces labelled edit-event streams in the ingestion schema for
end-to-end experiments. Four behaviour archetypes (human/bot crossed
with benign/malign) differ in edit rate, revert habits and quality
score distributions; a noise knob blends the archetypes' score
distributions toward indistinguishability (0 = fully separable).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from datetime import date, timedelta
from functools import reduce
from operator import add
from pathlib import Path

import numpy as np

from .ingest import EVENT_COLUMNS, EventTable, coded, write_rows, write_table
from .model import (
    EVENT_COUNT_FIELDS,
    PROBABILITY_GROUPS,
    ValidationError,
    largest_remainder,
    probability_group_sums,
)

ARCHETYPE_NAMES = ("human-benign", "human-malign", "bot-benign", "bot-malign")

# The calendar's first day and most days (ending on date.max), the page
# count, and every archetype's Beta and Dirichlet score concentration.
START_DAY = date(2020, 1, 1)
MAX_DAYS = (date.max - START_DAY).days + 1
N_PAGES = 200
CONCENTRATION = 40.0

# The least largest α of a Dirichlet group: numpy draws a group whose
# largest α is smaller by stick-breaking, not as normalised gammas.
MIN_LARGEST_ALPHA = 0.1

_PAGE_IDS = [f"p{page:04d}" for page in range(N_PAGES)]
_N_COUNTS = len(EVENT_COUNT_FIELDS)
_GROUP_WIDTHS = [len(group) for group in PROBABILITY_GROUPS]


@dataclass(frozen=True)
class BehaviorArchetype:
    """Distribution parameters governing one contributor population."""

    name: str
    is_bot: bool
    edit_rate: float              # expected events per day
    review_length_log_mean: float
    review_length_log_sigma: float
    links_rate: float
    repeated_link_fraction: float
    chars_inserted_log_mean: float
    chars_deleted_log_mean: float
    revert_probability: float
    damaging_mean: float          # mean probability of damaging
    goodfaith_mean: float         # mean probability of good faith
    item_means: tuple             # A..E
    art_means: tuple              # ok, attack, spam, vandalism
    wp10_means: tuple             # B, C, FA, GA, start, stub


# Benign quality scores sit well above the 0.5 OK line, malign well
# below. Bot-benign deliberately shares the human-malign wp10 profile:
# the draft-quality signal alone cannot tell them apart, only knowing
# bot-ness can, which is exactly the structure the stacked model exploits.
_SHARED_MIXED_WP10 = (0.10, 0.10, 0.05, 0.05, 0.25, 0.45)

DEFAULT_ARCHETYPES = {
    "human-benign": BehaviorArchetype(
        name="human-benign", is_bot=False, edit_rate=2.0,
        review_length_log_mean=4.5, review_length_log_sigma=0.6,
        links_rate=3.0, repeated_link_fraction=0.2,
        chars_inserted_log_mean=4.0, chars_deleted_log_mean=2.0,
        revert_probability=0.02,
        damaging_mean=0.10, goodfaith_mean=0.90,
        item_means=(0.10, 0.15, 0.25, 0.30, 0.20),
        art_means=(0.80, 0.07, 0.07, 0.06),
        wp10_means=(0.25, 0.30, 0.10, 0.10, 0.15, 0.10),
    ),
    "human-malign": BehaviorArchetype(
        name="human-malign", is_bot=False, edit_rate=2.0,
        review_length_log_mean=3.5, review_length_log_sigma=0.8,
        links_rate=6.0, repeated_link_fraction=0.6,
        chars_inserted_log_mean=3.0, chars_deleted_log_mean=4.0,
        revert_probability=0.30,
        damaging_mean=0.80, goodfaith_mean=0.20,
        item_means=(0.10, 0.15, 0.25, 0.30, 0.20),
        art_means=(0.20, 0.25, 0.30, 0.25),
        wp10_means=_SHARED_MIXED_WP10,
    ),
    "bot-benign": BehaviorArchetype(
        name="bot-benign", is_bot=True, edit_rate=50.0,
        review_length_log_mean=3.0, review_length_log_sigma=0.3,
        links_rate=1.0, repeated_link_fraction=0.1,
        chars_inserted_log_mean=2.5, chars_deleted_log_mean=2.5,
        revert_probability=0.02,
        damaging_mean=0.10, goodfaith_mean=0.90,
        item_means=(0.01, 0.01, 0.01, 0.03, 0.94),
        art_means=(0.80, 0.07, 0.07, 0.06),
        wp10_means=_SHARED_MIXED_WP10,
    ),
    "bot-malign": BehaviorArchetype(
        name="bot-malign", is_bot=True, edit_rate=50.0,
        review_length_log_mean=3.0, review_length_log_sigma=0.3,
        links_rate=8.0, repeated_link_fraction=0.8,
        chars_inserted_log_mean=2.0, chars_deleted_log_mean=3.5,
        revert_probability=0.40,
        damaging_mean=0.80, goodfaith_mean=0.20,
        item_means=(0.01, 0.01, 0.01, 0.03, 0.94),
        art_means=(0.20, 0.25, 0.30, 0.25),
        wp10_means=(0.05, 0.05, 0.03, 0.02, 0.10, 0.75),
    ),
}


@dataclass(frozen=True)
class SimConfig:
    """Simulation plan: population sizes, span, seed, noise level."""

    counts: dict                      # archetype name -> contributor count
    n_days: int = 30
    seed: int = 0
    noise: float = 0.0
    target_events: int = 0            # 0 = draw Poisson counts per contributor
    archetypes: dict = field(default_factory=lambda: dict(DEFAULT_ARCHETYPES))

    def __post_init__(self):
        for name, count in self.counts.items():
            if name not in ARCHETYPE_NAMES:
                raise ValidationError(f"unknown archetype {name!r}",
                                      field="counts")
            if count < 0:
                raise ValidationError(f"count {count} of {name} is below 0",
                                      field="counts")
        population = sum(self.counts.values())
        if population == 0:
            raise ValidationError("zero total population", field="counts")
        if self.n_days < 1:
            raise ValidationError(f"span of {self.n_days} days is below one "
                                  "day", field="days")
        if self.n_days > MAX_DAYS:
            raise ValidationError(f"span of {self.n_days} days ends past "
                                  f"{date.max}: at most {MAX_DAYS}",
                                  field="days")
        if type(self.seed) is not int or self.seed < 0:
            raise ValidationError(
                f"seed {self.seed!r} is not a non-negative integer",
                field="seed")
        if not 0.0 <= self.noise <= 1.0:
            raise ValidationError(f"noise {self.noise!r} is not in [0, 1]",
                                  field="noise")
        if self.target_events < 0 or 0 < self.target_events < population:
            raise ValidationError(
                f"event count {self.target_events} must be 0 or at least "
                f"the population of {population}", field="events")
        for name in ARCHETYPE_NAMES:
            if self.counts.get(name, 0) == 0:
                continue
            rate = self.archetypes[name].edit_rate
            if not (math.isfinite(rate) and rate > 0.0):
                raise ValidationError(
                    f"edit rate {rate!r} is not finite and > 0",
                    field=f"archetypes.{name}.edit_rate")
        for name, archetype in _noisy_archetypes(self).items():
            _check_score_means(name, archetype)


def _blend(mean, toward, noise):
    return (1.0 - noise) * mean + noise * toward


def _blend_simplex(means, noise):
    k = len(means)
    blended = tuple(_blend(m, 1.0 / k, noise) for m in means)
    # added left to right: since Python 3.12 the builtin sum of floats
    # is compensated, which would change the stream
    total = reduce(add, blended, 0.0)
    # means that blend to a zero total are no distribution
    return tuple(m / total if total else math.nan for m in blended)


def _noisy_archetype(archetype, noise, pooled_log_rate):
    """Pull an archetype's parameters toward the population average."""
    if noise == 0.0:
        return archetype
    rate = float(np.exp(_blend(np.log(archetype.edit_rate),
                               pooled_log_rate, noise)))
    return replace(
        archetype,
        edit_rate=rate,
        revert_probability=_blend(archetype.revert_probability, 0.15, noise),
        damaging_mean=_blend(archetype.damaging_mean, 0.5, noise),
        goodfaith_mean=_blend(archetype.goodfaith_mean, 0.5, noise),
        item_means=_blend_simplex(archetype.item_means, noise),
        art_means=_blend_simplex(archetype.art_means, noise),
        wp10_means=_blend_simplex(archetype.wp10_means, noise),
    )


def _gamma_shapes(archetype):
    """The 19 gamma shapes of an event's scores, in PROB_COLUMNS order:
    each Beta mean m as the pair (m, 1 - m), then the item, art and wp10
    Dirichlet means, all times CONCENTRATION."""
    return np.array([archetype.damaging_mean, 1.0 - archetype.damaging_mean,
                     archetype.goodfaith_mean, 1.0 - archetype.goodfaith_mean,
                     *archetype.item_means, *archetype.art_means,
                     *archetype.wp10_means]) * CONCENTRATION


def _check_score_means(name, archetype):
    """Reject the score means of a noise-blended archetype that numpy
    would not draw as ``_scores`` normalises them: a Beta mean outside
    (0, 1), or a Dirichlet group of the wrong size, with an α that is not
    finite and >= 0, or whose largest α is below MIN_LARGEST_ALPHA."""
    for field in ("damaging_mean", "goodfaith_mean"):
        mean = getattr(archetype, field)
        if not 0.0 < mean < 1.0:
            raise ValidationError(f"mean {mean!r} is not inside (0, 1)",
                                  field=f"archetypes.{name}.{field}")
    for field, group in zip(("item_means", "art_means", "wp10_means"),
                            PROBABILITY_GROUPS[2:]):
        alpha = np.array(getattr(archetype, field), dtype=float) \
            * CONCENTRATION
        if len(alpha) != len(group) or not (
                np.isfinite(alpha).all() and alpha.min() >= 0.0
                and alpha.max() >= MIN_LARGEST_ALPHA):
            raise ValidationError(
                f"Dirichlet alpha {alpha.tolist()} must be {len(group)} "
                f"finite values >= 0, the largest >= {MIN_LARGEST_ALPHA}",
                field=f"archetypes.{name}.{field}")


def _scores(gammas):
    """The (events, 19) scores, in PROB_COLUMNS order, of each event's
    row of gammas drawn with ``_gamma_shapes``, as numpy's Generator
    turns gammas into draws: a Beta pair is Ga / (Ga + Gb) and 1 minus
    that; a Dirichlet group is each gamma times 1 / the group's sum (for
    a largest α >= MIN_LARGEST_ALPHA). Each Dirichlet group is then
    divided by its own sum once more. Every sum adds left to right
    (``probability_group_sums``), as numpy does for these group sizes."""
    sums = probability_group_sums(gammas)
    scores = gammas * np.repeat(1.0 / sums, _GROUP_WIDTHS, axis=1)
    scores /= np.repeat(probability_group_sums(scores), _GROUP_WIDTHS, axis=1)
    beta = gammas[:, [0, 2]] / sums[:, :2]
    scores[:, [0, 2]] = beta
    scores[:, [1, 3]] = 1.0 - beta
    return scores


def _draw_events(archetype, n_events, rng, counts, gammas, pages, reverted):
    """Draw a contributor's ``n_events`` events, one after another, onto
    the ends of the columns: five raw counts (unrounded review length,
    links, repeated links, unrounded characters inserted and deleted)
    onto ``counts``, the 19 score gammas onto ``gammas``, a page number
    onto ``pages`` and a reverted flag onto ``reverted``. The order of
    the draws fixes the generated stream."""
    lognormal, poisson, binomial = rng.lognormal, rng.poisson, rng.binomial
    gamma, integers, random = rng.standard_gamma, rng.integers, rng.random
    alpha = _gamma_shapes(archetype)
    for _ in range(n_events):
        length = lognormal(archetype.review_length_log_mean,
                           archetype.review_length_log_sigma)
        links = poisson(archetype.links_rate)
        counts += (length, links,
                   binomial(links, archetype.repeated_link_fraction))
        gammas.append(gamma(alpha))
        pages.append(integers(N_PAGES))
        counts += (lognormal(archetype.chars_inserted_log_mean, 0.7),
                   lognormal(archetype.chars_deleted_log_mean, 0.7))
        reverted.append(random() < archetype.revert_probability)


def _noisy_archetypes(config):
    """The noise-blended archetype, the parameters the draws use, of each
    archetype with contributors, by name in ARCHETYPE_NAMES order."""
    names = [n for n in ARCHETYPE_NAMES if config.counts.get(n, 0) > 0]
    pooled_log_rate = float(np.mean([np.log(config.archetypes[n].edit_rate)
                                     for n in names]))
    return {n: _noisy_archetype(config.archetypes[n], config.noise,
                                pooled_log_rate) for n in names}


def _event_table(contributor_ids, is_bot, pages, day_offsets, reverted,
                 values):
    """The events of the given columns, in draw order (``pages`` as page
    numbers, ``day_offsets`` as an array of days after START_DAY), as an
    EventTable sorted by day, then by contributor id as text (c100000
    comes before c99999), events equal in both in draw order. Raises
    ValidationError for an event ``EventTable.check`` rejects."""
    id_codes, ids = coded(contributor_ids)
    offsets, day_codes = np.unique(day_offsets, return_inverse=True)
    order = np.lexsort((id_codes, day_codes))
    table = EventTable(id_codes[order], ids, np.array(is_bot)[order],
                       np.array(pages)[order], _PAGE_IDS, day_codes[order],
                       [START_DAY + timedelta(days=d)
                        for d in offsets.tolist()],
                       np.array(reverted)[order], values[order])
    table.check()
    return table


def simulate(config):
    """Generate a labelled event stream.

    Returns (an EventTable sorted by day then contributor id, labels
    mapping contributor id -> archetype name). Deterministic given the
    seed.
    """
    archetypes, labels = [], {}
    for name, archetype in _noisy_archetypes(config).items():
        for _ in range(config.counts[name]):
            labels[f"c{len(labels):05d}"] = name
            archetypes.append(archetype)

    if config.target_events:
        # in proportion to the archetype rates, at least one event each
        allocation = largest_remainder([a.edit_rate for a in archetypes],
                                       config.target_events, 1)
    else:
        allocation = [
            max(1, int(np.random.default_rng(
                [config.seed, 7919, i]).poisson(a.edit_rate * config.n_days)))
            for i, a in enumerate(archetypes)
        ]

    ids, bots, days, counts, gammas, pages, reverted = [], [], [], [], [], [], []
    for i, (cid, archetype) in enumerate(zip(labels, archetypes)):
        n_events = allocation[i]
        rng = np.random.default_rng([config.seed, i])
        ids += [cid] * n_events
        bots += [archetype.is_bot] * n_events
        days.append(np.sort(rng.integers(0, config.n_days, size=n_events)))
        _draw_events(archetype, n_events, rng, counts, gammas, pages,
                     reverted)

    counts = np.array(counts).reshape(-1, _N_COUNTS)
    # rint rounds half to even as round(v, 0) does; fmax, as max(1.0, v)
    # does, keeps a NaN draw's length 1
    values = np.concatenate([np.fmax(1.0, np.rint(counts[:, :1])),
                             counts[:, 1:3], np.rint(counts[:, 3:]),
                             _scores(np.array(gammas))], axis=1)
    return _event_table(ids, bots, pages, np.concatenate(days), reverted,
                        values), labels


def write_events(events, path):
    """Write events, an EventTable or a list of EditEvents, in the event
    schema: JSON lines when the suffix is ``.jsonl``, CSV otherwise."""
    table = EventTable.of(events)
    write_table([(table.id_codes, table.ids), table.bot_flags.astype(int),
                 (table.page_codes, table.pages),
                 (table.day_codes, [day.isoformat() for day in table.dates]),
                 table.values[:, :_N_COUNTS], table.reverted_flags.astype(int),
                 table.values[:, _N_COUNTS:]], EVENT_COLUMNS, path)


def write_labels(labels, path):
    write_rows(((contributor_id, labels[contributor_id])
                for contributor_id in sorted(labels)),
               ("contributor_id", "archetype"), path)


def write_simulation(config, out_dir):
    """Run a simulation and persist events.csv + labels.csv."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    events, labels = simulate(config)
    write_events(events, out_dir / "events.csv")
    write_labels(labels, out_dir / "labels.csv")
    return out_dir / "events.csv", out_dir / "labels.csv"
