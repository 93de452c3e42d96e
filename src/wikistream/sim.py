"""
Ground-truth contributor behaviour simulator.

Produces labelled edit-event streams in the ingestion schema for
end-to-end experiments. Four behaviour archetypes (human/bot crossed
with benign/malign) differ in edit rate, revert habits and quality
score distributions; a noise knob blends the archetypes' score
distributions toward indistinguishability (0 = fully separable).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from datetime import date, timedelta
from pathlib import Path

import numpy as np

from .ingest import EVENT_COLUMNS, EventTable, write_rows
from .model import EditEvent, ValidationError, event_counts, largest_remainder

ARCHETYPE_NAMES = ("human-benign", "human-malign", "bot-benign", "bot-malign")

# The calendar's first day and most days (ending on date.max), the page
# count, and every archetype's Beta and Dirichlet score concentration.
START_DAY = date(2020, 1, 1)
MAX_DAYS = (date.max - START_DAY).days + 1
N_PAGES = 200
CONCENTRATION = 40.0


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
        unknown = set(self.counts) - set(ARCHETYPE_NAMES)
        if unknown:
            raise ValidationError(f"unknown archetype(s) {sorted(unknown)}")
        if any(c < 0 for c in self.counts.values()):
            raise ValidationError("population counts must be >= 0")
        if sum(self.counts.values()) == 0:
            raise ValidationError("zero total population")
        if self.n_days < 1:
            raise ValidationError("span must be at least one day")
        if self.n_days > MAX_DAYS:
            raise ValidationError(f"span of {self.n_days} days ends past "
                                  f"{date.max}: at most {MAX_DAYS}",
                                  field="days")
        if type(self.seed) is not int or self.seed < 0:
            raise ValidationError(
                f"seed {self.seed!r} is not a non-negative integer",
                field="seed")
        if not 0.0 <= self.noise <= 1.0:
            raise ValidationError("noise must be in [0, 1]")
        population = sum(self.counts.values())
        if self.target_events < 0 or 0 < self.target_events < population:
            raise ValidationError(
                f"event count {self.target_events} must be 0 or at least "
                f"the population of {population}", field="events")


def _blend(mean, toward, noise):
    return (1.0 - noise) * mean + noise * toward


def _blend_simplex(means, noise):
    k = len(means)
    blended = tuple(_blend(m, 1.0 / k, noise) for m in means)
    total = sum(blended)
    return tuple(m / total for m in blended)


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


def _beta_pair(rng, mean, concentration):
    p = rng.beta(mean * concentration, (1.0 - mean) * concentration)
    return float(p), float(1.0 - p)


def _dirichlet(rng, alpha):
    draw = rng.dirichlet(alpha)
    return (draw / draw.sum()).tolist()


def _contributor_events(contributor_id, archetype, n_events, config, rng):
    days = rng.integers(0, config.n_days, size=n_events)
    item_alpha, art_alpha, wp10_alpha = (
        np.array(means) * CONCENTRATION
        for means in (archetype.item_means, archetype.art_means,
                      archetype.wp10_means))
    events = []
    # round(v, 0) rounds half to even as np.round does, and keeps a
    # non-finite draw a float for the event table's check to reject
    for day_offset in sorted(days.tolist()):
        length = max(1.0, round(rng.lognormal(
            archetype.review_length_log_mean,
            archetype.review_length_log_sigma), 0))
        links = float(rng.poisson(archetype.links_rate))
        repeated = float(rng.binomial(int(links),
                                      archetype.repeated_link_fraction))
        # in PROB_COLUMNS order, drawn before the page id: the order of
        # the draws fixes the generated stream
        probs = (
            *_beta_pair(rng, archetype.damaging_mean, CONCENTRATION),
            *_beta_pair(rng, archetype.goodfaith_mean, CONCENTRATION),
            *_dirichlet(rng, item_alpha),
            *_dirichlet(rng, art_alpha),
            *_dirichlet(rng, wp10_alpha),
        )
        events.append(EditEvent(
            contributor_id=contributor_id,
            is_bot=archetype.is_bot,
            page_id=f"p{rng.integers(N_PAGES):04d}",
            timestamp=START_DAY + timedelta(days=int(day_offset)),
            review_length=length,
            links=links,
            repeated_links=repeated,
            chars_inserted=round(rng.lognormal(
                archetype.chars_inserted_log_mean, 0.7), 0),
            chars_deleted=round(rng.lognormal(
                archetype.chars_deleted_log_mean, 0.7), 0),
            was_reverted=bool(rng.random() < archetype.revert_probability),
            probs=probs,
        ))
    return events


def simulate(config):
    """Generate a labelled event stream.

    Returns (events sorted by day then contributor, labels mapping
    contributor id -> archetype name). Deterministic given the seed.
    """
    plan = []  # (contributor_id, noisy archetype)
    log_rates = [np.log(config.archetypes[n].edit_rate)
                 for n in ARCHETYPE_NAMES if config.counts.get(n, 0) > 0]
    pooled_log_rate = float(np.mean(log_rates))
    index = 0
    labels = {}
    for name in ARCHETYPE_NAMES:
        archetype = _noisy_archetype(
            config.archetypes[name], config.noise, pooled_log_rate)
        for _ in range(config.counts.get(name, 0)):
            contributor_id = f"c{index:05d}"
            plan.append((contributor_id, archetype))
            labels[contributor_id] = name
            index += 1

    if config.target_events:
        # in proportion to the archetype rates, at least one event each
        allocation = largest_remainder([a.edit_rate for _, a in plan],
                                       config.target_events, 1)
    else:
        allocation = [
            max(1, int(np.random.default_rng(
                [config.seed, 7919, i]).poisson(a.edit_rate * config.n_days)))
            for i, (_, a) in enumerate(plan)
        ]

    events = []
    for i, (contributor_id, archetype) in enumerate(plan):
        rng = np.random.default_rng([config.seed, i])
        events.extend(_contributor_events(
            contributor_id, archetype, allocation[i], config, rng))
    events.sort(key=lambda e: (e.day, e.contributor_id))
    EventTable.from_events(events).check()
    return events, labels


def write_events(events, path):
    """Write events in the event schema: JSON lines when the suffix is
    ``.jsonl``, CSV otherwise."""
    write_rows(((e.contributor_id, int(e.is_bot), e.page_id,
                 e.timestamp.isoformat(), *event_counts(e),
                 int(e.was_reverted), *e.probs) for e in events),
               EVENT_COLUMNS, path)


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
