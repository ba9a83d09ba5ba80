"""Closed-form analysis of what an incomplete search may have missed.

The model: a search identified N relevant documents at recall R, so about
M = floor(N * (1-R) / R) relevant documents were missed. A topic never
sighted in the N identified documents can, at confidence C, have
prevalence at most p = 1 - (1-C)**(1/N) (the zero-sighting binomial
bound). The chance that such a maximally-sneaky topic shows up somewhere
in the missed set is 1 - (1-p)**M, and weighting by the confidence
complement gives the headline number: the probability that a genuinely
novel topic is waiting in the missed documents,

    fomo = (1 - C) * (1 - (1-C)**(M/N)).

All functions here are pure; a scenario table is just a map over rows.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .prng import check_probabilities

__all__ = [
    "RecallScenario",
    "FomoRow",
    "first_discovery_pmf",
    "prevalence_upper_bound",
    "missed_set_size",
    "novel_topic_prob_in_missed",
    "fomo_confidence",
    "fomo_table",
    "format_percent",
    "MAX_TABLE_ROWS",
]

# Recall values arrive as floats but mean exact decimals (0.7 means 7/10,
# not the nearest binary double). Recovering the intended rational keeps
# floor(N*(1-R)/R) exact: naive float arithmetic turns 50000*(1-0.8)/0.8
# into 12499.999... and floors to the wrong integer.
_RECALL_DENOMINATOR_LIMIT = 10**9

# The most scenarios a table holds; ten times the largest grid in use. It
# bounds the scenario and FomoRow lists, about 31 MiB traced at 99,856
# rows; the CLI writes the report's CSV lines one at a time.
MAX_TABLE_ROWS = 10**5


@dataclass(frozen=True)
class RecallScenario:
    """One search outcome: documents identified, at what recall, judged at
    what confidence level."""

    produced_count: int
    recall: float
    confidence: float

    def __post_init__(self) -> None:
        if self.produced_count < 1:
            raise ValueError(f"produced_count must be >= 1, got {self.produced_count}")
        if self.produced_count > sys.float_info.max:
            raise ValueError(f"produced_count must be at most {sys.float_info.max!r}")
        if not 0.0 < self.recall <= 1.0:
            raise ValueError(f"recall must be in (0, 1], got {self.recall}")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError(f"confidence must be in (0, 1), got {self.confidence}")


@dataclass(frozen=True)
class FomoRow:
    """A fully evaluated scenario.

    ``fomo_confidence`` is the probability that the missed set contains a
    topic never seen among the identified documents. It can never exceed
    ``1 - scenario.confidence``: the bound already concedes that much.
    """

    scenario: RecallScenario
    prevalence_bound: float
    missed_count: int
    prob_in_missed: float
    fomo_confidence: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.prob_in_missed <= 1.0:
            raise ValueError(f"prob_in_missed out of [0, 1]: {self.prob_in_missed}")
        alpha = 1.0 - self.scenario.confidence
        if self.fomo_confidence > alpha * (1.0 + 1e-12):
            raise ValueError(
                f"fomo_confidence {self.fomo_confidence} exceeds 1 - confidence {alpha}"
            )


def first_discovery_pmf(prevalence: float, k: int) -> float:
    """Probability that a topic is first sighted in exactly the k-th document.

    Geometric law: miss it k-1 times, then hit it once,
    ``(1 - prevalence)**(k-1) * prevalence``.
    """
    check_probabilities((prevalence,), "prevalence")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return (1.0 - prevalence) ** (k - 1) * prevalence


def prevalence_upper_bound(n_identified: int, confidence: float) -> float:
    """Largest prevalence consistent with zero sightings in ``n_identified`` documents.

    Solves (1 - p)**n = 1 - confidence for p, i.e. p = 1 - (1-C)**(1/n),
    evaluated as -expm1(log(1-C)/n) so tiny bounds at large n keep full
    precision. This is the exact binomial solution, not the 3/n
    rule-of-three shortcut.
    """
    if n_identified < 1:
        raise ValueError(f"n_identified must be >= 1, got {n_identified}")
    if n_identified > sys.float_info.max:
        raise ValueError(f"n_identified must be at most {sys.float_info.max!r}")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    return -math.expm1(math.log1p(-confidence) / n_identified)


def missed_set_size(n_identified: int, recall: float) -> int:
    """Number of relevant documents the search missed: floor(N * (1-R) / R).

    ``recall`` is interpreted as the exact decimal it was written as
    (0.8 -> 4/5), so ratios that divide N exactly stay exact.
    """
    if n_identified < 1:
        raise ValueError(f"n_identified must be >= 1, got {n_identified}")
    if not 0.0 < recall <= 1.0:
        raise ValueError(f"recall must be in (0, 1], got {recall}")
    return _missed_count(n_identified, _recall_ratio(recall))


def _recall_ratio(recall: float) -> tuple[int, int]:
    """(a, b) with a/b the rational a recall in (0, 1] stands for: the
    nearest with b at most _RECALL_DENOMINATOR_LIMIT, or the float's exact
    value for a recall below 1/limit, which has no such nearest."""
    r = Fraction(recall).limit_denominator(_RECALL_DENOMINATOR_LIMIT)
    if r <= 0:
        r = Fraction(recall)
    return r.numerator, r.denominator


def _missed_count(n_identified: int, ratio: tuple[int, int]) -> int:
    """floor(N * (1-R) / R) for R = a/b, in integers: N * (b - a) // a."""
    a, b = ratio
    return n_identified * (b - a) // a


def novel_topic_prob_in_missed(prevalence: float, missed_count: int) -> float:
    """Probability that a topic of the given prevalence occurs at least once
    among ``missed_count`` documents: 1 - (1 - prevalence)**missed_count."""
    if not 0.0 <= prevalence <= 1.0:
        raise ValueError(f"prevalence must be in [0, 1], got {prevalence}")
    if missed_count < 0:
        raise ValueError(f"missed_count must be >= 0, got {missed_count}")
    if missed_count == 0:
        return 0.0
    if prevalence == 1.0:
        return 1.0
    # exp/log form: (1-p)**M underflows for tiny p and M in the millions.
    return -math.expm1(missed_count * math.log1p(-prevalence))


def fomo_confidence(scenario: RecallScenario) -> FomoRow:
    """Evaluate one scenario end to end.

    Algebraically the chain collapses to fomo = (1-C) * (1 - (1-C)**(M/N)),
    and the missed-set probability is evaluated through that identity
    rather than by chaining through the prevalence bound: it sidesteps
    the underflow of (1-p)**M for tiny bounds, and it makes scenarios
    with the same exact M/N ratio agree bit for bit, whatever N is. A
    recall so small that M/N leaves float range is refused with ValueError.
    """
    return _fomo_row(scenario, _recall_ratio(scenario.recall))


def _fomo_row(scenario: RecallScenario, recall_ratio: tuple[int, int]) -> FomoRow:
    """:func:`fomo_confidence`, given the scenario's recall as the rational
    ``recall_ratio`` that _recall_ratio makes of it."""
    bound = prevalence_upper_bound(scenario.produced_count, scenario.confidence)
    missed = _missed_count(scenario.produced_count, recall_ratio)
    alpha = 1.0 - scenario.confidence
    try:
        ratio = missed / scenario.produced_count
    except OverflowError:
        raise ValueError(
            f"missed / produced leaves float range: recall {scenario.recall!r} is too small"
        ) from None
    # 1 - C is exact from C = 0.5 up, so its log loses nothing; below, 1 - C
    # rounds (to 1.0 under about 1.1e-16) and log1p(-C) keeps the digits.
    confidence = scenario.confidence
    log_alpha = math.log(alpha) if confidence >= 0.5 else math.log1p(-confidence)
    prob = -math.expm1(ratio * log_alpha) if missed else 0.0
    return FomoRow(
        scenario=scenario,
        prevalence_bound=bound,
        missed_count=missed,
        prob_in_missed=prob,
        fomo_confidence=alpha * prob,
    )


def fomo_table(scenarios: Iterable[RecallScenario]) -> list[FomoRow]:
    """Evaluate scenarios in order. An empty input yields an empty table.

    Each distinct recall of the table is turned into its rational once.
    """
    ratios: dict[float, tuple[int, int]] = {}
    rows = []
    for scenario in scenarios:
        ratio = ratios.get(scenario.recall)
        if ratio is None:
            ratio = ratios[scenario.recall] = _recall_ratio(scenario.recall)
        rows.append(_fomo_row(scenario, ratio))
    return rows


def format_percent(fraction: float) -> str:
    """Render a fraction as a percentage with four significant digits,
    e.g. 0.026356 -> '2.636%'."""
    return f"{fraction * 100:.4g}%"
