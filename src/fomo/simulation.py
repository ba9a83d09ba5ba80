"""Shuffle-and-scan experiments over a corpus.

Scanning a corpus in some order, each document either repeats topics
already seen or contributes new ones; the completion position is where
the last unseen topic finally appears. :func:`scan_accession` traces
that coverage curve for the corpus's own order. :func:`run_shuffles`
repeats the scan under many random document orders, each order standing
in for a different case history, and summarizes the completion
positions as a histogram, nearest-rank percentiles, and the recall
level each percentile corresponds to.

Determinism contract: trial i permutes with the Fisher-Yates shuffle
driven by the SplitMix64 stream keyed by (master_seed, i), so its result
depends only on the seed and i; :func:`run_trials` derives every trial's
key in one array call. A shuffle hands its positions to the scan as
arrays of at most :data:`~fomo.prng.CHUNK` documents, front to back, and
is abandoned after the array holding the completion position; the
emitted prefix is identical to what a full shuffle would have produced.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .collector import completion_quantile, expected_draws_unequal_sum
from .corpus import Corpus
from .prng import derive_key_array, fisher_yates

__all__ = [
    "CoverageCurve",
    "TrialResult",
    "HistogramBin",
    "SimulationSummary",
    "AnalyticComparison",
    "scan_accession",
    "shuffle_trial",
    "run_trials",
    "run_shuffles",
    "summarize",
    "completion_topics",
    "completion_vs_analytic",
    "summary_from_json",
]

SUMMARY_FORMAT = "fomo-summary"
SUMMARY_VERSION = 1

DEFAULT_QUANTILES = (0.10, 0.20, 0.50, 0.95)
DEFAULT_BIN_COUNT = 20
# The histogram's bin limit, the same order as the Monte Carlo collector's
# 1/p <= 10**6 cap; checked before any trial runs.
MAX_BIN_COUNT = 10**6


@dataclass(frozen=True)
class CoverageCurve:
    """Distinct topics seen versus documents scanned, in a fixed order.

    ``points`` records (documents_scanned, distinct_topics_seen) at each
    position where the count increased; the final point reaches every
    topic that occurs in the corpus.
    """

    points: tuple[tuple[int, int], ...]
    total_documents: int
    total_topics_present: int


@dataclass(frozen=True)
class TrialResult:
    """Outcome of scanning one random document order.

    ``first_seen`` maps each topic that occurs in the corpus to the
    1-based position where it first appeared; ``completion_position`` is
    the maximum of those. Topics that occur nowhere are a fact of the
    corpus, not of a trial: see :attr:`~fomo.corpus.Corpus.absent_topics`.
    """

    completion_position: int
    first_seen: Mapping[int, int]


@dataclass(frozen=True)
class HistogramBin:
    lower: float
    upper: float
    count: int


@dataclass(frozen=True)
class SimulationSummary:
    """Aggregate of many shuffle trials.

    ``percentiles[q]`` is the nearest-rank q-quantile of the completion
    positions; ``recall_at[q]`` divides it by the corpus size: the share
    of documents a review would need before all topics are covered in a
    fraction q of cases.
    """

    trial_count: int
    seed: int
    histogram: tuple[HistogramBin, ...]
    percentiles: dict[float, int]
    min_completion: int
    max_completion: int
    mean_completion: float
    recall_at: dict[float, float]

    def to_json(self) -> str:
        """Canonical single-line JSON; byte-identical for identical runs."""
        payload = {
            "format": SUMMARY_FORMAT,
            "version": SUMMARY_VERSION,
            "trial_count": self.trial_count,
            "seed": self.seed,
            "min_completion": self.min_completion,
            "max_completion": self.max_completion,
            "mean_completion": self.mean_completion,
            "percentiles": {repr(q): v for q, v in self.percentiles.items()},
            "recall_at": {repr(q): v for q, v in self.recall_at.items()},
            "histogram": [
                {"lower": b.lower, "upper": b.upper, "count": b.count}
                for b in self.histogram
            ],
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _float_sized_int(digits: str) -> int:
    value = int(digits)
    if abs(value) > sys.float_info.max:
        raise ValueError(f"an integer of {len(digits.lstrip('-'))} digits is beyond float range")
    return value


def read_json(text: str):
    """The value of a JSON input file. Nesting too deep to parse, and an
    integer no float can hold, raise ValueError like any other bad input."""
    try:
        return json.loads(text, parse_int=_float_sized_int)
    except RecursionError:
        raise ValueError("invalid JSON (nested too deeply)") from None


def summary_from_json(text: str) -> SimulationSummary:
    """Parse a summary produced by :meth:`SimulationSummary.to_json`;
    anything else raises ValueError."""
    payload = read_json(text)
    if not isinstance(payload, dict) or payload.get("format") != SUMMARY_FORMAT:
        raise ValueError(f"not a {SUMMARY_FORMAT} document")
    if payload.get("version") != SUMMARY_VERSION:
        raise ValueError(f"unsupported summary version {payload.get('version')!r}")
    try:
        summary = SimulationSummary(
            trial_count=payload["trial_count"],
            seed=payload["seed"],
            histogram=tuple(
                HistogramBin(b["lower"], b["upper"], b["count"])
                for b in payload["histogram"]
            ),
            percentiles={float(q): v for q, v in payload["percentiles"].items()},
            min_completion=payload["min_completion"],
            max_completion=payload["max_completion"],
            mean_completion=payload["mean_completion"],
            recall_at={float(q): v for q, v in payload["recall_at"].items()},
        )
    except KeyError as exc:
        raise ValueError(f"summary lacks field {exc}") from None
    except (AttributeError, TypeError):
        raise ValueError("summary fields have the wrong JSON types") from None
    positions = [summary.min_completion, summary.mean_completion, *summary.percentiles.values()]
    numbers = [summary.trial_count, summary.seed, summary.max_completion, *positions]
    numbers += summary.recall_at.values()
    numbers += [x for b in summary.histogram for x in (b.lower, b.upper, b.count)]
    if (
        not all(type(v) in (int, float) and math.isfinite(v) for v in numbers)
        or min(positions) < 1
        or summary.trial_count < 1
    ):
        raise ValueError(
            "summary values must be finite numbers, completion positions and trial_count >= 1"
        )
    return summary


@dataclass(frozen=True)
class AnalyticComparison:
    """Simulated completion versus the independent-sightings model.

    The analytic side feeds the corpus's observed prevalences to the
    collector's scan approximations; the empirical side comes from the
    shuffles. Scanning without replacement finds things slightly sooner,
    so the analytic figures sit at or above the empirical ones, and the
    gap shrinks as completion becomes small next to the corpus.
    """

    corpus_documents: int
    topics_present: int
    empirical_median: int
    analytic_median: int
    median_relative_difference: float
    empirical_mean: float
    analytic_mean: float
    mean_relative_difference: float


def _first_sightings(corpus: Corpus, chunks: Iterable[np.ndarray]) -> dict[int, int]:
    """Scan documents by index, ``chunks`` being arrays of indices in scan
    order; map each topic to the 1-based position where it first
    appeared, in order of appearance (by position, then by topic id).
    Stops after the array in which every topic present has been seen.

    Each array is searched at once over the CSR rows; ``seen`` is indexed
    by topic id.
    """
    indptr, indices = corpus.indptr, corpus.indices
    seen = np.zeros(corpus.topic_count, dtype=bool)
    needed = len(corpus.topics_present)
    first_seen: dict[int, int] = {}
    scanned = 0
    for docs in chunks:
        starts = indptr[docs]
        lengths = indptr[docs + 1] - starts
        row_ends = np.cumsum(lengths)
        # Positions in ``indices`` of the chunk's topics, document by document.
        flat = np.arange(row_ends[-1]) + np.repeat(starts - row_ends + lengths, lengths)
        topics = indices[flat]
        unseen = np.flatnonzero(~seen[topics])
        if unseen.size:
            found, first = np.unique(topics[unseen], return_index=True)
            seen[found] = True
            hits = unseen[first]
            appearance = np.argsort(hits)
            rows = np.searchsorted(row_ends, hits[appearance], side="right")
            first_seen.update(zip(found[appearance].tolist(), (scanned + rows + 1).tolist()))
            if len(first_seen) == needed:
                break
        scanned += docs.size
    return first_seen


def scan_accession(corpus: Corpus) -> CoverageCurve:
    """Coverage curve for the corpus's own document order."""
    first = np.unique(corpus.indices, return_index=True)[1]  # each topic's first entry
    documents = np.searchsorted(corpus.indptr, first, side="right")  # 1-based
    positions, new_topics = np.unique(documents, return_counts=True)
    return CoverageCurve(
        points=tuple(zip(positions.tolist(), np.cumsum(new_topics).tolist())),
        total_documents=len(corpus),
        total_topics_present=first.size,
    )


def shuffle_trial(corpus: Corpus, trial_seed: int) -> TrialResult:
    """Scan the corpus in the uniformly random :func:`~fomo.prng.fisher_yates`
    order keyed by ``trial_seed``, drawn a chunk at a time and abandoned
    once every topic present has been seen."""
    first_seen = _first_sightings(corpus, fisher_yates(len(corpus), trial_seed))
    return TrialResult(completion_position=max(first_seen.values()), first_seen=first_seen)


def completion_topics(result: TrialResult) -> tuple[int, ...]:
    """Topics first sighted exactly at the completion position (the ones
    that kept the scan going; usually a single rare topic)."""
    return tuple(
        sorted(
            t
            for t, pos in result.first_seen.items()
            if pos == result.completion_position
        )
    )


def run_trials(
    corpus: Corpus, trial_count: int, master_seed: int
) -> tuple[TrialResult, ...]:
    """Run independent shuffle trials; trial i is keyed by (master_seed, i)."""
    if trial_count < 1:
        raise ValueError(f"trial_count must be >= 1, got {trial_count}")
    keys = derive_key_array(master_seed, np.arange(trial_count)).tolist()
    return tuple(shuffle_trial(corpus, key) for key in keys)


def _nearest_rank(sorted_values: Sequence[int], q: float) -> int:
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def _equal_width_histogram(
    completions: Sequence[int], bin_count: int
) -> tuple[HistogramBin, ...]:
    lo = float(min(completions))
    hi = float(max(completions))
    width = (hi - lo) / bin_count
    counts = [0] * bin_count
    for value in completions:
        if width == 0.0:
            index = 0
        else:
            index = min(int((value - lo) / width), bin_count - 1)
        counts[index] += 1
    return tuple(
        HistogramBin(lower=lo + k * width, upper=lo + (k + 1) * width, count=counts[k])
        for k in range(bin_count)
    )


def _checked_quantiles(quantiles: Sequence[float], bin_count: int) -> tuple[float, ...]:
    quantiles = tuple(quantiles)
    if not quantiles:
        raise ValueError("need at least one quantile")
    for q in quantiles:
        if not 0.0 < q < 1.0:
            raise ValueError(f"quantiles must be in (0, 1), got {q}")
    if not 1 <= bin_count <= MAX_BIN_COUNT:
        raise ValueError(f"bin_count must be in 1..{MAX_BIN_COUNT}, got {bin_count}")
    return quantiles


def summarize(
    results: Sequence[TrialResult],
    n_docs: int,
    master_seed: int,
    quantiles: Sequence[float] = DEFAULT_QUANTILES,
    bin_count: int = DEFAULT_BIN_COUNT,
) -> SimulationSummary:
    """Summarize trials run over a corpus of ``n_docs`` documents.

    Builds an equal-width histogram of the completion positions over
    [min, max], nearest-rank percentiles for the requested quantiles,
    and the corresponding recall fractions.
    """
    quantiles = _checked_quantiles(quantiles, bin_count)
    completions = sorted(r.completion_position for r in results)
    percentiles = {q: _nearest_rank(completions, q) for q in quantiles}
    return SimulationSummary(
        trial_count=len(results),
        seed=master_seed,
        histogram=_equal_width_histogram(completions, bin_count),
        percentiles=percentiles,
        min_completion=completions[0],
        max_completion=completions[-1],
        mean_completion=sum(completions) / len(results),
        recall_at={q: percentiles[q] / n_docs for q in quantiles},
    )


def run_shuffles(
    corpus: Corpus,
    trial_count: int,
    master_seed: int,
    quantiles: Sequence[float] = DEFAULT_QUANTILES,
    bin_count: int = DEFAULT_BIN_COUNT,
) -> SimulationSummary:
    """Shuffle, scan, and :func:`summarize`; bad quantiles or bin counts
    fail before any trial runs."""
    quantiles = _checked_quantiles(quantiles, bin_count)
    results = run_trials(corpus, trial_count, master_seed)
    return summarize(results, len(corpus), master_seed, quantiles, bin_count)


def completion_vs_analytic(
    corpus: Corpus, summary: SimulationSummary
) -> AnalyticComparison:
    """Put simulated completion next to the independent-sightings model.

    Requires the summary to carry the 0.5 quantile (the default set
    does). The analytic median inverts the with-replacement coverage
    product at the corpus's observed prevalences; the analytic mean is
    the collector expectation for the same prevalence vector.
    """
    if 0.5 not in summary.percentiles:
        raise ValueError("summary must include the 0.5 quantile for comparison")
    prevalences = corpus.empirical_prevalences().values()  # in topic order
    analytic_median = completion_quantile(prevalences, 0.5)
    analytic_mean = expected_draws_unequal_sum(prevalences)
    empirical_median = summary.percentiles[0.5]
    empirical_mean = summary.mean_completion
    return AnalyticComparison(
        corpus_documents=len(corpus),
        topics_present=len(corpus.topics_present),
        empirical_median=empirical_median,
        analytic_median=analytic_median,
        median_relative_difference=abs(analytic_median - empirical_median)
        / empirical_median,
        empirical_mean=empirical_mean,
        analytic_mean=analytic_mean,
        mean_relative_difference=abs(analytic_mean - empirical_mean) / empirical_mean,
    )
