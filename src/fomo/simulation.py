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
depends only on the seed and i, however :func:`_first_positions` batches
the trials in lockstep (:func:`_batch_plan`). It yields each batch's first
positions as one array; a :class:`TrialResult` is built from a row only
where a caller asks for one.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from functools import partial
from itertools import chain
from typing import Callable, Generator, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .collector import completion_quantile, expected_draws_unequal_sum
from .corpus import Corpus
from .prng import check_seed, check_trial_count, derive_key_array, stream_u64

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
# The bytes a batch of lockstep shuffle trials holds (see _batch_plan).
TRIAL_BATCH_BYTES = 2**23
# About how many swaps of a step fisher_yates may replay one at a time.
REPLAYS = 128
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

    Every rule of a summary is stated in ``__post_init__`` and holds however
    the summary is made; a broken rule raises ValueError.
    """

    trial_count: int
    seed: int
    histogram: tuple[HistogramBin, ...]
    percentiles: dict[float, int]
    min_completion: int
    max_completion: int
    mean_completion: float
    recall_at: dict[float, float]

    def __post_init__(self) -> None:
        counts = [b.count for b in self.histogram]
        inner = [self.mean_completion, *self.percentiles.values()]  # within min..max
        ints = [self.trial_count, self.seed, self.min_completion, self.max_completion, *counts]
        reals = [*self.recall_at.values(), *(x for b in self.histogram for x in (b.lower, b.upper))]
        finite = all(type(v) in (int, float) and abs(v) < math.inf for v in [*ints, *inner, *reals])
        if not finite or min(self.min_completion, *inner, self.trial_count) < 1:
            raise ValueError(
                "summary values must be finite numbers, completion positions and trial_count >= 1"
            )
        if not all(type(v) is int for v in [*ints, *self.percentiles.values()]):
            raise ValueError("summary counts, seed and completion positions must be integers")
        check_seed(self.seed)
        if not self.min_completion <= min(inner) <= max(inner) <= self.max_completion:
            raise ValueError("summary mean and percentiles must lie in min..max_completion")
        if not all(0 < r <= 1 for r in self.recall_at.values()):
            raise ValueError("summary recall_at values must be in (0, 1]")
        if self.percentiles.keys() != self.recall_at.keys():
            raise ValueError("summary percentiles and recall_at must have the same quantiles")
        _checked_quantiles(self.percentiles, len(self.histogram))
        if min(counts) < 0 or sum(counts) != self.trial_count:
            raise ValueError("summary histogram counts must be >= 0 and sum to trial_count")

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
    # A JSON integer of over 309 digits is beyond float range, and int()
    # refuses one of over 4,300 with advice meant for programmers.
    length = len(digits.lstrip("-"))
    if length > 309 or abs(value := int(digits)) > sys.float_info.max:
        raise ValueError(f"an integer of {length} digits is beyond float range")
    return value


def read_json(text: str):
    """The value of a JSON input file. Nesting too deep to parse, and an
    integer no float can hold, raise ValueError like any other bad input."""
    try:
        return json.loads(text, parse_int=_float_sized_int)
    except RecursionError:
        raise ValueError("invalid JSON (nested too deeply)") from None


def _quantile_key(key: str) -> float:
    # One spelling per quantile, the one to_json writes: "0.50" beside
    # "0.5" would fold two entries into one.
    if repr(q := float(key)) != key:
        raise ValueError(f"summary quantile key {key!r} must be written {repr(q)!r}")
    return q


def summary_from_json(text: str) -> SimulationSummary:
    """Parse a summary produced by :meth:`SimulationSummary.to_json`. A
    wrong format, field or JSON type, a quantile key spelled otherwise,
    or a broken summary rule, raises ValueError."""
    payload = read_json(text)
    if not isinstance(payload, dict) or payload.get("format") != SUMMARY_FORMAT:
        raise ValueError(f"not a {SUMMARY_FORMAT} document")
    if payload.get("version") != SUMMARY_VERSION:
        raise ValueError(f"unsupported summary version {payload.get('version')!r}")
    try:
        return SimulationSummary(
            trial_count=payload["trial_count"],
            seed=payload["seed"],
            histogram=tuple(
                HistogramBin(b["lower"], b["upper"], b["count"])
                for b in payload["histogram"]
            ),
            percentiles={_quantile_key(q): v for q, v in payload["percentiles"].items()},
            min_completion=payload["min_completion"],
            max_completion=payload["max_completion"],
            mean_completion=payload["mean_completion"],
            recall_at={_quantile_key(q): v for q, v in payload["recall_at"].items()},
        )
    except KeyError as exc:
        raise ValueError(f"summary lacks field {exc}") from None
    except (AttributeError, TypeError):
        raise ValueError("summary fields have the wrong JSON types") from None


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


def fisher_yates(
    n: int, keys: np.ndarray, limit: int
) -> Generator[tuple[np.ndarray, ...], np.ndarray | None, None]:
    """Uniform random permutations of ``range(n)``, one per key, drawn in
    lockstep and yielded front to back, a step fixing at most ``limit``
    positions in all (but at least one a row).

    Knuth's Algorithm P (TAOCP Vol. 2, 3.4.2) fixing positions from the
    front: position i swaps in ``j = i + u % (n - i)`` for the next draw
    ``u`` of the stream keyed by the row's key, where a draw at or above
    the largest multiple of ``n - i`` below 2**64 is rejected and the
    next one taken, so every ``j`` in [i, n) is exactly equally likely.

    Each step yields ``(rows, counts, picked, places)``: row ``rows[k]``
    (an index into ``keys``) fixed its next ``counts[k]`` positions, 0 to
    the step's width (see ``REPLAYS``), to the ``int32`` items that follow
    in ``picked``, the rows' runs joined in order, and ``places`` holds
    the 1-based position of each. Sending a boolean array aligned with
    ``rows`` stops the rows it marks; a row stopped early has yielded the
    prefix its full shuffle produces.

    A step reads each row's draws in one array call, with the rejection
    test on the whole run: a run ends at its first rejected draw, that
    counter is skipped and the next run starts at the same position,
    which consumes the stream exactly as drawing one position at a time
    does. The items sit in one (rows, n) array, and a step's swaps act on
    it at once at flat indices ``row * n + i``, each reading both items
    as they stood before the step; the few swaps that share an index
    with another swap of the step are then replayed one by one. Swaps
    sharing a target are found with no sort: each swap's number is
    stamped at its target, and a stamp read back as another's was lost.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    if not 0 <= n < 2**31:
        raise ValueError(f"fisher_yates shuffles fewer than 2**31 items, got {n}")
    items = np.empty((keys.size, n), dtype=np.int32)  # items and positions fit int32
    items[:] = np.arange(n, dtype=np.int32)
    items = items.ravel()  # row r's item now at position i is items[r * n + i], i >= its position
    rows = np.arange(keys.size if n else 0)
    position = np.zeros(rows.size, dtype=np.int64)
    counter = np.ones(rows.size, dtype=np.uint64)
    while rows.size:
        # The run spans at most the fewest positions any row has left, keeps
        # the step within limit, and is short enough that the swaps a step
        # replays, about rows * width**2 / left, stay near REPLAYS.
        left = n - int(position.max())
        width = max(1, min(left, limit // rows.size, math.isqrt(REPLAYS * left // rows.size)))
        columns = np.arange(width)
        positions = position[:, None] + columns
        remaining = n - positions
        draws = stream_u64(keys[rows, None], counter[:, None] + columns.astype(np.uint64))
        # A draw is rejected only at or above 2**64 - excess, with excess below
        # n - i <= n, so only the few draws at or above 2**64 - n need the test.
        suspects = np.flatnonzero(draws >= np.uint64(2**64 - n))
        accepted = np.full(rows.size, width)
        if suspects.size:
            row, column = np.divmod(suspects, width)
            excess = remaining.ravel()[suspects].astype(np.uint64)
            excess = (0 - excess) % excess  # 2**64 mod (n - i)
            rejected = (excess != 0) & (draws.ravel()[suspects] >= 0 - excess)
            np.minimum.at(accepted, row[rejected], column[rejected])
        targets = positions + (draws % remaining.view(np.uint64)).view(np.int64)
        # A swap whose target is a later position of its row's run.
        inside = (targets < (position + accepted)[:, None]) & (targets != positions)
        base = (rows * n)[:, None]
        places, sources = (positions + 1).ravel(), (positions + base).ravel()
        targets, inside = (targets + base).ravel(), inside.ravel()
        if suspects.size:
            run = (columns < accepted[:, None]).ravel()
            places, sources, targets, inside = places[run], sources[run], targets[run], inside[run]
        picked, carried = items[targets], items[sources]
        # Stamp each swap's index at its target: where swaps share a target
        # one stamp stays, so the swaps whose stamp was lost and the ones
        # that kept theirs over them are exactly the swaps sharing a target.
        swap = np.arange(targets.size, dtype=np.int32)
        items[targets] = swap
        kept = items[targets]
        lost = np.flatnonzero(kept != swap)
        items[targets] = carried
        # Replay in order the swaps with a target inside their row's run, the
        # swaps at the positions those name (the run's swaps are consecutive),
        # and the swaps sharing a target.
        inside = np.flatnonzero(inside)
        named = inside + (targets[inside] - sources[inside])
        replay = np.zeros(targets.size, dtype=bool)
        replay[np.concatenate([inside, named, lost, kept[lost]])] = True
        replay = np.flatnonzero(replay)
        at, to = targets[replay].tolist(), sources[replay].tolist()
        value = dict(zip(at, picked[replay].tolist()))  # items as they stood before the step
        value.update(zip(to, carried[replay].tolist()))
        fixed = []
        for j, i in zip(at, to):
            fixed.append(value[j])
            value[j] = value[i]
        picked[replay] = fixed
        items[list(value)] = list(value.values())
        stop = (yield rows, accepted, picked, places) if picked.size else None
        position += accepted
        counter += np.minimum(accepted + 1, width).astype(np.uint64)  # and the rejected draw, if any
        live = position < n
        if stop is not None:
            live &= ~stop
        rows, position, counter = rows[live], position[live], counter[live]


def _first_sightings(
    corpus: Corpus, steps: Generator[tuple[np.ndarray, ...], np.ndarray | None, None], trials: int
) -> np.ndarray:
    """Scan ``trials`` document orders in lockstep, ``steps`` yielding them
    as :func:`fisher_yates` does, and stop each once it has seen every topic present.

    Returns a (trials, topic_count) ``int32`` array: entry (b, t) is the
    1-based position where topic t first appeared in trial b, and 0 for a
    topic absent from the corpus. Each step's documents are searched at
    once over the CSR rows, and an entry still 0 marks a topic not yet seen.

    A document whose rarest topic is more common than every topic a trial
    has yet to see holds nothing new for it, so only documents within
    their trial's bound, the largest count among its unseen topics, are
    searched. The bound is recomputed where that costs no more than the
    step's scan; a stale bound is still an upper bound.
    """
    indptr, indices, topic_count = corpus.indptr, corpus.indices, corpus.topic_count
    topic_counts, rarest = corpus._topic_counts, corpus._rarest_counts
    needed = np.count_nonzero(topic_counts)
    first = np.zeros((trials, topic_count), dtype=np.int32)  # below n < 2**31 (fisher_yates)
    flat_first = first.reshape(-1)  # trial b's topic t at b * topic_count + t
    found = np.zeros(trials, dtype=np.int64)  # topics seen per trial
    bound = np.full(trials, topic_counts.max())  # >= the count of each topic a trial has not seen
    finished = None
    while True:
        try:
            rows, counts, docs, places = steps.send(finished)
        except StopIteration:
            break
        finished = None
        near = np.flatnonzero(rarest[docs] <= np.repeat(bound[rows], counts))
        if not near.size:
            continue
        docs = docs[near].astype(np.intp)  # once, for both gathers
        offsets = np.repeat(rows * topic_count, counts)[near]  # each document's trial's row
        starts = indptr[docs]
        lengths = indptr[1:][docs] - starts
        doc_ends = np.cumsum(lengths)
        # Positions in ``indices`` of the step's topics, document by document,
        # and each topic's place in ``flat_first``.
        flat = np.arange(doc_ends[-1]) + np.repeat(starts - doc_ends + lengths, lengths)
        keys = indices[flat] + np.repeat(offsets, lengths)
        unseen = np.flatnonzero(flat_first[keys] == 0)
        if unseen.size:
            new, earliest = np.unique(keys[unseen], return_index=True)
            expanded = np.searchsorted(doc_ends, unseen[earliest], side="right")
            flat_first[new] = places[near[expanded]]
            found += np.bincount(new // topic_count, minlength=trials)
            finished = found[rows] == needed
            if rows.size * topic_count <= places.size:
                bound[rows] = np.where(first[rows] == 0, topic_counts, 0).max(axis=1)
    return first


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


def _batch_plan(corpus: Corpus) -> tuple[int, int]:
    """Trials to run in lockstep and the most positions a step scans over
    them all, each within ``TRIAL_BATCH_BYTES``: a trial at 4 bytes a
    document (items) and 4 a topic id (first positions), a step at about 64
    bytes a position and 64 a topic id stored. At least one trial, and at
    most the step limit, so one position each fits a step."""
    n = len(corpus)
    step_limit = TRIAL_BATCH_BYTES * n // (64 * (n + corpus.indices.size))
    trials = TRIAL_BATCH_BYTES // (4 * (n + corpus.topic_count))
    return max(1, min(trials, step_limit)), step_limit


def _first_positions(corpus: Corpus, keys: np.ndarray) -> Iterator[np.ndarray]:
    """The (trials, topic_count) first positions of each lockstep batch
    (:func:`_batch_plan`) of the trials keyed by ``keys``, run when read."""
    size, step_limit = _batch_plan(corpus)
    for start in range(0, keys.size, size):
        batch = keys[start : start + size]
        yield _first_sightings(corpus, fisher_yates(len(corpus), batch, step_limit), batch.size)


def _trial_results(first: np.ndarray) -> Iterator[TrialResult]:
    """A batch's trials, built row by row; each ``first_seen`` lists its
    topics by position, then by topic id (a stable sort of ascending ids)."""
    present = np.flatnonzero(first[0])  # a trial sees every topic present, and no other
    for row in first:
        topics = present[np.argsort(row[present], kind="stable")]
        positions = row[topics]
        yield TrialResult(int(positions[-1]), dict(zip(topics.tolist(), positions.tolist())))


def shuffle_trial(corpus: Corpus, trial_seed: int) -> TrialResult:
    """Scan the corpus in the uniformly random :func:`fisher_yates`
    order keyed by ``trial_seed``, drawn a run at a time and abandoned once
    every topic present has been seen: a batch of one trial."""
    return next(_trial_results(next(_first_positions(corpus, np.uint64([trial_seed])))))


def completion_topics(result: TrialResult) -> tuple[int, ...]:
    """Topics first sighted exactly at the completion position (the ones
    that kept the scan going; usually a single rare topic)."""
    last = result.completion_position
    return tuple(sorted(t for t, pos in result.first_seen.items() if pos == last))


def run_trials(corpus: Corpus, trial_count: int, master_seed: int) -> Iterator[TrialResult]:
    """Independent shuffle trials, trial i keyed by (master_seed, i). The
    count and seed are checked, and the keys derived, at the call; the
    trials run in lockstep batches (:func:`_first_positions`), each when the
    returned iterator reaches its first trial."""
    check_trial_count(trial_count)
    keys = derive_key_array(master_seed, np.arange(trial_count))
    return chain.from_iterable(map(_trial_results, _first_positions(corpus, keys)))


def _equal_width_histogram(
    completions: Sequence[int] | np.ndarray, bin_count: int
) -> tuple[HistogramBin, ...]:
    completions = np.asarray(completions)
    lo, hi = float(completions.min()), float(completions.max())
    width = (hi - lo) / bin_count  # 0 when every value is equal: all go to bin 0
    index = completions - lo
    index /= width or 1.0
    np.minimum(index, bin_count - 1, out=index)
    counts = np.bincount(index.astype(np.intp), minlength=bin_count).tolist()
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
    if len(set(quantiles)) < len(quantiles):
        raise ValueError(f"each quantile may be asked once, got {list(quantiles)}")
    if not 1 <= bin_count <= MAX_BIN_COUNT:
        raise ValueError(f"bin_count must be in 1..{MAX_BIN_COUNT}, got {bin_count}")
    return quantiles


def _summary(
    read: Callable[[], np.ndarray], n_docs: int, seed: int, quantiles: Sequence[float], bins: int
) -> SimulationSummary:
    """The summary of the positions ``read()`` returns, called once the checks pass."""
    quantiles = _checked_quantiles(quantiles, bins)
    check_seed(seed)
    if n_docs < 1:
        raise ValueError(f"n_docs must be >= 1, got {n_docs}")
    completions = read()
    if not completions.size:
        raise ValueError("need at least one trial")
    completions.sort()
    percentiles = {q: int(completions[math.ceil(q * completions.size) - 1]) for q in quantiles}
    return SimulationSummary(
        trial_count=completions.size,
        seed=seed,
        histogram=_equal_width_histogram(completions, bins),
        percentiles=percentiles,
        min_completion=int(completions[0]),
        max_completion=int(completions[-1]),
        mean_completion=int(completions.sum()) / completions.size,
        recall_at={q: percentiles[q] / n_docs for q in quantiles},
    )


def summarize(
    results: Iterable[TrialResult],
    n_docs: int,
    master_seed: int,
    quantiles: Sequence[float] = DEFAULT_QUANTILES,
    bin_count: int = DEFAULT_BIN_COUNT,
) -> SimulationSummary:
    """Summarize trials run over a corpus of ``n_docs`` documents.

    Builds an equal-width histogram of the completion positions over
    [min, max], nearest-rank percentiles for the requested quantiles,
    and the corresponding recall fractions. Reads ``results`` once, after
    checking the options, the seed and ``n_docs``, and keeps only the
    completion positions, in one ``int64`` array.
    """
    read = partial(np.fromiter, (r.completion_position for r in results), np.int64)
    return _summary(read, n_docs, master_seed, quantiles, bin_count)


def run_shuffles(
    corpus: Corpus,
    trial_count: int,
    master_seed: int,
    quantiles: Sequence[float] = DEFAULT_QUANTILES,
    bin_count: int = DEFAULT_BIN_COUNT,
) -> SimulationSummary:
    """:func:`summarize` of :func:`run_trials`, read from each batch's row
    maxima with no :class:`TrialResult` built; bad options fail first."""
    check_trial_count(trial_count)
    keys = derive_key_array(master_seed, np.arange(trial_count))

    def completions() -> np.ndarray:  # map drops each batch before the next one runs
        maxima = map(lambda first: first.max(axis=1), _first_positions(corpus, keys))
        return np.concatenate(list(maxima), dtype=np.int64)

    return _summary(completions, len(corpus), master_seed, quantiles, bin_count)


def completion_vs_analytic(
    corpus: Corpus, summary: SimulationSummary
) -> AnalyticComparison:
    """Put simulated completion next to the independent-sightings model.

    Requires the summary to carry the 0.5 quantile (the default set
    does) and to be of this corpus, as :func:`summarize` makes it. The
    analytic median inverts the with-replacement coverage product at the
    corpus's observed prevalences; the analytic mean is the collector
    expectation for the same prevalence vector.
    """
    n = len(corpus)
    if 0.5 not in summary.percentiles:
        raise ValueError("summary must include the 0.5 quantile for comparison")
    if summary.max_completion > n:
        raise ValueError(f"summary max_completion {summary.max_completion} exceeds corpus size {n}")
    if summary.recall_at != {q: p / n for q, p in summary.percentiles.items()}:
        raise ValueError(f"summary recall_at must be its percentiles / corpus size {n}")
    # Corpus.empirical_prevalences() as one float array, in topic order: the
    # counts and n are exact as floats, so each quotient is the same.
    counts = corpus._topic_counts
    prevalences = counts[counts > 0] / n
    analytic_median = completion_quantile(prevalences, 0.5)
    analytic_mean = expected_draws_unequal_sum(prevalences)
    empirical_median = summary.percentiles[0.5]
    empirical_mean = summary.mean_completion
    return AnalyticComparison(
        corpus_documents=n,
        topics_present=prevalences.size,
        empirical_median=empirical_median,
        analytic_median=analytic_median,
        median_relative_difference=abs(analytic_median - empirical_median) / empirical_median,
        empirical_mean=empirical_mean,
        analytic_mean=analytic_mean,
        mean_relative_difference=abs(analytic_mean - empirical_mean) / empirical_mean,
    )
