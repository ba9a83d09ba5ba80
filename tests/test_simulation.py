"""Shuffle engine: hand traces, permutation oracles, determinism."""

import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
from corpus_documents import Document, corpus_from_documents, documents_of
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from fomo.corpus import generate_corpus, zipf_prevalences
import fomo.simulation
from fomo.prng import CHUNK, derive_key, fisher_yates
from fomo.simulation import (
    HistogramBin,
    _equal_width_histogram,
    completion_topics,
    completion_vs_analytic,
    read_json,
    run_shuffles,
    run_trials,
    scan_accession,
    shuffle_trial,
    summarize,
    summary_from_json,
)


def corpus_from_topic_sets(topic_sets, topic_count=None):
    if topic_count is None:
        topic_count = max(t for topics in topic_sets for t in topics) + 1
    documents = tuple(
        Document(f"doc{i}", tuple(sorted(topics)))
        for i, topics in enumerate(topic_sets)
    )
    return corpus_from_documents(documents, topic_count)


def chunked(n):
    """range(n) as the scan reads it: arrays of CHUNK indices."""
    return np.split(np.arange(n), range(CHUNK, n, CHUNK))


def marked_singleton_corpus(n):
    """n documents of topic 0, one of which also carries rare topic 1."""
    sets = [{0}] * (n // 2) + [{0, 1}] + [{0}] * (n - n // 2 - 1)
    return corpus_from_topic_sets(sets, topic_count=2)


ACCESSION_TOPIC_SETS = st.lists(
    st.sets(st.integers(0, 5), min_size=1, max_size=3), min_size=1, max_size=30
)


def accession_oracle(corpus):
    """Reference: every document scanned, a point wherever the count grows."""
    seen = set()
    points = []
    for position, doc in enumerate(documents_of(corpus), start=1):
        before = len(seen)
        seen.update(doc.topics)
        if len(seen) > before:
            points.append((position, len(seen)))
    return tuple(points)


def first_sightings_oracle(corpus, order):
    """Reference scan: one document at a time, topics in ascending order,
    stopping once every topic present has been seen."""
    docs = documents_of(corpus)
    needed = len(corpus.topics_present)
    first_seen = {}
    for position, index in enumerate(order, start=1):
        for topic in docs[index].topics:
            if topic not in first_seen:
                first_seen[topic] = position
        if len(first_seen) == needed:
            break
    return first_seen


@st.composite
def common_and_rare_topic_sets(draw):
    """1 to 600 documents of common topics 0-2, a few of which also carry
    rare topics 3-40, so first sightings land anywhere in a long scan."""
    n = draw(st.integers(1, 600))
    rng = random.Random(draw(st.integers(0, 2**32)))
    sets = [set(rng.sample(range(3), rng.randint(1, 2))) for _ in range(n)]
    rare = st.tuples(st.integers(0, n - 1), st.sets(st.integers(3, 40), max_size=3))
    for position, topics in draw(st.lists(rare, max_size=8)):
        sets[position] = sets[position] | topics
    return sets


class TestFirstSightings:
    @given(common_and_rare_topic_sets(), st.integers(0, 2**64 - 1), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_matches_per_document_oracle(self, topic_sets, seed, shuffled):
        corpus = corpus_from_topic_sets(topic_sets, topic_count=41)
        n = len(corpus)
        chunks = list(fisher_yates(n, seed)) if shuffled else chunked(n)
        scanned = fomo.simulation._first_sightings(corpus, iter(chunks))
        expected = first_sightings_oracle(corpus, np.concatenate(chunks).tolist())
        assert list(scanned.items()) == list(expected.items())

    def test_rare_topic_past_several_chunks(self):
        sets = [{0}] * (3 * CHUNK + 5) + [{1, 2}, {0, 3}]
        corpus = corpus_from_topic_sets(sets, topic_count=5)
        scanned = fomo.simulation._first_sightings(corpus, chunked(len(corpus)))
        assert list(scanned.items()) == [
            (0, 1), (1, 3 * CHUNK + 6), (2, 3 * CHUNK + 6), (3, 3 * CHUNK + 7)
        ]


class TestScanAccession:
    def test_hand_traced_curve(self):
        corpus = corpus_from_topic_sets([{0}, {0}, {1}])
        curve = scan_accession(corpus)
        assert curve.points == ((1, 1), (3, 2))
        assert curve.total_documents == 3
        assert curve.total_topics_present == 2

    def test_generated_corpus_reaches_every_topic(self):
        dist = zipf_prevalences(12, 0.5, 0.02)
        corpus = generate_corpus(4000, dist, seed=2)
        curve = scan_accession(corpus)
        assert curve.points[-1][1] == len(corpus.topics_present)

    @given(ACCESSION_TOPIC_SETS)
    @settings(max_examples=100)
    def test_matches_full_scan_oracle(self, topic_sets):
        corpus = corpus_from_topic_sets(topic_sets, topic_count=6)
        assert scan_accession(corpus).points == accession_oracle(corpus)

    @given(ACCESSION_TOPIC_SETS)
    @settings(max_examples=100)
    def test_strictly_increasing_topic_counts(self, topic_sets):
        curve = scan_accession(corpus_from_topic_sets(topic_sets, topic_count=6))
        seen_counts = [seen for _, seen in curve.points]
        assert all(a < b for a, b in zip(seen_counts, seen_counts[1:]))
        assert curve.points[0][0] >= 1
        assert seen_counts[-1] == curve.total_topics_present


class TestShuffleTrial:
    def test_single_document(self):
        corpus = corpus_from_topic_sets([{0}])
        for seed in range(10):
            assert shuffle_trial(corpus, seed).completion_position == 1

    def test_lazy_prefix_equals_full_shuffle(self):
        corpus = corpus_from_topic_sets(
            [{i % 4} for i in range(37)] + [{4}], topic_count=5
        )
        for seed in (0, 1, 99, 12345):
            result = shuffle_trial(corpus, seed)
            order = np.concatenate(list(fisher_yates(len(corpus), seed))).tolist()
            docs = documents_of(corpus)
            first_seen = {}
            for position, doc_index in enumerate(order, start=1):
                for topic in docs[doc_index].topics:
                    first_seen.setdefault(topic, position)
            assert dict(result.first_seen) == first_seen
            assert result.completion_position == max(first_seen.values())

    @given(
        st.lists(
            st.sets(st.integers(0, 4), min_size=1, max_size=3),
            min_size=1,
            max_size=25,
        ),
        st.integers(0, 2**32),
    )
    @settings(max_examples=100)
    def test_completion_is_max_first_seen(self, topic_sets, seed):
        corpus = corpus_from_topic_sets(topic_sets, topic_count=5)
        result = shuffle_trial(corpus, seed)
        assert result.completion_position == max(result.first_seen.values())
        assert set(result.first_seen) == corpus.topics_present
        assert result.completion_position <= len(corpus)

    def test_marked_singleton_mean_position(self):
        # the unique carrier of topic 1 lands uniformly, so completion
        # averages (n+1)/2
        corpus = marked_singleton_corpus(10)
        trials = 20_000
        completions = [
            shuffle_trial(corpus, derive_key(77, i)).completion_position
            for i in range(trials)
        ]
        mean = sum(completions) / trials
        spread = math.sqrt(
            sum((c - mean) ** 2 for c in completions) / (trials - 1)
        )
        assert abs(mean - 5.5) <= 3 * spread / math.sqrt(trials)

    def test_marked_singleton_position_is_uniform(self):
        # chi-square goodness of fit at the 0.001 level
        corpus = marked_singleton_corpus(10)
        trials = 10_000
        counts = [0] * 10
        for i in range(trials):
            counts[shuffle_trial(corpus, derive_key(123, i)).completion_position - 1] += 1
        statistic = sum((c - trials / 10) ** 2 / (trials / 10) for c in counts)
        assert statistic < stats.chi2.ppf(0.999, df=9)

    def test_exhaustive_permutation_oracle(self):
        topic_sets = [{0}, {0}, {1}, {0}, {0, 1}, {0}]
        corpus = corpus_from_topic_sets(topic_sets, topic_count=2)
        total = 0
        count = 0
        for order in itertools.permutations(range(6)):
            seen = set()
            for position, doc_index in enumerate(order, start=1):
                seen |= set(topic_sets[doc_index])
                if len(seen) == 2:
                    total += position
                    break
            count += 1
        exact_mean = total / count
        trials = 20_000
        completions = [
            shuffle_trial(corpus, derive_key(5, i)).completion_position
            for i in range(trials)
        ]
        mc_mean = sum(completions) / trials
        spread = math.sqrt(
            sum((c - mc_mean) ** 2 for c in completions) / (trials - 1)
        )
        assert abs(mc_mean - exact_mean) <= 3 * spread / math.sqrt(trials)

    def test_absent_topics_reported(self):
        corpus = corpus_from_topic_sets([{0}, {2}], topic_count=4)
        result = shuffle_trial(corpus, 1)
        assert corpus.absent_topics == (1, 3)
        assert set(result.first_seen) == {0, 2}

    def test_completion_topics_helper(self):
        corpus = marked_singleton_corpus(8)
        result = shuffle_trial(corpus, 42)
        if result.completion_position == 1:
            assert completion_topics(result) == (0, 1)
        else:
            assert completion_topics(result) == (1,)


class TestRunShuffles:
    def test_histogram_mass_and_quantile_order(self):
        corpus = corpus_from_topic_sets(
            [{i % 3} for i in range(24)] + [{3}], topic_count=4
        )
        summary = run_shuffles(
            corpus, 500, master_seed=6, quantiles=(0.1, 0.25, 0.5, 0.9, 0.95)
        )
        assert sum(b.count for b in summary.histogram) == 500
        ordered = [summary.percentiles[q] for q in sorted(summary.percentiles)]
        assert ordered == sorted(ordered)
        assert summary.min_completion <= ordered[0]
        assert ordered[-1] <= summary.max_completion
        for q, value in summary.percentiles.items():
            assert summary.recall_at[q] == value / len(corpus)

    def test_single_trial_degenerates_cleanly(self):
        corpus = corpus_from_topic_sets([{0}, {1}, {0, 1}])
        summary = run_shuffles(corpus, 1, master_seed=3, quantiles=(0.2, 0.8))
        occupied = [b for b in summary.histogram if b.count]
        assert len(occupied) == 1
        values = set(summary.percentiles.values())
        assert values == {summary.min_completion} == {summary.max_completion}

    def test_nearest_rank_quantiles(self):
        corpus = marked_singleton_corpus(30)
        trials = 100
        summary = run_shuffles(corpus, trials, master_seed=9, quantiles=(0.1, 0.5))
        completions = sorted(
            r.completion_position for r in run_trials(corpus, trials, 9)
        )
        assert summary.percentiles[0.1] == completions[math.ceil(0.1 * trials) - 1]
        assert summary.percentiles[0.5] == completions[math.ceil(0.5 * trials) - 1]

    def test_equals_summarize_of_run_trials(self):
        corpus = corpus_from_topic_sets(
            [{i % 5} for i in range(40)] + [{5}], topic_count=6
        )
        results = run_trials(corpus, 120, master_seed=10)
        expected = summarize(results, len(corpus), 10, (0.3, 0.5), 7)
        assert run_shuffles(corpus, 120, 10, (0.3, 0.5), 7) == expected

    def test_bad_options_fail_before_any_trial(self, monkeypatch):
        def no_trials(*args):
            raise AssertionError("trials ran before the options were checked")

        monkeypatch.setattr(fomo.simulation, "run_trials", no_trials)
        corpus = corpus_from_topic_sets([{0}])
        with pytest.raises(ValueError):
            run_shuffles(corpus, 5, 1, quantiles=(1.5,))
        with pytest.raises(ValueError):
            run_shuffles(corpus, 5, 1, bin_count=0)

    def test_too_many_bins_fail_before_any_trial(self, monkeypatch):
        def no_trial(*args):
            raise AssertionError("a trial ran before the bin count was checked")

        monkeypatch.setattr(fomo.simulation, "shuffle_trial", no_trial)
        corpus = corpus_from_topic_sets([{0}])
        with pytest.raises(ValueError, match=str(fomo.simulation.MAX_BIN_COUNT)):
            run_shuffles(corpus, 5, 1, bin_count=10**6 + 1)

    def test_memory_does_not_grow_with_absent_topics(self):
        # A trial holds a seen-mask of topic_count bytes; listing the
        # 999,998 absent topics would take tens of MiB.
        corpus = corpus_from_topic_sets([{0}, {5}], topic_count=10**6)
        tracemalloc.start()
        try:
            run_shuffles(corpus, 20, master_seed=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    @given(
        ACCESSION_TOPIC_SETS,
        st.integers(1, 40),
        st.integers(0, 2**64 - 1),
        st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), min_size=1, max_size=5),
        st.integers(1, 200),
    )
    @settings(max_examples=100, deadline=None)
    def test_summary_json_round_trip(self, topic_sets, trials, seed, quantiles, bins):
        corpus = corpus_from_topic_sets(topic_sets)
        summary = run_shuffles(corpus, trials, seed, quantiles, bins)
        assert summary_from_json(summary.to_json()) == summary

    @pytest.mark.parametrize("bad_quantile", [0.0, 1.0, -0.3])
    def test_rejects_bad_quantiles(self, bad_quantile):
        corpus = corpus_from_topic_sets([{0}])
        with pytest.raises(ValueError):
            run_shuffles(corpus, 5, 1, quantiles=(bad_quantile,))

    def test_rejects_bad_bin_and_trial_counts(self):
        corpus = corpus_from_topic_sets([{0}])
        with pytest.raises(ValueError):
            run_shuffles(corpus, 0, 1)
        with pytest.raises(ValueError):
            run_shuffles(corpus, 5, 1, bin_count=0)


def equal_width_histogram_oracle(completions, bin_count):
    """Reference histogram: each value counted into its bin one at a time."""
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


@st.composite
def completions_and_bins(draw):
    """1 to 60 completions up to 2**40, all equal in some draws, with the
    bin count; values also fall on the top edge and near inner edges."""
    bins = draw(st.integers(1, 1000))
    lo = draw(st.integers(1, 2**40))
    hi = draw(st.just(lo) | st.integers(lo, 2**40))
    edges = st.integers(0, bins).map(lambda k: lo + k * (hi - lo) // bins)
    values = draw(st.lists(st.integers(lo, hi) | edges | st.just(hi), min_size=1, max_size=60))
    return values, bins


@given(completions_and_bins())
@settings(max_examples=300, deadline=None)
def test_histogram_matches_the_per_value_oracle(drawn):
    completions, bins = drawn
    assert _equal_width_histogram(completions, bins) == equal_width_histogram_oracle(
        completions, bins
    )


@pytest.mark.parametrize("digits", [310, 5000])
def test_read_json_refuses_integers_beyond_float_range(digits):
    assert read_json("1" + "0" * 308) == 10**308  # 309 digits, within float range
    with pytest.raises(ValueError, match=f"^an integer of {digits} digits is beyond float range$"):
        read_json("-" + "1" * digits)


class TestCompletionVsAnalytic:
    def test_single_document_corpus(self):
        corpus = corpus_from_topic_sets([{0}])
        summary = run_shuffles(corpus, 20, master_seed=2)
        report = completion_vs_analytic(corpus, summary)
        assert report.analytic_median == report.empirical_median == 1
        assert report.median_relative_difference == 0.0
        assert report.analytic_mean == pytest.approx(1.0, rel=1e-9)

    def test_requires_the_median_quantile(self):
        corpus = corpus_from_topic_sets([{0}, {1}])
        summary = run_shuffles(corpus, 20, master_seed=2, quantiles=(0.25, 0.75))
        with pytest.raises(ValueError, match="0.5"):
            completion_vs_analytic(corpus, summary)

    def test_replacement_model_never_finishes_sooner(self):
        # scanning without replacement is stochastically faster, so the
        # analytic (with-replacement) median sits at or above the
        # empirical one; twenty corpora dominated by a one-document topic
        for seed in range(20):
            n = 30 + 7 * seed
            corpus = marked_singleton_corpus(n)
            summary = run_shuffles(corpus, 100, master_seed=seed)
            report = completion_vs_analytic(corpus, summary)
            assert report.analytic_median >= report.empirical_median

    def test_accurate_when_completion_is_small(self):
        # completion far below the corpus size: the approximation is tight
        dist = zipf_prevalences(10, 0.4, 0.01)
        corpus = generate_corpus(8000, dist, seed=13)
        summary = run_shuffles(corpus, 150, master_seed=4)
        report = completion_vs_analytic(corpus, summary)
        assert report.median_relative_difference <= 0.10
