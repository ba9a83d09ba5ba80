"""Shuffle engine: hand traces, permutation oracles, determinism."""

import dataclasses
import itertools
import json
import math
import random
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from corpus_documents import Document, corpus_from_documents, documents_of, id_columns
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from splitmix64_oracle import SplitMix64, in_place_fisher_yates

from fomo.collector import completion_quantile, expected_draws_unequal_sum
from fomo.corpus import Corpus, generate_corpus, zipf_prevalences
import fomo.simulation
from fomo.prng import MAX_TRIALS, derive_key, derive_key_array
from fomo.simulation import (
    HistogramBin,
    _equal_width_histogram,
    completion_topics,
    completion_vs_analytic,
    fisher_yates,
    read_json,
    run_shuffles,
    run_trials,
    scan_accession,
    shuffle_trial,
    summarize,
    summary_from_json,
)


class CorpusShape:
    """What _batch_plan reads of a corpus: its document count, its topic
    count, its stored topic ids and the topics present."""

    def __init__(self, documents, topic_count, topic_ids, present):
        self.documents, self.topic_count = documents, topic_count
        self.indices = np.empty(topic_ids, dtype=np.int32)
        self.topics_present = range(present)

    def __len__(self):
        return self.documents


def corpus_from_topic_sets(topic_sets, topic_count=None):
    if topic_count is None:
        topic_count = max(t for topics in topic_sets for t in topics) + 1
    documents = tuple(
        Document(f"doc{i}", tuple(sorted(topics)))
        for i, topics in enumerate(topic_sets)
    )
    return corpus_from_documents(documents, topic_count)


def scripted_steps(orders, sizes, reads):
    """Steps in the form fisher_yates yields them, over fixed document
    orders: at step s, row r fixes its next ``sizes[(s + r) % len(sizes)]``
    positions (0 makes an empty run), and a sent mask stops the rows it
    marks. ``reads[r]`` records the runs row r was given, as (start, end)."""
    done = [0] * len(orders)
    live = list(range(len(orders)))
    step = 0
    while live:
        counts = [min(sizes[(step + r) % len(sizes)], len(orders[r]) - done[r]) for r in live]
        picked = [d for r, c in zip(live, counts) for d in orders[r][done[r] : done[r] + c]]
        places = [p for r, c in zip(live, counts) for p in range(done[r] + 1, done[r] + c + 1)]
        stop = None
        if picked:
            step_arrays = np.array(counts), np.array(picked, dtype=np.int32), np.array(places)
            stop = yield np.array(live), *step_arrays
        for r, c in zip(live, counts):
            reads[r].append((done[r], done[r] + c))
            done[r] += c
        stopped = [False] * len(live) if stop is None else stop.tolist()
        live = [r for r, halt in zip(live, stopped) if done[r] < len(orders[r]) and not halt]
        step += 1


def oracle_order(n, key):
    items = list(range(n))
    in_place_fisher_yates(items, SplitMix64(key))
    return items


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


def skewed_topic_sets(n, seed):
    """n documents of topic 0, every tenth also of topic 1, and rare
    topics 2-9 in one to three documents each."""
    rng = random.Random(seed)
    sets = [{0, 1} if i % 10 == 0 else {0} for i in range(n)]
    for topic in range(2, 10):
        for d in rng.sample(range(n), rng.randint(1, 3)):
            sets[d] = sets[d] | {topic}
    return sets


def expanded_first_sightings(corpus, steps, trials):
    """_first_sightings' first positions, and how many documents it
    expanded over the CSR rows (it reads indptr at them twice)."""
    reads = []

    class Offsets(np.ndarray):
        def __getitem__(self, key):
            if isinstance(key, np.ndarray):
                reads.append(key.size)
            return super().__getitem__(key)

    view = SimpleNamespace(
        indptr=corpus.indptr.view(Offsets),
        indices=corpus.indices,
        topic_count=corpus.topic_count,
        _topic_counts=corpus._topic_counts,
        _rarest_counts=corpus._rarest_counts,
    )
    first = fomo.simulation._first_sightings(view, steps, trials)
    return first, sum(reads) // 2


def assert_matches_oracle(corpus, first, orders):
    for row, order in zip(first, orders, strict=True):
        seen = np.flatnonzero(row)
        assert dict(zip(seen.tolist(), row[seen].tolist())) == first_sightings_oracle(corpus, order)


class TestFirstSightings:
    @given(
        common_and_rare_topic_sets(),
        st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=5),
        st.lists(st.integers(0, 512), min_size=1, max_size=4).filter(any),
    )
    @settings(max_examples=150, deadline=None)
    def test_batch_matches_per_document_oracle(self, topic_sets, keys, sizes):
        # One order per key, scanned in lockstep in runs of uneven sizes
        # (empty runs too), each row stopped after the run that completes it.
        corpus = corpus_from_topic_sets(topic_sets, topic_count=41)
        orders = [oracle_order(len(corpus), key) for key in keys]
        reads = [[] for _ in keys]
        scan = fomo.simulation._first_sightings
        first = scan(corpus, scripted_steps(orders, sizes, reads), len(keys))
        assert first.shape == (len(keys), 41)
        for row, order in enumerate(orders):
            expected = first_sightings_oracle(corpus, order)
            seen = np.flatnonzero(first[row])
            assert dict(zip(seen.tolist(), first[row, seen].tolist())) == expected
            assert not first[row, list(corpus.absent_topics)].any()
            start, end = [run for run in reads[row] if run[0] < run[1]][-1]
            assert start < max(expected.values()) <= end

    @given(
        common_and_rare_topic_sets(),
        st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=5),
    )
    @settings(max_examples=100, deadline=None)
    def test_batch_trials_match_the_oracle_order(self, topic_sets, keys):
        corpus = corpus_from_topic_sets(topic_sets, topic_count=41)
        batches = fomo.simulation._first_positions(corpus, np.array(keys, dtype=np.uint64))
        batch = itertools.chain.from_iterable(map(fomo.simulation._trial_results, batches))
        for key, result in zip(keys, batch, strict=True):
            expected = first_sightings_oracle(corpus, oracle_order(len(corpus), key))
            assert list(result.first_seen.items()) == list(expected.items())
            assert result.completion_position == max(expected.values())

    def test_rare_topic_past_several_chunks(self):
        sets = [{0}] * (3 * 512 + 5) + [{1, 2}, {0, 3}]
        corpus = corpus_from_topic_sets(sets, topic_count=5)
        steps = scripted_steps([list(range(len(corpus)))], [512], [[]])
        first = fomo.simulation._first_sightings(corpus, steps, 1)
        assert first.tolist() == [[1, 3 * 512 + 6, 3 * 512 + 6, 3 * 512 + 7, 0]]

    def test_skewed_corpus_expands_only_documents_within_the_bound(self):
        # Four rows of 10 topics fit a recompute in every step, so once a
        # row has seen topics 0 and 1 its bound falls to a rare topic's
        # count and the documents of topic 0 alone are no longer expanded.
        sets = skewed_topic_sets(3000, seed=5)
        corpus = corpus_from_topic_sets(sets, topic_count=10)
        counts = corpus.topic_counts()
        assert corpus._rarest_counts.tolist() == [min(counts[t] for t in s) for s in sets]
        orders = [oracle_order(len(corpus), key) for key in range(4)]
        reads = [[] for _ in orders]
        steps = scripted_steps(orders, [512, 100], reads)
        first, expanded = expanded_first_sightings(corpus, steps, len(orders))
        assert_matches_oracle(corpus, first, orders)
        scanned = sum(end - start for runs in reads for start, end in runs)
        assert expanded < scanned / 4

    def test_a_bound_too_dear_to_recompute_stays_stale(self):
        # 5,000 topics a row cost more than any step scans, so the bound
        # stays at the commonest topic's count and every document is expanded.
        corpus = corpus_from_topic_sets(skewed_topic_sets(3000, seed=6), topic_count=5000)
        orders = [oracle_order(len(corpus), key) for key in range(3)]
        reads = [[] for _ in orders]
        steps = scripted_steps(orders, [7, 3, 0, 512], reads)
        first, expanded = expanded_first_sightings(corpus, steps, len(orders))
        assert_matches_oracle(corpus, first, orders)
        assert expanded == sum(end - start for runs in reads for start, end in runs)

    def test_steps_the_filter_empties(self):
        # Documents 0-999 hold topic 0, 1000 and 1001 topic 1, 1002 topic 2.
        # After its first run each row has only a topic of count 1 or 2 to
        # see, so its next two runs of topic-0 documents are dropped whole.
        corpus = corpus_from_topic_sets([{0}] * 1000 + [{1}, {1}, {2}], topic_count=3)
        rest = list(range(3, 1000))
        orders = [[1000, 0, 1, 2] + rest[:8] + [1002, 1001] + rest[8:],
                  [1002, 0, 1, 2] + rest[:8] + [1001, 1000] + rest[8:]]
        steps = scripted_steps(orders, [4], [[], []])
        first, expanded = expanded_first_sightings(corpus, steps, 2)
        assert first.tolist() == [[2, 1, 13], [2, 13, 1]]
        assert_matches_oracle(corpus, first, orders)
        # The first runs whole; then row 0 (bound 1) expands 1002 but not
        # 1001, and row 1 (bound 2) both 1001 and 1000.
        assert expanded == 8 + 1 + 2


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
            order = oracle_order(len(corpus), seed)
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
        completions = [r.completion_position for r in run_trials(corpus, trials, 77)]
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
        for result in run_trials(corpus, trials, 123):
            counts[result.completion_position - 1] += 1
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
        completions = [r.completion_position for r in run_trials(corpus, trials, 5)]
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

    def test_builds_no_trial_objects(self, monkeypatch):
        # The summary reads each batch's row maxima; a TrialResult, and its
        # topic-to-position dict, is built only for a caller of run_trials.
        class NoTrial:
            def __init__(self, *args, **kwargs):
                raise AssertionError("run_shuffles built a TrialResult")

        corpus = corpus_from_topic_sets([{i % 5} for i in range(40)] + [{5}], topic_count=6)
        expected = summarize(run_trials(corpus, 120, master_seed=10), len(corpus), 10)
        monkeypatch.setattr(fomo.simulation, "TrialResult", NoTrial)
        assert run_shuffles(corpus, 120, master_seed=10) == expected

    def test_bad_options_fail_before_any_trial(self, monkeypatch):
        def no_trial(*args):
            raise AssertionError("a trial ran before the options were checked")

        monkeypatch.setattr(fomo.simulation, "_first_positions", no_trial)
        corpus = corpus_from_topic_sets([{0}])
        with pytest.raises(ValueError):
            run_shuffles(corpus, 5, 1, quantiles=(1.5,))
        with pytest.raises(ValueError):
            run_shuffles(corpus, 5, 1, bin_count=0)

    def test_too_many_bins_fail_before_any_trial(self, monkeypatch):
        def no_trial(*args):
            raise AssertionError("a trial ran before the bin count was checked")

        monkeypatch.setattr(fomo.simulation, "_first_positions", no_trial)
        corpus = corpus_from_topic_sets([{0}])
        with pytest.raises(ValueError, match=str(fomo.simulation.MAX_BIN_COUNT)):
            run_shuffles(corpus, 5, 1, bin_count=10**6 + 1)

    def test_run_trials_runs_no_trial_until_read(self, monkeypatch):
        # Batches of two trials: reading trial 0 runs only the first batch.
        # Each batch shuffles its own keys in one fisher_yates call.
        batches = []
        shuffle = fomo.simulation.fisher_yates

        def batch(n, keys, limit):
            batches.append(keys.tolist())
            return shuffle(n, keys, limit)

        corpus = corpus_from_topic_sets([{0}])
        keys = [derive_key(5, i) for i in range(5)]
        alone = [shuffle_trial(corpus, key) for key in keys]
        monkeypatch.setattr(fomo.simulation, "fisher_yates", batch)
        monkeypatch.setattr(fomo.simulation, "TRIAL_BATCH_BYTES", 2 * 64 * (1 + 1))
        trials = run_trials(corpus, 5, master_seed=5)
        assert batches == []
        assert next(trials) == alone[0] and batches == [keys[:2]]
        assert list(trials) == alone[1:]
        assert batches == [keys[:2], keys[2:4], keys[4:]]

    @pytest.mark.parametrize("budget", [1, 3 * 4 * (41 + 6), 10**6])
    def test_batches_equal_trials_run_alone(self, monkeypatch, budget):
        # Batches of 1, 3 and all 40 trials, the last batch of three short;
        # the batch of three takes steps of 3 positions in all.
        corpus = corpus_from_topic_sets([{i % 5} for i in range(40)] + [{5}], topic_count=6)
        monkeypatch.setattr(fomo.simulation, "TRIAL_BATCH_BYTES", budget)
        alone = [shuffle_trial(corpus, derive_key(10, i)) for i in range(40)]
        batched = list(run_trials(corpus, 40, master_seed=10))
        assert [list(r.first_seen.items()) for r in batched] == [
            list(r.first_seen.items()) for r in alone
        ]
        assert batched == alone

    def test_batch_size_from_the_byte_budget(self, monkeypatch):
        # 4 bytes a document and 4 a topic id per trial, and at most the
        # step limit: 64 bytes a position and 64 a stored topic id.
        plan = fomo.simulation._batch_plan
        assert plan(corpus_from_topic_sets([{0}, {5}], topic_count=10**6))[0] == 2
        own_topics = corpus_from_topic_sets([{t} for t in range(2000)])
        assert plan(own_topics)[0] == 2**23 // (4 * 4000) == 524
        three = corpus_from_topic_sets([{0}, {0}, {1}])
        assert plan(three) == (65536, 2**23 * 3 // (64 * 6)) == (65536, 65536)
        dense = corpus_from_topic_sets([range(500)] * 500)
        assert plan(dense) == (261, 2**23 * 500 // (64 * 500 * 501)) == (261, 261)
        monkeypatch.setattr(fomo.simulation, "TRIAL_BATCH_BYTES", 10)
        assert plan(corpus_from_topic_sets([{0}, {0}]))[0] == 1

    @pytest.mark.parametrize(
        "documents, topic_ids, batch, limit, width",
        [(120_000, 144_965, 17, 59_361, 950), (10**6, 1_207_750, 2, 59_369, 8000)],
    )
    def test_study_and_ingest_steps_take_whole_chunks(
        self, documents, topic_ids, batch, limit, width
    ):
        # The study and ingest corpora (generation seed 7): the step limit,
        # about 59,000 positions, stays far above a batch's first runs, which
        # the REPLAYS rule sets at isqrt(128 * documents // batch) positions.
        shape = CorpusShape(documents, 64, topic_ids, present=64)
        assert fomo.simulation._batch_plan(shape) == (batch, limit)
        steps = fisher_yates(documents, derive_key_array(11, np.arange(batch)), limit)
        assert next(steps)[1].tolist() == [width] * batch

    def test_a_batch_of_a_dense_corpus_stays_near_the_budget(self):
        # Every document holds all 500 topics, so each position of a step
        # scans 500 topic ids. A batch sized by items and first positions
        # alone (1,971 trials) held about 291 MiB in its first step.
        corpus = corpus_from_topic_sets([range(500)] * 500)
        tracemalloc.start()
        try:
            run_shuffles(corpus, fomo.simulation._batch_plan(corpus)[0], master_seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * fomo.simulation.TRIAL_BATCH_BYTES

    def test_a_batch_that_sorts_many_topics_stays_near_the_budget(self):
        # 2,000 documents, each holding its own topic: all 524 trials run as
        # one run_shuffles batch, whose items, first positions and step
        # arrays trace about 10.2 MiB.
        corpus = corpus_from_topic_sets([{t} for t in range(2000)])
        tracemalloc.start()
        try:
            run_shuffles(corpus, 524, master_seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * fomo.simulation.TRIAL_BATCH_BYTES

    def test_reading_trials_one_at_a_time_stays_near_the_budget(self):
        # The same 2,000 own-topic documents, all 524 trials of one batch
        # read through run_trials: each trial's topics are sorted from its
        # own row, so the sort adds a row's worth of bytes, not a batch's.
        corpus = corpus_from_topic_sets([{t} for t in range(2000)])
        assert fomo.simulation._batch_plan(corpus)[0] == 524
        tracemalloc.start()
        try:
            read = sum(len(trial.first_seen) for trial in run_trials(corpus, 524, master_seed=3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert read == 524 * 2000
        assert peak < 2 * fomo.simulation.TRIAL_BATCH_BYTES

    def test_run_trials_checks_its_count_at_the_call(self, monkeypatch):
        def no_keys(*args):
            raise AssertionError("keys were derived before the trial count was checked")

        monkeypatch.setattr(fomo.simulation, "derive_key_array", no_keys)
        corpus = corpus_from_topic_sets([{0}])
        for trials in (0, MAX_TRIALS + 1):
            with pytest.raises(ValueError, match=str(MAX_TRIALS)):
                run_trials(corpus, trials, master_seed=1)

    def test_summarize_needs_a_trial(self):
        with pytest.raises(ValueError, match="^need at least one trial$"):
            summarize([], 10, 1)

    @pytest.mark.parametrize("n_docs", [0, -3])
    def test_summarize_refuses_no_documents_before_any_trial(self, n_docs):
        def no_trial():
            raise AssertionError("a trial was read before n_docs was checked")
            yield

        with pytest.raises(ValueError, match=f"^n_docs must be >= 1, got {n_docs}$"):
            summarize(no_trial(), n_docs, 1)

    def test_memory_stays_flat_as_trials_grow(self):
        # 200 topics over 20,000 documents: holding each trial's first_seen
        # map would add some 11 KB a trial. Both counts fill whole lockstep
        # batches, which hold the same arrays however many trials there are.
        corpus = corpus_from_topic_sets([{i % 200} for i in range(20_000)])
        batch = fomo.simulation._batch_plan(corpus)[0]
        peaks = []
        for trials in (batch, 4 * batch):
            tracemalloc.start()
            try:
                run_shuffles(corpus, trials, master_seed=8)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 2**20

    def test_summarize_keeps_few_bytes_a_trial(self):
        # The positions sit in one int64 array, beside the histogram's two
        # index arrays while it is built: 24 bytes a trial. A sorted list of
        # Python ints took about 57.
        def stub_trials(count):
            trial = SimpleNamespace()
            for i in range(count):
                trial.completion_position = 1000 + i % 997
                yield trial

        peaks = []
        for count in (10**5, 5 * 10**5):
            tracemalloc.start()
            try:
                summarize(stub_trials(count), 10**4, 1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert (peaks[1] - peaks[0]) / (4 * 10**5) < 32

    def test_memory_does_not_grow_with_absent_topics(self):
        # A trial holds a first position of 4 bytes per topic id; listing
        # the 999,998 absent topics would take tens of MiB.
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
        st.lists(
            st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
            min_size=1,
            max_size=5,
            unique=True,
        ),
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

    @pytest.mark.parametrize(
        "quantiles, message",
        [
            ((), "need at least one quantile"),
            ((0.5, 0.2, 0.5), "each quantile may be asked once, got [0.5, 0.2, 0.5]"),
        ],
    )
    def test_rejects_no_quantile_or_a_repeated_one(self, quantiles, message):
        corpus = corpus_from_topic_sets([{0}])
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_shuffles(corpus, 5, 1, quantiles=quantiles)

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**70, 10**400])
    def test_summarize_refuses_a_seed_out_of_range_before_any_trial(self, seed):
        # A summary stores its seed as given, so the seed meets check_seed's
        # range like the keys' seed; 10**400 would not read back from JSON.
        def no_trial():
            raise AssertionError("a trial was read before the seed was checked")
            yield

        with pytest.raises(ValueError, match=r"^seed must be in 0\.\.2\*\*64-1, got "):
            summarize(no_trial(), 10, seed)
        summary = run_shuffles(corpus_from_topic_sets([{0}]), 3, master_seed=2**64 - 1)
        assert summary_from_json(summary.to_json()) == summary
        with pytest.raises(ValueError, match=r"^seed must be in 0\.\.2\*\*64-1, got "):
            dataclasses.replace(summary, seed=seed)

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


@pytest.mark.parametrize("key", ["0.50", ".5", "5e-1", "0.5 "])
def test_summary_from_json_takes_one_spelling_per_quantile(key):
    corpus = corpus_from_topic_sets([{0}, {1}])
    text = run_shuffles(corpus, 4, master_seed=1, quantiles=(0.5,)).to_json()
    assert summary_from_json(text).percentiles.keys() == {0.5}
    with pytest.raises(ValueError, match="^summary quantile key .* must be written '0.5'$"):
        summary_from_json(text.replace('"0.5"', json.dumps(key)))


def test_summary_from_json_refuses_another_version():
    text = run_shuffles(corpus_from_topic_sets([{0}]), 2, master_seed=1).to_json()
    with pytest.raises(ValueError, match="^unsupported summary version 2$"):
        summary_from_json(text.replace('"version":1', '"version":2'))


@pytest.mark.parametrize("recall", [0.0, 1.5, 2.5])
def test_a_summary_recall_lies_in_zero_to_one(recall):
    summary = run_shuffles(corpus_from_topic_sets([{0}, {1}]), 4, master_seed=1)
    with pytest.raises(ValueError, match=r"^summary recall_at values must be in \(0, 1\]$"):
        dataclasses.replace(summary, recall_at={**summary.recall_at, 0.5: recall})


class TestCompletionVsAnalytic:
    def test_single_document_corpus(self):
        corpus = corpus_from_topic_sets([{0}])
        summary = run_shuffles(corpus, 20, master_seed=2)
        report = completion_vs_analytic(corpus, summary)
        assert report.analytic_median == report.empirical_median == 1
        assert report.median_relative_difference == 0.0
        assert report.analytic_mean == pytest.approx(1.0, rel=1e-9)

    def test_counts_the_topics_present_without_their_set(self, monkeypatch):
        # The scan and the comparison count the topics present from the
        # per-topic counts; the set of their ids is built for no caller.
        def no_set(corpus):
            raise AssertionError("Corpus.topics_present was built")

        corpus = corpus_from_topic_sets([{i % 5} for i in range(40)] + [{7}], topic_count=9)
        expected = run_shuffles(corpus, 30, master_seed=3)
        monkeypatch.setattr(fomo.corpus.Corpus, "topics_present", property(no_set))
        summary = run_shuffles(corpus, 30, master_seed=3)
        assert summary == expected
        topics_present = completion_vs_analytic(corpus, summary).topics_present
        assert (type(topics_present), topics_present) == (int, 6)

    def test_reads_the_empirical_prevalences_bit_for_bit(self):
        corpus = generate_corpus(3000, zipf_prevalences(12, 0.4, 0.002), seed=5)
        report = completion_vs_analytic(corpus, run_shuffles(corpus, 20, master_seed=6))
        prevalences = list(corpus.empirical_prevalences().values())
        assert report.analytic_median == completion_quantile(prevalences, 0.5)
        assert report.analytic_mean == expected_draws_unequal_sum(prevalences)

    def test_keeps_few_bytes_a_topic_present(self):
        # 10**5 documents, each holding its own topic: the prevalences and
        # the models' arrays take 48 bytes a topic. A dict of the empirical
        # prevalences and a tuple of their floats took 157 (150 MiB traced
        # at 10**6 documents).
        n = 10**5
        corpus = Corpus(
            *id_columns(f"d{i}" for i in range(n)), indptr=np.arange(n + 1),
            indices=np.arange(n), topic_count=n,
        )
        summary = run_shuffles(corpus, 2, master_seed=1)
        tracemalloc.start()
        try:
            assert completion_vs_analytic(corpus, summary).topics_present == n
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * n

    def test_requires_the_median_quantile(self):
        corpus = corpus_from_topic_sets([{0}, {1}])
        summary = run_shuffles(corpus, 20, master_seed=2, quantiles=(0.25, 0.75))
        with pytest.raises(ValueError, match="0.5"):
            completion_vs_analytic(corpus, summary)

    def test_refuses_a_summary_of_another_corpus(self):
        two = corpus_from_topic_sets([{0}, {1}])
        three = corpus_from_topic_sets([{0}, {1}, {0}])
        summary = run_shuffles(three, 20, master_seed=2)  # completes at 2 or 3
        with pytest.raises(ValueError, match="^summary max_completion 3 exceeds corpus size 2$"):
            completion_vs_analytic(two, summary)
        summary = run_shuffles(two, 20, master_seed=2)  # completes at 2: recall 1.0
        message = "^summary recall_at must be its percentiles / corpus size 3$"
        with pytest.raises(ValueError, match=message):
            completion_vs_analytic(three, summary)

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
