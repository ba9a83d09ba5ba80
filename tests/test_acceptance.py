"""End-to-end acceptance: every criterion prints one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they go by. Criterion 6c is known to fail for the pinned experiment
parameters: the power-law tail is so flat that a dozen near-tied rare
topics share the completion-determining role, and no single "rarest"
topic can claim a majority of trials (see the note in the README).
"""

import csv
import hashlib
import io
import itertools
import math
import random
import time

import pytest

from fomo.analytic import RecallScenario, fomo_confidence
from fomo.cli import main
from fomo.collector import (
    CouponDistribution,
    completion_quantile,
    dice_sum_distribution,
    expected_draws_equal,
    expected_draws_unequal_exact,
    expected_draws_unequal_sum,
    birthday_first_collision_expected,
    simulate_expected_draws,
)
from fomo.corpus import Corpus, Document, generate_corpus, load_corpus, save_corpus, zipf_prevalences
from fomo.prng import derive_key
from fomo.simulation import (
    completion_topics,
    completion_vs_analytic,
    run_shuffles,
    run_trials,
    scan_accession,
    shuffle_trial,
    summarize,
)


def check(number: str, description: str, condition: bool, detail: str = "") -> None:
    status = "PASS" if condition else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"{status}  criterion {number}: {description}{suffix}")
    assert condition, f"criterion {number}: {description}{suffix}"


# -- criterion 6 experiment, shared by its sub-checks ----------------------

STUDY_DOCS = 120_000
STUDY_TOPICS = 64
STUDY_MAX_PREV = 0.36
STUDY_MIN_PREV = 1 / 8571
STUDY_TRIALS = 200
STUDY_GEN_SEED = 7
STUDY_TRIAL_SEED = 11


@pytest.fixture(scope="module")
def study_experiment():
    started = time.perf_counter()
    dist = zipf_prevalences(STUDY_TOPICS, STUDY_MAX_PREV, STUDY_MIN_PREV)
    corpus = generate_corpus(STUDY_DOCS, dist, seed=STUDY_GEN_SEED)
    results = run_trials(corpus, STUDY_TRIALS, master_seed=STUDY_TRIAL_SEED)
    summary = summarize(results, len(corpus), STUDY_TRIAL_SEED)
    elapsed = time.perf_counter() - started
    return dist, corpus, results, summary, elapsed


# -- 1: reference-table reproduction through the CLI -----------------------


def test_criterion_1_table_reproduction(capsys):
    started = time.perf_counter()
    code = main(["table", "--produced", "50000,100000,200000",
                 "--recall", "0.8,0.7,0.6,0.5", "--confidence", "0.95"])
    elapsed = time.perf_counter() - started
    out = capsys.readouterr().out
    with capsys.disabled():
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        expected = [
            # prevalence%, missed, prob%, fomo% per (recall, produced) row
            (0.0060, 12500, 52.71, 2.636), (0.0030, 25000, 52.71, 2.636),
            (0.0015, 50000, 52.71, 2.636), (0.0060, 21428, 72.30, 3.615),
            (0.0030, 42857, 72.30, 3.615), (0.0015, 85714, 72.30, 3.615),
            (0.0060, 33333, 86.43, 4.321), (0.0030, 66666, 86.43, 4.321),
            (0.0015, 133333, 86.43, 4.321), (0.0060, 50000, 95.00, 4.750),
            (0.0030, 100000, 95.00, 4.750), (0.0015, 200000, 95.00, 4.750),
        ]
        ok = len(rows) == 12
        worst = 0.0
        for row, (prev_pct, missed, prob_pct, fomo_pct) in zip(rows, expected):
            deviations = (
                abs(float(row["prevalence_bound"]) * 100 - prev_pct),
                abs(float(row["prob_in_missed"]) * 100 - prob_pct),
                abs(float(row["fomo_confidence"]) * 100 - fomo_pct),
            )
            worst = max(worst, *deviations)
            ok = ok and int(row["missed_count"]) == missed and all(
                d <= 0.005 for d in deviations
            )
        check(
            "1",
            "table of 12 scenarios matches published values to displayed precision",
            ok and elapsed < 1.0,
            f"worst deviation {worst:.2e} pp, {elapsed * 1000:.0f} ms",
        )


# -- 2: geometric first-discovery worked example ----------------------------


def test_criterion_2_geometric_example():
    from fomo.analytic import first_discovery_pmf

    rounded = [round(first_discovery_pmf(0.36, k) * 100) for k in (1, 2, 3)]
    check("2", "first-discovery chain rounds to 36%, 23%, 15%", rounded == [36, 23, 15],
          f"got {rounded}")


# -- 3: dice collector, exact and Monte Carlo -------------------------------


def test_criterion_3_dice_collector():
    started = time.perf_counter()
    dice = dice_sum_distribution()
    exact = expected_draws_unequal_exact(dice)
    sample = simulate_expected_draws(dice, 1_000_000, seed=2024)
    elapsed = time.perf_counter() - started
    gap = abs(sample.mean - exact)
    check(
        "3",
        "dice need 61.22 rolls on average; a million seeded trials agree",
        abs(exact - 61.22) <= 0.01 and gap <= 3 * sample.std_error and elapsed < 10.0,
        f"exact {exact:.4f}, mc {sample.mean:.4f} +- {sample.std_error:.4f}, "
        f"{elapsed:.1f} s",
    )


# -- 4: birthday answers -----------------------------------------------------


def test_criterion_4_birthday_answers():
    collect_all = expected_draws_equal(365)
    first_pair = birthday_first_collision_expected()
    check(
        "4",
        "collecting every birthday takes 2364.65 people, a shared one 24.62",
        abs(collect_all - 2364.65) <= 0.01 and abs(first_pair - 24.62) <= 0.01,
        f"{collect_all:.4f} and {first_pair:.4f}",
    )


# -- 5: brute-force oracle equivalence ---------------------------------------


def test_criterion_5a_scalable_form_matches_exact():
    rng = random.Random(501)
    worst = 0.0
    cases = [dice_sum_distribution(), CouponDistribution.uniform(12)]
    for _ in range(40):
        m = rng.randint(2, 12)
        raw = [rng.uniform(0.01, 1.0) for _ in range(m)]
        scale = rng.uniform(0.2, 1.0) / sum(raw)
        cases.append(CouponDistribution(tuple(p * scale for p in raw)))
    for dist in cases:
        exact = expected_draws_unequal_exact(dist)
        scalable = expected_draws_unequal_sum(dist)
        worst = max(worst, abs(scalable - exact) / exact)
    check(
        "5a",
        "integral form tracks subset enumeration to 1e-6 relative (m <= 12)",
        worst <= 1e-6,
        f"worst relative difference {worst:.2e} over {len(cases)} distributions",
    )


def test_criterion_5b_shuffles_match_exhaustive_enumeration():
    topic_sets = [{0}, {0}, {1}, {0, 2}, {0}, {2}, {0}, {1}]
    corpus = Corpus(
        documents=tuple(
            Document(f"doc{i}", tuple(sorted(s))) for i, s in enumerate(topic_sets)
        ),
        topic_count=3,
    )
    total = 0
    for order in itertools.permutations(range(len(topic_sets))):
        seen: set[int] = set()
        for position, doc in enumerate(order, start=1):
            seen |= topic_sets[doc]
            if len(seen) == 3:
                total += position
                break
    exhaustive_mean = total / math.factorial(len(topic_sets))

    trials = 100_000
    completions = [
        shuffle_trial(corpus, derive_key(505, i)).completion_position
        for i in range(trials)
    ]
    mc_mean = sum(completions) / trials
    spread = math.sqrt(sum((c - mc_mean) ** 2 for c in completions) / (trials - 1))
    std_error = spread / math.sqrt(trials)
    check(
        "5b",
        "shuffle Monte Carlo agrees with all-permutations enumeration",
        abs(mc_mean - exhaustive_mean) <= 3 * std_error,
        f"exhaustive {exhaustive_mean:.4f}, mc {mc_mean:.4f} +- {std_error:.4f}",
    )


# -- 6: desk-scale shuffle study ---------------------------------------------


def test_criterion_6_calibration(study_experiment):
    dist, corpus, _, _, _ = study_experiment
    mean_topics = sum(len(d.topics) for d in corpus.documents) / len(corpus)
    check(
        "6",
        "120k-document corpus calibrates to 1.2-1.6 topics per document",
        1.2 <= mean_topics <= 1.6,
        f"mean {mean_topics:.4f} (model {dist.expected_topics_per_document():.4f})",
    )


def test_criterion_6a_every_trial_completes(study_experiment):
    _, _, results, _, _ = study_experiment
    found_all = all(len(r.first_seen) == STUDY_TOPICS for r in results)
    check("6a", "all 64 topics found in every one of 200 shuffles", found_all)


def test_criterion_6b_p95_recall_band(study_experiment):
    _, _, _, summary, _ = study_experiment
    recall_95 = summary.recall_at[0.95]
    check(
        "6b",
        "95th-percentile completion sits between 5% and 45% recall",
        0.05 <= recall_95 <= 0.45,
        f"p95 recall {recall_95:.3f}",
    )


def test_criterion_6c_rarest_topic_majority(study_experiment):
    # Expectation under test: in most shuffles the topic that forces the
    # scan to keep going is the corpus's rarest one. With these parameters
    # the rare tail is nearly tied (neighbouring prevalences ~3% apart,
    # binomial noise far larger), so the completion-determining role is
    # split across the dozen rarest topics and no single topic reaches a
    # majority. Kept strict; expected to fail.
    _, corpus, results, _, _ = study_experiment
    counts = corpus.topic_counts()
    min_count = min(counts)
    rarest = {t for t, c in enumerate(counts) if c == min_count}
    hits = sum(1 for r in results if rarest & set(completion_topics(r)))
    fraction = hits / len(results)
    distribution_min_hits = sum(
        1 for r in results if (STUDY_TOPICS - 1) in completion_topics(r)
    )
    check(
        "6c",
        "the rarest topic determines completion in a majority of shuffles",
        fraction > 0.5,
        f"empirically-rarest fraction {fraction:.3f}, "
        f"lowest-prevalence fraction {distribution_min_hits / len(results):.3f}",
    )


def test_criterion_6d_analytic_median_agreement(study_experiment):
    _, corpus, _, summary, _ = study_experiment
    report = completion_vs_analytic(corpus, summary)
    check(
        "6d",
        "analytic and simulated completion medians within 15% relative",
        report.median_relative_difference <= 0.15,
        f"analytic {report.analytic_median}, empirical {report.empirical_median}, "
        f"relative {report.median_relative_difference:.4f}",
    )


def test_criterion_6_runtime(study_experiment):
    *_, elapsed = study_experiment
    check(
        "6 (runtime)",
        "generate + 200 shuffles + summary under two minutes",
        elapsed < 120.0,
        f"{elapsed:.1f} s",
    )


# -- golden fingerprints ------------------------------------------------------
#
# SHA-256 of outputs that every refactor must leave byte-identical.

GOLDEN_STUDY_SUMMARY = "9bcffa475fdc2c0671b66d4e694c5dd3e66adc4c99f6b37589f4bf7de60f687b"
GOLDEN_CRITERION_7_SUMMARY = "2405aa8ce832259df93c991e9aa0bd88c0a7f01408ad823523d937be2229368e"
GOLDEN_STUDY_CORPUS = "e4b9e8a01af720fd8f0ae3e5064a6de2510b52b7b10ffc241ed57e4b8b190003"
GOLDEN_TABLE_CSV = "45d3f3f50c8eca5217a160c00bf78426fbf64ad23f418dfadb1aa68c813f483e"
GOLDEN_STUDY_CURVE_CSV = "37236adccabc25f734c6fe49e8cd546918b8d498fa95f52c52f9fd2ca7f4d2f5"


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_golden_study_summary(study_experiment):
    _, _, _, summary, _ = study_experiment
    assert sha256_text(summary.to_json()) == GOLDEN_STUDY_SUMMARY


def test_golden_study_corpus_and_curve(study_experiment, tmp_path, capsys):
    _, corpus, _, _, _ = study_experiment
    path = tmp_path / "study.jsonl"
    save_corpus(corpus, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_STUDY_CORPUS
    assert main(["curve", "--corpus", str(path)]) == 0
    assert sha256_text(capsys.readouterr().out) == GOLDEN_STUDY_CURVE_CSV


def test_golden_table_csv(capsys):
    assert main(["table"]) == 0
    assert sha256_text(capsys.readouterr().out) == GOLDEN_TABLE_CSV


# -- 7: determinism ----------------------------------------------------------


def test_criterion_7_byte_identical_across_workers():
    # Trial i depends only on the seed and i: the summary is pinned, two
    # runs agree byte for byte, and trials computed alone in reverse
    # index order match the batch.
    dist = zipf_prevalences(12, 0.4, 0.01)
    corpus = generate_corpus(2000, dist, seed=71)
    first = run_shuffles(corpus, 60, master_seed=72).to_json()
    second = run_shuffles(corpus, 60, master_seed=72).to_json()
    batch = run_trials(corpus, 60, master_seed=72)
    alone = {i: shuffle_trial(corpus, derive_key(72, i)) for i in reversed(range(60))}
    check(
        "7",
        "summary JSON is pinned, repeatable, and independent of trial order",
        sha256_text(first) == GOLDEN_CRITERION_7_SUMMARY
        and first == second
        and all(alone[i] == result for i, result in enumerate(batch)),
    )


# -- 8: randomized invariant suites ------------------------------------------


def _random_corpus(rng: random.Random) -> Corpus:
    topic_count = rng.randint(1, 6)
    documents = []
    for i in range(rng.randint(1, 25)):
        size = rng.randint(1, topic_count)
        topics = tuple(sorted(rng.sample(range(topic_count), size)))
        documents.append(Document(f"doc{i}", topics))
    return Corpus(documents=tuple(documents), topic_count=topic_count)


def test_criterion_8_invariant_suites(tmp_path):
    rng = random.Random(801)
    cases = 100

    for _ in range(cases):  # recall monotonicity
        produced = rng.randint(1000, 500_000)
        confidence = rng.uniform(0.5, 0.99)
        low = rng.uniform(0.05, 0.9)
        high = rng.uniform(low, 1.0)
        low_row = fomo_confidence(RecallScenario(produced, low, confidence))
        high_row = fomo_confidence(RecallScenario(produced, high, confidence))
        assert high_row.fomo_confidence <= low_row.fomo_confidence + 1e-15
        if high_row.missed_count < low_row.missed_count:
            assert high_row.fomo_confidence < low_row.fomo_confidence

    for _ in range(cases):  # production size drops out at exact ratios
        denom = rng.randint(2, 9)
        recall = (denom - 1) / denom
        base = (denom - 1) * rng.randint(1, 50) * 100
        factor = rng.randint(2, 6)
        one = fomo_confidence(RecallScenario(base, recall, 0.95)).fomo_confidence
        other = fomo_confidence(RecallScenario(base * factor, recall, 0.95)).fomo_confidence
        assert one == other

    for _ in range(cases):  # completion quantile monotone in q
        m = rng.randint(1, 8)
        probs = [rng.uniform(0.05, 1.0) for _ in range(m)]
        q1 = rng.uniform(0.05, 0.9)
        q2 = rng.uniform(q1, 0.95)
        assert completion_quantile(probs, q1) <= completion_quantile(probs, q2)

    for _ in range(cases):  # histogram mass and percentile ordering
        corpus = _random_corpus(rng)
        trials = rng.randint(1, 40)
        summary = run_shuffles(
            corpus, trials, master_seed=rng.randint(0, 10**6),
            quantiles=(0.1, 0.5, 0.9), bin_count=rng.randint(1, 15),
        )
        assert sum(b.count for b in summary.histogram) == trials
        ordered = [summary.percentiles[q] for q in (0.1, 0.5, 0.9)]
        assert ordered == sorted(ordered)

    for _ in range(cases):  # coverage curve strictly increases
        curve = scan_accession(_random_corpus(rng))
        counts = [seen for _, seen in curve.points]
        assert all(a < b for a, b in zip(counts, counts[1:]))
        assert counts[-1] == curve.total_topics_present

    for index in range(cases):  # corpus round-trip
        corpus = _random_corpus(rng)
        path = tmp_path / f"roundtrip{index}.jsonl"
        save_corpus(corpus, path)
        assert load_corpus(path) == corpus

    check("8", "six invariant suites hold over 100 randomized cases each", True)
