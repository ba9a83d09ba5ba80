"""Closed-form math against published values and hand oracles."""

import decimal
import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fomo.analytic import (
    FomoRow,
    RecallScenario,
    first_discovery_pmf,
    fomo_confidence,
    fomo_table,
    format_percent,
    missed_set_size,
    novel_topic_prob_in_missed,
    prevalence_upper_bound,
)

C95 = 0.95

# The twelve reference scenarios: production sizes by recall levels at
# 95% confidence, with their published outputs (percent columns shown to
# the precision they are usually quoted at).
REFERENCE_ROWS = [
    # produced, recall, prevalence%, missed, prob_in_missed%, fomo%
    (50000, 0.80, 0.0060, 12500, 52.71, 2.636),
    (100000, 0.80, 0.0030, 25000, 52.71, 2.636),
    (200000, 0.80, 0.0015, 50000, 52.71, 2.636),
    (50000, 0.70, 0.0060, 21428, 72.30, 3.615),
    (100000, 0.70, 0.0030, 42857, 72.30, 3.615),
    (200000, 0.70, 0.0015, 85714, 72.30, 3.615),
    (50000, 0.60, 0.0060, 33333, 86.43, 4.321),
    (100000, 0.60, 0.0030, 66666, 86.43, 4.321),
    (200000, 0.60, 0.0015, 133333, 86.43, 4.321),
    (50000, 0.50, 0.0060, 50000, 95.00, 4.750),
    (100000, 0.50, 0.0030, 100000, 95.00, 4.750),
    (200000, 0.50, 0.0015, 200000, 95.00, 4.750),
]


class TestFirstDiscoveryPmf:
    def test_most_common_topic_worked_example(self):
        assert first_discovery_pmf(0.36, 1) == pytest.approx(0.36)
        assert first_discovery_pmf(0.36, 2) == pytest.approx(0.2304)
        assert first_discovery_pmf(0.36, 3) == pytest.approx(0.147456)

    def test_certain_topic(self):
        assert first_discovery_pmf(1.0, 1) == 1.0
        assert first_discovery_pmf(1.0, 2) == 0.0

    @pytest.mark.parametrize("prevalence", [0.0, -0.1, 1.5])
    def test_rejects_bad_prevalence(self, prevalence):
        with pytest.raises(ValueError):
            first_discovery_pmf(prevalence, 1)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            first_discovery_pmf(0.5, 0)

    @given(st.floats(1e-6, 1.0), st.integers(1, 500))
    def test_partial_sums_telescope(self, p, big_k):
        # sum_{k<=K} pmf equals 1 - (1-p)^K; floats keep it to ~1e-12.
        partial = math.fsum(first_discovery_pmf(p, k) for k in range(1, big_k + 1))
        closed = 1.0 if p == 1.0 else -math.expm1(big_k * math.log1p(-p))
        assert partial == pytest.approx(closed, rel=1e-12, abs=1e-12)
        assert partial >= closed - 1e-12


class TestPrevalenceUpperBound:
    @pytest.mark.parametrize(
        "n, shown_pct",
        [(50000, 0.0060), (100000, 0.0030), (200000, 0.0015)],
    )
    def test_reference_bounds(self, n, shown_pct):
        assert prevalence_upper_bound(n, C95) * 100 == pytest.approx(shown_pct, abs=5e-5)

    def test_single_document(self):
        assert prevalence_upper_bound(1, C95) == pytest.approx(0.95, rel=1e-12)

    def test_two_million_production(self):
        # roughly one in 735 thousand; often misquoted near 1 in 714,286
        bound = prevalence_upper_bound(2202935, C95)
        assert bound == pytest.approx(1.36e-6, rel=1e-3)

    @given(st.integers(1, 10**7), st.floats(0.01, 0.999))
    def test_bound_solves_the_binomial_equation(self, n, confidence):
        p = prevalence_upper_bound(n, confidence)
        residual = math.exp(n * math.log1p(-p))  # (1-p)^n
        assert residual == pytest.approx(1.0 - confidence, rel=1e-12)

    @given(st.integers(1, 10**6), st.floats(0.05, 0.99))
    def test_strictly_decreasing_in_n(self, n, confidence):
        assert prevalence_upper_bound(n, confidence) > prevalence_upper_bound(
            n + 1, confidence
        ) > prevalence_upper_bound(10 * n + 10, confidence)

    @pytest.mark.parametrize("confidence", [0.0, 1.0, -0.5, 2.0])
    def test_rejects_bad_confidence(self, confidence):
        with pytest.raises(ValueError):
            prevalence_upper_bound(100, confidence)


class TestMissedSetSize:
    def test_reference_missed_counts(self):
        for produced, recall, _, missed, _, _ in REFERENCE_ROWS:
            assert missed_set_size(produced, recall) == missed

    def test_floor_not_round(self):
        # 50000 * 3 / 7 = 21428.57...: floor, never round
        assert missed_set_size(50000, 0.7) == 21428
        assert missed_set_size(200000, 0.7) == 85714

    def test_perfect_recall_misses_nothing(self):
        assert missed_set_size(50000, 1.0) == 0

    def test_decimal_recall_is_exact(self):
        # naive float arithmetic gives 12499.999... here
        assert missed_set_size(50000, 0.8) == 12500

    def test_rejects_zero_recall(self):
        with pytest.raises(ValueError):
            missed_set_size(100, 0.0)

    def test_rejects_an_empty_production(self):
        with pytest.raises(ValueError, match="^n_identified must be >= 1, got 0$"):
            missed_set_size(0, 0.5)

    @given(
        st.one_of(
            st.integers(1, 10**6),
            st.integers(1, 10**300),
            st.floats(1.0, 1e300).map(int),
        ),
        st.one_of(
            st.floats(0.0, 1.0, exclude_min=True),
            st.floats(5e-324, 1e-9),
            st.integers(1, 1000).map(lambda k: k / 1000),
            st.sampled_from([5e-324, 1e-10, 1e-9, 1.0000000001e-9, 2e-9]),
        ),
    )
    @settings(max_examples=500, deadline=None)
    def test_equals_the_fraction_formula(self, produced, recall):
        assert missed_set_size(produced, recall) == fraction_missed_set_size(produced, recall)


def fraction_missed_set_size(n_identified, recall):
    """missed_set_size as first written, in Fraction arithmetic: the
    recall's nearest rational with denominator at most 10**9 (its exact
    value below 1/10**9), then int(N * (1 - r) / r)."""
    r = Fraction(recall).limit_denominator(10**9)
    if r <= 0:
        r = Fraction(recall)
    return int(n_identified * (1 - r) / r)


class TestNovelTopicProb:
    def test_reference_probabilities(self):
        p50k = prevalence_upper_bound(50000, C95)
        assert novel_topic_prob_in_missed(p50k, 12500) * 100 == pytest.approx(
            52.71, abs=0.005
        )
        assert novel_topic_prob_in_missed(p50k, 50000) * 100 == pytest.approx(
            95.00, abs=0.005
        )

    def test_empty_missed_set(self):
        assert novel_topic_prob_in_missed(0.37, 0) == 0.0

    def test_certain_prevalence(self):
        assert novel_topic_prob_in_missed(1.0, 3) == 1.0

    def test_no_underflow_for_tiny_prevalence_huge_set(self):
        value = novel_topic_prob_in_missed(1e-12, 10**10)
        assert value == pytest.approx(-math.expm1(-1e-2), rel=1e-9)

    def test_rejects_a_prevalence_outside_zero_to_one(self):
        with pytest.raises(ValueError, match=r"^prevalence must be in \[0, 1\], got 1.5$"):
            novel_topic_prob_in_missed(1.5, 3)

    def test_rejects_a_negative_missed_count(self):
        with pytest.raises(ValueError, match="^missed_count must be >= 0, got -1$"):
            novel_topic_prob_in_missed(0.5, -1)


class TestFomoConfidence:
    @pytest.mark.parametrize(
        "produced, recall, fomo_pct",
        [(50000, 0.80, 2.636), (100000, 0.60, 4.321), (50000, 0.50, 4.750)],
    )
    def test_reference_confidences(self, produced, recall, fomo_pct):
        row = fomo_confidence(RecallScenario(produced, recall, C95))
        assert row.fomo_confidence * 100 == pytest.approx(fomo_pct, abs=0.005)

    def test_row_is_internally_consistent(self):
        row = fomo_confidence(RecallScenario(50000, 0.8, C95))
        assert row.prevalence_bound == prevalence_upper_bound(50000, C95)
        assert row.missed_count == missed_set_size(50000, 0.8)
        assert row.fomo_confidence == pytest.approx(
            (1 - C95) * row.prob_in_missed, rel=1e-15
        )
        # the alpha**(M/N) identity and the chained form agree numerically
        chained = novel_topic_prob_in_missed(row.prevalence_bound, row.missed_count)
        assert row.prob_in_missed == pytest.approx(chained, rel=1e-12)

    def test_fifty_percent_recall_is_alpha_squared_complement(self):
        # at R=0.5 the missed set equals the production, so the novel-topic
        # probability is the confidence itself: fomo = 0.05 * 0.95
        row = fomo_confidence(RecallScenario(100000, 0.5, C95))
        assert row.fomo_confidence == pytest.approx(0.05 * 0.95, rel=1e-12)

    @given(
        st.integers(1000, 10**6),
        st.floats(0.05, 1.0),
        st.floats(0.5, 0.99),
    )
    @settings(max_examples=150)
    def test_never_exceeds_alpha(self, produced, recall, confidence):
        row = fomo_confidence(RecallScenario(produced, recall, confidence))
        assert 0.0 <= row.fomo_confidence <= (1 - confidence) + 1e-15

    @given(
        st.integers(50_000, 500_000),
        st.floats(0.3, 0.95),
        st.floats(0.02, 0.6),
    )
    @settings(max_examples=150)
    def test_monotone_nonincreasing_in_recall(self, produced, recall, step):
        higher = min(1.0, recall + step)
        low_row = fomo_confidence(RecallScenario(produced, recall, C95))
        high_row = fomo_confidence(RecallScenario(produced, higher, C95))
        assert high_row.fomo_confidence <= low_row.fomo_confidence + 1e-15
        if high_row.missed_count < low_row.missed_count:
            assert high_row.fomo_confidence < low_row.fomo_confidence

    @given(st.integers(2, 9), st.integers(1, 40), st.sampled_from([2, 3, 5, 10]))
    @settings(max_examples=150)
    def test_production_size_drops_out_at_exact_ratios(self, denom, base, factor):
        # whenever N*(1-R)/R is an exact integer the floor is inert and the
        # result depends on the ratio alone
        numer = denom - 1  # recall = numer/denom in (0,1)
        recall = numer / denom
        n1 = numer * base * 1000
        n2 = n1 * factor
        row1 = fomo_confidence(RecallScenario(n1, recall, C95))
        row2 = fomo_confidence(RecallScenario(n2, recall, C95))
        assert row1.fomo_confidence == row2.fomo_confidence

    def test_flooring_perturbs_by_less_than_1e4(self):
        # across the reference production sizes the floor moves the ratio
        # by at most 1/N, which shifts the result by far less than 1e-4
        for recall in (0.8, 0.7, 0.6, 0.5):
            values = [
                fomo_confidence(RecallScenario(n, recall, C95)).fomo_confidence
                for n in (50000, 100000, 200000)
            ]
            assert max(values) - min(values) < 1e-4

    @pytest.mark.parametrize("confidence", [1e-20, 1e-17, 1e-300])
    def test_tiny_confidence_keeps_its_digits(self, confidence):
        # 1 - confidence rounds to 1.0 here; log1p(-confidence) does not.
        row = fomo_confidence(RecallScenario(100, 0.5, confidence))
        assert row.prob_in_missed == pytest.approx(confidence, rel=1e-12)
        assert row.fomo_confidence == pytest.approx(confidence, rel=1e-12)

    def test_confidences_from_one_half_print_as_before(self):
        # 1 - C is exact from C = 0.5 up, so these rows keep the digits of
        # the plain log(1 - C) formula, bit for bit.
        confidences = [k / 1000 for k in range(500, 1000)] + [1 - 2.0**-k for k in range(2, 53)]
        for confidence in confidences:
            for produced, recall in [(100, 0.5), (50000, 0.8), (2202935, 0.7), (7, 0.33)]:
                row = fomo_confidence(RecallScenario(produced, recall, confidence))
                ratio = row.missed_count / produced
                before = -math.expm1(ratio * math.log(1.0 - confidence))
                shown = (repr(row.prob_in_missed), repr(row.fomo_confidence))
                assert shown == (repr(before), repr((1.0 - confidence) * before))


class TestFomoTable:
    def test_reference_table(self):
        scenarios = [
            RecallScenario(produced, recall, C95)
            for produced, recall, *_ in REFERENCE_ROWS
        ]
        rows = fomo_table(scenarios)
        assert len(rows) == 12
        for row, (produced, recall, prev_pct, missed, prob_pct, fomo_pct) in zip(
            rows, REFERENCE_ROWS
        ):
            assert row.scenario.produced_count == produced
            assert row.prevalence_bound * 100 == pytest.approx(prev_pct, abs=0.005)
            assert row.missed_count == missed
            assert row.prob_in_missed * 100 == pytest.approx(prob_pct, abs=0.005)
            assert row.fomo_confidence * 100 == pytest.approx(fomo_pct, abs=0.005)

    def test_empty_input_gives_empty_table(self):
        assert fomo_table([]) == []

    def test_single_scenario_matches_direct_call(self):
        scenario = RecallScenario(77777, 0.65, 0.9)
        assert fomo_table([scenario]) == [fomo_confidence(scenario)]

    def test_repeated_recalls_match_direct_calls(self):
        # fomo_table turns each distinct recall into its rational once.
        scenarios = [
            RecallScenario(produced, recall, confidence)
            for recall in (0.8, 0.7, 1e-10, 0.333, 1.0)
            for produced in (1, 7, 50000, 2202935, 10**20)
            for confidence in (0.5, 0.95)
        ]
        assert fomo_table(scenarios) == [fomo_confidence(s) for s in scenarios]

    def test_exact_ratio_production_sizes_are_interchangeable(self):
        rows = fomo_table(
            [RecallScenario(714286 * k, 0.5, C95) for k in (1, 2, 3, 7)]
        )
        values = {row.fomo_confidence for row in rows}
        assert len(values) == 1
        assert values.pop() * 100 == pytest.approx(4.750, abs=0.005)

    def test_rows_within_1e15_of_a_50_digit_oracle(self):
        # With M the row's own missed count, each float answer against
        # Decimal at 50 digits: p = 1 - exp(ln(1-C)/N),
        # P = 1 - exp((M/N) ln(1-C)) and fomo = (1-C) P. Measured worst
        # relative errors: 2.6e-16, 3.0e-16 and 3.2e-16.
        confidences = (1e-9, 1e-6, 0.01, 0.05, 0.5, 0.9, 0.95, 0.99, 0.999999)
        recalls = (1e-6, 1e-4, 0.001, 0.01, 0.05, 0.1, 0.125, 0.2, 0.25, 0.3, 1 / 3, 0.4,
                   0.5, 0.6, 2 / 3, 0.7, 0.75, 0.8, 0.9, 0.95, 0.99, 0.999, 1.0)
        sizes = (1, 2, 3, 7, 10, 99, 100, 1000, 4096, 12345, 50000, 10**5, 200000, 500000,
                 999999, 10**6, 2202935, 10**7, 123456789, 10**9, 2**31, 10**10, 10**11,
                 999999999999, 10**12)
        scenarios = [RecallScenario(n, r, c) for c in confidences for r in recalls for n in sizes]
        worst = [0.0, 0.0, 0.0]
        with decimal.localcontext(decimal.Context(prec=50)):
            log_alpha = {c: (1 - Decimal(c)).ln() for c in confidences}
            for row in fomo_table(scenarios):
                n = row.scenario.produced_count
                c = row.scenario.confidence
                prob = 1 - (log_alpha[c] * row.missed_count / n).exp()
                exact = (1 - (log_alpha[c] / n).exp(), prob, (1 - Decimal(c)) * prob)
                got = (row.prevalence_bound, row.prob_in_missed, row.fomo_confidence)
                for k, (value, truth) in enumerate(zip(got, exact)):
                    error = abs(Decimal(value) - truth) / truth if truth else Decimal(value)
                    worst[k] = max(worst[k], float(error))
        assert len(scenarios) == 5175
        assert max(worst) < 1e-15, worst


class TestScenarioValidation:
    @pytest.mark.parametrize(
        "produced, recall, confidence",
        [(0, 0.8, 0.95), (100, 0.0, 0.95), (100, 1.2, 0.95), (100, 0.8, 1.0)],
    )
    def test_rejects_invalid_fields(self, produced, recall, confidence):
        with pytest.raises(ValueError):
            RecallScenario(produced, recall, confidence)

    def test_row_rejects_impossible_confidence(self):
        scenario = RecallScenario(100, 0.8, 0.95)
        with pytest.raises(ValueError):
            FomoRow(
                scenario=scenario,
                prevalence_bound=0.01,
                missed_count=25,
                prob_in_missed=0.5,
                fomo_confidence=0.2,  # above 1 - 0.95
            )

    def test_row_rejects_a_probability_outside_zero_to_one(self):
        scenario = RecallScenario(100, 0.8, 0.95)
        with pytest.raises(ValueError, match=r"^prob_in_missed out of \[0, 1\]: 1.5$"):
            FomoRow(scenario, 0.01, 25, prob_in_missed=1.5, fomo_confidence=0.01)


class TestFormatting:
    def test_four_significant_digits(self):
        assert format_percent(0.026356459774920623) == "2.636%"
        assert format_percent(0.527129195498412) == "52.71%"
        assert format_percent(5.991285062455488e-05) == "0.005991%"
        assert format_percent(0.95) == "95%"
