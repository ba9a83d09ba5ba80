"""Collector expectations against brute-force and closed-form oracles."""

import math
import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fomo.collector import (
    CouponDistribution,
    SubsetLimitError,
    _coupon_thresholds,
    birthday_first_collision_expected,
    completion_quantile,
    dice_sum_distribution,
    expected_draws_equal,
    expected_draws_unequal_exact,
    expected_draws_unequal_sum,
    simulate_expected_draws,
)
from fomo.prng import SplitMix64, derive_key


def inclusion_exclusion_oracle(probabilities):
    """Independent subset-sum evaluation, one subset at a time."""
    m = len(probabilities)
    total = 0.0
    for size in range(1, m + 1):
        sign = 1.0 if size % 2 == 1 else -1.0
        for subset in combinations(range(m), size):
            total += sign / sum(probabilities[i] for i in subset)
    return total


def single_trial_draws(dist, trial_key):
    """Draws one collection run sequentially; reference path for the
    lockstep sampler (same key, same thresholds, same result)."""
    m = len(dist)
    thresholds = _coupon_thresholds(np.asarray(dist.probabilities)).tolist()
    rng = SplitMix64(trial_key)
    seen = set()
    t = 0
    while len(seen) < m:
        t += 1
        u = rng.next_u64()
        k = 0
        while k < m and thresholds[k] <= u:
            k += 1
        if k < m:
            seen.add(k)
    return t


@st.composite
def small_distributions(draw, max_size=8):
    size = draw(st.integers(2, max_size))
    raw = draw(
        st.lists(st.floats(0.02, 1.0), min_size=size, max_size=size)
    )
    scale = draw(st.floats(0.2, 1.0))
    total = sum(raw)
    return CouponDistribution(tuple(scale * p / total for p in raw))


class TestDiceDistribution:
    def test_single_ways_and_five_ways(self):
        dist = dice_sum_distribution()
        assert dist.probabilities[0] == 1 / 36  # sum of 2
        assert dist.probabilities[-1] == 1 / 36  # sum of 12
        assert dist.probabilities[4] == 5 / 36  # sum of 6, five ways

    def test_probabilities_exhaust_all_outcomes(self):
        assert math.fsum(dice_sum_distribution().probabilities) == 1.0


class TestEqualCollector:
    def test_one_coupon_one_draw(self):
        assert expected_draws_equal(1) == 1.0

    def test_two_coupons(self):
        # 1 draw plus a geometric wait with p = 1/2
        assert expected_draws_equal(2) == pytest.approx(3.0, rel=1e-15)

    def test_full_year_of_birthdays(self):
        exact = Fraction(365) * sum(Fraction(1, i) for i in range(1, 366))
        assert expected_draws_equal(365) == pytest.approx(float(exact), rel=1e-13)
        assert expected_draws_equal(365) == pytest.approx(2364.646, abs=5e-4)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            expected_draws_equal(0)


class TestExactCollector:
    def test_dice_take_just_over_sixty_one_rolls(self):
        value = expected_draws_unequal_exact(dice_sum_distribution())
        assert value == pytest.approx(61.22, abs=0.01)
        assert value == pytest.approx(
            inclusion_exclusion_oracle(dice_sum_distribution().probabilities),
            rel=1e-12,
        )

    def test_two_lopsided_coupons(self):
        # 1/0.9 + 1/0.1 - 1/(0.9+0.1)
        value = expected_draws_unequal_exact([0.9, 0.1])
        assert value == pytest.approx(1 / 0.9 + 1 / 0.1 - 1.0, rel=1e-12)
        assert value == pytest.approx(10.1111, abs=1e-4)

    def test_matches_equal_form_on_uniform(self):
        for m in (2, 5, 11, 17, 20):
            uniform = CouponDistribution.uniform(m)
            assert expected_draws_unequal_exact(uniform) == pytest.approx(
                expected_draws_equal(m), rel=1e-9
            )

    def test_subset_limit(self):
        with pytest.raises(SubsetLimitError, match="expected_draws_unequal_sum"):
            expected_draws_unequal_exact(CouponDistribution.uniform(26))

    def test_blocked_enumeration_crosses_block_boundary(self):
        # m=22 exercises the low-block/high-offset split
        dist = CouponDistribution.uniform(22)
        assert expected_draws_unequal_exact(dist) == pytest.approx(
            expected_draws_equal(22), rel=1e-9
        )

    @given(small_distributions(max_size=7))
    @settings(max_examples=60, deadline=None)
    def test_matches_the_one_subset_at_a_time_oracle(self, dist):
        assert expected_draws_unequal_exact(dist) == pytest.approx(
            inclusion_exclusion_oracle(dist.probabilities), rel=1e-9
        )

    @given(small_distributions())
    @settings(max_examples=100, deadline=None)
    def test_union_and_sum_bounds(self, dist):
        value = expected_draws_unequal_exact(dist)
        assert value >= max(1.0 / p for p in dist.probabilities) - 1e-9
        assert value <= sum(1.0 / p for p in dist.probabilities) + 1e-9

    @given(small_distributions(max_size=6), st.floats(0.1, 0.9))
    @settings(max_examples=100, deadline=None)
    def test_rarer_rarest_never_speeds_collection(self, dist, shrink):
        # lower the smallest probability, renormalizing the rest so the
        # total stays put: completion can only slow down
        probs = list(dist.probabilities)
        lowest = min(range(len(probs)), key=lambda i: probs[i])
        removed = probs[lowest] * (1.0 - shrink)
        others = sum(probs) - probs[lowest]
        slower = [
            p * (1.0 + removed / others) if i != lowest else p * shrink
            for i, p in enumerate(probs)
        ]
        before = expected_draws_unequal_exact(dist)
        after = expected_draws_unequal_exact(CouponDistribution(tuple(slower)))
        assert after >= before - 1e-9


class TestScalableForm:
    def test_dice_agree_with_exact(self):
        dice = dice_sum_distribution()
        assert expected_draws_unequal_sum(dice) == pytest.approx(
            expected_draws_unequal_exact(dice), rel=1e-8
        )

    def test_single_coupon_is_geometric(self):
        assert expected_draws_unequal_sum([0.5]) == pytest.approx(2.0, rel=1e-9)

    def test_uniform_365_matches_harmonic(self):
        assert expected_draws_unequal_sum(CouponDistribution.uniform(365)) == pytest.approx(
            expected_draws_equal(365), rel=1e-9
        )

    @given(small_distributions(max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_agrees_with_exact_everywhere(self, dist):
        exact = expected_draws_unequal_exact(dist)
        scalable = expected_draws_unequal_sum(dist)
        assert scalable == pytest.approx(exact, rel=1e-6)

    def test_sixty_four_power_law_prevalences(self):
        # steep power law from 0.36 down to the one-in-714k scale: finite,
        # and dominated by the waits for the rare tail
        exponent = math.log(0.36 / 1.4e-6) / math.log(64)
        prevs = [0.36 / (i + 1) ** exponent for i in range(64)]
        value = expected_draws_unequal_sum(prevs)
        assert value >= 1.0 / min(prevs)
        assert value == pytest.approx(1801412.0, rel=1e-3)

    def test_accepts_multilabel_prevalences_summing_above_one(self):
        value = expected_draws_unequal_sum([0.9, 0.8, 0.5])
        assert value > 1.0 / 0.5

    def test_sixty_four_coupons_cross_checked_by_monte_carlo(self):
        # same power-law shape at a samplable rarest prevalence (the
        # one-in-714k tail would need ~2e10 simulated draws)
        exponent = math.log(0.36 / 1e-3) / math.log(64)
        dist = CouponDistribution(
            tuple(0.36 / (i + 1) ** exponent for i in range(64))
        )
        value = expected_draws_unequal_sum(dist)
        sample = simulate_expected_draws(dist, 10_000, seed=64)
        assert abs(sample.mean - value) <= 3 * sample.std_error


class TestCompletionQuantile:
    def test_certain_coupon(self):
        assert completion_quantile([1.0], 0.5) == 1

    def test_two_fair_coins_hand_computed(self):
        # (1 - 2^-t)^2: 0.5625 at t=2, 0.765625 at t=3
        assert completion_quantile([0.5, 0.5], 0.75) == 3

    def test_dice_median_close_to_simulated_rolls(self):
        # oracle: simulate actual pair-of-dice rolls with the stdlib PRNG
        rng = random.Random(20240131)
        completions = []
        for _ in range(100_000):
            seen = 0
            rolls = 0
            while seen != 0b11111111111:
                rolls += 1
                total = rng.randrange(6) + rng.randrange(6) + 2
                seen |= 1 << (total - 2)
            completions.append(rolls)
        completions.sort()
        simulated_median = completions[len(completions) // 2 - 1]
        analytic = completion_quantile(dice_sum_distribution(), 0.5)
        assert abs(analytic - simulated_median) <= 1

    @given(small_distributions(), st.floats(0.05, 0.9), st.floats(0.01, 0.09))
    @settings(max_examples=100, deadline=None)
    def test_nondecreasing_in_q(self, dist, q, bump):
        assert completion_quantile(dist, q) <= completion_quantile(dist, q + bump)

    def test_definition_is_the_smallest_t(self):
        dist = [0.3, 0.2, 0.05]
        t = completion_quantile(dist, 0.8)

        def coverage(steps):
            return math.prod(1 - (1 - p) ** steps for p in dist)

        assert coverage(t) >= 0.8
        assert coverage(t - 1) < 0.8

    @pytest.mark.parametrize("q", [0.0, 1.0, -0.2, 1.5])
    def test_rejects_bad_quantile(self, q):
        with pytest.raises(ValueError):
            completion_quantile([0.5], q)


class TestBirthdayCollision:
    def test_value_against_exact_rational_oracle(self):
        # E[X] = sum_k P(first k people all have distinct birthdays)
        survival = Fraction(1)
        exact = Fraction(1)
        for k in range(1, 366):
            exact += survival
            survival *= Fraction(365 - k, 365)
        value = birthday_first_collision_expected()
        assert value == pytest.approx(float(exact), rel=1e-12)
        assert value == pytest.approx(24.6166, abs=1e-4)

    def test_about_two_dozen(self):
        value = birthday_first_collision_expected()
        assert value == pytest.approx(24.6, abs=0.1)
        assert 23.0 < value < 25.0


class TestMonteCarlo:
    def test_dice_within_three_standard_errors(self):
        sample = simulate_expected_draws(dice_sum_distribution(), 100_000, seed=4)
        exact = expected_draws_unequal_exact(dice_sum_distribution())
        assert abs(sample.mean - exact) <= 3 * sample.std_error

    def test_random_five_coupon_distributions(self):
        rng = random.Random(99)
        for trial in range(5):
            raw = [rng.uniform(0.05, 1.0) for _ in range(5)]
            scale = rng.uniform(0.5, 1.0) / sum(raw)
            dist = CouponDistribution(tuple(p * scale for p in raw))
            sample = simulate_expected_draws(dist, 100_000, seed=trial)
            exact = expected_draws_unequal_exact(dist)
            assert abs(sample.mean - exact) <= 3 * sample.std_error

    def test_deterministic_for_a_seed(self):
        dist = dice_sum_distribution()
        first = simulate_expected_draws(dist, 2000, seed=8)
        second = simulate_expected_draws(dist, 2000, seed=8)
        assert first == second
        assert first != simulate_expected_draws(dist, 2000, seed=9)

    def test_lockstep_equals_sequential_reference(self):
        dist = CouponDistribution((0.4, 0.35, 0.2))
        batch = simulate_expected_draws(dist, 64, seed=31)
        sequential = [single_trial_draws(dist, derive_key(31, i)) for i in range(64)]
        assert batch.mean == sum(sequential) / len(sequential)
        assert batch.minimum == min(sequential)
        assert batch.maximum == max(sequential)

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            simulate_expected_draws(dice_sum_distribution(), 0, seed=1)


class TestCouponDistributionValidation:
    def test_rejects_zero_probability(self):
        with pytest.raises(ValueError):
            CouponDistribution((0.5, 0.0))

    def test_rejects_sum_above_one(self):
        with pytest.raises(ValueError):
            CouponDistribution((0.7, 0.7))

    def test_accepts_sum_exactly_one(self):
        CouponDistribution((0.25, 0.75))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            CouponDistribution(())

    def test_uniform_helper(self):
        dist = CouponDistribution.uniform(4)
        assert dist.probabilities == (0.25, 0.25, 0.25, 0.25)
