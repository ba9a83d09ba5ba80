"""Collector expectations against brute-force and closed-form oracles."""

import decimal
import itertools
import math
import random
import sys
import threading
import time
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from splitmix64_oracle import SplitMix64

import fomo.collector
import fomo.prng
import fomo.quadpack
from fomo.collector import (
    _PAIRWISE_LEAF,
    _SAMPLER_BATCH,
    _SAMPLER_STEP_DRAWS,
    CouponDistribution,
    SubsetLimitError,
    _coupon_thresholds,
    _CouponLookup,
    _pairwise_sum,
    _sample_std,
    _subset_sums,
    birthday_first_collision_expected,
    completion_quantile,
    dice_sum_distribution,
    expected_draws_equal,
    expected_draws_unequal_exact,
    expected_draws_unequal_sum,
    simulate_expected_draws,
)
from fomo.corpus import (
    BLOCK_DRAWS, TopicDistribution, generate_corpus, zipf_prevalences
)
from fomo.prng import MASK64, MAX_TRIALS, derive_key, stream_words


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


def assert_matches_sequential(dist, trials, seed):
    batch = simulate_expected_draws(dist, trials, seed)
    sequential = [single_trial_draws(dist, derive_key(seed, i)) for i in range(trials)]
    assert batch.mean == sum(sequential) / len(sequential)
    assert batch.minimum == min(sequential)
    assert batch.maximum == max(sequential)


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

    @pytest.mark.parametrize("probabilities", [(5e-324, 0.5), (1e-308, 1e-308, 0.5)])
    def test_a_subset_sum_beyond_float_range_is_an_error(self, probabilities):
        with pytest.raises(ValueError, match="leaves float range"):
            expected_draws_unequal_exact(probabilities)

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

    def test_equals_a_bisection_over_the_50_digit_product(self):
        # compare's analytic median and two other quantiles, found again by
        # bisection with the coverage product in Decimal at 50 digits. The
        # coverage of each answer and of the step before it stands at least
        # 1.2e-7 (relative) from q here, far above float error.
        rng = random.Random(38)
        with decimal.localcontext(decimal.Context(prec=50)):
            for _ in range(30):
                probabilities = [10 ** rng.uniform(-4, -0.2) for _ in range(rng.randint(2, 64))]
                misses = [1 - Decimal(p) for p in probabilities]
                for q in (0.1, 0.5, 0.95):
                    def covered(t):
                        return math.prod((1 - miss**t for miss in misses), start=1) >= q
                    hi = 1
                    while not covered(hi):
                        hi *= 2
                    lo = hi // 2
                    while hi - lo > 1:
                        mid = (lo + hi) // 2
                        if covered(mid):
                            hi = mid
                        else:
                            lo = mid
                    assert completion_quantile(probabilities, q) == hi, (probabilities, q)

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
        assert_matches_sequential(CouponDistribution((0.4, 0.35, 0.2)), 64, seed=31)

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            simulate_expected_draws(dice_sum_distribution(), 0, seed=1)

    def test_one_trial_has_no_standard_error(self):
        sample = simulate_expected_draws(dice_sum_distribution(), 1, seed=1)
        assert sample.std_error == 0.0
        assert sample.trials == 1 and sample.mean == sample.minimum == sample.maximum

    def test_rejects_trials_above_the_cap(self):
        with pytest.raises(ValueError, match=str(MAX_TRIALS)):
            simulate_expected_draws(dice_sum_distribution(), MAX_TRIALS + 1, seed=1)


def power_law(count, exponent=1.0):
    """Probabilities proportional to (i+1)**-exponent, summing to 0.999."""
    weights = [(i + 1) ** -exponent for i in range(count)]
    scale = 0.999 / math.fsum(weights)
    return CouponDistribution(tuple(w * scale for w in weights))


# perfbench's sum-large input.
SUM_LARGE = power_law(80_000)


# Name: (input, trials, seed, and the result's mean and standard error as
# float.hex(), minimum and maximum), recorded before the guide table and
# the trial batches went in. The one-small-batch-boundary case was
# recorded with 2**16-trial batches, before they shrank to 2**14.
PINNED_MONTE_CARLO = {
    "dice": (dice_sum_distribution(), 1_000_000, 2024,
             "0x1.e9b17df19d66bp+5", "0x1.2634817940466p-5", 11, 509),
    "power-law-25": (power_law(25), 100_000, 2025,
                     "0x1.e2e421c044285p+7", "0x1.3bd0bb08aa951p-2", 54, 1114),
    "one-batch-boundary": (dice_sum_distribution(), 2**16 + 3, 2026,
                           "0x1.e9a3231696bc4p+5", "0x1.1fda8bd4de97fp-3", 11, 440),
    "one-small-batch-boundary": (dice_sum_distribution(), 2**14 + 3, 2027,
                                 "0x1.ef068bb173ae9p+5", "0x1.24dd26d8bd9bcp-2", 11, 409),
}


class TestPinnedMonteCarlo:
    """The sampler must keep reproducing PINNED_MONTE_CARLO bit for bit."""

    @pytest.mark.parametrize(
        "dist, trials, seed, mean, std_error, minimum, maximum",
        PINNED_MONTE_CARLO.values(),
        ids=PINNED_MONTE_CARLO,
    )
    def test_recorded_results(self, dist, trials, seed, mean, std_error, minimum, maximum):
        sample = simulate_expected_draws(dist, trials, seed)
        assert sample.mean.hex() == mean
        assert sample.std_error.hex() == std_error
        assert (sample.minimum, sample.maximum) == (minimum, maximum)


# Name: (input, the exact route's result as float.hex()), recorded before
# the route's blocks went into one reused buffer.
PINNED_EXACT = {
    "dice": (dice_sum_distribution(), "0x1.e9bd34391ec24p+5"),
    "power-law-25": (power_law(25), "0x1.e23fa3cc18886p+7"),
    "power-law-25-flat": (power_law(25, 0.5), "0x1.f51778f392a46p+6"),
    "power-law-22": (power_law(22), "0x1.8bdc9d2545f55p+7"),
}
# Name: (input, the sum route's result as float.hex()), recorded before the
# route's panels went onto the block map.
PINNED_SUM = {
    "power-law-80000": (SUM_LARGE, "0x1.1201e6c76414ap+23"),
    "one-in-1e20": ((0.5, 1e-20), "0x1.5af1d78b05d4fp+66"),
}


class TestPinnedExact:
    """The exact route must keep reproducing PINNED_EXACT bit for bit."""

    @pytest.mark.parametrize("dist, expected", PINNED_EXACT.values(), ids=PINNED_EXACT)
    def test_recorded_results(self, dist, expected):
        assert expected_draws_unequal_exact(dist).hex() == expected


class TestPinnedSum:
    """The sum route must keep reproducing PINNED_SUM bit for bit."""

    @pytest.mark.parametrize("probabilities, expected", PINNED_SUM.values(), ids=PINNED_SUM)
    def test_recorded_results(self, probabilities, expected):
        assert expected_draws_unequal_sum(probabilities).hex() == expected


def full_array_exact(probabilities):
    """The exact route with each block's terms in one array and one np.sum:
    2**20 floats for the subsets of the first 20 coupons, once per subset
    of the rest, block 0 summed from index 1 to drop the empty subset."""
    p = np.asarray(probabilities, dtype=float)
    low_sums, low_signs = _subset_sums(p[:20])
    high_sums, high_signs = _subset_sums(p[20:])
    total = 0.0
    with np.errstate(divide="ignore"):
        for bits, (high_sum, high_sign) in enumerate(zip(high_sums, high_signs)):
            terms = low_signs / (low_sums + high_sum)
            block = float(np.sum(terms[1:] if bits == 0 else terms))
            total += block if high_sign > 0 else -block
    return -total


def lognormal_coupons(m, seed):
    """m lognormal weights scaled to a total drawn from [0.3, 1.0]."""
    rng = random.Random(seed)
    weights = [rng.lognormvariate(0.0, 1.0) for _ in range(m)]
    scale = rng.uniform(0.3, 1.0) / math.fsum(weights)
    return tuple(w * scale for w in weights)


class TestNumpyOrder:
    """The exact route and the Monte Carlo standard error sum leaf by leaf,
    and must give the bits of numpy's sums over the full arrays."""

    @pytest.mark.parametrize(
        "n, start",
        [(1, 0), (7, 0), (8, 0), (129, 0), (2**16, 0), (2**16 + 1, 0),
         (3 * 2**16 + 5, 0), (10**6 + 3, 0), (2**20 - 1, 1)],
    )
    def test_pairwise_sum_is_np_sum(self, n, start):
        rng = np.random.default_rng(n)
        values = rng.standard_normal(start + n) * np.exp(rng.uniform(-30.0, 30.0, start + n))
        sizes = []

        def leaf(first, count):
            sizes.append(count)
            return values[first:first + count]

        assert _pairwise_sum(leaf, start, n).hex() == float(np.sum(values[start:])).hex()
        assert max(sizes) <= _PAIRWISE_LEAF and sum(sizes) == n

    @pytest.mark.parametrize("m", [1, 2, 7, 15, 16, 17, 19, 20, 21, 23, 25])
    def test_exact_route_is_the_full_array_sum(self, m):
        probabilities = lognormal_coupons(m, seed=m)
        expected = full_array_exact(probabilities)
        assert expected_draws_unequal_exact(probabilities).hex() == expected.hex()

    @given(small_distributions(max_size=10))
    @settings(max_examples=40, deadline=None)
    def test_exact_route_is_the_full_array_sum_on_small_inputs(self, dist):
        expected = full_array_exact(dist.probabilities)
        assert expected_draws_unequal_exact(dist).hex() == expected.hex()

    @pytest.mark.parametrize("trials", [2, 3, 2**16 + 1, 10**6 + 3])
    def test_sample_std_is_np_std(self, trials):
        counts = np.random.default_rng(trials).integers(11, 10**6, trials)
        value = _sample_std(counts, float(counts.mean()))
        assert value.hex() == float(counts.std(ddof=1)).hex()


def relative_error(value, numerator, denominator):
    """|value - numerator / denominator| over the exact value, in integers."""
    v = Fraction(value)
    return abs(v.numerator * denominator - numerator * v.denominator) / (numerator * v.denominator)


def uniform_mean(m):
    """E[T] for m coupons of float probability q = fl(1/m), in rationals:
    sum over k of (-1)**(k+1) C(m, k) / (k q) is H_m / q."""
    truth = sum(Fraction(1, i) for i in range(1, m + 1)) / Fraction(1.0 / m)
    return truth.numerator, truth.denominator


def inclusion_exclusion_rational(probabilities):
    """E[T] = sum over nonempty J of (-1)**(|J|+1) / P(J) in rationals, as
    (numerator, denominator). Each P(J) is an integer over 2**k for the
    finest float denominator 2**k; the 2**m - 1 terms are added pairwise
    with no gcd, which for 14 coupons would cost a second."""
    exact = [Fraction(p) for p in probabilities]
    k = max(f.denominator for f in exact).bit_length() - 1
    scaled = [f.numerator << (k - f.denominator.bit_length() + 1) for f in exact]
    sums, signs = [0], [-1]
    for x in scaled:  # subsets by doubling, as _subset_sums builds them
        sums += [s + x for s in sums]
        signs += [-s for s in signs]
    terms = list(zip(signs[1:], sums[1:]))  # 2**k * sign / (2**k P(J))
    while len(terms) > 1:
        pairs = zip(terms[::2], terms[1::2])
        terms = [(a * d + c * b, b * d) for (a, b), (c, d) in pairs] + terms[len(terms) & ~1 :]
    numerator, denominator = terms[0]
    return numerator << k, denominator


class TestErrorAgainstRationals:
    """Each route held to the true mean of its float input, not to another
    route or to its own earlier output. The exact route is exact in
    rationals, but its float sum of 2**m signed terms cancels: at 25
    uniform coupons it is off by 4.7e-12. The sum route promises 1e-9."""

    @pytest.mark.parametrize("m", [13, 20, 25])
    def test_exact_route_on_uniform_coupons(self, m):
        value = expected_draws_unequal_exact(CouponDistribution.uniform(m))
        assert relative_error(value, *uniform_mean(m)) <= 1e-10

    @pytest.mark.parametrize("m", [13, 20, 25, 365, 10**4])
    def test_sum_route_on_uniform_coupons(self, m):
        value = expected_draws_unequal_sum(CouponDistribution.uniform(m))
        assert relative_error(value, *uniform_mean(m)) <= 1e-9

    def test_both_routes_on_a_power_law(self):
        dist = power_law(14)
        truth = inclusion_exclusion_rational(dist.probabilities)
        assert relative_error(expected_draws_unequal_exact(dist), *truth) <= 1e-10
        assert relative_error(expected_draws_unequal_sum(dist), *truth) <= 1e-9

    def test_the_rational_oracles_agree(self):
        # Inclusion-exclusion over uniform coupons is H_m / q term by term.
        numerator, denominator = inclusion_exclusion_rational((1.0 / 9,) * 9)
        assert Fraction(numerator, denominator) == Fraction(*uniform_mean(9))


class TestRareCouponTail:
    PROBABILITIES = (1e-5, 0.5, 0.49)

    def test_few_live_trials_draw_blocks_per_step(self, monkeypatch):
        # Ten trials waiting on a 1e-5 coupon need up to 238,117 draws;
        # drawn one per step, that took as many stream_words calls.
        calls = []

        def counted(keys, counters):
            calls.append(np.size(counters))
            return stream_words(keys, counters)

        monkeypatch.setattr(fomo.collector, "stream_words", counted)
        sample = simulate_expected_draws(self.PROBABILITIES, 10, seed=1)
        # Recorded when every trial drew one counter a step.
        assert (sample.mean, sample.std_error) == (106593.0, 23131.314166922915)
        assert (sample.minimum, sample.maximum) == (1569, 238117)
        assert len(calls) < 1000
        assert max(calls) == _SAMPLER_STEP_DRAWS

    def test_tail_blocks_equal_sequential_reference(self):
        assert_matches_sequential(CouponDistribution((1e-3, 0.5, 0.499)), 12, seed=5)


class TestGuideLookup:
    # 56 common coupons, then 8 rarer than 2**-16 each, so the last
    # buckets below the no-coupon mass hold several thresholds apiece.
    RARE = tuple(2.0**-19 * (k + 1) for k in range(8))
    PROBABILITIES = tuple(0.9 / 56 for _ in range(56)) + RARE

    def reference_bits(self, thresholds, draws):
        m = thresholds.size
        bit = np.array([1 << k for k in range(m)] + [0], dtype=np.uint64)
        return bit[np.searchsorted(thresholds, draws, side="right")]

    @staticmethod
    def words_of(draws):
        """The mixer words whose draws are ``draws``: y ^ (y >> 31) ^
        (y >> 62) inverts y = w ^ (w >> 31) on 64 bits."""
        return draws ^ (draws >> np.uint64(31)) ^ (draws >> np.uint64(62))

    @pytest.mark.parametrize("total", ["below-one", "one"])
    def test_equals_searchsorted(self, total):
        p = np.asarray(self.PROBABILITIES)
        if total == "one":
            p = p / p.sum()
        thresholds = _coupon_thresholds(p)
        assert np.bincount((thresholds >> np.uint64(48)).astype(np.int64)).max() > 1
        lookup = _CouponLookup(thresholds)
        edges = np.arange(1 << 16, dtype=np.uint64) << np.uint64(48)
        draws = np.concatenate([
            thresholds, thresholds - np.uint64(1), thresholds + np.uint64(1),
            edges, edges - np.uint64(1), np.array([0, MASK64], dtype=np.uint64),
            np.random.default_rng(7).integers(0, MASK64, 10**5, dtype=np.uint64, endpoint=True),
        ])
        bits = lookup.bits(self.words_of(draws))
        assert np.array_equal(bits, self.reference_bits(thresholds, draws))

    def test_keeps_the_shape_of_a_block_of_draws(self):
        thresholds = _coupon_thresholds(np.asarray(self.PROBABILITIES))
        lookup = _CouponLookup(thresholds)
        draws = np.random.default_rng(3).integers(
            0, MASK64, (64, 50), dtype=np.uint64, endpoint=True
        )
        draws[::7, ::3] = thresholds[np.arange(draws[::7, ::3].size) % 64].reshape(10, 17)
        bits = lookup.bits(self.words_of(draws))
        assert np.array_equal(bits, self.reference_bits(thresholds, draws))

    @pytest.mark.parametrize(
        "m, dtype",
        [(8, np.uint8), (9, np.uint16), (16, np.uint16), (17, np.uint32),
         (32, np.uint32), (33, np.uint64), (64, np.uint64)],
    )
    def test_equal_coupons_equal_sequential_reference(self, m, dtype):
        # Masks take the narrowest unsigned type that holds m bits. Where
        # m is its width every bit is in use and the sentinel is the full
        # mask.
        dist = CouponDistribution.uniform(m)
        assert _CouponLookup(_coupon_thresholds(np.asarray(dist.probabilities))).dtype == dtype
        assert_matches_sequential(dist, 20, seed=5)

    def test_rare_coupon_trials_equal_sequential_reference(self):
        dist = CouponDistribution(
            (0.5, 0.3, 0.1, 0.05, 0.02, 0.01, 0.005, 0.001, 3e-4, 1e-4)
        )
        assert_matches_sequential(dist, 10, seed=77)


@pytest.fixture
def fast_switching():
    """Threads hand over the interpreter lock every 10 us, so an update
    lost between workers would show."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


class TestWorkerCount:
    """Blocks of the one block map, ``prng._map_in_order``, run on one
    thread per usable core, the caller among them, and the count changes
    no bit of any result: 1, 2 and 3 workers, the last more than a 2-core
    machine runs at once."""

    @pytest.mark.parametrize("cpu_count, cores", [(3, 3), (None, 1)])
    def test_usable_cores_without_an_affinity_mask(self, monkeypatch, cpu_count, cores):
        # Where os has no sched_getaffinity, the CPU count, or 1 if unknown.
        monkeypatch.delattr(fomo.prng.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(fomo.prng.os, "cpu_count", lambda: cpu_count)
        assert fomo.prng._usable_cores() == cores

    @pytest.mark.parametrize(
        "dist, trials, seed",
        [
            (dice_sum_distribution(), 100_000, 4),
            (CouponDistribution(TestRareCouponTail.PROBABILITIES), 10, 1),
            (CouponDistribution.uniform(64), 2 * _SAMPLER_BATCH + 5, 6),
        ],
        ids=["dice", "rare-tail", "sixty-four-equal"],
    )
    @pytest.mark.usefixtures("fast_switching")
    def test_monte_carlo_is_the_same_on_any_count(self, monkeypatch, dist, trials, seed):
        results = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(fomo.prng, "_usable_cores", lambda w=workers: w)
            results.append(simulate_expected_draws(dist, trials, seed))
        assert results[1] == results[0] and results[2] == results[0]

    @pytest.mark.parametrize(
        "dist",
        [dice_sum_distribution(), power_law(22), power_law(25)],
        ids=["dice", "power-law-22", "power-law-25"],
    )
    @pytest.mark.usefixtures("fast_switching")
    def test_exact_is_the_same_on_any_count(self, monkeypatch, dist):
        values = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(fomo.prng, "_usable_cores", lambda w=workers: w)
            values.append(expected_draws_unequal_exact(dist).hex())
        assert values[1] == values[0] and values[2] == values[0]

    @pytest.mark.parametrize(
        "probabilities",
        [dice_sum_distribution(), SUM_LARGE, (0.5, 1e-20)],
        ids=["dice", "power-law-80000", "one-in-1e20"],
    )
    @pytest.mark.usefixtures("fast_switching")
    def test_sum_is_the_same_on_any_count(self, monkeypatch, probabilities):
        values = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(fomo.prng, "_usable_cores", lambda w=workers: w)
            values.append(expected_draws_unequal_sum(probabilities).hex())
        assert values[1] == values[0] and values[2] == values[0]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_no_warning_leaves_a_sum_panel(self, monkeypatch, workers):
        # exp(-1e-20 * u) rounds to 1.0 for every u up to 4096, so the
        # panels there take log1p(-1) = -inf, and pytest turns a
        # RuntimeWarning into an error. On 2 workers the caller holds its
        # first panel until the other worker has started one, [2, 4].
        monkeypatch.setattr(fomo.prng, "_usable_cores", lambda: workers)
        integrate = fomo.quadpack.dqagse
        other_started = threading.Event()
        other_ends = []

        def dqagse(f, a, b, *rest):
            if threading.current_thread() is not threading.main_thread():
                other_ends.append(b)
                other_started.set()
            elif workers == 2:
                assert other_started.wait(timeout=10)
            return integrate(f, a, b, *rest)

        monkeypatch.setattr(fomo.quadpack, "dqagse", dqagse)
        assert expected_draws_unequal_sum((0.5, 1e-20)).hex() == "0x1.5af1d78b05d4fp+66"
        if workers == 2:
            assert min(other_ends) <= 4096

    @pytest.mark.parametrize("workers", [1, 2])
    def test_an_error_in_a_batch_stops_the_run(self, monkeypatch, workers):
        # stream_words raises on its 30th call, in an early batch of 20.
        # Batches start in order, and after the error only the batches
        # the other workers hold (or are taking up) may run.
        monkeypatch.setattr(fomo.prng, "_usable_cores", lambda: workers)
        derive = fomo.collector.derive_key_array
        calls = itertools.count(1)
        batch = threading.local()
        starts, failed_in = [], []

        def keyed(seed, index):
            batch.start = int(index[0])
            starts.append(batch.start)
            return derive(seed, index)

        def failing(keys, counters):
            if next(calls) == 30:
                failed_in.append(batch.start)
                raise RuntimeError("planted")
            return stream_words(keys, counters)

        monkeypatch.setattr(fomo.collector, "derive_key_array", keyed)
        monkeypatch.setattr(fomo.collector, "stream_words", failing)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="planted"):
            simulate_expected_draws(dice_sum_distribution(), 20 * _SAMPLER_BATCH, seed=2)
        assert threading.active_count() == before
        assert max(starts) <= failed_in[0] + (workers - 1) * 2 * _SAMPLER_BATCH
        assert len(starts) < 10

    def test_no_block_starts_after_an_error(self, monkeypatch):
        # Block 1 raises while block 0 still runs on the other worker;
        # neither worker may go on to the blocks after them.
        monkeypatch.setattr(fomo.prng, "_usable_cores", lambda: 2)
        raised = threading.Event()
        ran = []

        def block(item):
            ran.append(item)
            if item == 1:
                raised.set()
                raise RuntimeError("planted")
            if item == 0:
                assert raised.wait(timeout=10)
                time.sleep(0.1)  # long beside the error reaching the other worker

        with pytest.raises(RuntimeError, match="planted"):
            fomo.prng._map_in_order(block, range(10))
        assert sorted(ran) == [0, 1]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_an_interrupt_in_the_caller_cancels_the_waiting_blocks(self, monkeypatch, workers):
        monkeypatch.setattr(fomo.prng, "_usable_cores", lambda: workers)
        ran = []

        def block(item):
            ran.append(item)
            # The caller is interrupted in its own first block, while any
            # other worker runs one that is long beside that.
            if threading.current_thread() is threading.main_thread():
                raise KeyboardInterrupt
            time.sleep(0.2)

        before = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            fomo.prng._map_in_order(block, range(50))
        assert threading.active_count() == before
        assert 0 in ran and len(ran) <= workers  # [0] alone at one worker

    def test_no_thread_outlives_a_run(self):
        before = threading.active_count()
        simulate_expected_draws(dice_sum_distribution(), 3 * _SAMPLER_BATCH, seed=5)
        expected_draws_unequal_exact(power_law(22))
        generate_corpus(3 * BLOCK_DRAWS // 64, zipf_prevalences(64, 0.36, 1 / 8571), seed=5)
        assert threading.active_count() == before

    @pytest.mark.parametrize(
        "dist",
        [
            zipf_prevalences(64, 0.36, 1 / 8571),
            TopicDistribution((1.0, *zipf_prevalences(63, 0.36, 1 / 8571).prevalences)),
        ],
        ids=["study-calibration", "one-certain-topic"],
    )
    @pytest.mark.usefixtures("fast_switching")
    def test_generation_is_the_same_on_any_count(self, monkeypatch, dist):
        # Three blocks of 4,096 documents and part of a fourth.
        doc_count = 3 * BLOCK_DRAWS // 64 + 17
        corpora = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(fomo.prng, "_usable_cores", lambda w=workers: w)
            corpora.append(generate_corpus(doc_count, dist, seed=8))
        first = corpora[0]
        for corpus in corpora[1:]:
            assert np.array_equal(corpus.indptr, first.indptr)
            assert np.array_equal(corpus.indices, first.indices)
            assert np.array_equal(corpus.doc_ids, first.doc_ids)


def traced_peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("batches", [2, 32])
def test_memory_is_the_completions_plus_one_batch(batches):
    # 8 bytes per trial for the completion counts; keys, masks and draws
    # exist for one batch at a time. At 32 batches a per-trial key array
    # alone would take the peak past the bound.
    trials = _SAMPLER_BATCH * batches + 1
    dist = CouponDistribution((0.5, 0.5))
    peak = traced_peak(lambda: simulate_expected_draws(dist, trials, seed=3))
    assert peak < 3 * 8 * trials + 16 * 2**20


@pytest.mark.parametrize("workers, bound_mib", [(1, 4), (2, 4), (16, 12)])
def test_exact_route_memory_by_worker_count(monkeypatch, workers, bound_mib):
    # A 2**16-entry table of the first 16 coupons' subset sums and signs,
    # and one leaf of 2**16 terms a worker at a time. Full 2**20-float
    # blocks would take 16 MiB of subset sums and 8 MiB a worker.
    monkeypatch.setattr(fomo.prng, "_usable_cores", lambda: workers)
    dist = power_law(25)
    assert traced_peak(lambda: expected_draws_unequal_exact(dist)) < bound_mib * 2**20


def test_monte_carlo_memory_holds_no_float_a_trial(monkeypatch):
    # 8 MB of completion counts and one batch; np.std would add a
    # trials-long float array.
    monkeypatch.setattr(fomo.prng, "_usable_cores", lambda: 1)
    dice = dice_sum_distribution()
    assert traced_peak(lambda: simulate_expected_draws(dice, 10**6, seed=5)) < 12 * 2**20


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
