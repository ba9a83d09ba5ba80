"""Generalized coupon collector: expected draws to see everything once.

Draws are documents, coupons are topics. Each draw yields coupon i with
probability p_i; when the probabilities sum to less than 1, the remaining
mass is draws that yield no coupon at all, and those draws still count.
The quantity of interest is E[T], the expected number of draws until
every coupon has been seen at least once.

Three routes to the same expectation:

* :func:`expected_draws_unequal_exact` - the subset inclusion-exclusion
  sum  E[T] = sum over nonempty J of (-1)^(|J|+1) / P(J)  with
  P(J) = sum of p_i over J. Exact, but 2**m subsets, so capped at m = 25.
* :func:`expected_draws_unequal_sum` - the same expectation written as
  the integral of 1 - prod(1 - exp(-p_i u)) over u >= 0, which expands
  term by term into the subset sum but costs only O(m) per integrand
  evaluation. Scales to any number of coupons.
* :func:`simulate_expected_draws` - seeded Monte Carlo, the empirical
  check on both.

:func:`completion_quantile` inverts the independent-sightings coverage
curve prod(1 - (1-p_i)^t) instead, the cheap stand-in for percentiles of
a document scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np
from scipy import integrate

from .prng import derive_key_array, stream_u64, u64_thresholds

__all__ = [
    "CouponDistribution",
    "MonteCarloDraws",
    "SubsetLimitError",
    "dice_sum_distribution",
    "expected_draws_equal",
    "expected_draws_unequal_exact",
    "expected_draws_unequal_sum",
    "completion_quantile",
    "birthday_first_collision_expected",
    "simulate_expected_draws",
]

# 2**25 subsets is about the edge of interactive; beyond that the
# integral form is both faster and just as accurate.
EXACT_COUPON_LIMIT = 25

# Bitmask width in the Monte Carlo sampler.
_SAMPLER_COUPON_LIMIT = 64

# A trial needs about 1/p_min draws, so rarer coupons could keep the
# sampler busy for days; the integral route has no such limit.
_SAMPLER_RAREST_LIMIT = 10**6


class SubsetLimitError(ValueError):
    """Too many coupons for subset enumeration."""


@dataclass(frozen=True)
class CouponDistribution:
    """Per-draw coupon probabilities.

    Every probability must be in (0, 1] and the total must not exceed 1;
    a total below 1 means some draws yield no coupon.
    """

    probabilities: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.probabilities:
            raise ValueError("a coupon distribution needs at least one coupon")
        for i, p in enumerate(self.probabilities):
            if not 0.0 < p <= 1.0:
                raise ValueError(f"coupon probability {i} must be in (0, 1], got {p}")
        total = math.fsum(self.probabilities)
        if total > 1.0 + 1e-9:
            raise ValueError(f"coupon probabilities sum to {total}, more than 1")

    @classmethod
    def uniform(cls, m: int) -> "CouponDistribution":
        if m < 1:
            raise ValueError(f"need at least one coupon, got {m}")
        return cls(tuple(1.0 / m for _ in range(m)))

    def __len__(self) -> int:
        return len(self.probabilities)


@dataclass(frozen=True)
class MonteCarloDraws:
    """Summary of simulated collection runs."""

    trials: int
    seed: int
    mean: float
    std_error: float
    minimum: int
    maximum: int


ProbabilityVector = Union[CouponDistribution, Sequence[float]]


def _probability_array(probabilities: ProbabilityVector) -> np.ndarray:
    """Validate and return probabilities as a float array.

    Accepts a CouponDistribution or any plain sequence; the plain form is
    not required to sum below 1, which lets multi-label document
    prevalences (more than one topic per document) reuse the scan
    approximations here.
    """
    if isinstance(probabilities, CouponDistribution):
        values = probabilities.probabilities
    else:
        values = tuple(float(p) for p in probabilities)
        if not values:
            raise ValueError("need at least one probability")
        for i, p in enumerate(values):
            if not 0.0 < p <= 1.0:
                raise ValueError(f"probability {i} must be in (0, 1], got {p}")
    return np.asarray(values, dtype=float)


def _coerce_distribution(probabilities: ProbabilityVector) -> CouponDistribution:
    if isinstance(probabilities, CouponDistribution):
        return probabilities
    return CouponDistribution(tuple(float(p) for p in probabilities))


def dice_sum_distribution() -> CouponDistribution:
    """The eleven two-die sums 2..12 and their chances out of 36.

    A sum of 2 (or 12) happens one way; a sum of 7 happens six ways.
    """
    ways = (1, 2, 3, 4, 5, 6, 5, 4, 3, 2, 1)
    return CouponDistribution(tuple(w / 36.0 for w in ways))


def expected_draws_equal(m: int) -> float:
    """Classical equal-probability collector: m * H_m draws on average."""
    if m < 1:
        raise ValueError(f"need at least one coupon, got {m}")
    return m * math.fsum(1.0 / i for i in range(1, m + 1))


def expected_draws_unequal_exact(probabilities: ProbabilityVector) -> float:
    """Exact expected draws via inclusion-exclusion over coupon subsets.

    E[T] = sum over nonempty subsets J of (-1)^(|J|+1) / P(J), where P(J)
    is the chance a single draw yields some coupon in J. Enumerates all
    2**m subsets (sums built by doubling, evaluated in blocks), so m is
    capped at EXACT_COUPON_LIMIT.

    Raises:
        SubsetLimitError: for more than EXACT_COUPON_LIMIT coupons; use
            expected_draws_unequal_sum instead.
    """
    dist = _coerce_distribution(probabilities)
    p = np.asarray(dist.probabilities, dtype=float)
    m = len(p)
    if m > EXACT_COUPON_LIMIT:
        raise SubsetLimitError(
            f"{m} coupons means 2**{m} subsets; expected_draws_unequal_exact "
            f"is capped at {EXACT_COUPON_LIMIT}, use expected_draws_unequal_sum"
        )

    # Subset sums over the first k coupons by doubling; remaining coupons
    # are enumerated as offsets so peak memory stays at 2**k floats.
    k = min(m, 20)
    low_sums = np.zeros(1)
    low_sign = np.ones(1)  # (-1)**|J| per low subset
    for i in range(k):
        low_sums = np.concatenate([low_sums, low_sums + p[i]])
        low_sign = np.concatenate([low_sign, -low_sign])

    high = p[k:]
    total = 0.0
    for bits in range(1 << len(high)):
        high_sum = 0.0
        high_sign = 1.0
        for j in range(len(high)):
            if bits >> j & 1:
                high_sum += high[j]
                high_sign = -high_sign
        sums = low_sums + high_sum
        signs = low_sign * high_sign
        if bits == 0:
            sums = sums[1:]  # drop the empty subset
            signs = signs[1:]
        total += float(np.sum(signs / sums))
    # signs carry (-1)**|J|; the expectation wants (-1)**(|J|+1).
    return -total


def expected_draws_unequal_sum(probabilities: ProbabilityVector) -> float:
    """The same expectation as the exact form, without subset enumeration.

    Evaluates E[T] as the integral over u >= 0 of

        1 - prod_i (1 - exp(-p_i * u)),

    which expands term by term into the inclusion-exclusion subset sum
    (each subset J contributes the integral of exp(-P(J) u), i.e.
    1/P(J)), but costs only O(m) per evaluation. The integrand is split
    over geometrically growing panels; integration stops once the
    remaining tail, bounded by sum_i exp(-p_i * U) / p_min, is below the
    error budget.

    The relative error of the result is at most 1e-9: the budget is
    anchored at the 1/p_min lower bound of the expectation, because
    absolute control cannot beat that once expectations reach 1e6 in
    double precision.

    Also accepts probability vectors summing above 1 (multi-label
    prevalences); the result is then the independent-sightings
    approximation of a document scan rather than a draw-by-draw
    collector.
    """
    p = _probability_array(probabilities)
    p_min = float(p.min())
    p_max = float(p.max())
    budget = 1e-9 * max(1.0, 1.0 / p_min)  # the relative error above

    def integrand(u: float) -> float:
        miss = np.exp(-p * u)  # chance coupon i still unseen at time u
        return -math.expm1(float(np.sum(np.log1p(-miss))))

    def tail_bound(u: float) -> float:
        return float(np.sum(np.exp(-p * u))) / p_min

    edges = [0.0, 1.0 / p_max]
    while tail_bound(edges[-1]) > budget / 2.0:
        edges.append(edges[-1] * 2.0)

    panel_abs = budget / (4.0 * len(edges))
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        value, _ = integrate.quad(
            integrand, a, b, epsabs=panel_abs, epsrel=1e-13, limit=200
        )
        total += value
    return total


def completion_quantile(probabilities: ProbabilityVector, q: float) -> int:
    """Smallest t with prod_i (1 - (1-p_i)**t) >= q.

    The product is the chance that t scans, each independently showing
    topic i with probability p_i, have shown every topic: the
    with-replacement approximation of scanning t documents. Found by
    doubling to bracket, then integer bisection.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must be in (0, 1), got {q}")
    p = _probability_array(probabilities)
    partial = p[p < 1.0]  # certain topics are seen on the first scan
    log_miss = np.log1p(-partial)  # log(1 - p_i)

    def coverage(t: int) -> float:
        if partial.size == 0:
            return 1.0
        unseen = np.exp(t * log_miss)  # (1 - p_i)**t
        return math.exp(float(np.sum(np.log1p(-unseen))))

    if coverage(1) >= q:
        return 1
    hi = 2
    while coverage(hi) < q:
        hi *= 2
    lo = hi // 2  # coverage(lo) < q <= coverage(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if coverage(mid) >= q:
            hi = mid
        else:
            lo = mid
    return hi


def birthday_first_collision_expected() -> float:
    """Expected people at a party before two share a birthday (~24.62).

    E[X] = sum over k >= 0 of P(X > k), with P(X > k) the chance the
    first k birthdays are all distinct, under uniform 365-day birthdays.
    """
    total = 1.0  # P(X > 0)
    distinct = 1.0  # P(first k-1 birthdays all distinct)
    for k in range(1, 366):
        total += distinct  # P(X > k)
        distinct *= 1.0 - k / 365.0
    return total


def _coupon_thresholds(p: np.ndarray) -> np.ndarray:
    """Cumulative probabilities scaled to the 64-bit draw range.

    A draw u (uniform uint64) yields coupon k when thr[k-1] <= u < thr[k];
    u at or above thr[-1] yields nothing. Integer thresholds keep the
    scalar and vectorized samplers bit-for-bit identical. Every coupon
    gets a nonempty range because callers cap 1/p at _SAMPLER_RAREST_LIMIT.
    """
    cum = np.cumsum(p)
    if abs(float(cum[-1]) - 1.0) <= 1e-9:
        cum[-1] = 1.0
    return u64_thresholds(cum)


def simulate_expected_draws(
    probabilities: ProbabilityVector, trials: int, seed: int
) -> MonteCarloDraws:
    """Monte Carlo estimate of the expected draws to collect every coupon.

    Trial i consumes the SplitMix64 stream keyed by (seed, i); the whole
    batch advances in lockstep so the run vectorizes, but each trial's
    draw sequence is exactly what a one-at-a-time simulation would use.
    Deterministic for a given seed.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    dist = _coerce_distribution(probabilities)
    p = np.asarray(dist.probabilities, dtype=float)
    m = len(p)
    if m > _SAMPLER_COUPON_LIMIT:
        raise ValueError(f"sampler supports at most {_SAMPLER_COUPON_LIMIT} coupons, got {m}")
    p_min = float(p.min())
    if 1.0 / p_min > _SAMPLER_RAREST_LIMIT:
        raise ValueError(
            f"rarest coupon probability {p_min!r} needs over {_SAMPLER_RAREST_LIMIT}"
            " draws per trial; use expected_draws_unequal_sum (--method sum)"
        )
    thresholds = _coupon_thresholds(p)
    full = np.uint64((1 << m) - 1)

    keys = derive_key_array(seed, np.arange(trials, dtype=np.uint64))
    seen = np.zeros(trials, dtype=np.uint64)
    index = np.arange(trials)
    completions = np.zeros(trials, dtype=np.int64)

    t = 0
    while index.size:
        t += 1
        draws = stream_u64(keys, t)
        coupon = np.searchsorted(thresholds, draws, side="right")
        got = coupon < m
        if got.any():
            seen[got] |= np.uint64(1) << coupon[got].astype(np.uint64)
        done = seen == full
        if done.any():
            completions[index[done]] = t
            keep = ~done
            keys = keys[keep]
            seen = seen[keep]
            index = index[keep]

    mean = float(completions.mean())
    if trials > 1:
        std_error = float(completions.std(ddof=1)) / math.sqrt(trials)
    else:
        std_error = 0.0
    return MonteCarloDraws(
        trials=trials,
        seed=seed,
        mean=mean,
        std_error=std_error,
        minimum=int(completions.min()),
        maximum=int(completions.max()),
    )
