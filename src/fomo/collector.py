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
  evaluation. Scales to any number of coupons. Each panel is integrated
  by :func:`fomo.quadpack.dqagse`, a port of QUADPACK's QAGS that
  returns what scipy's ``quad`` does, bit for bit, without scipy.
* :func:`simulate_expected_draws` - seeded Monte Carlo, the empirical
  check on both. Trials run in batches of ``_SAMPLER_BATCH`` (2**14),
  each batch's trials drawing in lockstep,
  ``max(8, _SAMPLER_STEP_DRAWS // live)`` draws a trial a step. Each
  draw's coupon comes from a guide table over the draw's top 16 bits,
  with a binary search only for draws whose bucket holds a threshold;
  the mixer's last step runs only for those (they share their top bits
  with the mixer word). A run holds 8 bytes per trial plus one batch
  per worker.

The exact, sum and Monte Carlo routes split their work into independent
blocks (high subsets, panels, trial batches) and run them through the package's
one block map, :func:`fomo.prng._map_in_order`, on one thread per usable
core, the caller among them; numpy releases the interpreter lock inside
each block's array calls, and the results are combined in block order,
so the worker count changes no bit.

The exact route's block sums and the Monte Carlo standard error are the
values ``np.sum`` and ``np.std`` would give over full arrays (2**20 terms
a block, one float a trial), but no such array is made:
:func:`_pairwise_sum` follows numpy's pairwise order, splitting where
numpy splits, and makes and sums only leaves of ``_PAIRWISE_LEAF``
values at a time.

:func:`completion_quantile` inverts the independent-sightings coverage
curve prod(1 - (1-p_i)^t) instead, the cheap stand-in for percentiles of
a document scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .prng import (
    _map_in_order, check_probabilities, check_trial_count, derive_key_array, finish_words,
    stream_words, u64_thresholds,
)

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

# Floats a leaf of _pairwise_sum makes at once (512 KiB). On 25 coupons
# the exact route ran 1.7 and 1.3 times slower with leaves of 2**14 and
# 2**15, and no faster with 2**17 (medians of 9 calls, 2-core guest).
_PAIRWISE_LEAF = 2**16

# Bitmask width in the Monte Carlo sampler.
_SAMPLER_COUPON_LIMIT = 64

# Largest N for ``collector --uniform N --method sum`` (a few seconds);
# the route itself takes any count, as ``compare`` needs.
SUM_COUPON_LIMIT = 10**6

# Trials per lockstep batch: a step's (8, batch) draws are 1 MiB, long
# enough a numpy call for threads to run it in parallel.
_SAMPLER_BATCH = 2**14
# About the draws a lockstep step makes once few trials are live: each
# then draws _SAMPLER_STEP_DRAWS // live counters a step, so a rare
# coupon's long wait takes few steps. While more than an eighth of this
# many are live, each draws 8.
_SAMPLER_STEP_DRAWS = 2**12

# A draw's top bits name its guide-table bucket (see _CouponLookup); at
# most 31, the bits a mixer word and its draw share (prng.stream_words).
_GUIDE_BITS = 16
_GUIDE_SHIFT = np.uint64(64 - _GUIDE_BITS)

# A trial needs about 1/p_min draws, so rarer coupons could keep the
# sampler busy for days; the integral route has no such limit.
_SAMPLER_RAREST_LIMIT = 10**6


class SubsetLimitError(ValueError):
    """Too many coupons for subset enumeration."""


def check_coupon_count(m: int, method: str) -> None:
    """Raise the error the ``method`` route ("exact", "sum" or
    "montecarlo") gives for ``m`` coupons, if it has a limit and ``m`` is
    above it; lets a caller refuse before building the probabilities."""
    if method == "exact" and m > EXACT_COUPON_LIMIT:
        raise SubsetLimitError(
            f"{m} coupons means 2**{m} subsets; expected_draws_unequal_exact "
            f"is capped at {EXACT_COUPON_LIMIT}, use expected_draws_unequal_sum"
        )
    if method == "montecarlo" and m > _SAMPLER_COUPON_LIMIT:
        raise ValueError(f"sampler supports at most {_SAMPLER_COUPON_LIMIT} coupons, got {m}")
    if method == "sum" and m > SUM_COUPON_LIMIT:
        raise ValueError(f"the sum route takes at most {SUM_COUPON_LIMIT} coupons, got {m}")


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
        check_probabilities(self.probabilities, "coupon probability {}")
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

    Accepts a CouponDistribution or any plain sequence; the plain form need
    not sum below 1, so multi-label document prevalences (more than one
    topic per document) can reuse the scan approximations here. A 1-D
    float array is checked and returned as it is, with no Python float
    built for each entry.
    """
    if isinstance(probabilities, CouponDistribution):
        return np.asarray(probabilities.probabilities, dtype=float)
    array = isinstance(probabilities, np.ndarray)
    if array and probabilities.dtype == float and probabilities.ndim == 1:
        values = probabilities
    else:
        values = tuple(float(p) for p in probabilities)
    if not len(values):
        raise ValueError("need at least one probability")
    check_probabilities(values, "probability {}")
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


def _pairwise_sum(leaf, start: int, n: int) -> float:
    """``np.sum`` of the ``n`` floats from ``start`` on, bit for bit, where
    ``leaf(start, n)`` makes any run of at most ``_PAIRWISE_LEAF`` of them.

    numpy sums a contiguous float64 array pairwise (Higham, SIAM J. Sci.
    Comput. 14, 1993), splitting more than 128 values at ``n // 2`` rounded
    down to a multiple of 8. This splits the same way down to leaves of at
    most ``_PAIRWISE_LEAF`` values, where ``np.sum`` of the leaf takes over,
    so the whole array never exists.
    """
    if n <= _PAIRWISE_LEAF:
        return float(np.sum(leaf(start, n)))
    half = n // 2
    half -= half % 8
    return _pairwise_sum(leaf, start, half) + _pairwise_sum(leaf, start + half, n - half)


def _subset_sums(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P(J) and (-1)**|J| for every subset J of ``p``, by doubling: subset
    J sits at index sum(2**i for i in J), its sum added up in index order."""
    sums, signs = np.zeros(1 << p.size), np.ones(1 << p.size)
    n = 1
    for x in p:
        np.add(sums[:n], x, out=sums[n:2 * n])
        np.negative(signs[:n], out=signs[n:2 * n])
        n *= 2
    return sums, signs


def expected_draws_unequal_exact(probabilities: ProbabilityVector) -> float:
    """Exact expected draws via inclusion-exclusion over coupon subsets.

    E[T] = sum over nonempty subsets J of (-1)^(|J|+1) / P(J), where P(J)
    is the chance a single draw yields some coupon in J. Enumerates all
    2**m subsets in blocks of at most 2**20, made and summed in leaves of
    at most ``_PAIRWISE_LEAF`` terms from a table of the first 16
    coupons' subset sums, so m is capped at EXACT_COUPON_LIMIT and a
    worker holds one leaf at a time.

    The sum is exact in rationals, but in floats its 2**m signed terms
    cancel, so the error grows with m: against the true mean of m uniform
    coupons it is 2.4e-14 relative at 13, 8.3e-13 at 20 and 4.7e-12 at 25,
    where :func:`expected_draws_unequal_sum` is off by 8.3e-14.

    Raises:
        SubsetLimitError: for more than EXACT_COUPON_LIMIT coupons; use
            expected_draws_unequal_sum instead.
    """
    dist = _coerce_distribution(probabilities)
    p = np.asarray(dist.probabilities, dtype=float)
    m = len(p)
    check_coupon_count(m, "exact")

    # A block is the subsets of the first 20 coupons, once per subset of
    # the rest, and its sum is np.sum of its terms (from index 1 in block
    # 0, which drops the empty subset) in numpy's pairwise order, made and
    # summed leaf by leaf (_pairwise_sum). Term i is the sign of the low
    # subset i over P(low subset i) + P(high subset). A leaf copies its
    # slice of the 2**16-entry table of the first 16 coupons and adds the
    # probability of each set bit of i above them in bit order, as
    # doubling over 20 coupons would. Its signs are the table's, negated
    # when those bits have odd parity, and the block's sum takes the high
    # subset's sign after: a sign flip is exact and pairwise summation
    # commutes with it, so the result is the sum of (-1)**|J| / P(J) bit
    # for bit.
    table_sums, table_signs = _subset_sums(p[:16])
    middle = p[16:20]
    high_sums, high_signs = _subset_sums(p[20:])
    block_size = 1 << min(m, 20)
    span = table_sums.size

    def block_sum(bits: int) -> float:
        high_sum = high_sums[bits]

        def leaf(start: int, n: int) -> np.ndarray:
            # Built one table slice at a time, as a leaf may cross one.
            terms = np.empty(n)
            done = 0
            while done < n:
                upper, lower = divmod(start + done, span)
                piece = terms[done:done + min(n - done, span - lower)]
                piece[:] = table_sums[lower:lower + piece.size]
                for bit, x in enumerate(middle):
                    if upper >> bit & 1:
                        piece += x
                piece += high_sum
                np.divide(table_signs[lower:lower + piece.size], piece, out=piece)
                if upper.bit_count() % 2:
                    np.negative(piece, out=piece)
                done += piece.size
            return terms

        # Overflow is refused below; 1/0 is the empty subset's term, dropped.
        # numpy keeps error state per thread, so each block sets its own.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            start = 1 if bits == 0 else 0
            return _pairwise_sum(leaf, start, block_size - start)

    total = 0.0
    for block, high_sign in zip(_map_in_order(block_sum, range(high_sums.size)), high_signs):
        total += block if high_sign > 0 else -block
    if not math.isfinite(total):
        raise ValueError("the subset sum leaves float range: a probability is too small")
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

    The panels are independent and run through :func:`_map_in_order`;
    their values are added in panel order, so the worker count changes
    no bit.

    The relative error of the result is at most 1e-9: the budget is
    anchored at the 1/p_min lower bound of the expectation, because
    absolute control cannot beat that once expectations reach 1e6 in
    double precision. Against the true mean of m uniform coupons it is
    5.2e-14 at 13, 8.3e-14 at 25, 7.1e-13 at 365 and 1.3e-11 at 10**4.
    Its last bits follow the CPU: numpy picks its ``exp`` and ``log1p``
    kernels by the SIMD extensions it finds, and they differ in their
    last digits. A probability so small that 1/p_min, or the sum of
    the last panel's ends, leaves float range is refused with ValueError.

    Also accepts probability vectors summing above 1 (multi-label
    prevalences); the result is then the independent-sightings
    approximation of a document scan rather than a draw-by-draw
    collector.
    """
    from .quadpack import dqagse  # kept out of `import fomo.cli`: only this route needs it

    p = _probability_array(probabilities)
    p_min = float(p.min())
    p_max = float(p.max())
    budget = 1e-9 * max(1.0, 1.0 / p_min)  # the relative error above

    neg_p = -p

    def tail_bound(u: float) -> float:
        return float(np.sum(np.exp(-p * u))) / p_min

    edges = [0.0, 1.0 / p_max]
    while tail_bound(edges[-1]) > budget / 2.0:
        edges.append(edges[-1] * 2.0)
    # dqagse evaluates a panel at (a + b) / 2, so the last a + b must be finite.
    if math.isinf(budget) or math.isinf(edges[-2] + edges[-1]):
        raise ValueError("the integral leaves float range: a probability is too small")

    panel_abs = budget / (4.0 * len(edges))

    def panel(k: int) -> float:
        # One buffer a panel, filled in place by every evaluation: malloc
        # may map fresh m-float temporaries anew, page faults and all, on
        # every call.
        buf = np.empty_like(p)

        def integrand(u: float) -> float:
            np.multiply(neg_p, u, out=buf)
            np.exp(buf, out=buf)  # chance coupon i still unseen at time u
            np.negative(buf, out=buf)
            np.log1p(buf, out=buf)
            return -math.expm1(float(np.sum(buf)))

        # numpy keeps error state per thread, so each panel sets its own;
        # log1p(-1) = -inf gives the integrand 1.0.
        with np.errstate(divide="ignore"):
            return dqagse(integrand, edges[k], edges[k + 1], panel_abs, 1e-13, 200)[0]

    total = 0.0
    for value in _map_in_order(panel, range(len(edges) - 1)):
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
        unseen = np.exp(t * log_miss)  # (1 - p_i)**t
        return math.exp(float(np.sum(np.log1p(-unseen))))  # 1.0 with no partial topic

    hi = 1
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
    sampler bit-for-bit identical to the one-draw-at-a-time oracle in the
    tests (``assert_matches_sequential`` in tests/test_collector.py). Every
    coupon gets a nonempty range because callers cap 1/p at _SAMPLER_RAREST_LIMIT.
    """
    cum = np.cumsum(p)
    if abs(float(cum[-1]) - 1.0) <= 1e-9:
        cum[-1] = 1.0
    return u64_thresholds(cum)


class _CouponLookup:
    """The coupon bit of each draw: ``1 << k`` for coupon k, 0 for a draw
    at or above the last threshold (no coupon).

    Equal to ``bit[np.searchsorted(thresholds, draws, side="right")]``,
    read through a guide table (Chen & Asau, AIIE Trans. 6(2), 1974;
    Devroye, Non-Uniform Random Variate Generation, 1986, III.2.4): the
    top ``_GUIDE_BITS`` bits of a draw name its bucket, and a bucket that
    holds no threshold yields one coupon for every draw in it, so
    ``guide`` gives its bit outright. A bucket that holds a threshold, at
    most m of them, holds ``sentinel`` instead, all ones, which is no
    single coupon bit; only the draws that read it are searched.

    Table, bits and masks take ``dtype``, the narrowest unsigned type
    that holds the m-bit full mask ``full`` (``uint16`` for 11 coupons).
    Where m is the type's width the sentinel equals ``full``, which is
    harmless: only table entries meet the one and only masks the other.
    """

    def __init__(self, thresholds: np.ndarray):
        m = thresholds.size
        self.dtype = np.min_scalar_type((1 << m) - 1)
        self.full = self.dtype.type((1 << m) - 1)
        self.sentinel = np.iinfo(self.dtype).max
        self.thresholds = thresholds
        self.bit = np.zeros(m + 1, dtype=self.dtype)
        self.bit[:m] = np.uint64(1) << np.arange(m, dtype=np.uint64)
        starts = np.arange(1 << _GUIDE_BITS, dtype=np.uint64) << _GUIDE_SHIFT
        self.guide = self.bit[np.searchsorted(thresholds, starts, side="right")]
        self.guide[thresholds >> _GUIDE_SHIFT] = self.sentinel

    def bits(self, words: np.ndarray) -> np.ndarray:
        """The coupon bits of the draws of mixer ``words``
        (:func:`fomo.prng.stream_words`), in an array of the same shape."""
        # A word's bucket is its draw's. Bucket numbers are below 2**16, so
        # their int64 view is exact, and numpy indexes with int64 (its intp
        # on 64-bit platforms) without the conversion pass that uint64
        # indices take.
        bits = self.guide[(words >> _GUIDE_SHIFT).view(np.int64)]
        flat = bits.reshape(-1)
        edge = np.flatnonzero(flat == self.sentinel)
        draws = finish_words(words.reshape(-1)[edge])
        flat[edge] = self.bit[np.searchsorted(self.thresholds, draws, side="right")]
        return bits


def _sample_std(values: np.ndarray, mean: float) -> float:
    """``values.std(ddof=1)`` bit for bit, given ``mean = float(values.mean())``:
    the squared deviations summed in numpy's pairwise order, a leaf at a
    time (:func:`_pairwise_sum`), where ``std`` would hold all of them."""

    def squares(start: int, n: int) -> np.ndarray:
        deviations = values[start:start + n] - mean
        return np.multiply(deviations, deviations, out=deviations)

    return math.sqrt(_pairwise_sum(squares, 0, values.size) / (values.size - 1))


def simulate_expected_draws(
    probabilities: ProbabilityVector, trials: int, seed: int
) -> MonteCarloDraws:
    """Monte Carlo estimate of the expected draws to collect every coupon.

    Trial i consumes the SplitMix64 stream keyed by (seed, i), so each
    trial's draw sequence is exactly what a one-at-a-time simulation
    would use; deterministic for a given seed. Trials run in batches of
    ``_SAMPLER_BATCH``, one batch per worker thread at a time
    (:func:`_map_in_order`), and the trials of a batch advance in
    lockstep, with finished trials dropped as they complete. Each step
    draws ``max(8, _SAMPLER_STEP_DRAWS // live)`` counters of each live
    trial: 8 while more than 2**9 are live, a longer block in the tail,
    where a rare coupon keeps a few trials drawing. The rows of a block
    are OR-ed into each trial's coupons in counter order, so a trial
    completes at the exact draw it would alone. Each draw's coupon
    is read from a guide table (see :class:`_CouponLookup`) through its
    mixer word, and only draws in buckets that hold a threshold are
    finished (:func:`fomo.prng.stream_words`). A run holds 8 bytes per
    trial, for the completion counts, plus one batch's working arrays
    (1 MiB of words a step, coupon bits and masks of m bits rounded up
    to 8, 16, 32 or 64) per worker and the 2**16-entry guide table
    of the same width (128 KiB for 9 to 16 coupons), whatever the
    trial count.
    """
    check_trial_count(trials)
    dist = _coerce_distribution(probabilities)
    p = np.asarray(dist.probabilities, dtype=float)
    m = len(p)
    check_coupon_count(m, "montecarlo")
    p_min = float(p.min())
    if 1.0 / p_min > _SAMPLER_RAREST_LIMIT:
        raise ValueError(
            f"rarest coupon probability {p_min!r} needs over {_SAMPLER_RAREST_LIMIT}"
            " draws per trial; use expected_draws_unequal_sum (--method sum)"
        )
    completions = np.zeros(trials, dtype=np.int64)
    lookup = _CouponLookup(_coupon_thresholds(p))
    full = lookup.full

    def run_batch(start: int) -> None:
        # Fills completions[start:start + _SAMPLER_BATCH], which no other
        # batch touches.
        index = np.arange(start, min(start + _SAMPLER_BATCH, trials))
        keys = derive_key_array(seed, index)
        seen = np.zeros(index.size, dtype=lookup.dtype)
        t = 0  # draws each live trial has made
        while index.size:
            # Row r of a step holds every live trial's draw t + r + 1.
            width = max(8, _SAMPLER_STEP_DRAWS // index.size)
            counters = np.arange(t + 1, t + width + 1, dtype=np.uint64)[:, None]
            found = lookup.bits(stream_words(keys, counters))
            found[0] |= seen
            np.bitwise_or.reduce(found, axis=0, out=seen)
            complete = seen == full
            done = np.flatnonzero(complete)
            # The row at which each finished trial's coupons became full.
            rows = np.bitwise_or.accumulate(found[:, done], axis=0) == full
            completions[index[done]] = t + 1 + rows.argmax(axis=0)
            keep = ~complete
            keys = keys[keep]
            seen = seen[keep]
            index = index[keep]
            t += width

    _map_in_order(run_batch, range(0, trials, _SAMPLER_BATCH))

    # The float64 sum of the mean reads the int64 counts through numpy's
    # small cast buffers, so neither statistic holds a float a trial.
    mean = float(completions.mean())
    if trials > 1:
        std_error = _sample_std(completions, mean) / math.sqrt(trials)
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
