"""Deterministic, platform-independent randomness.

Every random draw in this package comes from SplitMix64 (Steele, Lea &
Flatt's ``SplittableRandom`` mixer, as published by Vigna). Python's own
``random`` module is deliberately avoided: its seeding behaviour is not
guaranteed stable across interpreter versions, and byte-identical output
across runs is a hard requirement here. Generation, the shuffles, the
exact and Monte Carlo collector routes and ``table`` use integer or
correctly rounded arithmetic, so their bytes are the same on every
machine too. The collector's sum route, and ``compare``'s analytic mean,
which it computes, call numpy's ``exp`` and ``log1p``, whose kernels
follow the CPU's SIMD extensions and differ in their last digits.

SplitMix64 is a Weyl sequence passed through an avalanching finalizer,
so the t-th output (1-based) of the stream keyed by ``key`` is

    mix64(key + t * GAMMA)   (mod 2**64)

This counter form is the generator: :func:`stream_u64` computes any set
of draws of any set of streams from (key, counter) alone, in one array
operation, and :func:`mix64_array` is the finalizer. :func:`stream_words`
stops before the finalizer's last step, for callers that need only the
top bits of most draws, and :func:`finish_words` takes that step. :func:`check_probabilities`
states the rule every probability meets, :func:`u64_thresholds` turns them
into the integer cut-offs a draw is compared against, :func:`check_seed` and
:func:`check_trial_count` state the range of a seed and of a trial count,
and :func:`derive_key_array` keys independent streams (one per document, one
per trial). The sequential form (a state advanced by ``GAMMA`` per call) is
kept only in the tests, as the oracle these are checked against.

Because a stream is read from (key, counter) alone, work keyed by stream
splits into independent blocks. :func:`_map_in_order` is the package's
one block map: it runs such blocks on one thread per usable core, the
calling thread among them, and returns their results in block order, so
the worker count changes no bit. Corpus generation and the collector's
exact, sum and Monte Carlo routes run through it.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Callable, Sequence
from typing import TypeVar

import numpy as np

MASK64 = (1 << 64) - 1

# 2**64 / golden ratio, the canonical SplitMix64 increment.
GAMMA = 0x9E3779B97F4A7C15

_MIX_MUL_1 = 0xBF58476D1CE4E5B9
_MIX_MUL_2 = 0x94D049BB133111EB

# Most trials one run takes, shuffle or Monte Carlo: ten times the largest
# count in use, and checked before the run's keys or counts (8 bytes a
# trial each) are built.
MAX_TRIALS = 10**7


def mix64_array(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer over a ``uint64`` array (wrapping mod 2**64):
    scrambles each 64-bit value into a 64-bit value."""
    # 0-d stays an array, so products wrap silently
    return finish_words(_words(np.array(z, dtype=np.uint64)))


def _words(z: np.ndarray) -> np.ndarray:
    """Every step of the finalizer but the last, in place on ``z``, a
    ``uint64`` array the caller owns; returns ``z``."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX_MUL_1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX_MUL_2)
    return z


def finish_words(words: np.ndarray) -> np.ndarray:
    """The finalizer's last step, ``w ^ (w >> 31)``, in place on
    ``words``, a ``uint64`` array the caller owns: turns
    :func:`stream_words` into :func:`stream_u64`. Returns ``words``."""
    words ^= words >> np.uint64(31)
    return words


def stream_words(keys: int | np.ndarray, counters: int | np.ndarray) -> np.ndarray:
    """The draws of :func:`stream_u64` before the finalizer's last step.

    Draw ``w ^ (w >> 31)`` (:func:`finish_words`) of word ``w``. The step
    leaves the top 31 bits as they are, so a word and its draw agree
    there: a caller that reads only those bits of most draws can skip the
    step for them.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    counters = np.asarray(counters, dtype=np.uint64)
    return _words(np.asarray(keys + counters * np.uint64(GAMMA)))  # a fresh sum, mixed in place


def stream_u64(keys: int | np.ndarray, counters: int | np.ndarray) -> np.ndarray:
    """Output number ``counters`` (1-based) of the streams seeded with ``keys``.

    ``mix64(key + counter * GAMMA)`` broadcast over both arguments, so one
    call can read many draws of one stream or one draw of many streams;
    each value is what a sequential SplitMix64 seeded with that key
    returns on that call.
    """
    return finish_words(stream_words(keys, counters))


def check_probabilities(values: Sequence[float], noun: str) -> None:
    """Raise ValueError for the first entry not in (0, 1], named ``noun.format(index)``."""
    p = np.asarray(values)  # no float cast: nan, -0.0, bools and big ints compare as given
    with np.errstate(invalid="ignore"):  # an object array compares nan in Python, flagging it
        bad = np.flatnonzero(~((p > 0) & (p <= 1)))[:1]
    if bad.size:
        raise ValueError(f"{noun.format(bad[0])} must be in (0, 1], got {values[bad[0]]}")


def u64_thresholds(probabilities: Sequence[float] | np.ndarray) -> np.ndarray:
    """``min(floor(p * 2**64), 2**64 - 1)`` per probability, as ``uint64``.

    A uniform draw ``u`` falls below the threshold of ``p`` with chance
    ``p`` (up to 2**-64), so integer compares stand in for float ones and
    stay bit-identical on every platform. Scaling by 2**64 is exact, and
    the cast truncates; ``p * 2**64`` at 2**64 (p = 1) is set after the
    cast, since casting it would overflow.
    """
    scaled = np.array(probabilities, dtype=float)
    scaled *= 2.0**64
    top = scaled >= 2.0**64
    scaled[top] = 0.0
    thresholds = scaled.astype(np.uint64)
    thresholds[top] = MASK64
    return thresholds


def check_seed(seed: int) -> int:
    """``seed``, or ValueError if it is not in 0..2**64-1, the seeds that
    key distinct streams and that a summary stores as given."""
    if not 0 <= seed <= MASK64:
        raise ValueError(f"seed must be in 0..2**64-1, got {seed}")
    return seed


def check_trial_count(trials: int) -> None:
    """Raise ValueError unless ``trials`` is in 1..MAX_TRIALS."""
    if not 1 <= trials <= MAX_TRIALS:
        raise ValueError(f"trial count must be in 1..{MAX_TRIALS}, got {trials}")


def derive_key_array(seed: int, indices: np.ndarray) -> np.ndarray:
    """Mix a user seed and stream indices into independent 64-bit keys.

    Gives every document, trial, etc. its own SplitMix64 stream:
    ``key = mix64(mix64(seed) + (index + 1) * GAMMA)``, draw ``index + 1``
    of the stream keyed by ``mix64(seed)``. The outer mix decorrelates
    adjacent indices; the inner mix decorrelates adjacent seeds. A seed
    outside 0..2**64-1 raises ValueError (:func:`check_seed`).
    """
    return stream_u64(mix64_array(check_seed(seed)), indices.astype(np.uint64) + np.uint64(1))


def derive_key(seed: int, index: int) -> int:
    """The :func:`derive_key_array` key of one stream index (>= 0)."""
    if index < 0:
        raise ValueError(f"stream index must be >= 0, got {index}")
    return int(derive_key_array(seed, np.array([index]))[0])


_R = TypeVar("_R")


def _usable_cores() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_in_order(function: Callable[[int], _R], items: Sequence[int]) -> list[_R]:
    """``[function(item) for item in items]``, on one thread per usable
    core (at most one per item), the calling thread one of them.

    The items must be independent blocks whose work is mostly numpy
    calls, which release the interpreter lock. The caller and ``workers -
    1`` threads take the items in order from one shared counter, and each
    result goes to its own index. After an error in a block, or an
    interrupt in the caller, no block not yet started runs; the error of
    the first failed item is raised once the blocks in flight have
    finished, and no thread outlives the call.
    """
    workers = min(_usable_cores(), len(items))
    results: list = [None] * len(items)
    errors: dict[int, BaseException] = {}
    order = iter(range(len(items)))
    taking = threading.Lock()
    stop = threading.Event()

    def work() -> None:
        while not stop.is_set():
            with taking:
                index = next(order, None)
            if index is None:
                return
            try:
                results[index] = function(items[index])
            except BaseException as exc:  # raised again by the caller, below
                errors[index] = exc
                stop.set()

    started = []
    try:
        for _ in range(workers - 1):
            thread = threading.Thread(target=work)
            thread.start()
            started.append(thread)
        work()
    finally:
        stop.set()
        for thread in started:
            thread.join()
    if errors:
        raise errors[min(errors)]
    return results
