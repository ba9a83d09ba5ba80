"""Deterministic, platform-independent randomness.

Every random draw in this package comes from SplitMix64 (Steele, Lea &
Flatt's ``SplittableRandom`` mixer, as published by Vigna). Python's own
``random`` module is deliberately avoided: its seeding behaviour is not
guaranteed stable across interpreter versions, and byte-identical output
across runs and machines is a hard requirement here.

SplitMix64 is a Weyl sequence passed through an avalanching finalizer,
so the t-th output (1-based) of the stream keyed by ``key`` is

    mix64(key + t * GAMMA)   (mod 2**64)

This counter form is the generator: :func:`stream_u64` computes any set
of draws of any set of streams from (key, counter) alone, in one array
operation, and :func:`mix64_array` is the finalizer. :func:`check_probabilities`
states the rule every probability meets, :func:`u64_thresholds` turns them
into the integer cut-offs a draw is compared against, :func:`check_seed` and
:func:`check_trial_count` state the range of a seed and of a trial count,
:func:`derive_key_array` keys independent streams (one per document, one per
trial), and :func:`fisher_yates` draws permutations in lockstep, ``CHUNK``
positions of each at a time. The sequential form (a state advanced by ``GAMMA`` per call) is
kept only in the tests, as the oracle these are checked against.
"""

from __future__ import annotations

import math
from collections.abc import Generator, Sequence

import numpy as np

MASK64 = (1 << 64) - 1

# 2**64 / golden ratio, the canonical SplitMix64 increment.
GAMMA = 0x9E3779B97F4A7C15

_MIX_MUL_1 = 0xBF58476D1CE4E5B9
_MIX_MUL_2 = 0x94D049BB133111EB

# Most positions of a row fisher_yates draws, and yields, per array step.
CHUNK = 512
# About how many swaps of a step fisher_yates may replay one at a time.
REPLAYS = 128

# Most trials one run takes, shuffle or Monte Carlo: ten times the largest
# count in use, and checked before the run's keys or counts (8 bytes a
# trial each) are built.
MAX_TRIALS = 10**7


def mix64_array(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer over a ``uint64`` array (wrapping mod 2**64):
    scrambles each 64-bit value into a 64-bit value."""
    return _mixed(np.array(z, dtype=np.uint64))  # 0-d stays an array, so products wrap silently


def _mixed(z: np.ndarray) -> np.ndarray:
    """:func:`mix64_array` done in place on ``z``, a ``uint64`` array the
    caller owns; returns ``z``."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX_MUL_1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX_MUL_2)
    z ^= z >> np.uint64(31)
    return z


def stream_u64(keys: int | np.ndarray, counters: int | np.ndarray) -> np.ndarray:
    """Output number ``counters`` (1-based) of the streams seeded with ``keys``.

    ``mix64(key + counter * GAMMA)`` broadcast over both arguments, so one
    call can read many draws of one stream or one draw of many streams;
    each value is what a sequential SplitMix64 seeded with that key
    returns on that call.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    counters = np.asarray(counters, dtype=np.uint64)
    return _mixed(np.asarray(keys + counters * np.uint64(GAMMA)))  # a fresh sum, mixed in place


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


def fisher_yates(
    n: int, keys: np.ndarray, limit: int
) -> Generator[tuple[np.ndarray, ...], np.ndarray | None, None]:
    """Uniform random permutations of ``range(n)``, one per key, drawn in
    lockstep and yielded front to back, a step fixing at most ``CHUNK``
    positions of each and ``limit`` in all (but at least one a row).

    Knuth's Algorithm P (TAOCP Vol. 2, 3.4.2) fixing positions from the
    front: position i swaps in ``j = i + u % (n - i)`` for the next draw
    ``u`` of the stream keyed by the row's key, where a draw at or above
    the largest multiple of ``n - i`` below 2**64 is rejected and the
    next one taken, so every ``j`` in [i, n) is exactly equally likely.

    Each step yields ``(rows, counts, picked, places)``: row ``rows[k]``
    (an index into ``keys``) fixed its next ``counts[k]`` positions, 0 to
    ``CHUNK`` (fewer near the end of a permutation, see ``REPLAYS``), to
    the ``int32`` items that follow in ``picked``, the rows' runs joined
    in order, and ``places`` holds the 1-based position of each. Sending
    a boolean array aligned with ``rows`` stops the rows it marks; a row
    stopped early has yielded the prefix its full shuffle produces.

    A step reads each row's draws in one array call, with the rejection
    test on the whole run: a run ends at its first rejected draw, that
    counter is skipped and the next run starts at the same position,
    which consumes the stream exactly as drawing one position at a time
    does. The items sit in one (rows, n) array, and a step's swaps act on
    it at once at flat indices ``row * n + i``, each reading both items
    as they stood before the step; the few swaps that share an index
    with another swap of the step are then replayed one by one.
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
        width = max(1, min(CHUNK, left, limit // rows.size, math.isqrt(REPLAYS * left // rows.size)))
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
        items[targets] = carried
        # Replay in order the swaps with a target inside their row's run, the
        # swaps at the positions those name (the run's swaps are consecutive),
        # and the swaps sharing a target.
        ranked = np.argsort(targets)
        shared = np.flatnonzero(targets[ranked[1:]] == targets[ranked[:-1]])
        inside = np.flatnonzero(inside)
        named = inside + (targets[inside] - sources[inside])
        replay = np.zeros(targets.size, dtype=bool)
        replay[np.concatenate([inside, named, ranked[shared], ranked[shared + 1]])] = True
        replay = np.flatnonzero(replay)
        if replay.size:
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
        if not live.all():
            rows, position, counter = rows[live], position[live], counter[live]
