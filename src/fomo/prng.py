"""Deterministic, platform-independent randomness.

Every random draw in this package comes from SplitMix64 (Steele, Lea &
Flatt's ``SplittableRandom`` mixer, as published by Vigna). Python's own
``random`` module is deliberately avoided: its seeding behaviour is not
guaranteed stable across interpreter versions, and byte-identical output
across runs and machines is a hard requirement here.

The generator is a Weyl sequence passed through an avalanching finalizer:

    state   <- (state + GAMMA) mod 2**64
    output  <- mix64(state)

Because the state advances by a fixed increment, the t-th output (1-based)
of a stream seeded with ``s`` is simply ``mix64(s + t * GAMMA)``. That
counter form means any draw can be computed from (seed, index) alone, in
any order, with identical results. :func:`bulk_u64` is the vectorized
version of the same identity.

Independent streams (one per document, one per trial) are keyed with
:func:`derive_key`, the package's seed-mixing function.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

MASK64 = (1 << 64) - 1

# 2**64 / golden ratio, the canonical SplitMix64 increment.
GAMMA = 0x9E3779B97F4A7C15

_MIX_MUL_1 = 0xBF58476D1CE4E5B9
_MIX_MUL_2 = 0x94D049BB133111EB


def mix64(z: int) -> int:
    """SplitMix64 finalizer: scramble a 64-bit value into a 64-bit value."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _MIX_MUL_1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX_MUL_2) & MASK64
    return z ^ (z >> 31)


def derive_key(seed: int, index: int) -> int:
    """Mix a user seed and a stream index into an independent 64-bit key.

    Used to give every document, trial, etc. its own SplitMix64 stream:
    ``key = mix64(mix64(seed) + (index + 1) * GAMMA)``. The outer mix
    decorrelates adjacent indices; the inner mix decorrelates adjacent
    seeds.
    """
    if index < 0:
        raise ValueError(f"stream index must be >= 0, got {index}")
    s = mix64(seed & MASK64)
    return mix64((s + (index + 1) * GAMMA) & MASK64)


def derive_key_array(seed: int, indices: np.ndarray) -> np.ndarray:
    """Vectorized :func:`derive_key` over an array of stream indices."""
    s = np.uint64(mix64(seed & MASK64))
    idx = indices.astype(np.uint64) + np.uint64(1)
    return mix64_array(s + idx * np.uint64(GAMMA))


def mix64_array(z: np.ndarray) -> np.ndarray:
    """Vectorized :func:`mix64` over a ``uint64`` array (wrapping mod 2**64)."""
    z = z.astype(np.uint64, copy=True)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX_MUL_1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX_MUL_2)
    z ^= z >> np.uint64(31)
    return z


def bulk_u64(key: int, start: int, count: int) -> np.ndarray:
    """Outputs ``start+1 .. start+count`` of the stream seeded with ``key``.

    Identical to calling ``SplitMix64(key).next_u64()`` that many times and
    keeping the requested slice, but computed in one vectorized pass.
    """
    if start < 0 or count < 0:
        raise ValueError("start and count must be nonnegative")
    idx = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    return mix64_array(np.uint64(key & MASK64) + idx * np.uint64(GAMMA))


class SplitMix64:
    """Sequential SplitMix64 stream.

    Instances are cheap; code that needs per-item reproducibility creates
    one stream per item, seeded with :func:`derive_key`.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & MASK64

    def next_u64(self) -> int:
        self._state = (self._state + GAMMA) & MASK64
        return mix64(self._state)

    def next_below(self, n: int) -> int:
        """Unbiased uniform integer in [0, n).

        Uses rejection sampling on the top of the 64-bit range, so every
        residue is exactly equally likely. ``n == 1`` consumes no draw.
        """
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if n == 1:
            return 0
        limit = (1 << 64) - ((1 << 64) % n)
        u = self.next_u64()
        while u >= limit:
            u = self.next_u64()
        return u % n


def fisher_yates(n: int, key: int) -> Iterator[int]:
    """Uniform random permutation of ``range(n)``, yielded front to back.

    Knuth's Algorithm P (TAOCP Vol. 2, 3.4.2) fixing positions from the
    front: position i swaps in a choice from [i, n) drawn from the stream
    seeded with ``key``. A caller that stops early draws nothing past the
    prefix it read, and that prefix is the one a full shuffle produces.
    """
    rng = SplitMix64(key)
    order = list(range(n))
    for i in range(n):
        j = i + rng.next_below(n - i)  # the last position draws nothing
        order[i], order[j] = order[j], order[i]
        yield order[i]
