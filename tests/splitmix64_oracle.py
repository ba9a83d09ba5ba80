"""Sequential SplitMix64 and the textbook shuffle: the tests' reference.

The package states SplitMix64 once, in its counter form
(``fomo.prng.stream_u64``), and draws only through it. The scalar forms
here are the generator as published, one call at a time, and the tests
check the package against them.
"""

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15


def mix64(z):
    """SplitMix64 finalizer: scramble a 64-bit value into a 64-bit value."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """Sequential stream: the state advances by GAMMA per draw."""

    def __init__(self, seed):
        self._state = seed & MASK64

    def next_u64(self):
        self._state = (self._state + GAMMA) & MASK64
        return mix64(self._state)

    def next_below(self, n):
        """Unbiased uniform integer in [0, n).

        Rejection sampling on the top of the 64-bit range, so every
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


def in_place_fisher_yates(items, rng):
    """The textbook in-place loop, fixing positions front to back, with
    swap indices from ``rng.next_below``."""
    n = len(items)
    for i in range(n - 1):
        j = i + rng.next_below(n - i)
        items[i], items[j] = items[j], items[i]
