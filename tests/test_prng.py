"""The PRNG is the reproducibility contract; pin it down hard."""

import numpy as np
import pytest

from fomo.prng import (
    GAMMA,
    MASK64,
    SplitMix64,
    derive_key,
    derive_key_array,
    fisher_yates,
    mix64,
    mix64_array,
    stream_u64,
    u64_thresholds,
)

# Published SplitMix64 outputs for seed 1234567 (reference C implementation).
REFERENCE_SEED = 1234567
REFERENCE_OUTPUTS = [
    6457827717110365317,
    3203168211198807973,
    9817491932198370423,
    4593380528125082431,
    16408922859458223821,
]


def test_reference_vector():
    rng = SplitMix64(REFERENCE_SEED)
    assert [rng.next_u64() for _ in range(5)] == REFERENCE_OUTPUTS


def test_mix64_matches_inline_reimplementation():
    # Independent restatement of the three mixing steps.
    def reference(z):
        z &= MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
        return (z ^ (z >> 31)) % 2**64

    for z in [0, 1, 42, 2**63, MASK64, 0xDEADBEEFCAFEBABE]:
        assert mix64(z) == reference(z)


def test_counter_identity():
    # Output t of a stream is mix64(seed + t*GAMMA); random access must
    # agree with sequential generation.
    seed = 987654321
    rng = SplitMix64(seed)
    sequential = [rng.next_u64() for _ in range(20)]
    counters = [mix64((seed + t * GAMMA) & MASK64) for t in range(1, 21)]
    assert sequential == counters


def test_bulk_matches_sequential():
    seed = 55
    rng = SplitMix64(seed)
    sequential = [rng.next_u64() for _ in range(100)]
    assert stream_u64(seed, np.arange(1, 101)).tolist() == sequential
    assert stream_u64(seed, np.arange(41, 51)).tolist() == sequential[40:50]


def test_u64_thresholds_edges():
    assert u64_thresholds([1.0, 0.5]).tolist() == [MASK64, 2**63]


def test_mix64_array_matches_scalar():
    values = np.array([0, 1, 42, 2**63, MASK64, 0xDEADBEEFCAFEBABE], dtype=np.uint64)
    assert mix64_array(values).tolist() == [mix64(int(v)) for v in values]


def test_derive_key_array_matches_scalar():
    keys = derive_key_array(99, np.arange(50, dtype=np.uint64))
    assert keys.tolist() == [derive_key(99, i) for i in range(50)]


def test_derive_key_rejects_negative_index():
    with pytest.raises(ValueError):
        derive_key(1, -1)


def test_derive_key_streams_are_distinct():
    keys = {derive_key(7, i) for i in range(10_000)}
    assert len(keys) == 10_000
    # and different seeds do not collide on the same indices
    other = {derive_key(8, i) for i in range(10_000)}
    assert not keys & other


def test_next_below_bounds_and_uniformity():
    rng = SplitMix64(17)
    n = 7
    counts = [0] * n
    draws = 70_000
    for _ in range(draws):
        counts[rng.next_below(n)] += 1
    expected = draws / n
    # chi-square with 6 dof; 22.46 is the 0.1% critical value
    chi2 = sum((c - expected) ** 2 / expected for c in counts)
    assert chi2 < 22.46


def test_next_below_one_consumes_nothing():
    rng = SplitMix64(5)
    before = rng._state
    assert rng.next_below(1) == 0
    assert rng._state == before


def test_next_below_rejects_nonpositive():
    with pytest.raises(ValueError):
        SplitMix64(1).next_below(0)


def test_shuffle_is_a_permutation_and_deterministic():
    items = list(fisher_yates(100, 123))
    assert sorted(items) == list(range(100))
    assert items == list(fisher_yates(100, 123))
    assert items != list(fisher_yates(100, 124))


def test_shuffle_frozen_permutation():
    # Change detector: this exact permutation is part of the
    # reproducibility contract.
    assert list(fisher_yates(8, 2024)) == FROZEN_SHUFFLE_2024


def in_place_fisher_yates(items, key):
    """Reference: the textbook in-place loop, fixing positions front to back."""
    rng = SplitMix64(key)
    n = len(items)
    for i in range(n - 1):
        j = i + rng.next_below(n - i)
        items[i], items[j] = items[j], items[i]


def test_fisher_yates_matches_in_place_reference():
    for n in range(101):
        for key in (0, 7, 2**64 - 1):
            items = list(range(n))
            in_place_fisher_yates(items, key)
            assert list(fisher_yates(n, key)) == items


# Computed once from the implementation above and frozen; any algorithm
# change must be deliberate.
FROZEN_SHUFFLE_2024 = [5, 1, 0, 3, 6, 4, 7, 2]
