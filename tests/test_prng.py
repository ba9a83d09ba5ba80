"""The PRNG is the reproducibility contract; pin it down hard."""

import math
import tracemalloc

import numpy as np
import pytest
from splitmix64_oracle import SplitMix64, in_place_fisher_yates, mix64

import fomo.simulation
from fomo.prng import (
    GAMMA,
    MASK64,
    MAX_TRIALS,
    check_trial_count,
    derive_key,
    derive_key_array,
    finish_words,
    mix64_array,
    stream_u64,
    stream_words,
    u64_thresholds,
)
from fomo.simulation import REPLAYS, fisher_yates

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
    assert stream_u64(REFERENCE_SEED, np.arange(1, 6)).tolist() == REFERENCE_OUTPUTS


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


def test_words_finish_into_the_sequential_draws():
    # A word w and its draw w ^ (w >> 31) share their top 31 bits, the
    # bits the collector's guide table reads from words.
    keys = derive_key_array(5, np.arange(4))
    words = stream_words(keys[:, None], np.arange(1, 51))
    draws = stream_u64(keys[:, None], np.arange(1, 51))
    assert np.array_equal(words >> np.uint64(33), draws >> np.uint64(33))
    assert np.array_equal(words ^ (words >> np.uint64(31)), draws)
    sequential = []
    for key in keys.tolist():
        rng = SplitMix64(key)
        sequential.append([rng.next_u64() for _ in range(50)])
    assert draws.tolist() == sequential
    finished = words.copy()
    assert finish_words(finished) is finished
    assert np.array_equal(finished, draws)


def test_u64_thresholds_edges():
    assert u64_thresholds([1.0, 0.5]).tolist() == [MASK64, 2**63]


def int_thresholds(probabilities):
    return [min(int(p * 2.0**64), MASK64) for p in probabilities]


def test_u64_thresholds_equal_the_int_formula():
    edges = [0.5, 1.0, np.nextafter(1.0, 0.0), 2.0**-64, 5e-324]
    assert u64_thresholds(edges).tolist() == int_thresholds(edges)
    values = np.random.default_rng(64).random(10**5)
    assert u64_thresholds(values).tolist() == int_thresholds(values)


def test_u64_thresholds_memory_is_a_few_arrays():
    probabilities = np.random.default_rng(65).random(10**6)
    tracemalloc.start()
    try:
        u64_thresholds(probabilities)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20


def test_mix64_array_matches_scalar():
    values = np.array([0, 1, 42, 2**63, MASK64, 0xDEADBEEFCAFEBABE], dtype=np.uint64)
    assert mix64_array(values).tolist() == [mix64(int(v)) for v in values]


def test_derive_key_array_matches_scalar():
    for seed in (99, 0, MASK64):
        expected = [mix64(mix64(seed) + (i + 1) * GAMMA) for i in range(50)]
        assert derive_key_array(seed, np.arange(50, dtype=np.uint64)).tolist() == expected
        assert [derive_key(seed, i) for i in range(50)] == expected


@pytest.mark.parametrize("seed", [-1, 2**64, 10**400])
def test_derive_key_array_refuses_a_seed_out_of_range(seed):
    # -1 and 2**64 - 1 once keyed the same streams under different names.
    with pytest.raises(ValueError, match=r"^seed must be in 0\.\.2\*\*64-1, got "):
        derive_key_array(seed, np.arange(3))


def test_check_trial_count_takes_one_to_max_trials():
    check_trial_count(1)
    check_trial_count(MAX_TRIALS)
    for trials in (0, MAX_TRIALS + 1):
        with pytest.raises(ValueError, match=f"^trial count must be in 1..{MAX_TRIALS}, got "):
            check_trial_count(trials)


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


# A step limit no test's batch reaches.
NO_LIMIT = 2**20


def run_width(n, done, limit):
    """The most positions a step may fix of each row, ``done`` holding the
    positions each live row has fixed: no more than the fewest any row has
    left, ``limit`` over all rows, and few enough that the swaps a step
    replays, about rows * width**2 / left, stay near REPLAYS; at least one."""
    left, rows = n - max(done), len(done)
    return max(1, min(left, limit // rows, math.isqrt(REPLAYS * left // rows)))


def permutations(n, keys, limit=NO_LIMIT):
    """fisher_yates's runs joined row by row, one permutation per key; each
    step checked to yield int32 items in runs no wider than run_width, at
    most ``limit`` in all (or one a row), each with its 1-based place."""
    joined = [[] for _ in keys]
    for rows, counts, picked, places in fisher_yates(n, np.array(keys, dtype=np.uint64), limit):
        assert picked.dtype == np.int32 and picked.size == counts.sum() > 0
        width = run_width(n, [len(joined[row]) for row in rows.tolist()], limit)
        assert 0 <= counts.min() and counts.max() <= width
        assert picked.size <= max(limit, rows.size) and places.shape == picked.shape
        ends = np.cumsum(counts)[:-1]
        for row, run, at in zip(rows.tolist(), np.split(picked, ends), np.split(places, ends)):
            assert at.tolist() == list(range(len(joined[row]) + 1, len(joined[row]) + run.size + 1))
            joined[row] += run.tolist()
    return joined


def permutation(n, key):
    """The permutation of the one-key call."""
    return permutations(n, [key])[0]


def test_shuffle_is_a_permutation_and_deterministic():
    items = permutation(100, 123)
    assert sorted(items) == list(range(100))
    assert items == permutation(100, 123)
    assert items != permutation(100, 124)


def test_shuffle_frozen_permutation():
    # Change detector: this exact permutation is part of the
    # reproducibility contract.
    assert permutation(8, 2024) == FROZEN_SHUFFLE_2024


def in_place_permutation(n, rng):
    items = list(range(n))
    in_place_fisher_yates(items, rng)
    return items


def test_fisher_yates_matches_in_place_reference():
    # Every n up to 1,100 (a key alone takes its whole permutation in one
    # run up to n = 128), and a few larger: each key alone, and the keys as
    # rows of one batch.
    keys = (0, 7, 2**64 - 1)
    for n in [*range(1101), 1535, 1536, 1537, 2000]:
        expected = [in_place_permutation(n, SplitMix64(key)) for key in keys]
        assert [permutation(n, key) for key in keys] == expected
        assert permutations(n, keys) == expected


@pytest.mark.parametrize("limit", [0, 1, 2, 5, 64, 1000])
def test_a_step_limit_keeps_the_permutations(limit):
    # Fewer positions a step, down to one a row (limit 0, 1 and 2 fall
    # below the three rows), leave every permutation as it was.
    keys = (0, 7, 2**64 - 1)
    for n in (1, 2, 9, 600, 1537):
        expected = [in_place_permutation(n, SplitMix64(key)) for key in keys]
        assert permutations(n, keys, limit) == expected


def test_fisher_yates_refuses_more_items_than_int32_holds():
    with pytest.raises(ValueError, match="2\\*\\*31"):
        next(fisher_yates(2**31, np.array([1], dtype=np.uint64), NO_LIMIT))


def test_fisher_yates_rows_stop_when_told():
    # Stopping one row leaves the others' permutations as they were.
    keys = [3, 4, 5]
    full = permutations(3000, keys)
    steps = fisher_yates(3000, np.array(keys, dtype=np.uint64), NO_LIMIT)
    joined = [[] for _ in keys]
    stop = None
    while True:
        try:
            rows, counts, picked, _ = steps.send(stop)
        except StopIteration:
            break
        for row, run in zip(rows.tolist(), np.split(picked, np.cumsum(counts)[:-1])):
            joined[row] += run.tolist()
        stop = rows == 1  # row 1 stops after its first run
    assert joined[0] == full[0] and joined[2] == full[2]
    assert 0 < len(joined[1]) < 3000 and joined[1] == full[1][: len(joined[1])]


class PlantedStream(SplitMix64):
    """The oracle stream with the planted draws served at their counters,
    ``planted`` mapping a counter to its draw."""

    def __init__(self, key, planted):
        super().__init__(key)
        self.planted = planted
        self.counter = 0

    def next_u64(self):
        u = super().next_u64()
        self.counter += 1
        return self.planted.get(self.counter, u)


def planted_stream(planted, runs=None):
    """stream_u64 with the planted draws served at their counters of each
    key, ``planted`` mapping a key to a {counter: draw} dict. Each row of
    each call adds (key, first counter, last counter) to the set ``runs``."""

    def planted_stream_u64(keys, counters):
        draws = stream_u64(keys, counters)
        keys, counters = np.broadcast_arrays(keys, counters)
        if runs is not None:
            ends = counters[:, 0], counters[:, -1]
            runs.update(zip(keys[:, 0].tolist(), *(end.tolist() for end in ends)))
        for key, at in planted.items():
            for counter, draw in at.items():
                draws[(keys == key) & (counters == counter)] = draw
        return draws

    return planted_stream_u64


def rejected_at(counters):
    """Draws of 2**64 - 1 at the counters: rejected wherever n - i is not a
    power of two."""
    return dict.fromkeys(counters, MASK64)


def planted_permutation(n, key, planted, rejections=None):
    """The sequential loop over a planted stream, which must reject
    ``rejections`` draws (by default every planted one), each costing the
    loop one draw beyond its n - 1."""
    rng = PlantedStream(key, planted)
    items = in_place_permutation(n, rng)
    assert rng.counter == n - 1 + (len(planted) if rejections is None else rejections)
    return items


@pytest.mark.parametrize(
    "planted, starts, ends",
    [
        ({5, 6}, {6}, set()),  # adjacent: the run after the first rejection starts on one
        # The last draw of the first run, then of the next: at n = 1,500 a key
        # alone takes runs of isqrt(REPLAYS * left) positions, 438 and then 368.
        ({438, 806}, set(), {438, 806}),
        # An empty first run, then the last draw of the next run and the first
        # of the one after; 1248 lands on n - i = 257, where 2**64 - 1 is
        # exactly the limit.
        ({1, 439, 440, 1200, 1248}, {1, 440}, {439}),
    ],
)
def test_planted_rejections_match_the_sequential_loop(planted, starts, ends, monkeypatch):
    # A real rejection has chance below n / 2**64 per draw, so plant them:
    # 2**64 - 1 is rejected wherever n - i is not a power of two.
    keys = (0, 7, 2**64 - 1)
    planted = rejected_at(planted)
    runs = set()
    stream = planted_stream(dict.fromkeys(keys, planted), runs)
    monkeypatch.setattr(fomo.simulation, "stream_u64", stream)
    n = 1500
    for key in keys:
        assert permutation(n, key) == planted_permutation(n, key, planted)
        assert starts <= {first for k, first, _ in runs if k == key}
        assert ends <= {last for k, _, last in runs if k == key}


def test_planted_rejections_in_some_rows_of_a_batch(monkeypatch):
    # The rows of one batch fall out of step: key 0 rejects its first draw
    # (an empty run) and the draw at n - i = 3, near its end, key 7 the last
    # draw of its first run and of its second, and 2**64 - 1 none. Three
    # rows at n = 1,500 take runs of 252, then 230 positions.
    n = 1500
    planted = {0: rejected_at({1, 1499}), 7: rejected_at({252, 482}), 2**64 - 1: {}}
    runs = set()
    monkeypatch.setattr(fomo.simulation, "stream_u64", planted_stream(planted, runs))
    expected = [planted_permutation(n, key, at) for key, at in planted.items()]
    assert permutations(n, list(planted)) == expected
    assert {(0, 1, 252), (7, 1, 252), (7, 253, 482)} <= runs


def aimed_at(targets):
    """Draws that send position i to ``targets[i]``, at counter i + 1 (no
    draw before it rejected): u = j - i is far below any rejection limit."""
    return {i + 1: j - i for i, j in targets.items()}


def test_swaps_sharing_a_target_match_the_sequential_loop(monkeypatch):
    # Every aimed position lies in the first step of the two-row batch (and
    # of each one-key call): key 0 sends positions 10, 20 and 30 to 1000,
    # and position 50 to 200 of its own run, whose swap also goes to 1000;
    # key 7 sends positions 5 and 6 to 800, and position 40 to 100 of its
    # own run.
    n = 1500
    planted = {
        0: aimed_at({10: 1000, 20: 1000, 30: 1000, 50: 200, 200: 1000}),
        7: aimed_at({5: 800, 6: 800, 40: 100}),
    }
    monkeypatch.setattr(fomo.simulation, "stream_u64", planted_stream(planted))
    expected = [planted_permutation(n, key, at, rejections=0) for key, at in planted.items()]
    # Each shared target hands on the item the swap before it left there.
    assert [expected[0][i] for i in (10, 20, 30, 50, 200)] == [1000, 10, 20, 200, 30]
    assert [expected[1][i] for i in (5, 6, 40)] == [800, 5, 100]
    assert permutations(n, list(planted)) == expected
    assert [permutation(n, key) for key in planted] == expected


# Computed once from the implementation above and frozen; any algorithm
# change must be deliberate.
FROZEN_SHUFFLE_2024 = [5, 1, 0, 3, 6, 4, 7, 2]
