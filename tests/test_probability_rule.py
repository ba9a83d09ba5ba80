"""The probability rule, one array check in ``fomo.prng``, against the
per-element loops it replaced at its four call sites."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fomo.analytic import first_discovery_pmf
from fomo.collector import CouponDistribution, _probability_array
from fomo.corpus import TopicDistribution
from fomo.prng import check_probabilities


def topic_distribution_by_loop(prevalences):
    if not prevalences:
        raise ValueError("a topic distribution needs at least one topic")
    for i, q in enumerate(prevalences):
        if not 0.0 < q <= 1.0:
            raise ValueError(f"prevalence of topic {i} must be in (0, 1], got {q}")


def coupon_distribution_by_loop(probabilities):
    if not probabilities:
        raise ValueError("a coupon distribution needs at least one coupon")
    for i, p in enumerate(probabilities):
        if not 0.0 < p <= 1.0:
            raise ValueError(f"coupon probability {i} must be in (0, 1], got {p}")
    total = math.fsum(probabilities)
    if total > 1.0 + 1e-9:
        raise ValueError(f"coupon probabilities sum to {total}, more than 1")


def probability_array_by_loop(probabilities):
    values = tuple(float(p) for p in probabilities)
    if not values:
        raise ValueError("need at least one probability")
    for i, p in enumerate(values):
        if not 0.0 < p <= 1.0:
            raise ValueError(f"probability {i} must be in (0, 1], got {p}")
    return values


def first_discovery_pmf_by_loop(prevalence, k):
    if not 0.0 < prevalence <= 1.0:
        raise ValueError(f"prevalence must be in (0, 1], got {prevalence}")
    return (1.0 - prevalence) ** (k - 1) * prevalence


def raised(call, *args):
    """The type and message of what ``call(*args)`` raises, or None."""
    try:
        call(*args)
    except Exception as exc:  # the exception is what is compared
        return type(exc), str(exc)
    return None


EDGES = [
    math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 2.2250738585072014e-308,
    1.0, math.nextafter(1.0, 2.0), True, False, 0, 1, 2, -1, 2**64, 10**400,
]
ENTRIES = st.one_of(
    st.sampled_from(EDGES), st.floats(), st.floats(0.0, 1.0), st.integers(-(2**70), 2**70)
)


@given(st.lists(ENTRIES, max_size=6).map(tuple))
@settings(max_examples=500, deadline=None)
def test_each_site_raises_as_its_loop_did(values):
    assert raised(TopicDistribution, values) == raised(topic_distribution_by_loop, values)
    assert raised(CouponDistribution, values) == raised(coupon_distribution_by_loop, values)
    assert raised(_probability_array, values) == raised(probability_array_by_loop, values)
    for x in values:
        assert raised(first_discovery_pmf, x, 3) == raised(first_discovery_pmf_by_loop, x, 3)
        if raised(first_discovery_pmf_by_loop, x, 3) is None:
            assert first_discovery_pmf(x, 3) == first_discovery_pmf_by_loop(x, 3)


@pytest.mark.parametrize(
    "values, message",
    [
        ((0.5, 2), "entry 1 must be in (0, 1], got 2"),
        ((math.nan,), "entry 0 must be in (0, 1], got nan"),
        ((-0.0,), "entry 0 must be in (0, 1], got -0.0"),
        ((0.25, 10**400), f"entry 1 must be in (0, 1], got {10**400}"),
    ],
)
def test_a_message_quotes_the_entry_as_given(values, message):
    with pytest.raises(ValueError) as info:
        check_probabilities(values, "entry {}")
    assert str(info.value) == message
