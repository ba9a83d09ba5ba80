"""The QAGS port against scipy's ``quad``, which wraps the same QUADPACK
routine: every panel of the sum route and a set of hard integrands give
the same result, error estimate, ier and subinterval count, bit for bit."""

import math
import struct

import pytest
from scipy import integrate

import fomo.quadpack
from fomo.collector import CouponDistribution, dice_sum_distribution, expected_draws_unequal_sum
from fomo.corpus import generate_corpus, zipf_prevalences
from fomo.quadpack import dqagse

# quad(..., full_output=1) gives a message in place of ier when ier is not 0.
MESSAGES = {
    "The maximum number of subdivisions": 1,
    "The occurrence of roundoff error": 2,
    "Extremely bad integrand behavior": 3,
    "The algorithm does not converge": 4,
    "The integral is probably divergent": 5,
}


def scipy_qags(f, a, b, epsabs, epsrel, limit):
    """``(result, abserr, ier, last)`` as scipy's quad gives them."""
    out = integrate.quad(f, a, b, epsabs=epsabs, epsrel=epsrel, limit=limit, full_output=1)
    ier = 0 if len(out) == 3 else next(
        code for start, code in MESSAGES.items() if out[3].startswith(start)
    )
    return out[0], out[1], ier, out[2]["last"]


def bits(answer):
    """``answer`` with each float as its exact hex form, so that == is bit
    equality (0.0 against -0.0 included)."""
    return tuple(x.hex() if isinstance(x, float) else x for x in answer)


def power_law(count, exponent=1.0):
    """perfbench's collector inputs: weights (i + 1)**-exponent, scaled to sum to 0.999."""
    weights = [(i + 1) ** -exponent for i in range(count)]
    scale = 0.999 / math.fsum(weights)
    return [w * scale for w in weights]


@pytest.fixture(scope="module")
def study_prevalences():
    # The acceptance study's calibration and generation seed.
    corpus = generate_corpus(120_000, zipf_prevalences(64, 0.36, 1 / 8571), seed=7)
    return list(corpus.empirical_prevalences().values())


SUM_INPUTS = {
    "dice": lambda study: dice_sum_distribution(),
    "power_law(25)": lambda study: power_law(25),
    "power_law(25, 0.5)": lambda study: power_law(25, 0.5),
    "power_law(80000)": lambda study: power_law(80_000),
    "uniform 365": lambda study: CouponDistribution.uniform(365),
    # As compare passes them, and divided by their sum, as the byte
    # manifest's "sum study" case reads them.
    "study": lambda study: study,
    "study, summing to 1": lambda study: [p / sum(study) for p in study],
}


@pytest.mark.parametrize("name", SUM_INPUTS)
def test_every_sum_route_panel_matches_scipy(name, study_prevalences, monkeypatch):
    panels = []

    def recording(*args):
        answer = dqagse(*args)
        panels.append((args, answer))
        return answer

    monkeypatch.setattr(fomo.quadpack, "dqagse", recording)
    expected_draws_unequal_sum(SUM_INPUTS[name](study_prevalences))
    assert len(panels) >= 6
    assert [bits(answer) for _, answer in panels] == [bits(scipy_qags(*args)) for args, _ in panels]


def float32(x):
    """``x`` rounded to single precision: noise near the integrand's last bits."""
    return struct.unpack("f", struct.pack("f", x))[0]


# Integrands on [0, 1] that QAGS finds hard: endpoint singularities (the
# last so weak that the extrapolation table runs long), a narrow interior
# peak, the same peak with roundoff noise, a kink, a step and oscillations.
HARD_INTEGRANDS = {
    "1/sqrt(x)": lambda x: 1.0 / math.sqrt(x),
    "log(x)": math.log,
    "x**-0.9": lambda x: x ** -0.9,
    "-log(x) x**-0.5": lambda x: x ** -0.5 * -math.log(x),
    "1/(x log(x/2)**2)": lambda x: 1.0 / (x * math.log(x / 2) ** 2),
    "peak": lambda x: 1.0 / ((x - 0.3137) ** 2 + 1e-10),
    "peak in float32": lambda x: float32(1.0 / ((x - 0.3137) ** 2 + 1e-6)),
    "kink": lambda x: abs(x - 0.41),
    "step": lambda x: 1.0 if x > 0.5731 else 0.0,
    "sin(200 x)": lambda x: math.sin(200.0 * x),
    "sin(10000 x)": lambda x: math.sin(10_000.0 * x),
}
HARD_CASES = [
    (name, 0.0, 1.0, epsabs, epsrel, limit)
    for name in HARD_INTEGRANDS
    for limit in (10, 20, 50, 100, 200)
    for epsabs, epsrel in ((1e-15, 1e-15), (0.0, 1e-13), (1e-10, 1e-10), (1e-6, 0.0), (0.0, 1e-4))
]


def test_hard_integrands_match_scipy():
    assert len(HARD_CASES) >= 150
    mismatched = [
        case for case in HARD_CASES
        if bits(dqagse(HARD_INTEGRANDS[case[0]], *case[1:]))
        != bits(scipy_qags(HARD_INTEGRANDS[case[0]], *case[1:]))
    ]
    assert mismatched == []


def test_hard_integrands_reach_every_exit(monkeypatch):
    # The cases above cover the limit (1), roundoff (2), the extrapolation
    # table's roundoff (4) and divergence (5), and the epsilon algorithm up
    # to its longest table.
    extrapolations = []
    dqelg = fomo.quadpack.dqelg

    def counting(*args):
        extrapolations.append(args[0])
        return dqelg(*args)

    monkeypatch.setattr(fomo.quadpack, "dqelg", counting)
    codes = {dqagse(HARD_INTEGRANDS[name], *rest)[2] for name, *rest in HARD_CASES}
    assert {0, 1, 2, 4, 5} <= codes
    assert len(extrapolations) > len(HARD_CASES)
    assert max(extrapolations) == fomo.quadpack._LIMEXP


# Cases that reach what the cases above leave unreached: the epsilon
# table cut for a small epsinf, the first rule's roundoff (ier 2) and the
# limit (ier 1) at one subinterval, the bad-point test (ier 4) on an
# interval of subnormals, and a table too short to extrapolate (noext).
ROOT = HARD_INTEGRANDS["1/sqrt(x)"]
EDGE_CASES = {
    "step at pi/10": (lambda x: 1.0 if x > math.pi / 10 else 0.0, 0.0, 1.0, 1e-300, 1e-14, 50),
    "1 at limit 1": (lambda x: 1.0, 0.0, 1.0, 1e-300, 1e-14, 1),
    "1/sqrt(x) at limit 1": (ROOT, 0.0, 1.0, 0.0, 1e-13, 1),
    "1/sqrt(x) on [0, 1e-320]": (ROOT, 0.0, 1e-320, 0.0, 1e-13, 2),
    "1/sqrt(x) on [1e-300, 1e-299]": (ROOT, 1e-300, 1e-299, 1e-300, 1e-14, 50),
}


@pytest.mark.parametrize("name", EDGE_CASES)
def test_edge_cases_match_scipy(name):
    f, *rest = EDGE_CASES[name]
    assert bits(dqagse(f, *rest)) == bits(scipy_qags(f, *rest))


def test_invalid_tolerances_are_ier_6():
    # quad raises where dqagse returns ier 6 without evaluating f.
    assert dqagse(math.exp, 0.0, 1.0, 0.0, 1e-20, 50) == (0.0, 0.0, 6, 0)
    with pytest.raises(ValueError):
        integrate.quad(math.exp, 0.0, 1.0, epsabs=0.0, epsrel=1e-20)
