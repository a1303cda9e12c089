import math

import pytest

from dcmwalk import BiDegreeDistribution, MarkedOffspringLaw, out_size_biased

# The worked example distribution: in-degrees 0/5, out-degrees 2/3, all
# pairs equally likely. Mean-balanced with lambda = 5/2, delta_out = 2.
TOY_PMF = {(0, 2): 0.25, (0, 3): 0.25, (5, 2): 0.25, (5, 3): 0.25}

# Reference values for the toy distribution (interval-arithmetic precision
# 1e-6 at the source).
TOY_NU_HAT = 0.181095
TOY_H_HAT = 0.936426
TOY_A0 = 1.06671
TOY_PHI_A0 = 1.65129
TOY_EXPONENT = 1.56708


# The two-factor law: in-degree 0 or 4 (P(4) = 0.675) independent of
# out-degree 2 or 16 (P(16) = 0.05), both means 2.7. Its light-trajectory
# factor puts a0 far from 1 and moves the exponent by 0.26. Analytic values
# to 1e-6.
TWO_FACTOR_PMF = {(0, 2): 0.30875, (0, 16): 0.01625, (4, 2): 0.64125, (4, 16): 0.03375}
TWO_FACTOR_NU_HAT = 0.1
TWO_FACTOR_H_HAT = 1.309278
TWO_FACTOR_A0 = 1.859926
TWO_FACTOR_PHI_A0 = 1.578130
TWO_FACTOR_EXPONENT = 1.829639
TWO_FACTOR_S_MINUS = 2 / 3


@pytest.fixture
def toy_dist() -> BiDegreeDistribution:
    return BiDegreeDistribution(dict(TOY_PMF))


@pytest.fixture
def toy_biased(toy_dist) -> MarkedOffspringLaw:
    return out_size_biased(toy_dist)


def zqcy_dist(m: int) -> BiDegreeDistribution:
    """In-degree 1 or m (skewed), out-degree always 2; mean-balanced."""
    return BiDegreeDistribution({(1, 2): (m - 2) / (m - 1), (m, 2): 1 / (m - 1)})


def poisson_rout_dist() -> BiDegreeDistribution:
    """Poisson(2) in-degree cut at 40 and renormalized, out-degree always 2:
    the law of the 2-out digraph's in-degrees, as a DCM law."""
    pmf = {}
    for k in range(41):
        pmf[(k, 2)] = math.exp(-2.0) * 2.0**k / math.factorial(k)
    total = sum(pmf.values())
    return BiDegreeDistribution({p: w / total for p, w in pmf.items()})
