import math

import numpy as np
import pytest

from dcmwalk import (
    BiDegreeDistribution,
    DegenerateError,
    MarkedOffspringLaw,
    compute_bp_parameters,
    conjugate_offspring,
    out_size_biased,
    single_survivor_law,
    survival_probability,
)
from dcmwalk.branching import pgf_derivative, pgf_value, subcritical_chain

from conftest import TOY_H_HAT, TOY_NU_HAT, zqcy_dist


def smallest_fixed_point_oracle(coeffs) -> float:
    """Independent root finder: scan for sign changes of g(q) - q and take
    the smallest root in [0, 1] by bisection."""

    def f(q):
        return pgf_value(coeffs, q) - q

    grid = np.linspace(0.0, 1.0, 2001)
    vals = [f(q) for q in grid]
    for i in range(len(grid) - 1):
        if vals[i] == 0.0:
            return grid[i]
        if vals[i] * vals[i + 1] < 0:
            lo, hi = grid[i], grid[i + 1]
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if f(lo) * f(mid) <= 0:
                    hi = mid
                else:
                    lo = mid
            return 0.5 * (lo + hi)
    return 1.0


def test_out_size_biased_regular_fixed_point():
    point = BiDegreeDistribution({(2, 2): 1.0})
    assert out_size_biased(point).pmf == {(2, 2): pytest.approx(1.0)}


def test_out_size_biased_toy(toy_dist):
    biased = out_size_biased(toy_dist)
    assert biased.pmf == {
        (0, 2): pytest.approx(0.2),
        (0, 3): pytest.approx(0.3),
        (5, 2): pytest.approx(0.2),
        (5, 3): pytest.approx(0.3),
    }


def test_mean_ratio_exactly_one(toy_dist):
    # E[xi / zeta] of the float law is 1 up to the rounding of its pmf.
    ratio = out_size_biased(toy_dist).mean_ratio_exact()
    assert float(ratio) == pytest.approx(1.0, abs=1e-15)


def test_mean_ratio_one_for_random_balanced():
    # Any mean-balanced distribution whose support has degrees >= 1 satisfies
    # E[xi / zeta] = 1 under out-size biasing, up to the rounding of the pmf.
    rng = np.random.default_rng(3)
    for _ in range(20):
        pairs = sorted(
            {(int(k) + 1, int(l) + 1) for k, l in rng.integers(0, 6, size=(4, 2))}
        )
        probs = rng.dirichlet(np.ones(len(pairs)))
        pmf = {}
        for (k, l), w in zip(pairs, probs):
            pmf[(k, l)] = pmf.get((k, l), 0.0) + float(w) / 2
            pmf[(l, k)] = pmf.get((l, k), 0.0) + float(w) / 2
        dist = BiDegreeDistribution(pmf)
        assert dist.mean_balanced
        ratio = out_size_biased(dist).mean_ratio_exact()
        assert float(ratio) == pytest.approx(1.0, abs=1e-15)


def test_survival_always_two():
    # g(q) = q^2: smallest fixed point is 0, survival is certain.
    assert survival_probability([0.0, 0.0, 1.0]) == pytest.approx(1.0)


def test_survival_toy_fixed_point(toy_dist):
    coeffs = subcritical_chain(out_size_biased(toy_dist)).coeffs
    assert coeffs == pytest.approx([0.5, 0, 0, 0, 0, 0.5], abs=1e-12)
    s = survival_probability(coeffs)
    oracle = smallest_fixed_point_oracle(coeffs)
    assert 1.0 - s == pytest.approx(oracle, abs=1e-9)
    # Fixed-point identity g(1 - s) = 1 - s.
    assert pgf_value(coeffs, 1.0 - s) == pytest.approx(1.0 - s, abs=1e-13)
    assert 2.5 * (1.0 - s) ** 4 == pytest.approx(TOY_NU_HAT, abs=1e-6)


def test_survival_fixed_point_identity_family():
    rng = np.random.default_rng(11)
    for _ in range(30):
        raw = rng.dirichlet(np.ones(5))
        coeffs = [float(v) for v in raw]
        s = survival_probability(coeffs)
        assert pgf_value(coeffs, 1.0 - s) == pytest.approx(1.0 - s, abs=1e-13)


def test_subcritical_expansion_rate_degenerate_regime():
    dist = BiDegreeDistribution({(2, 2): 0.5, (3, 3): 0.5})
    assert compute_bp_parameters(dist).nu_hat == 0.0


def test_subcritical_expansion_rate_toy(toy_dist):
    assert compute_bp_parameters(toy_dist).nu_hat == pytest.approx(
        TOY_NU_HAT, abs=1e-6
    )


def test_subcritical_expansion_rate_zqcy_family():
    dist = zqcy_dist(10)
    nu_hat = compute_bp_parameters(dist).nu_hat
    coeffs = subcritical_chain(out_size_biased(dist)).coeffs
    s = 1.0 - smallest_fixed_point_oracle(coeffs)
    assert 0.0 < nu_hat < 1.0
    assert nu_hat == pytest.approx(pgf_derivative(coeffs, 1.0 - s), abs=1e-9)
    assert nu_hat == pytest.approx(8 / 9, abs=1e-12)  # survival is certain here


def test_conjugate_identity_at_s_zero():
    law = {0: 0.3, 1: 0.5, 3: 0.2}
    assert conjugate_offspring(law, 0.0) == pytest.approx(law)


def test_conjugate_mean_is_nu_hat(toy_dist):
    coeffs = subcritical_chain(out_size_biased(toy_dist)).coeffs
    s = survival_probability(coeffs)
    hat = conjugate_offspring({0: 0.5, 5: 0.5}, s)
    mean = sum(k * p for k, p in hat.items())
    assert mean == pytest.approx(TOY_NU_HAT, abs=1e-6)
    assert mean == pytest.approx(pgf_derivative(coeffs, 1.0 - s), abs=1e-12)


def test_conjugate_mean_matches_derivative_family():
    rng = np.random.default_rng(23)
    for _ in range(20):
        raw = rng.dirichlet(np.ones(4) * 0.8)
        coeffs = [float(v) for v in raw]
        s = survival_probability(coeffs)
        hat = conjugate_offspring(dict(enumerate(coeffs)), s)
        mean = sum(k * p for k, p in hat.items())
        assert mean == pytest.approx(pgf_derivative(coeffs, 1.0 - s), abs=1e-12)


def test_conjugate_certain_survival_branch():
    # Deterministic offspring 2 survives surely; the conditioned process
    # keeps only the (empty) unary mass.
    assert conjugate_offspring({2: 1.0}, 1.0) == {0: 1.0}


def test_single_survivor_toy_marks(toy_biased, toy_dist):
    coeffs = subcritical_chain(out_size_biased(toy_dist)).coeffs
    s = survival_probability(coeffs)
    tilde = single_survivor_law(toy_biased, s)
    marks = tilde.mark_marginal()
    assert marks[2] == pytest.approx(0.4, abs=1e-12)
    assert marks[3] == pytest.approx(0.6, abs=1e-12)


def test_single_survivor_unary_fixed_point():
    law = MarkedOffspringLaw({(1, 2): 1.0})
    assert single_survivor_law(law, 0.0).pmf == {(1, 2): pytest.approx(1.0)}


def test_single_survivor_zqcy_deterministic_mark():
    dist = zqcy_dist(10)
    coeffs = subcritical_chain(out_size_biased(dist)).coeffs
    s = survival_probability(coeffs)
    tilde = single_survivor_law(out_size_biased(dist), s)
    assert tilde.mark_marginal() == {2: pytest.approx(1.0)}


def test_single_survivor_degenerate():
    law = MarkedOffspringLaw({(2, 2): 1.0})
    with pytest.raises(DegenerateError):
        single_survivor_law(law, 1.0)


def test_subcritical_entropy_toy(toy_biased):
    h = subcritical_chain(toy_biased).H_hat
    assert h == pytest.approx(0.4 * math.log(2) + 0.6 * math.log(3), abs=1e-12)
    assert h == pytest.approx(TOY_H_HAT, abs=1e-6)


def test_subcritical_entropy_constant_mark():
    dist = zqcy_dist(5)
    assert subcritical_chain(out_size_biased(dist)).H_hat == pytest.approx(
        math.log(2), abs=1e-12
    )


def test_compute_bp_parameters_toy(toy_dist):
    params = compute_bp_parameters(toy_dist)
    assert params.lam == pytest.approx(2.5)
    assert params.nu == pytest.approx(2.5)
    assert params.nu_hat == pytest.approx(TOY_NU_HAT, abs=1e-6)
    assert params.H_hat == pytest.approx(TOY_H_HAT, abs=1e-6)
    assert params.H_plus == pytest.approx(0.5 * math.log(6), abs=1e-12)
    assert not params.degenerate
