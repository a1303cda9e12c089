import math

import numpy as np
import pytest

from dcmwalk import (
    BiDegreeDistribution,
    DegenerateError,
    ExponentReport,
    FiniteLogLaw,
    ValidationError,
    analyze_distribution,
    compute_bp_parameters,
    cumulant_gf,
    minimize_phi,
    out_size_biased,
    phi,
    rate_function,
    rout_exponent,
    run_params,
    single_survivor_law,
)
from dcmwalk import ratefn
from dcmwalk.ratefn import _golden_section

from conftest import (
    TOY_A0,
    TOY_EXPONENT,
    TOY_PHI_A0,
    TWO_FACTOR_A0,
    TWO_FACTOR_EXPONENT,
    TWO_FACTOR_H_HAT,
    TWO_FACTOR_NU_HAT,
    TWO_FACTOR_PHI_A0,
    TWO_FACTOR_PMF,
    TWO_FACTOR_S_MINUS,
    poisson_rout_dist,
    zqcy_dist,
)

LOG2, LOG3, LOG32 = math.log(2), math.log(3), math.log(1.5)


def bernoulli_rate(x: float, p: float) -> float:
    """Closed-form rate function of a Bernoulli(p) variable at x in [0, 1]."""
    if x == 0.0:
        return -math.log(1.0 - p)
    if x == 1.0:
        return -math.log(p)
    return x * math.log(x / p) + (1.0 - x) * math.log((1.0 - x) / (1.0 - p))


@pytest.fixture
def toy_law(toy_dist) -> FiniteLogLaw:
    params = compute_bp_parameters(toy_dist)
    tilde = single_survivor_law(out_size_biased(toy_dist), params.s_minus)
    return FiniteLogLaw.from_marked_law(tilde)


def toy_rate_closed_form(z: float) -> float:
    """Closed-form transform: Z = log2 + log(3/2) * Bernoulli(3/5)."""
    x = (z - LOG2) / LOG32
    if -1e-12 < x < 0.0 or 1.0 < x < 1.0 + 1e-12:  # affine-map rounding
        x = min(1.0, max(0.0, x))
    return bernoulli_rate(x, 0.6)


def test_cumulant_zero_at_origin(toy_law):
    assert cumulant_gf(toy_law, 0.0) == pytest.approx(0.0, abs=1e-14)


def test_cumulant_point_mass():
    law = FiniteLogLaw({LOG2: 1.0})
    assert cumulant_gf(law, 1.0) == pytest.approx(LOG2, abs=1e-14)


def test_cumulant_toy_at_one(toy_law):
    assert cumulant_gf(toy_law, 1.0) == pytest.approx(math.log(2.6), abs=1e-12)


def test_rate_zero_at_mean(toy_law):
    assert rate_function(toy_law, toy_law.mean) <= 1e-10


def test_rate_infinite_off_support(toy_law):
    assert rate_function(toy_law, LOG3 + 1e-6) == math.inf
    assert rate_function(toy_law, LOG2 - 1e-6) == math.inf


def test_rate_endpoints(toy_law):
    assert rate_function(toy_law, LOG2) == pytest.approx(-math.log(0.4), abs=1e-12)
    assert rate_function(toy_law, LOG3) == pytest.approx(-math.log(0.6), abs=1e-12)


def test_rate_matches_bernoulli_closed_form(toy_law):
    grid = np.linspace(LOG2, LOG3, 100)
    for z in grid:
        assert rate_function(toy_law, float(z)) == pytest.approx(
            toy_rate_closed_form(float(z)), abs=1e-9
        )


def test_rate_convexity(toy_law):
    rng = np.random.default_rng(17)
    for _ in range(1000):
        z1, z2 = rng.uniform(LOG2, LOG3, size=2)
        theta = rng.uniform()
        mid = theta * z1 + (1 - theta) * z2
        lhs = rate_function(toy_law, float(mid))
        rhs = theta * rate_function(toy_law, float(z1)) + (1 - theta) * rate_function(
            toy_law, float(z2)
        )
        assert lhs <= rhs + 1e-9


def test_rate_nonnegative_and_monotone(toy_law):
    rng = np.random.default_rng(29)
    h = toy_law.mean
    for _ in range(300):
        z1, z2 = sorted(rng.uniform(h, LOG3, size=2))
        i1, i2 = rate_function(toy_law, float(z1)), rate_function(toy_law, float(z2))
        assert i1 >= -1e-12 and i2 >= -1e-12
        assert i2 >= i1 - 1e-9


def test_finite_log_law_rejects_unit_marks():
    with pytest.raises(ValidationError):
        FiniteLogLaw({0.0: 1.0})


def test_phi_at_one(toy_dist, toy_law):
    params = compute_bp_parameters(toy_dist)
    assert phi(params, toy_law, 1.0) == pytest.approx(
        abs(math.log(params.nu_hat)), abs=1e-9
    )


def test_phi_infinite_for_deterministic_mark_off_one():
    dist = zqcy_dist(10)
    params = compute_bp_parameters(dist)
    law = FiniteLogLaw.from_marked_law(
        single_survivor_law(out_size_biased(dist), params.s_minus)
    )
    assert phi(params, law, 1.2) == math.inf
    assert phi(params, law, 1.0) == pytest.approx(abs(math.log(params.nu_hat)))


def test_phi_toy_minimum_value(toy_dist, toy_law):
    params = compute_bp_parameters(toy_dist)
    assert phi(params, toy_law, TOY_A0) == pytest.approx(TOY_PHI_A0, abs=1e-4)


def test_minimize_phi_toy(toy_dist, toy_law):
    params = compute_bp_parameters(toy_dist)
    report = minimize_phi(params, toy_law)
    assert report.a0 == pytest.approx(TOY_A0, abs=1e-4)
    assert report.phi_a0 == pytest.approx(TOY_PHI_A0, abs=1e-4)
    assert report.exponent == pytest.approx(TOY_EXPONENT, abs=1e-4)
    assert not report.degenerate
    assert report.exponent >= 1.0
    assert report.phi_a0 <= abs(math.log(params.nu_hat)) + 1e-12


def test_two_factor_law_analytic_record():
    # The one law in the tests whose a0 is far from 1 (the toy's is 1.067):
    # the light-trajectory factor adds more than 0.25 to the thin-only
    # exponent 1 + H_hat / |log nu_hat|.
    _, record = analyze_distribution(BiDegreeDistribution(dict(TWO_FACTOR_PMF)))
    expected = {
        "nu_hat": TWO_FACTOR_NU_HAT,
        "H_hat": TWO_FACTOR_H_HAT,
        "a0": TWO_FACTOR_A0,
        "phi_a0": TWO_FACTOR_PHI_A0,
        "exponent": TWO_FACTOR_EXPONENT,
        "s_minus": TWO_FACTOR_S_MINUS,
    }
    for key, value in expected.items():
        assert record[key] == pytest.approx(value, abs=1e-6), key
    assert record["C_thin"] == pytest.approx(0.5686, abs=1e-4)
    assert record["exponent"] - (1.0 + record["C_thin"]) > 0.25


@pytest.mark.parametrize(
    "dist", [zqcy_dist(5), zqcy_dist(10), zqcy_dist(20), poisson_rout_dist()],
    ids=["zqcy5", "zqcy10", "zqcy20", "poisson_rout"],
)
def test_c_thin_is_c_on_point_mass_marks(dist):
    # Every out-degree is 2, so the log-mark law is a point mass, a0 = 1
    # and phi(a0) = |log nu_hat|: the exponent is 1 + C_thin.
    record = run_params(dist)
    assert abs(record["exponent"] - 1.0 - record["C_thin"]) <= 1e-12


def test_minimize_phi_zqcy_family():
    previous = None
    for m in (5, 10, 20):
        report, record = analyze_distribution(zqcy_dist(m))
        nu_hat = record["nu_hat"]
        assert report.a0 == 1.0
        assert report.phi_a0 == pytest.approx(abs(math.log(nu_hat)), abs=1e-12)
        assert report.exponent == pytest.approx(
            1.0 + LOG2 / abs(math.log(nu_hat)), abs=1e-9
        )
        if previous is not None:
            assert report.exponent > previous
        previous = report.exponent


def test_minimize_phi_degenerate_regime():
    dist = BiDegreeDistribution({(2, 2): 1.0})
    params = compute_bp_parameters(dist)
    report = minimize_phi(params, None)
    assert params.nu_hat == 0.0
    assert report.exponent == 1.0
    assert report.phi_a0 == math.inf
    assert report.degenerate


def test_minimizer_beats_random_feasible_points(toy_dist, toy_law):
    params = compute_bp_parameters(toy_dist)
    report = minimize_phi(params, toy_law)
    rng = np.random.default_rng(41)
    a_hi = toy_law.z_max / params.H_hat
    for a in rng.uniform(1.0, a_hi, size=200):
        assert report.phi_a0 <= phi(params, toy_law, float(a)) + 1e-9


def test_rate_function_cramer_sanity(toy_law):
    # Empirical -(1/t) log P{mean of t samples >= z} should bracket I(z).
    rng = np.random.default_rng(53)
    t, reps = 40, 10**6
    atoms = sorted(toy_law.atoms)
    probs = [toy_law.atoms[z] for z in atoms]
    samples = rng.choice(atoms, p=probs, size=(reps, t)).mean(axis=1)
    for z in (0.98, 1.02):
        p_hat = float((samples >= z).mean())
        assert p_hat > 0, "need a less extreme z for this sample size"
        rate_emp = -math.log(p_hat) / t
        assert abs(rate_emp - rate_function(toy_law, z)) <= 0.15


def test_rout_exponent_r2():
    # Independent oracle: largest root of 1 - s = exp(-2 s) by scipy solver.
    from scipy.optimize import brentq

    s = brentq(lambda v: 1.0 - v - math.exp(-2.0 * v), 1e-9, 1.0 - 1e-12)
    assert s == pytest.approx(0.7968, abs=1e-4)
    expected = 1.0 + LOG2 / (2.0 * s - LOG2)
    assert rout_exponent(2) == pytest.approx(expected, abs=1e-10)
    assert rout_exponent(2) == pytest.approx(1.7697, abs=1e-4)


def test_rout_exponent_monotone_decreasing():
    values = [rout_exponent(r) for r in range(2, 11)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] > 1.0


def poisson_in_const_out_dist(r: int, kmax: int) -> BiDegreeDistribution:
    pmf = {}
    for k in range(kmax + 1):
        pmf[(k, r)] = math.exp(-r) * r**k / math.factorial(k)
    total = sum(pmf.values())
    return BiDegreeDistribution({p: w / total for p, w in pmf.items()})


def test_rout_matches_general_pipeline():
    dist = poisson_in_const_out_dist(2, 40)
    report, _ = analyze_distribution(dist)
    assert report.exponent == pytest.approx(rout_exponent(2), abs=2e-3)


def random_grid_law(rng) -> BiDegreeDistribution:
    """A random mean-balanced law: up to six pairs with out-degrees 2-4,
    plus one pair, weighted to cancel the mean imbalance."""
    pairs = sorted(
        {(int(rng.integers(0, 9)), int(rng.integers(2, 5))) for _ in range(6)}
    )
    pmf = dict(zip(pairs, rng.dirichlet(np.ones(len(pairs))).tolist()))
    gap = sum(p * (k - l) for (k, l), p in pmf.items())
    fix = (0, int(rng.integers(2, 5))) if gap > 0 else (int(rng.integers(7, 12)), 2)
    t = gap / (gap - (fix[0] - fix[1]))
    pmf = {pair: p * (1.0 - t) for pair, p in pmf.items()}
    pmf[fix] = pmf.get(fix, 0.0) + t
    return BiDegreeDistribution(pmf)


def exhaustive_minimize_phi(params, law, grid_step: float) -> ExponentReport:
    """Reference for the grid path of minimize_phi at its default tol: phi at
    every grid point, the first of the smallest kept."""
    h_hat = params.H_hat
    a_hi = law.z_max / h_hat

    def objective(a: float) -> float:
        return phi(params, law, min(max(a, 1.0), a_hi))

    npts = max(2, int(math.ceil((a_hi - 1.0) / grid_step)) + 1)
    step = (a_hi - 1.0) / (npts - 1)
    best_i, best_val = 0, math.inf
    for i in range(npts):
        val = objective(1.0 + i * step)
        if val < best_val:
            best_i, best_val = i, val
    lo = 1.0 + max(0, best_i - 1) * step
    hi = 1.0 + min(npts - 1, best_i + 1) * step
    a0, phi_a0 = _golden_section(objective, lo, hi, 1e-9)
    for edge in (1.0, a_hi):
        val = objective(edge)
        if val < phi_a0:
            a0, phi_a0 = edge, val
    return ExponentReport(
        a0=a0,
        phi_a0=phi_a0,
        exponent=1.0 + h_hat / phi_a0,
        degenerate=False,
    )


def test_minimize_phi_matches_exhaustive_grid(toy_dist, monkeypatch):
    # a0 = 1 exactly, from a two-point grid (a_hi - 1 < GRID_STEP). No law
    # has a0 = a_hi: I' grows without bound at z_max, so phi rises into a_hi.
    at_one = BiDegreeDistribution(
        {(1, 6): 0.4153902428555889, (8, 4): 0.5472543551015968, (0, 3): 0.03735540204281423}
    )
    # The random laws patch in a 1e-3 grid step, so that the reference costs
    # about 25 ms per law instead of 250 ms; the search does not depend on it.
    rng = np.random.default_rng(2024)
    laws = [(toy_dist, 1e-4), (at_one, 1e-4)]
    laws += [(random_grid_law(rng), 1e-3) for _ in range(70)]
    grid, edges = 0, set()
    for dist, grid_step in laws:
        params = compute_bp_parameters(dist)
        if params.degenerate:
            continue
        law = FiniteLogLaw.from_marked_law(params.tilde)
        if law.z_max / params.H_hat <= 1.0 + 1e-12:
            continue  # point domain: no grid
        monkeypatch.setattr(ratefn, "GRID_STEP", grid_step)
        report = minimize_phi(params, law)
        assert report == exhaustive_minimize_phi(params, law, grid_step)
        grid += 1
        if report.a0 == 1.0:
            edges.add("a0 = 1")
        a_hi = law.z_max / params.H_hat
        if report.a0 - 1.0 <= ratefn.A0_TOL or a_hi - report.a0 <= ratefn.A0_TOL:
            edges.add("boundary")
    assert grid >= 60 and edges == {"a0 = 1", "boundary"}


def test_first_grid_argmin_matches_first_of_smallest():
    # Quasiconvex sequences with a flat bottom, some exactly tied and some
    # with noise of 1e-15 (far inside PHI_TIE_BAND): the search must return
    # numpy's argmin, the first of the smallest values, wherever the bottom is.
    rng = np.random.default_rng(5)
    for trial in range(400):
        npts = int(rng.integers(2, 500))
        i = np.arange(npts)
        center, flat = rng.uniform(-0.2, 1.2) * npts, rng.uniform(0.0, 0.3) * npts
        scale = 10.0 ** rng.uniform(-12, 0)
        values = 1.0 + scale * np.maximum(0.0, np.abs(i - center) - flat) ** 2
        if trial % 2:
            values += 1e-15 * rng.uniform(-1.0, 1.0, size=npts)
        found = ratefn._first_grid_argmin(lambda j: float(values[j]), npts)
        assert found == int(np.argmin(values))


def test_run_params_toy_makes_few_rate_solves(toy_dist, monkeypatch):
    # 64 solves build the rate table. With every phi grid point evaluated,
    # run_params made 1828 solves in all.
    calls = []
    real = ratefn.rate_function

    def counted(law, z, *args):
        calls.append(z)
        return real(law, z, *args)

    monkeypatch.setattr(ratefn, "rate_function", counted)
    record = run_params(toy_dist)
    assert record["exponent"] == pytest.approx(TOY_EXPONENT, abs=1e-4)
    assert 64 < len(calls) <= 150


def test_params_rejects_law_without_finite_exponent():
    # One pair (1, 3): not mean-balanced, and nu_hat = 1 gives phi(1) = 0.
    dist = BiDegreeDistribution({(1, 3): 1.0})
    with pytest.raises(ValidationError, match="not mean-balanced"):
        analyze_distribution(dist)
    params = compute_bp_parameters(dist)
    assert params.nu_hat == 1.0
    with pytest.raises(DegenerateError):
        minimize_phi(params, FiniteLogLaw.from_marked_law(params.tilde))
