import itertools
import math

import numpy as np
import pytest

from dcmwalk import (
    BiDegreeDistribution,
    DegenerateError,
    FiniteLogLaw,
    MarkedOffspringLaw,
    MarkedTree,
    TruncationError,
    compute_bp_parameters,
    duality_check,
    fit_decay_rate,
    gamma,
    out_size_biased,
    perturb_down,
    perturb_up,
    rate_function,
    simulate_marked_gw,
    single_survivor_law,
    subcritical_tail_experiment,
    truncated_gamma,
)
from dcmwalk.gwsim import _LawSampler, tail_rate_theory, wilson_interval

# Frozen from a reference run (seed 42, t_max 10): reproducibility guard.
GOLDEN_GENERATION_SIZES = (1, 5, 15, 45, 110, 240, 620, 1550, 3805, 9275, 23585)

# A law whose offspring count and mark are dependent: separates the correct
# weight recursion from the E[xi] E[1/zeta] impostor.
CORRELATED = MarkedOffspringLaw({(1, 2): 0.5, (2, 4): 0.25, (0, 3): 0.25})


def test_simulate_immediate_extinction():
    tree = simulate_marked_gw(MarkedOffspringLaw({(0, 2): 1.0}), 5, rng_seed=1)
    assert tree.generation_sizes == (1,)
    assert tree.extinct


def test_simulate_unary_path():
    tree = simulate_marked_gw(MarkedOffspringLaw({(1, 2): 1.0}), 7, rng_seed=1)
    assert tree.generation_sizes == (1,) * 8
    assert all(z.tolist() == [2] for z in tree.zeta)


def test_simulate_golden_tree(toy_biased):
    tree = simulate_marked_gw(toy_biased, 10, rng_seed=42)
    assert tree.generation_sizes == GOLDEN_GENERATION_SIZES
    assert not tree.truncated


def test_simulate_deterministic_bytes(toy_biased):
    a = simulate_marked_gw(toy_biased, 8, rng_seed=123)
    b = simulate_marked_gw(toy_biased, 8, rng_seed=123)
    assert len(a.xi) == len(b.xi)
    for xa, xb in zip(a.xi, b.xi):
        assert xa.tobytes() == xb.tobytes()
    for za, zb in zip(a.zeta, b.zeta):
        assert za.tobytes() == zb.tobytes()
    c = simulate_marked_gw(toy_biased, 8, rng_seed=124)
    assert c.generation_sizes != a.generation_sizes or any(
        xa.tobytes() != xc.tobytes() for xa, xc in zip(a.xi, c.xi)
    )


def test_gamma_unary_path():
    tree = MarkedTree.from_offspring([[1]] * 6, [[2]] * 6)
    for t in range(1, 6):
        assert gamma(tree, t).gamma == pytest.approx(2.0**-t, abs=1e-15)


def test_gamma_binary_tree_depth_two():
    # Root spawns 2, both children spawn 2; all marks 2. The four
    # generation-2 nodes each carry weight 1/4 from the marks of
    # generations 0 and 1; their own marks do not enter.
    tree = MarkedTree.from_offspring(
        [[2], [2, 2], [0, 0, 0, 0]], [[2], [2, 2], [9, 9, 9, 9]]
    )
    trace = gamma(tree, 2)
    assert trace.gamma == pytest.approx(1.0, abs=1e-15)
    assert trace.leaf_gammas.tolist() == pytest.approx([0.25] * 4)


def test_gamma_extinct_is_zero():
    tree = MarkedTree.from_offspring([[2], [0, 0]], [[3], [2, 2]])
    assert gamma(tree, 2).gamma == 0.0
    assert gamma(tree, 5).gamma == 0.0


def test_gamma_truncated_raises(toy_biased):
    tree = simulate_marked_gw(toy_biased, 12, width_cap=40, rng_seed=42)
    assert tree.truncated
    with pytest.raises(TruncationError):
        gamma(tree, len(tree.xi) + 1)


def test_truncated_gamma_base_case():
    tree = MarkedTree.from_offspring([[2], [1, 1], [1, 1]], [[2], [3, 2], [2, 2]])
    assert truncated_gamma(tree, 2, 0.125, 2) == pytest.approx(0.25, abs=1e-15)


def test_truncated_gamma_unary():
    tree = MarkedTree.from_offspring([[1]] * 8, [[2]] * 8)
    for t in range(3, 8):
        assert truncated_gamma(tree, 3, 1.0, t) == pytest.approx(
            2.0 ** -(t - 3), abs=1e-15
        )


def test_truncated_gamma_bounds_gamma(toy_biased):
    # With floor <= min leaf weight at t0, the truncated sum lower-bounds
    # the true one.
    for seed in range(12):
        tree = simulate_marked_gw(toy_biased, 8, rng_seed=seed)
        if len(tree.xi) <= 5:
            continue
        trace = gamma(tree, 5)
        if len(trace.leaf_gammas) == 0:
            continue
        floor = float(trace.leaf_gammas.min())
        for t in (6, 7):
            if t >= len(tree.xi):
                continue
            assert truncated_gamma(tree, 5, floor, t) <= gamma(tree, t).gamma + 1e-15


def _enumerate_one_step(eta: MarkedOffspringLaw, prefix_xi, prefix_zeta, truncated_from=None):
    """Exact E[weight sum at t+1 | tree through t] by enumerating the pair
    assignments of the generation-t nodes."""
    t = len(prefix_xi) - 1
    width = int(sum(prefix_xi[-1]))
    support = eta.support
    total = 0.0
    for combo in itertools.product(support, repeat=width):
        prob = math.prod(eta.pmf[pair] for pair in combo)
        xi_t = [k for k, _ in combo]
        zeta_t = [z for _, z in combo]
        tree = MarkedTree.from_offspring(
            list(prefix_xi) + [xi_t], list(prefix_zeta) + [zeta_t]
        )
        if truncated_from is None:
            value = gamma(tree, t + 2).gamma
        else:
            t0, floor = truncated_from
            value = truncated_gamma(tree, t0, floor, t + 2)
        total += prob * value
    return total


@pytest.mark.parametrize("law_name", ["toy", "correlated", "regular"])
def test_martingale_exact_one_step(law_name, toy_biased):
    laws = {
        "toy": toy_biased,
        "correlated": CORRELATED,
        "regular": MarkedOffspringLaw({(2, 2): 1.0}),
    }
    eta = laws[law_name]
    # Fixed two-generation prefix: root spawns 3 with mark 2; generation 1
    # has offspring (1, 2, 0) and marks (2, 3, 2) -> 3 nodes at generation 2.
    prefix_xi = [[3], [1, 2, 0]]
    prefix_zeta = [[2], [2, 3, 2]]
    base = MarkedTree.from_offspring(
        prefix_xi + [[0, 0, 0]], prefix_zeta + [[1, 1, 1]]
    )
    gamma_t = gamma(base, 2).gamma
    expected = float(eta.mean_ratio()) * gamma_t
    actual = _enumerate_one_step(eta, prefix_xi, prefix_zeta)
    assert actual == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("law_name", ["toy", "correlated"])
def test_truncated_martingale_exact_one_step(law_name, toy_biased):
    eta = {"toy": toy_biased, "correlated": CORRELATED}[law_name]
    prefix_xi = [[3], [1, 2, 0]]
    prefix_zeta = [[2], [2, 3, 2]]
    t0, floor = 1, 0.37
    base = MarkedTree.from_offspring(
        prefix_xi + [[0, 0, 0]], prefix_zeta + [[1, 1, 1]]
    )
    gamma_hat_t = truncated_gamma(base, t0, floor, 2)
    expected = float(eta.mean_ratio()) * gamma_hat_t
    actual = _enumerate_one_step(eta, prefix_xi, prefix_zeta, truncated_from=(t0, floor))
    assert actual == pytest.approx(expected, abs=1e-12)


def test_martingale_exact_ratio_is_one_for_toy(toy_biased):
    assert float(toy_biased.mean_ratio_exact()) == pytest.approx(1.0, abs=1e-15)


def test_martingale_monte_carlo():
    # E[Gamma_{t+1} - E[xi/zeta] Gamma_t] = 0; checked at t = 20 within four
    # standard errors on a moderately supercritical law.
    eta = MarkedOffspringLaw({(0, 2): 0.3, (1, 2): 0.3, (2, 3): 0.4})
    c = eta.mean_ratio()
    rng_seeds = range(4000)
    diffs = []
    for seed in rng_seeds:
        tree = simulate_marked_gw(eta, 21, rng_seed=seed)
        g20 = gamma(tree, 20).gamma if len(tree.xi) > 20 or tree.extinct else None
        if g20 is None:
            continue
        g21 = gamma(tree, 21).gamma
        diffs.append(g21 - c * g20)
    diffs = np.array(diffs)
    se = diffs.std(ddof=1) / math.sqrt(len(diffs))
    assert abs(diffs.mean()) <= 4 * se


def test_truncated_weight_concentration(toy_biased):
    # Conditioned on a wide generation t0 with all leaf weights above the
    # floor, the truncated sum three generations later stays above
    # omega * floor / 2 with frequency > 0.99.
    omega, t0, t = 200, 8, 11
    floor = 3.0 ** -t0  # deterministic lower bound on leaf weights at t0
    hits = 0
    accepted = 0
    seed = 0
    while accepted < 400 and seed < 4000:
        seed += 1
        tree = simulate_marked_gw(toy_biased, t, rng_seed=seed)
        if len(tree.xi) <= t0 or len(tree.xi[t0]) < omega:
            continue
        if len(tree.xi) <= t:
            continue
        accepted += 1
        if truncated_gamma(tree, t0, floor, t) >= omega * floor / 2:
            hits += 1
    assert accepted >= 400
    assert hits / accepted > 0.99


def test_perturb_down_identity_when_atoms_large(toy_biased):
    assert perturb_down(toy_biased, 0.2, 10**4).pmf == pytest.approx(toy_biased.pmf)


def test_perturb_up_normalization(toy_biased):
    up = perturb_up(toy_biased, 0.2, 10**4)
    assert math.fsum(up.pmf.values()) == pytest.approx(1.0, abs=1e-12)
    assert up.pmf[(0, 2)] > toy_biased.pmf[(0, 2)]


def test_perturb_mean_ratio_drift(toy_biased):
    n, beta = 10**4, 0.2
    m = 5  # max degree of the toy marks/offspring
    for law in (perturb_down(toy_biased, beta, n), perturb_up(toy_biased, beta, n)):
        assert abs(law.mean_ratio() - 1.0) <= m * n ** (beta - 1.0)


def test_perturb_down_can_remove_small_atoms():
    eta = MarkedOffspringLaw({(1, 2): 0.9999, (3, 2): 0.0001})
    down = perturb_down(eta, 0.2, 10**4)
    assert (3, 2) not in down.pmf


def test_duality_quarter_law():
    report = duality_check({0: 0.25, 2: 0.75}, depth=2)
    assert report.max_abs_diff < 1e-10
    assert report.conditioned_total == pytest.approx(1.0, abs=1e-10)


def test_duality_toy_offspring():
    report = duality_check({0: 0.5, 5: 0.5}, depth=2)
    assert report.max_abs_diff < 1e-10


def test_duality_rejects_critical_law():
    with pytest.raises(DegenerateError):
        duality_check({0: 0.5, 2: 0.5}, depth=2)


def test_tail_impossible_threshold(toy_biased):
    # a H_hat > log(max mark) makes the threshold smaller than any possible
    # weight sum, so no successes can occur.
    est = subcritical_tail_experiment(
        toy_biased, t=3, a=1.5, omega=50, reps=4000, rng_seed=7
    )
    assert est.successes == 0
    assert est.p_hat == 0.0
    assert est.ci_lo == 0.0 and est.ci_hi > 0.0


def test_tail_guided_matches_naive():
    # Unit-step law where the thin event is common enough for vanilla Monte
    # Carlo; the guided splitting estimate must agree within joint error.
    eta = MarkedOffspringLaw({(0, 2): 0.25, (1, 3): 0.25, (2, 2): 0.30, (2, 3): 0.20})
    t, omega = 6, 200
    est = subcritical_tail_experiment(eta, t=t, a=1.0, omega=omega, reps=80_000, rng_seed=11)
    rng = np.random.default_rng(5)
    reps = 200_000
    sampler = _LawSampler(eta)
    weights = np.ones(reps)
    replica = np.arange(reps)
    ok = np.ones(reps, dtype=bool)
    for _ in range(t):
        xi, zeta = sampler.draw(rng, len(weights))
        child_w = np.repeat(weights / zeta, xi)
        child_rep = np.repeat(replica, xi)
        widths = np.bincount(child_rep, minlength=reps)
        ok &= (widths > 0) & (widths < omega)
        keep = ok[child_rep]
        weights, replica = child_w[keep], child_rep[keep]
    per = np.bincount(replica, weights=weights, minlength=reps)
    events = ok & (per > 0.0) & (per < math.exp(-_toy_entropy(eta) * t))
    p_naive = float(events.mean())
    se_naive = float(events.std()) / math.sqrt(reps)
    joint = math.hypot(se_naive, (est.ci_hi - est.ci_lo) / 3.92)
    assert abs(est.p_hat - p_naive) <= 4 * max(joint, 1e-6)


def test_tail_ub_guided_matches_naive():
    eta = MarkedOffspringLaw({(0, 2): 0.25, (1, 3): 0.25, (2, 2): 0.30, (2, 3): 0.20})
    t, omega = 6, 40
    threshold = math.exp(-_toy_entropy(eta) * t)
    est = subcritical_tail_experiment(
        eta, t=t, a=1.0, omega=omega, reps=80_000, rng_seed=3, event="ub"
    )
    rng = np.random.default_rng(8)
    reps = 200_000
    sampler = _LawSampler(eta)
    weights = np.ones(reps)
    replica = np.arange(reps)
    for _ in range(t):
        xi, zeta = sampler.draw(rng, len(weights))
        weights = np.repeat(weights / zeta, xi)
        replica = np.repeat(replica, xi)
    sizes = np.bincount(replica, minlength=reps)
    min_w = np.full(reps, np.inf)
    np.minimum.at(min_w, replica, weights)
    events = (sizes > 0) & (sizes < omega) & (min_w < threshold)
    p_naive = float(events.mean())
    se_naive = float(events.std()) / math.sqrt(reps)
    joint = math.hypot(se_naive, (est.ci_hi - est.ci_lo) / 3.92)
    assert abs(est.p_hat - p_naive) <= 4 * max(joint, 1e-6)


def _toy_entropy(eta: MarkedOffspringLaw) -> float:
    from dcmwalk import subcritical_entropy, survival_probability

    marginal = eta.offspring_marginal()
    coeffs = [marginal.get(k, 0.0) for k in range(max(marginal) + 1)]
    return subcritical_entropy(eta, survival_probability(coeffs))


def test_fit_decay_rate_drops_smallest():
    ts = [10, 20, 30]
    ps = [math.exp(-2.0 * 10 - 1.0), math.exp(-1.5 * 20), math.exp(-1.5 * 30)]
    rate, se = fit_decay_rate(ts, ps)
    assert rate == pytest.approx(1.5, abs=1e-12)


@pytest.mark.filterwarnings("error")
def test_fit_decay_rate_needs_two_distinct_t():
    rate, se = fit_decay_rate([20, 20], [1e-10, 2e-10])
    assert math.isnan(rate) and math.isnan(se)


def test_tail_rate_theory_matches_bp_parameters():
    # Two nu_hat formulas once disagreed in the last bit on this law.
    dist = BiDegreeDistribution({(0, 2): 0.25, (0, 4): 0.5, (5, 2): 0.25})
    params = compute_bp_parameters(dist)
    tilde = single_survivor_law(out_size_biased(dist), params.s_minus)
    expected = abs(math.log(params.nu_hat)) + rate_function(
        FiniteLogLaw.from_marked_law(tilde), params.H_hat
    )
    assert tail_rate_theory(out_size_biased(dist), 1.0) == expected


def test_wilson_interval_zero_successes():
    lo, hi = wilson_interval(0, 1000)
    assert lo == 0.0
    assert 0.0 < hi < 0.01
