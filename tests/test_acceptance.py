"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report. Statistical criteria use fixed seed sets and the stated tolerances.
"""

import math
import time

import numpy as np
import pytest

from dcmwalk import (
    BiDegreeDistribution,
    ExperimentConfig,
    FiniteLogLaw,
    MarkedOffspringLaw,
    NonUniqueError,
    analyze_distribution,
    compute_bp_parameters,
    duality_check,
    fit_decay_rate,
    gamma,
    head_stationary,
    hitting_time_mc,
    hitting_times_exact,
    out_size_biased,
    rate_function,
    realize_sequence,
    rout_exponent,
    run_exponent_sweep,
    run_params,
    sample_dcm,
    single_survivor_law,
    stationary_distribution,
    subcritical_tail_experiment,
    truncated_gamma,
    walk_times_exact,
)
from dcmwalk.gwsim import MarkedTree
from dcmwalk.harness import SWEEP_COLUMNS
from dcmwalk.walks import hitting_matrix, return_times_exact

from conftest import (
    TOY_A0,
    TOY_EXPONENT,
    TOY_H_HAT,
    TOY_NU_HAT,
    TOY_PHI_A0,
    TOY_PMF,
    TWO_FACTOR_EXPONENT,
    TWO_FACTOR_H_HAT,
    TWO_FACTOR_NU_HAT,
    TWO_FACTOR_PMF,
    poisson_rout_dist,
    zqcy_dist,
)

LOG2, LOG3, LOG32 = math.log(2), math.log(3), math.log(1.5)


def report(num: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"criterion {num:2d} {status}: {description}{suffix}")
    assert ok, f"criterion {num} failed: {description}{suffix}"


def toy() -> BiDegreeDistribution:
    return BiDegreeDistribution(dict(TOY_PMF))


def test_criterion_1_golden_constants():
    start = time.perf_counter()
    record = run_params(toy())
    elapsed = time.perf_counter() - start
    checks = {
        "H_hat": (record["H_hat"], TOY_H_HAT),
        "nu_hat": (record["nu_hat"], TOY_NU_HAT),
        "a0": (record["a0"], TOY_A0),
        "phi_a0": (record["phi_a0"], TOY_PHI_A0),
        "exponent": (record["exponent"], TOY_EXPONENT),
    }
    worst = max(abs(got - want) for got, want in checks.values())
    ok = worst < 1e-4 and elapsed < 1.0
    report(1, "golden constants of the worked example", ok,
           f"max err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_degenerate_regime():
    ok = True
    details = []
    for pmf in ({(2, 2): 1.0}, {(2, 2): 0.5, (3, 3): 0.5}, {(2, 3): 0.5, (3, 2): 0.5}):
        record = run_params(BiDegreeDistribution(pmf))
        ok &= record["nu_hat"] == 0.0 and record["exponent"] == 1.0
        details.append(f"{record['nu_hat']}/{record['exponent']}")
    report(2, "min in-degree >= 2 gives nu_hat = 0 and exponent exactly 1", ok,
           " ".join(details))


def test_criterion_3_skewed_family():
    ok = True
    previous = None
    details = []
    for m in (5, 10, 20):
        rep, record = analyze_distribution(zqcy_dist(m))
        nu_hat = record["nu_hat"]
        ok &= rep.a0 == 1.0
        ok &= abs(rep.phi_a0 - abs(math.log(nu_hat))) < 1e-12
        if previous is not None:
            ok &= rep.exponent > previous
        previous = rep.exponent
        details.append(f"M={m}: exp={rep.exponent:.4f}")
    report(3, "skewed family: a0 = 1, phi = |log nu_hat|, exponent grows", ok,
           ", ".join(details))


def test_criterion_4_rate_function_oracle():
    params = compute_bp_parameters(toy())
    law = FiniteLogLaw.from_marked_law(
        single_survivor_law(out_size_biased(toy()), params.s_minus)
    )

    def closed_form(z: float) -> float:
        x = (z - LOG2) / LOG32
        x = min(1.0, max(0.0, x)) if -1e-12 < x < 1 + 1e-12 else x
        if x < 0 or x > 1:
            return math.inf
        if x == 0.0:
            return -math.log(0.4)
        if x == 1.0:
            return -math.log(0.6)
        return x * math.log(x / 0.6) + (1 - x) * math.log((1 - x) / 0.4)

    grid = np.linspace(LOG2, LOG3, 100)
    grid_err = max(
        abs(rate_function(law, float(z)) - closed_form(float(z))) for z in grid
    )
    at_mean = rate_function(law, params.H_hat)
    rng = np.random.default_rng(17)
    convex_ok = True
    for _ in range(1000):
        z1, z2 = rng.uniform(LOG2, LOG3, size=2)
        theta = float(rng.uniform())
        mid = theta * z1 + (1 - theta) * z2
        lhs = rate_function(law, float(mid))
        rhs = theta * rate_function(law, float(z1)) + (1 - theta) * rate_function(
            law, float(z2)
        )
        convex_ok &= lhs <= rhs + 1e-9
    ok = grid_err < 1e-9 and at_mean <= 1e-10 and convex_ok
    report(4, "rate function matches the closed form and is convex", ok,
           f"grid err {grid_err:.1e}, I(H)={at_mean:.1e}")


def _one_step_enumeration(eta: MarkedOffspringLaw, truncated: bool) -> float:
    import itertools

    prefix_xi = [[3], [1, 2, 0]]
    prefix_zeta = [[2], [2, 3, 2]]
    base = MarkedTree.from_offspring(prefix_xi + [[0, 0, 0]], prefix_zeta + [[1, 1, 1]])
    if truncated:
        target = truncated_gamma(base, 1, 0.4, 2)
    else:
        target = gamma(base, 2).gamma
    expected = eta.mean_ratio() * target
    total = 0.0
    for combo in itertools.product(eta.support, repeat=3):
        prob = math.prod(eta.pmf[p] for p in combo)
        tree = MarkedTree.from_offspring(
            prefix_xi + [[k for k, _ in combo]], prefix_zeta + [[z for _, z in combo]]
        )
        if truncated:
            total += prob * truncated_gamma(tree, 1, 0.4, 3)
        else:
            total += prob * gamma(tree, 3).gamma
    return abs(total - expected)


def test_criterion_5_martingale_identities():
    laws = {
        "biased-toy": out_size_biased(toy()),
        "correlated": MarkedOffspringLaw({(1, 2): 0.5, (2, 4): 0.25, (0, 3): 0.25}),
        "regular": MarkedOffspringLaw({(2, 2): 1.0}),
    }
    worst = 0.0
    for eta in laws.values():
        worst = max(worst, _one_step_enumeration(eta, truncated=False))
        worst = max(worst, _one_step_enumeration(eta, truncated=True))
    ratio_exact = float(laws["biased-toy"].mean_ratio_exact())
    ok = worst < 1e-12 and abs(ratio_exact - 1.0) < 1e-15
    report(5, "one-step martingale identities by exact enumeration", ok,
           f"max dev {worst:.1e}")


def test_criterion_6_duality():
    r1 = duality_check({0: 0.25, 2: 0.75}, depth=2)
    r2 = duality_check({0: 0.5, 5: 0.5}, depth=2)
    ok = r1.max_abs_diff < 1e-10 and r2.max_abs_diff < 1e-10
    report(6, "extinction-conditioned law equals the conjugate law", ok,
           f"diffs {r1.max_abs_diff:.1e}, {r2.max_abs_diff:.1e}")


def test_criterion_7_stationary_correctness():
    start = time.perf_counter()
    seq = realize_sequence(toy(), 500)
    graphs = 0
    worst_resid = 0.0
    worst_head = 0.0
    worst_return = 0.0
    bounds_ok = True
    support_ok = True
    seed = 0
    while graphs < 20:
        g = sample_dcm(seq, rng_seed=seed)
        seed += 1
        try:
            res = stationary_distribution(g)
        except NonUniqueError:
            continue
        graphs += 1
        worst_resid = max(worst_resid, res.residual)
        from dcmwalk.graph import attractive_scc

        comp = attractive_scc(g)
        support_ok &= np.array_equal(np.sort(comp), res.support)
        pi_e = head_stationary(g, res)
        sums = np.bincount(g.successors(), weights=pi_e, minlength=g.n)
        worst_head = max(worst_head, float(np.max(np.abs(sums - res.pi))))
        positive = pi_e[pi_e > 0]
        pi0_e, pi0 = float(positive.min()), res.pi_min
        # The identity is exact in real arithmetic; dividing by d_out and
        # multiplying back costs one ulp each way.
        slack = 1.0 + 1e-12
        bounds_ok &= pi0_e <= pi0 * slack and pi0 <= int(g.d_out.max()) * pi0_e * slack
        returns = return_times_exact(g, res.support)
        worst_return = max(
            worst_return, float(np.max(np.abs(returns * res.pi[res.support] - 1.0)))
        )
    elapsed = time.perf_counter() - start
    ok = (
        worst_resid <= 1e-10
        and support_ok
        and worst_head <= 1e-12
        and bounds_ok
        and worst_return <= 1e-8
        and elapsed < 30.0
    )
    report(7, "stationary correctness on 20 sampled graphs at n=500", ok,
           f"resid {worst_resid:.1e}, head {worst_head:.1e}, "
           f"return {worst_return:.1e}, {elapsed:.1f}s")


def test_criterion_8_exponent_trend():
    start = time.perf_counter()
    sizes = (2**10, 2**12, 2**14, 2**16)
    medians = {}
    for n in sizes:
        seq = realize_sequence(toy(), n)
        vals = []
        for seed in range(20):
            try:
                res = stationary_distribution(sample_dcm(seq, rng_seed=seed))
            except NonUniqueError:
                continue
            vals.append(math.log(1.0 / res.pi_min) / math.log(n))
        medians[n] = float(np.median(vals))
    elapsed = time.perf_counter() - start
    target = TOY_EXPONENT
    ok = (
        1.25 <= medians[2**16] <= 1.90
        and abs(medians[2**16] - target) < abs(medians[2**10] - target)
        and elapsed < 600.0
    )
    detail = ", ".join(f"n=2^{int(math.log2(n))}: {m:.3f}" for n, m in medians.items())
    report(8, "pi_min exponent trends toward 1.567 over the n ladder", ok,
           f"{detail}, {elapsed:.0f}s")


def test_criterion_9_hitting_cover_consistency():
    seq = realize_sequence(toy(), 100)
    g = sample_dcm(seq, rng_seed=4)
    res = stationary_distribution(g)
    rng = np.random.default_rng(31)
    mc_ok = True
    for _ in range(10):
        x = int(rng.choice(g.n))
        y = int(rng.choice(res.support))
        exact = hitting_times_exact(g, y)[x]
        est = hitting_time_mc(g, x, y, reps=2500, step_cap=10**6, rng_seed=int(rng.integers(2**31)))
        se = max(est.se, 1e-9)
        mc_ok &= abs(est.mean - exact) <= 4 * se
    times = walk_times_exact(g, cover_reps=200, rng_seed=7)
    cover_ok = times.t_cov.mean <= times.matthews_upper + 4 * times.t_cov.se
    # Hitting-time exponent mirrors the stationary-minimum exponent
    # (t_hit = n^(1+C+o(1)) while pi_min = n^-(1+C+o(1))).
    mirror_gaps = []
    for n in (128, 1024):
        seqn = realize_sequence(toy(), n)
        gaps = []
        for seed in range(8):
            gn = sample_dcm(seqn, rng_seed=seed)
            try:
                resn = stationary_distribution(gn)
                _, mat = hitting_matrix(gn)
            except NonUniqueError:
                continue
            t_hit = float(mat[np.isfinite(mat)].max())
            gaps.append(
                math.log(t_hit) / math.log(n)
                - math.log(1.0 / resn.pi_min) / math.log(n)
            )
        mirror_gaps.append(float(np.median(np.abs(gaps))))
    trend_ok = mirror_gaps[1] <= 0.1 and mirror_gaps[1] <= mirror_gaps[0] + 0.02
    ok = mc_ok and cover_ok and trend_ok
    report(9, "hitting/cover agree with exact values and mirror the exponent", ok,
           f"cover {times.t_cov.mean:.0f} <= bound {times.matthews_upper:.0f}, "
           f"mirror gaps {mirror_gaps[0]:.3f}->{mirror_gaps[1]:.3f}")


def test_criterion_10_subcritical_tail_rates():
    start = time.perf_counter()
    eta = out_size_biased(toy())
    ts = (10, 20, 30)
    estimates = [
        subcritical_tail_experiment(eta, t=t, a=1.0, omega=200, reps=10**6, rng_seed=42)
        for t in ts
    ]
    rate, _ = fit_decay_rate(ts, [e.p_hat for e in estimates])
    target = abs(math.log(TOY_NU_HAT))
    elapsed = time.perf_counter() - start
    ok = abs(rate - target) <= 0.2 and elapsed < 300.0
    report(10, "thin-growth decay rate matches |log nu_hat|", ok,
           f"fit {rate:.3f} vs {target:.3f}, {elapsed:.0f}s")


def test_criterion_11_rout_cross_check():
    rep, _ = analyze_distribution(poisson_rout_dist())
    gap = abs(rep.exponent - rout_exponent(2))
    ok = gap <= 2e-3
    report(11, "general pipeline matches the r-out closed form at r=2", ok,
           f"gap {gap:.2e}")


def test_criterion_12_two_factor_exponent(tmp_path):
    """On the two-factor law, a0 = 1.86 puts 1 + C = 1.8296 and
    1 + C_thin = 1.5686 apart, so the graphs can tell C from C_thin.

    Rule, fixed before the first run on master seed 12: `run_exponent_sweep`
    over n = 2^10..2^18 in powers of 2, 16 seeds each. Its slope row must be
    nearer 1 + C than 1 + C_thin, that is above their midpoint 1.6991, and
    within 3 standard errors of 1 + C. A cell whose attractive class is one
    self-loop vertex (pi_min = 1) is kept, as the sweep's slope keeps it; a
    cell with no attractive SCC is left out, as the slope leaves it out. The
    report counts both."""
    start = time.perf_counter()
    config = ExperimentConfig(
        dist_json=BiDegreeDistribution(dict(TWO_FACTOR_PMF)).to_json(),
        n_ladder=tuple(2**k for k in range(10, 19)),
        seeds_per_n=16,
        master_seed=12,
    )
    out = tmp_path / "sweep.csv"
    rows = run_exponent_sweep(config, str(out), threads=2)
    slope_row = dict(zip(SWEEP_COLUMNS, out.read_text().splitlines()[-1].split(",")))
    assert slope_row["status"] == "slope"
    slope, se = float(slope_row["exp_obs"]), float(slope_row["support_frac"])
    thin = 1.0 + TWO_FACTOR_H_HAT / abs(math.log(TWO_FACTOR_NU_HAT))
    midpoint = (TWO_FACTOR_EXPONENT + thin) / 2
    self_loops = sum(r["status"] == "ok" and r["pi_min"] == 1.0 for r in rows)
    no_scc = sum(r["status"] == "no_attractive_scc" for r in rows)
    elapsed = time.perf_counter() - start
    ok = slope > midpoint and abs(slope - TWO_FACTOR_EXPONENT) <= 3 * se
    report(12, "two-factor sweep slope is 1 + C, not 1 + C_thin", ok,
           f"slope {slope:.3f} +- {se:.3f} vs {TWO_FACTOR_EXPONENT:.4f} "
           f"(midpoint {midpoint:.4f}), {len(rows)} cells, {self_loops} single "
           f"self-loop, {no_scc} without an attractive SCC, {elapsed:.1f}s")
