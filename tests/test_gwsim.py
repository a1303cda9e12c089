import itertools
import math
import os
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from dcmwalk import (
    BiDegreeDistribution,
    DegenerateError,
    FiniteLogLaw,
    MarkedOffspringLaw,
    MarkedTree,
    TruncationError,
    ValidationError,
    compute_bp_parameters,
    duality_check,
    fit_decay_rate,
    gamma,
    out_size_biased,
    rate_function,
    simulate_marked_gw,
    single_survivor_law,
    subcritical_tail_experiment,
    truncated_gamma,
)
from dcmwalk import gwsim
from dcmwalk.branching import subcritical_chain
from dcmwalk.gwsim import (
    _LawSampler,
    _SplittingPopulation,
    _systematic_clones,
    least_squares_slope,
    tail_rate_theory,
    wilson_interval,
)

# Frozen from a reference run (seed 42, t_max 10): reproducibility guard.
GOLDEN_GENERATION_SIZES = (1, 5, 15, 45, 110, 240, 620, 1550, 3805, 9275, 23585)

# A law whose offspring count and mark are dependent: separates the correct
# weight recursion from the E[xi] E[1/zeta] impostor.
CORRELATED = MarkedOffspringLaw({(1, 2): 0.5, (2, 4): 0.25, (0, 3): 0.25})


def test_simulate_immediate_extinction():
    tree = simulate_marked_gw(MarkedOffspringLaw({(0, 2): 1.0}), 5, rng_seed=1)
    assert tuple(map(len, tree.xi)) == (1,)
    assert tree.extinct


def test_simulate_unary_path():
    tree = simulate_marked_gw(MarkedOffspringLaw({(1, 2): 1.0}), 7, rng_seed=1)
    assert tuple(map(len, tree.xi)) == (1,) * 8
    assert all(z.tolist() == [2] for z in tree.zeta)


def test_simulate_golden_tree(toy_biased):
    tree = simulate_marked_gw(toy_biased, 10, rng_seed=42)
    assert tuple(map(len, tree.xi)) == GOLDEN_GENERATION_SIZES
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
    assert tuple(map(len, c.xi)) != tuple(map(len, a.xi)) or any(
        xa.tobytes() != xc.tobytes() for xa, xc in zip(a.xi, c.xi)
    )


class _FixedUniforms:
    """Stands in for a Generator: `random(size)` cycles through `values`."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def random(self, size):
        return np.resize(self.values, size)


def _searchsorted_draw(sampler, u):
    idx = np.minimum(np.searchsorted(sampler.cum, u, side="right"), len(sampler.cum) - 1)
    return sampler.xi[idx], sampler.zeta[idx]


def _random_law(rng, atoms):
    probs = rng.dirichlet(np.full(atoms, 0.5))
    return MarkedOffspringLaw({(i % 10, 2 + i // 10): p for i, p in enumerate(probs)})


def test_law_sampler_matches_searchsorted(toy_biased):
    rng = np.random.default_rng(17)
    laws = [toy_biased] + [_random_law(rng, atoms) for atoms in (2, 3, 5, 8, 13, 40, 80)]
    for eta in laws:
        sampler = _LawSampler(eta)
        xi, zeta = sampler.draw(np.random.default_rng(3), 5000)
        ref = _searchsorted_draw(sampler, np.random.default_rng(3).random(5000))
        assert xi.tobytes() == ref[0].tobytes() and zeta.tobytes() == ref[1].tobytes()
        # Uniforms landing exactly on a cumulative mass, and just either side.
        inner = sampler.cum[:-1]
        edges = np.concatenate((
            [0.0, np.nextafter(1.0, 0.0)], inner,
            np.nextafter(inner, 0.0), np.nextafter(inner, 1.0),
        ))
        xi, zeta = sampler.draw(_FixedUniforms(edges), len(edges))
        ref = _searchsorted_draw(sampler, edges)
        assert xi.tobytes() == ref[0].tobytes() and zeta.tobytes() == ref[1].tobytes()


@pytest.mark.parametrize("size", [0, 1, 2**16 - 1, 2**16, 2**16 + 1, 3 * 2**16 + 5])
def test_chunked_draw_matches_one_uniform_draw(toy_biased, size):
    # Chunks of uniforms must continue one stream: the atoms equal those
    # read from a single rng.random(size) call, for small and wide indices.
    wide = _random_law(np.random.default_rng(4), 300)
    for eta, dtype in ((toy_biased, np.uint8), (wide, np.uint16)):
        sampler = _LawSampler(eta)
        atoms = sampler.draw_index(np.random.default_rng(size), size)
        u = np.random.default_rng(size).random(size)
        ref = np.minimum(np.searchsorted(sampler.cum, u, side="right"), len(sampler.cum) - 1)
        assert atoms.dtype == dtype and len(atoms) == size
        assert np.array_equal(atoms, ref)


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


def test_gamma_truncated_raises(toy_biased, monkeypatch):
    monkeypatch.setattr(gwsim, "WIDTH_CAP", 40)
    tree = simulate_marked_gw(toy_biased, 12, rng_seed=42)
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
    events = ok & (per > 0.0) & (per < math.exp(-subcritical_chain(eta).H_hat * t))
    p_naive = float(events.mean())
    se_naive = float(events.std()) / math.sqrt(reps)
    joint = math.hypot(se_naive, (est.ci_hi - est.ci_lo) / 3.92)
    assert abs(est.p_hat - p_naive) <= 4 * max(joint, 1e-6)


def test_tail_ub_guided_matches_naive():
    eta = MarkedOffspringLaw({(0, 2): 0.25, (1, 3): 0.25, (2, 2): 0.30, (2, 3): 0.20})
    t, omega = 6, 40
    threshold = math.exp(-subcritical_chain(eta).H_hat * t)
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


def test_systematic_clones_total_and_rounding():
    rng = np.random.default_rng(23)
    for trial in range(200):
        R = int(rng.integers(1, 400))
        u = rng.exponential(size=R) * (rng.random(R) < 0.6)
        if trial % 3 == 0:
            u[0] = 0.0
        if trial % 3 != 2:
            u[-1] = 0.0
        if u.sum() == 0.0:
            u[R // 2] = 1.0
        for uniform in (0.0, rng.random(), np.nextafter(1.0, 0.0)):
            clones = _systematic_clones(u, uniform)
            expected = R * u / u.sum()
            assert clones.sum() == R
            assert np.all(clones[u == 0.0] == 0)
            assert np.all(clones >= np.floor(expected - 1e-9))
            assert np.all(clones <= np.ceil(expected + 1e-9))


def test_tail_estimate_reproducible():
    eta = MarkedOffspringLaw({(0, 2): 0.25, (1, 3): 0.25, (2, 2): 0.30, (2, 3): 0.20})

    def run(seed, event):
        return subcritical_tail_experiment(
            eta, t=6, a=1.0, omega=40, reps=4000, rng_seed=seed, event=event
        )

    for event in ("lb", "ub"):
        first = run(5, event)
        assert first.successes > 0 and first == run(5, event)
        assert first.p_hat != run(6, event).p_hat


def _reference_splitting_run(
    sampler, t, gamma_threshold, omega, kill_width, n_replicas, rng, event, guide,
    probe=None,
):
    """The splitting loop as it was before clones shared their parent's
    block: every replica's children are built, and each clone copies its
    parent's block into one node array. A `probe` list receives the final
    per-replica statistic (weight sum or minimum) and node counts."""
    R = n_replicas
    weights = np.ones(R)
    bounds = np.arange(R + 1)
    sizes_prev = np.ones(R, dtype=np.int64)
    log_factor = -guide
    for _ in range(t):
        xi, zeta = sampler.draw(rng, len(weights))
        child_w = np.repeat(weights / zeta, xi)
        child_bounds = np.concatenate(([0], np.cumsum(xi)))[bounds]
        widths = np.diff(child_bounds)
        ok = (widths > 0) & (widths < kill_width)
        u = np.where(ok, np.exp(-guide * (widths - sizes_prev)), 0.0)
        u_total = float(u.sum())
        if u_total <= 0.0:
            return 0.0, 0
        log_factor += math.log(u_total / R)
        clones = _systematic_clones(u, rng.random())
        sizes_prev = np.repeat(widths, clones)
        bounds = np.concatenate(([0], np.cumsum(sizes_prev)))
        shift = np.repeat(child_bounds[:-1], clones) - bounds[:-1]
        weights = child_w[np.arange(bounds[-1]) + np.repeat(shift, sizes_prev)]
    if event == "lb":
        gamma_per = np.add.reduceat(weights, bounds[:-1])
        success = (gamma_per > 0.0) & (gamma_per < gamma_threshold)
    else:
        min_w = np.minimum.reduceat(weights, bounds[:-1])
        success = (sizes_prev < omega) & (min_w < gamma_threshold)
    if probe is not None:
        probe += [gamma_per if event == "lb" else min_w, sizes_prev]
    succ = int(success.sum())
    correction = float(np.where(success, np.exp(guide * sizes_prev), 0.0).mean())
    return math.exp(log_factor) * correction, succ


def _random_supercritical_law(rng):
    """A supercritical law with marks 2..5 and an atom at zero offspring."""
    while True:
        pairs = {(0, int(rng.integers(2, 6)))}
        while len(pairs) < int(rng.integers(2, 7)):
            pairs.add((int(rng.integers(0, 8)), int(rng.integers(2, 6))))
        probs = rng.dirichlet(np.ones(len(pairs)))
        eta = MarkedOffspringLaw(dict(zip(sorted(pairs), probs)))
        if eta.mean_offspring() > 1.05:
            return eta


def _population(sampler, seed, n_replicas, kill_width, guide, steps):
    pop = _SplittingPopulation(
        sampler, np.random.default_rng(seed), n_replicas, kill_width, guide
    )
    pop.advance(steps)
    return pop


def _resumed_population(sampler, seed, n_replicas, kill_width, guide, steps):
    """The population at `steps`, reached through generation steps // 2."""
    pop = _population(sampler, seed, n_replicas, kill_width, guide, steps // 2)
    pop.advance(steps - steps // 2)
    return pop


def test_splitting_run_matches_reference_bit_for_bit():
    # The estimate reads the weights only through `statistic < threshold`.
    # Each case is also run at thresholds equal to the statistic of one of
    # its largest replicas and one ulp above it, where that comparison flips
    # if the statistic differs from the reference's in any bit: the order of
    # a sum, a division or a minimum that moved. Each population is reached
    # both in one advance and by resuming from half the generations.
    rng = np.random.default_rng(2026)
    results = []
    knife_edges = 0
    for case in range(160):
        eta = _random_supercritical_law(rng)
        sampler = _LawSampler(eta)
        t = 1 + case % 9
        omega = int(rng.integers(2, 41))
        event = ("lb", "ub")[case % 2]
        kill_width = omega if event == "lb" else max(8 * omega, 64)
        thresholds = [math.exp(-rng.uniform(0.2, 1.5) * t)]
        guide = (0.7, 0.3)[case % 3 == 0]
        seed = int(rng.integers(2**32))
        probe = []
        _reference_splitting_run(
            sampler, t, thresholds[0], omega, kill_width, 300,
            np.random.default_rng(seed), event, guide, probe,
        )
        if probe:
            stats, sizes = probe
            for value in stats[np.argsort(sizes, kind="stable")[-2:]]:
                if 0.0 < value < 1.0:
                    thresholds += [float(value), float(np.nextafter(value, 1.0))]
                    knife_edges += 1
        pop_args = (sampler, seed, 300, kill_width, guide, t)
        pops = (_population(*pop_args), _resumed_population(*pop_args))
        for threshold in thresholds:
            ref = _reference_splitting_run(
                sampler, t, threshold, omega, kill_width, 300,
                np.random.default_rng(seed), event, guide,
            )
            for pop in pops:
                new = pop.estimate(threshold, omega, event)
                assert new == ref, (case, threshold, eta.pmf)
        results.append(new)
    assert sum(succ > 0 for _, succ in results) >= 40
    assert knife_edges >= 150
    assert (0.0, 0) in results
    # Every width is >= omega = 2 in the first generation: all replicas die.
    dead = _LawSampler(MarkedOffspringLaw({(2, 2): 0.5, (3, 3): 0.5}))
    for event in ("lb", "ub"):
        for make in (_population, _resumed_population):
            pop = make(dead, 1, 50, 2, 0.7, 4)
            assert pop.dead and pop.estimate(0.5, 2, event) == (0.0, 0)
        args = (dead, 4, 0.5, 2, 2, 50, np.random.default_rng(1), event, 0.7)
        assert _reference_splitting_run(*args) == (0.0, 0)


def test_population_that_dies_mid_ladder_stays_dead(set_runs):
    # Two replicas under a narrow width cap die out after a few generations
    # on some seeds; from then on every t reads (0.0, 0), as the reference
    # loop does, and so does a ladder of experiments resuming through it.
    eta = MarkedOffspringLaw({(0, 2): 0.3, (1, 3): 0.3, (3, 2): 0.4})
    sampler = _LawSampler(eta)
    first_deaths = []
    for seed in range(20):
        pop = _population(sampler, seed, 2, 3, 0.7, 0)
        for t in range(1, 13):
            was_dead = pop.dead
            pop.advance(1)
            ref = _reference_splitting_run(
                sampler, t, 0.5, 3, 3, 2, np.random.default_rng(seed), "lb", 0.7
            )
            assert pop.estimate(0.5, 3, "lb") == ref
            if pop.dead:
                assert ref == (0.0, 0)
                if not was_dead:
                    first_deaths.append(t)
    assert sum(2 <= t <= 11 for t in first_deaths) >= 5
    ladder = dict(a=1.0, omega=3, reps=4)
    dead_cells = 0
    for rng_seed in range(10):
        set_runs(2)
        for t in range(1, 13):
            est = subcritical_tail_experiment(eta, t=t, rng_seed=rng_seed, **ladder)
            ((_, pops),) = gwsim._CHECKPOINT.values()
            if all(pop.dead for pop in pops):
                dead_cells += 1
                assert est.successes == 0 and est.p_hat == 0.0
    assert dead_cells >= 10


@pytest.fixture
def set_runs(monkeypatch):
    """`set_runs(k)` patches gwsim.RUNS to k for the rest of the test. Each
    call and the teardown empty the checkpoint, so no ladder resumes
    populations of another count."""

    def set_runs(runs):
        monkeypatch.setattr(gwsim, "RUNS", runs)
        gwsim._CHECKPOINT.clear()

    yield set_runs
    gwsim._CHECKPOINT.clear()


def _cold(eta, **kwargs):
    """The estimate from an empty checkpoint."""
    gwsim._CHECKPOINT.clear()
    return subcritical_tail_experiment(eta, **kwargs)


class _ReferencePopulation:
    """Stands in for `_SplittingPopulation`: each estimate replays the
    reference loop from the population's seed for every generation
    advanced so far."""

    def __init__(self, sampler, rng, n_replicas, kill_width, guide):
        self.args = (sampler, n_replicas, kill_width, guide)
        self.seed = rng.bit_generator.seed_seq
        self.t = 0

    def advance(self, steps):
        self.t += steps

    def estimate(self, gamma_threshold, omega, event):
        sampler, n_replicas, kill_width, guide = self.args
        return _reference_splitting_run(
            sampler, self.t, gamma_threshold, omega, kill_width, n_replicas,
            np.random.default_rng(self.seed), event, guide,
        )


def test_tail_estimate_matches_reference_loop(monkeypatch, set_runs):
    # The whole estimate, over two and three populations; repr pins every
    # float bit. Each case is reached cold and by resuming from a smaller t.
    rng = np.random.default_rng(77)
    estimates = []
    for case in range(60):
        eta = _random_supercritical_law(rng)
        kwargs = dict(
            t=1 + case % 8, a=float(rng.uniform(1.0, 1.3)),
            omega=int(rng.integers(2, 41)), rng_seed=int(rng.integers(2**32)),
            event=("lb", "ub")[case % 2],
        )
        runs = (2, 3)[case // 2 % 2]
        kwargs["reps"] = 400 * runs
        set_runs(runs)
        try:
            with monkeypatch.context() as m:
                m.setattr(gwsim, "_SplittingPopulation", _ReferencePopulation)
                ref = _cold(eta, **kwargs)
        except DegenerateError:
            continue
        cold = _cold(eta, **kwargs)
        _cold(eta, **{**kwargs, "t": max(1, kwargs["t"] // 2)})
        resumed = subcritical_tail_experiment(eta, **kwargs)
        assert repr(cold) == repr(ref) == repr(resumed), kwargs
        estimates.append(cold)
    assert len(estimates) >= 40
    assert sum(e.successes > 0 for e in estimates) >= 10


@pytest.mark.parametrize("a", [math.nan, math.inf, -math.inf])
def test_tail_rejects_non_finite_a(toy_biased, a):
    with pytest.raises(ValidationError):
        subcritical_tail_experiment(toy_biased, t=3, a=a, omega=50, reps=400)


def _ladder_cases(set_runs):
    """Eight ladders over random laws, both events, two or three runs and
    integer or sequence seeds, each with successes at its top t so that a
    wrong resume shows; each case is (law, runs, kwargs, ts)."""
    rng = np.random.default_rng(1313)
    cases = []
    while len(cases) < 8:
        eta = _random_supercritical_law(rng)
        seed = int(rng.integers(2**32))
        kwargs = dict(
            a=1.0, omega=int(rng.integers(3, 41)),
            rng_seed=seed if len(cases) < 4 else [seed, len(cases)],
            event=("lb", "ub")[len(cases) % 2],
        )
        runs = (2, 3)[len(cases) // 2 % 2]
        kwargs["reps"] = 600 * runs
        ts = sorted(int(t) for t in rng.choice(np.arange(1, 9), 4, replace=False))
        set_runs(runs)
        try:
            top = _cold(eta, t=ts[-1], **kwargs)
        except DegenerateError:
            continue
        if top.successes > 0:
            cases.append((eta, runs, kwargs, ts))
    return cases


@pytest.mark.parametrize("order", ["increasing", "decreasing", "repeated", "interleaved"])
def test_tail_ladder_resume_matches_cold_calls(order, set_runs):
    # Interleaved calls differ from the ladder in one argument of the
    # checkpoint key each, so they replace the checkpoint; each of their
    # estimates is checked too.
    other_law = MarkedOffspringLaw({(0, 2): 0.25, (1, 3): 0.25, (2, 2): 0.30, (2, 3): 0.20})
    successes = 0
    for eta, runs, kwargs, ts in _ladder_cases(set_runs):
        set_runs(runs)
        if order == "interleaved":
            others = [(other_law, kwargs)] + [(eta, {**kwargs, **other}) for other in (
                {"rng_seed": 0},
                {"omega": kwargs["omega"] + 5},
                {"event": {"lb": "ub", "ub": "lb"}[kwargs["event"]]},
                {"reps": 2 * kwargs["reps"]},
            )]
            calls = []
            for i, t in enumerate(ts):
                calls.append((eta, t, kwargs))
                calls += [(law, t, kw) for law, kw in others[2 * i:2 * i + 2]]
        else:
            calls = [(eta, t, kwargs) for t in {
                "increasing": ts,
                "decreasing": ts[::-1],
                "repeated": [ts[0], ts[0], ts[3], ts[3], ts[1], ts[3]],
            }[order]]
        cold = [repr(_cold(law, t=t, **kw)) for law, t, kw in calls]
        gwsim._CHECKPOINT.clear()
        for (law, t, kw), expected in zip(calls, cold):
            est = subcritical_tail_experiment(law, t=t, **kw)
            assert repr(est) == expected, (order, t, kw)
            successes += est.successes > 0
    assert successes >= 4


def test_tail_ladders_in_threads_match_serial(set_runs):
    # Threads share one checkpoint; each must still read its own ladder's
    # bits. More threads than cores and a short switch interval make them
    # take and replace the entry in between each other's calls.
    eta = MarkedOffspringLaw({(0, 2): 0.25, (1, 3): 0.25, (2, 2): 0.30, (2, 3): 0.20})
    ts = (3, 5, 7)
    set_runs(3)

    def ladder(seed):
        return [
            repr(subcritical_tail_experiment(
                eta, t=t, a=1.0, omega=40, reps=1200, rng_seed=seed
            ))
            for t in ts
        ]

    seeds = range(100, 106)
    serial = {seed: [repr(_cold(eta, t=t, a=1.0, omega=40, reps=1200,
                                 rng_seed=seed)) for t in ts]
              for seed in seeds}
    results = {}

    def worker(seed):
        results[seed] = [ladder(seed) for _ in range(3)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(s,)) for s in seeds]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
            assert not th.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert results == {seed: [serial[seed]] * 3 for seed in seeds}


def test_tail_runs_concurrently_in_run_order(toy_biased, monkeypatch, set_runs):
    # Run 0 sleeps longest, so with four workers the runs finish out of
    # order; the estimate must still be the inline one, bit for bit.
    finished, threads = [], []

    class SlowFirst(_SplittingPopulation):
        def advance(self, steps):
            run = self.rng.bit_generator.seed_seq.spawn_key[-1]
            threads.append(threading.get_ident())
            time.sleep(0.02 * (4 - run))
            super().advance(steps)
            finished.append(run)

    kwargs = dict(t=4, a=1.0, omega=50, reps=1200, rng_seed=5)
    set_runs(4)
    monkeypatch.setattr(gwsim, "_SplittingPopulation", SlowFirst)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    inline = _cold(toy_biased, **kwargs)
    assert finished == [0, 1, 2, 3]
    assert set(threads) == {threading.get_ident()}
    finished.clear()
    threads.clear()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    concurrent = _cold(toy_biased, **kwargs)
    assert finished != [0, 1, 2, 3] and sorted(finished) == [0, 1, 2, 3]
    assert len(set(threads)) > 1
    assert repr(concurrent) == repr(inline)
    # No more workers than runs, however many cores.
    workers = []
    thread_map = gwsim.thread_map
    monkeypatch.setattr(gwsim, "thread_map", lambda n: workers.append(n) or thread_map(n))
    set_runs(2)
    _cold(toy_biased, **{**kwargs, "reps": 300})
    assert workers == [2]


def test_advance_transient_memory_budget(toy_biased):
    # Populations advance two at a time on two cores; this budget keeps two
    # generations in flight near the peak that one took when each of its
    # temporaries lived to the end of the generation (2.5 MB here). It also
    # fails on an int64 gather of every drawn node's offspring count (1.80
    # MB here) or on resampling edges built with one temporary per step.
    pop = _SplittingPopulation(
        _LawSampler(toy_biased), np.random.default_rng(0), 25000, 200, 0.7
    )
    pop.advance(3)
    tracemalloc.start()
    try:
        pop.advance(1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not pop.dead
    assert peak <= 1.7e6


@pytest.mark.parametrize(
    "bad",
    [{"t": 2.5}, {"t": True}, {"reps": 400.0}, {"omega": 50.5}, {"reps": 7}],
    ids=["t2.5", "t-bool", "reps-float", "omega50.5", "reps-below-runs"],
)
def test_tail_rejects_bad_runs_and_guide(toy_biased, bad, monkeypatch):
    # Rejected before the checkpoint is touched.
    kept = {"key": (1, [])}
    monkeypatch.setattr(gwsim, "_CHECKPOINT", dict(kept))
    kwargs = {**dict(t=3, a=1.0, omega=50, reps=400), **bad}
    with pytest.raises(ValidationError):
        subcritical_tail_experiment(toy_biased, **kwargs)
    assert gwsim._CHECKPOINT == kept


def test_fit_decay_rate_drops_smallest():
    ts = [10, 20, 30]
    ps = [math.exp(-2.0 * 10 - 1.0), math.exp(-1.5 * 20), math.exp(-1.5 * 30)]
    rate, se = fit_decay_rate(ts, ps)
    assert rate == pytest.approx(1.5, abs=1e-12)


def test_two_point_fit_has_nan_standard_error():
    # Two points leave no residual degree of freedom: the error is unknown.
    slope, se = least_squares_slope([1.0, 3.0], [2.0, 5.0])
    assert slope == 1.5 and math.isnan(se)
    rate, se = fit_decay_rate([10, 20, 30], [1e-8, 1e-15, 1e-22])
    assert math.isfinite(rate) and math.isnan(se)


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
