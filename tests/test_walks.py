import math

import numpy as np
import pytest

from dcmwalk import (
    BiDegreeDistribution,
    CensoredError,
    Multigraph,
    NonUniqueError,
    ValidationError,
    cover_time_mc,
    empirical_tail,
    extremal_values,
    head_stationary,
    hitting_time_mc,
    hitting_times_exact,
    matthews_bound,
    realize_sequence,
    return_time_exact,
    sample_dcm,
    stationary_distribution,
    walk_times_exact,
)
from dcmwalk.walks import hitting_matrix, return_times_exact, transition_matrix


def directed_cycle(n: int) -> Multigraph:
    return Multigraph.from_edges([(i, (i + 1) % n, 1) for i in range(n)])


@pytest.fixture
def two_vertex() -> Multigraph:
    # m(0,1) = 2, m(1,0) = 1, m(1,1) = 1: pi = (1/3, 2/3).
    return Multigraph.from_edges([(0, 1, 2), (1, 0, 1), (1, 1, 1)])


def test_stationary_cycle_uniform():
    res = stationary_distribution(directed_cycle(7))
    assert res.pi == pytest.approx(np.full(7, 1 / 7), abs=1e-13)
    assert res.residual <= 1e-12
    assert len(res.support) == 7


def test_stationary_two_vertex(two_vertex):
    res = stationary_distribution(two_vertex)
    assert res.pi == pytest.approx([1 / 3, 2 / 3], abs=1e-12)
    assert res.cross_check_linf is not None and res.cross_check_linf <= 1e-10


def test_stationary_requires_attractor():
    g = Multigraph.from_edges([(0, 1, 1), (1, 0, 1), (2, 3, 1), (3, 2, 1)])
    with pytest.raises(NonUniqueError):
        stationary_distribution(g)


def test_stationary_structural_zeros(toy_dist):
    seq = realize_sequence(toy_dist, 1000)
    g = sample_dcm(seq, rng_seed=5)
    res = stationary_distribution(g)
    support_set = set(res.support.tolist())
    for v in range(g.n):
        if v in support_set:
            assert res.pi[v] > 0.0
        else:
            assert res.pi[v] == 0.0
    assert res.pi.sum() == pytest.approx(1.0, abs=1e-12)


def test_stationary_pi_max_scaling(toy_dist):
    # pi_max = n^(-1 + o(1)); at n = 10^4 the polylog factor still shifts
    # the measured exponent noticeably below 1 (observed ~0.77).
    seq = realize_sequence(toy_dist, 10_000)
    vals = []
    for seed in range(3):
        res = stationary_distribution(sample_dcm(seq, rng_seed=seed))
        vals.append(math.log(1.0 / res.pi_max) / math.log(10_000))
    med = float(np.median(vals))
    assert 0.70 <= med <= 1.1


def test_stationary_ergodic_regime_band():
    # With minimum in-degree >= 2 the walk is ergodic and pi_min only has
    # logarithmic fluctuations around 1/n.
    dist = BiDegreeDistribution({(2, 2): 0.5, (3, 3): 0.5})
    seq = realize_sequence(dist, 100_000)
    for seed in (0, 1):
        res = stationary_distribution(sample_dcm(seq, rng_seed=seed))
        ratio = math.log(1.0 / res.pi_min) / math.log(100_000)
        assert 0.9 <= ratio <= 1.25
        assert len(res.support) == 100_000  # whole graph is one closed class


def test_head_stationary_cycle():
    g = directed_cycle(6)
    res = stationary_distribution(g)
    pi_e = head_stationary(g, res)
    assert pi_e == pytest.approx(np.full(6, 1 / 6), abs=1e-13)


def test_head_stationary_two_vertex(two_vertex):
    res = stationary_distribution(two_vertex)
    pi_e = head_stationary(two_vertex, res)
    # Head of vertex 0 is fed by vertex 1: pi(1)/d_out(1) = 1/3. Heads of
    # vertex 1: two fed by vertex 0 (1/6 each), one by itself (1/3).
    by_vertex = {}
    for h in range(two_vertex.m):
        v = int(two_vertex.head_vertex[h])
        by_vertex.setdefault(v, []).append(pi_e[h])
    assert sorted(by_vertex[0]) == pytest.approx([1 / 3], abs=1e-12)
    assert sorted(by_vertex[1]) == pytest.approx([1 / 6, 1 / 6, 1 / 3], abs=1e-12)


def test_head_vertex_bounds_on_samples(toy_dist):
    # pi0_e <= pi0 <= M pi0_e with M the maximum out-degree.
    seq = realize_sequence(toy_dist, 1500)
    for seed in range(5):
        g = sample_dcm(seq, rng_seed=seed)
        try:
            res = stationary_distribution(g)
        except NonUniqueError:
            continue
        pi_e = head_stationary(g, res)
        pi0 = res.pi_min
        positive = pi_e[pi_e > 0]
        pi0_e = float(positive.min())
        m_cap = int(g.d_out.max())
        assert pi0_e <= pi0 * (1.0 + 1e-12)
        assert pi0 <= m_cap * pi0_e * (1.0 + 1e-12)


def test_extremal_tie_break():
    res = stationary_distribution(directed_cycle(5))
    pi_min, pi_max, argmin, argmax = extremal_values(res)
    assert pi_min == pi_max == pytest.approx(0.2, abs=1e-12)
    assert argmin == 0 and argmax == 0


def test_empirical_tail_definition(toy_dist):
    seq = realize_sequence(toy_dist, 2048)
    res = stationary_distribution(sample_dcm(seq, rng_seed=1))
    n = res.n
    psi0 = empirical_tail(res, 0.0)
    brute = sum(1 for v in res.support if res.pi[v] <= 1.0 / n) / n
    assert psi0 == pytest.approx(brute, abs=1e-15)
    # Far beyond the predicted exponent the tail is empty.
    assert empirical_tail(res, 1.0) == 0.0


def test_empirical_tail_trend(toy_dist):
    # At alpha = H_hat / (2 phi(a0)) the mass should decay roughly like
    # n^(-1/2): a soft trend check at two sizes.
    alpha = 0.936426 / (2 * 1.65129)
    ratios = []
    for n in (2048, 8192):
        seq = realize_sequence(toy_dist, n)
        vals = []
        for seed in range(3):
            res = stationary_distribution(sample_dcm(seq, rng_seed=seed))
            psi = empirical_tail(res, alpha)
            if psi > 0:
                vals.append(math.log(1.0 / psi) / math.log(n))
        ratios.append(float(np.median(vals)))
    for r in ratios:
        assert 0.15 <= r <= 1.0


def test_hitting_cycle_distance():
    g = directed_cycle(6)
    h = hitting_times_exact(g, 0)
    assert h == pytest.approx([0.0, 5.0, 4.0, 3.0, 2.0, 1.0], abs=1e-10)


def test_hitting_two_vertex(two_vertex):
    h = hitting_times_exact(two_vertex, 0)
    assert h == pytest.approx([0.0, 2.0], abs=1e-10)
    h1 = hitting_times_exact(two_vertex, 1)
    assert h1 == pytest.approx([1.0, 0.0], abs=1e-10)


def test_hitting_unreachable_states():
    # 2 -> 0 <-> 1: from the cycle {0,1} the pendant vertex 2 is never hit.
    g = Multigraph.from_edges([(0, 1, 1), (1, 0, 1), (2, 0, 1), (2, 2, 1)])
    h = hitting_times_exact(g, 2)
    assert math.isinf(h[0]) and math.isinf(h[1])
    assert h[2] == 0.0


def test_return_time_identity(two_vertex):
    res = stationary_distribution(two_vertex)
    for x in (0, 1):
        assert return_time_exact(two_vertex, x) * res.pi[x] == pytest.approx(
            1.0, abs=1e-10
        )


def test_return_identity_on_sample(toy_dist):
    seq = realize_sequence(toy_dist, 300)
    g = sample_dcm(seq, rng_seed=11)
    res = stationary_distribution(g)
    for x in res.support[:25]:
        assert return_time_exact(g, int(x)) * res.pi[x] == pytest.approx(
            1.0, abs=1e-8
        )


def test_hitting_matrix_matches_solver(toy_dist):
    seq = realize_sequence(toy_dist, 120)
    g = sample_dcm(seq, rng_seed=2)
    targets, mat = hitting_matrix(g)
    for j in (0, len(targets) // 2, len(targets) - 1):
        solved = hitting_times_exact(g, int(targets[j]))
        assert np.max(np.abs(mat[:, j] - solved)) < 1e-8


def test_hitting_matrix_transient_starts(toy_dist):
    # The toy law has in-degree-0 vertices, so the graph has transient
    # starts that enter the support through the sparse entry solve.
    seq = realize_sequence(toy_dist, 150)
    g = sample_dcm(seq, rng_seed=3)
    targets, mat = hitting_matrix(g)
    assert 0 < len(targets) < g.n
    assert mat.shape == (g.n, len(targets))
    for j, y in enumerate(targets):
        solved = hitting_times_exact(g, int(y))
        assert np.all(np.isfinite(solved))
        rel = np.abs(mat[:, j] - solved) / np.maximum(solved, 1.0)
        assert rel.max() <= 1e-9


def test_return_times_batch_matches_solver(toy_dist):
    seq = realize_sequence(toy_dist, 200)
    g = sample_dcm(seq, rng_seed=6)
    support = stationary_distribution(g).support
    batched = return_times_exact(g, support)
    for i in (0, len(support) // 3, len(support) - 1):
        single = return_time_exact(g, int(support[i]))
        assert batched[i] == pytest.approx(single, rel=1e-9)


def test_walk_times_off_support_target(toy_dist):
    # A target outside the attractive SCC is solved per target: it is never
    # hit from the support (+inf), but is hit from some transient starts.
    seq = realize_sequence(toy_dist, 150)
    g = sample_dcm(seq, rng_seed=3)
    support = stationary_distribution(g).support
    off = int(np.setdiff1d(np.arange(g.n), support)[0])
    on = int(support[0])
    times = walk_times_exact(g, targets=[off, on], cover_reps=20, rng_seed=1)
    for y in (off, on):
        row = np.array([times.hitting_time(x, y) for x in range(g.n)])
        assert np.array_equal(row, hitting_times_exact(g, y))
    assert np.all(np.isinf(times.hitting[list(times.targets).index(off), support]))
    assert math.isfinite(times.t_hit)


def test_walk_times_partial_support_targets(toy_dist):
    # Two support targets take the per-target solver, three take one
    # fundamental-matrix solve; both agree with the single-target solve.
    seq = realize_sequence(toy_dist, 150)
    g = sample_dcm(seq, rng_seed=3)
    support = stationary_distribution(g).support
    for picked in (support[[0, -1]], support[[0, len(support) // 2, -1]]):
        times = walk_times_exact(g, targets=picked, cover_reps=20, rng_seed=1)
        for j, y in enumerate(picked):
            solved = hitting_times_exact(g, int(y))
            rel = np.abs(times.hitting[j] - solved) / np.maximum(solved, 1.0)
            assert rel.max() <= 1e-9


def test_hitting_mc_cycle_exact():
    g = directed_cycle(8)
    est = hitting_time_mc(g, 3, 2, reps=200, step_cap=100, rng_seed=0)
    assert est.mean == 7.0 and est.censored == 0


def test_hitting_mc_matches_exact(toy_dist):
    seq = realize_sequence(toy_dist, 100)
    g = sample_dcm(seq, rng_seed=4)
    res = stationary_distribution(g)
    y = int(res.support[0])
    exact = hitting_times_exact(g, y)
    x = int(res.support[-1])
    est = hitting_time_mc(g, x, y, reps=3000, step_cap=10**6, rng_seed=9)
    assert est.censored == 0
    assert abs(est.mean - exact[x]) <= 4 * est.se


def test_hitting_mc_censoring():
    g = Multigraph.from_edges([(0, 1, 1), (1, 0, 1), (2, 0, 1), (2, 2, 1)])
    with pytest.raises(CensoredError):
        hitting_time_mc(g, 0, 2, reps=50, step_cap=500, rng_seed=1)


def test_cover_cycle_exact():
    g = directed_cycle(9)
    est = cover_time_mc(g, reps=40, step_cap=1000, rng_seed=2)
    assert est.mean == 8.0


def test_cover_batched_reproducible(toy_dist):
    seq = realize_sequence(toy_dist, 100)
    g = sample_dcm(seq, rng_seed=4)
    first = cover_time_mc(g, reps=60, step_cap=10**6, rng_seed=8, n_starts=6)
    again = cover_time_mc(g, reps=60, step_cap=10**6, rng_seed=8, n_starts=6)
    assert np.array_equal(first.samples, again.samples)
    assert (first.mean, first.se, first.start) == (again.mean, again.se, again.start)
    starts = np.random.default_rng(8).choice(g.n, size=6, replace=False)
    assert first.start in starts.tolist()
    assert first.reps == len(first.samples) == 10
    assert first.hits + first.censored == first.reps


def exact_cover_times(g: Multigraph, support) -> np.ndarray:
    """Expected steps to visit every support vertex, from each start, by a
    linear solve over (position, visited set) states."""
    k = len(support)
    bit = {int(v): 1 << i for i, v in enumerate(support)}
    full = (1 << k) - 1
    dst = g.successors()
    states = [(v, s) for v in range(g.n) for s in range(full)]
    index = {st: i for i, st in enumerate(states)}
    a = np.eye(len(states))
    for i, (v, s) in enumerate(states):
        for e in range(g.tail_ptr[v], g.tail_ptr[v + 1]):
            w = int(dst[e])
            s2 = s | bit.get(w, 0)
            if s2 != full:
                a[i, index[(w, s2)]] -= 1.0 / g.d_out[v]
    t = np.linalg.solve(a, np.ones(len(states)))
    out = np.zeros(g.n)
    for v in range(g.n):
        s0 = bit.get(v, 0)
        out[v] = 0.0 if s0 == full else t[index[(v, s0)]]
    return out


def test_cover_matches_exact_small_graph():
    # Support {0, 1, 2, 3} with a self-loop and a double edge; vertex 4 is
    # transient and feeds into it.
    edges = [(0, 1, 2), (0, 2, 1), (1, 0, 1), (1, 3, 1), (2, 2, 1), (2, 3, 1),
             (3, 0, 1), (3, 1, 1), (4, 2, 1), (4, 4, 1)]
    g = Multigraph.from_edges(edges)
    support = stationary_distribution(g).support
    assert support.tolist() == [0, 1, 2, 3]
    exact = exact_cover_times(g, support)
    starts = set()
    for seed in range(12):
        est = cover_time_mc(g, reps=2000, step_cap=10**5, rng_seed=seed, n_starts=1)
        assert est.censored == 0
        assert abs(est.mean - exact[est.start]) <= 4 * est.se
        starts.add(est.start)
    assert len(starts) >= 4


def test_cover_censoring_consistent():
    # A lollipop: the cycle 0..5 plus a self-loop at 0 and the pendant
    # vertex 6 feeding into it. Some walkers cover the cycle within the cap
    # and some do not.
    edges = [(i, (i + 1) % 6, 1) for i in range(6)] + [(0, 0, 1), (6, 0, 1)]
    g = Multigraph.from_edges(edges)
    est = cover_time_mc(g, reps=80, step_cap=7, rng_seed=3, n_starts=7)
    assert 0 < est.censored < est.reps
    assert est.hits + est.censored == est.reps == len(est.samples)
    # Censored replicates read step_cap; a walk may also finish exactly there.
    assert est.samples.max() <= est.step_cap
    assert int((est.samples == est.step_cap).sum()) >= est.censored
    total = est.mean * est.hits + est.step_cap * est.censored
    assert total == pytest.approx(float(est.samples.sum()), rel=1e-12)


def test_cover_all_censored():
    with pytest.raises(CensoredError):
        cover_time_mc(directed_cycle(9), reps=40, step_cap=3, rng_seed=2)


def test_walkers_reject_bad_vertices():
    g = directed_cycle(3)
    for x, y in ((0, 9), (-1, 0), (3, 1)):
        with pytest.raises(ValidationError):
            hitting_time_mc(g, x, y, reps=10, step_cap=100, rng_seed=0)
    with pytest.raises(ValidationError):
        hitting_time_mc(g, 0, 1, reps=0, step_cap=100, rng_seed=0)
    with pytest.raises(ValidationError):
        cover_time_mc(g, reps=10, step_cap=100, rng_seed=0, n_starts=0)


def test_walkers_reject_out_degree_zero():
    # 0 <-> 1 -> 2, and 2 has no out-edge.
    g = Multigraph.from_edges([(0, 1, 1), (1, 0, 1), (1, 2, 1)])
    with pytest.raises(NonUniqueError):
        hitting_time_mc(g, 0, 1, reps=10, step_cap=100, rng_seed=0)
    with pytest.raises(NonUniqueError):
        cover_time_mc(g, reps=10, step_cap=100, rng_seed=0)


def test_cover_respects_matthews(toy_dist):
    seq = realize_sequence(toy_dist, 100)
    g = sample_dcm(seq, rng_seed=4)
    times = walk_times_exact(g, cover_reps=120, rng_seed=3)
    slack = 4 * times.t_cov.se
    assert times.t_cov.mean <= times.matthews_upper + slack
    assert times.t_hit <= times.t_cov.mean + slack
    assert times.matthews_upper == pytest.approx(
        matthews_bound(times.t_hit, len(times.targets)), abs=1e-9
    )


def test_matthews_bound_values():
    assert matthews_bound(12.0, 1) == pytest.approx(12.0)
    assert matthews_bound(12.0, 4) == pytest.approx(25.0)


def test_power_iteration_matches_direct(toy_dist):
    seq = realize_sequence(toy_dist, 400)
    for seed in range(3):
        g = sample_dcm(seq, rng_seed=seed)
        try:
            res = stationary_distribution(g, cross_check=True)
        except NonUniqueError:
            continue
        assert res.cross_check_linf is not None
        assert res.cross_check_linf <= 1e-10


def test_pi_min_rel_residual_matches_direct(toy_dist, two_vertex):
    graphs = [two_vertex, directed_cycle(5)]
    for n, seed in ((400, 1), (3000, 2), (3000, 5)):
        graphs.append(sample_dcm(realize_sequence(toy_dist, n), rng_seed=seed))
    checked = 0
    for g in graphs:
        try:
            res = stationary_distribution(g)
        except NonUniqueError:
            continue
        image = res.pi @ transition_matrix(g)
        v = res.support[np.argmin(res.pi[res.support])]
        direct = abs(image[v] - res.pi[v]) / res.pi[v]
        assert res.pi_min_rel_residual == pytest.approx(direct, rel=1e-9, abs=1e-300)
        assert res.pi[v] == res.pi_min
        checked += 1
    assert checked >= 4
