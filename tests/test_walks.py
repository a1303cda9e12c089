import hashlib
import math
import threading
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest
import scipy.sparse as sp

from dcmwalk import (
    BiDegreeDistribution,
    CensoredError,
    Multigraph,
    NonUniqueError,
    NumericalError,
    ValidationError,
    attractive_scc,
    cover_time_mc,
    empirical_tail,
    head_stationary,
    hitting_time_mc,
    hitting_times_exact,
    matthews_bound,
    realize_sequence,
    return_time_exact,
    sample_dcm,
    sample_rout,
    stationary_distribution,
    walk_times_exact,
)
from dcmwalk import _threads, graph, walks
from dcmwalk.graph import _closed_block
from dcmwalk.walks import (
    _direct_stationary,
    hitting_matrix,
    return_times_exact,
    transition_matrix,
)


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
    # Vertex 0 is fed by one tail of vertex 1: pi(1)/d_out(1) = 1/3.
    # Vertex 1: by two tails of vertex 0 (1/6 each), one of its own (1/3).
    by_vertex = {}
    for t, v in enumerate(two_vertex.successors().tolist()):
        by_vertex.setdefault(v, []).append(pi_e[t])
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
    # Every vertex of a cycle ties: the extremes over the support coincide.
    res = stationary_distribution(directed_cycle(5))
    assert res.pi_min == res.pi_max == pytest.approx(0.2, abs=1e-12)


def test_empirical_tail_definition(toy_dist):
    seq = realize_sequence(toy_dist, 2048)
    res = stationary_distribution(sample_dcm(seq, rng_seed=1))
    n = res.n
    psi0 = empirical_tail(res, 0.0)
    brute = sum(1 for v in res.support if res.pi[v] <= 1.0 / n) / n
    assert psi0 == pytest.approx(brute, abs=1e-15)
    # Far beyond the predicted exponent the tail is empty.
    assert empirical_tail(res, 1.0) == 0.0


@pytest.mark.parametrize("alpha", [-0.5, math.nan])
def test_empirical_tail_rejects_bad_alpha(two_vertex, alpha):
    res = stationary_distribution(two_vertex)
    with pytest.raises(ValidationError):
        empirical_tail(res, alpha)


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


def test_hitting_blocks_predecessors_of_other_closed_classes():
    # Closed classes {2} (the target) and {4}. Every vertex with a path to 4
    # that avoids 2 (3, then 1, 0 and 6 through their successors) misses 2
    # with positive probability, so its expected hitting time is infinite.
    g = Multigraph.from_edges(
        [(0, 1, 1), (1, 2, 1), (1, 3, 1), (2, 2, 1), (3, 4, 1), (4, 4, 1),
         (5, 2, 1), (6, 5, 1), (6, 0, 1), (7, 5, 2)]
    )
    h = hitting_times_exact(g, 2)
    assert h.tolist() == [math.inf, math.inf, 0.0, math.inf, math.inf, 1.0, math.inf, 2.0]
    # Probability of ever hitting 2, with 2 made absorbing; the graph has no
    # cycle but the two self-loops, so eight steps settle it exactly.
    p = transition_matrix(g).toarray()
    p[2] = np.eye(g.n)[2]
    hit = np.linalg.matrix_power(p, 8)[:, 2]
    assert hit == pytest.approx([0.5, 0.5, 1.0, 0.0, 0.0, 1.0, 0.75, 1.0], abs=1e-15)
    assert np.array_equal(np.isinf(h), hit < 1.0)


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
    succ = g.successors()
    # Reference: one sparse solve per vertex, independent of hitting_matrix.
    for i in (0, len(support) // 3, len(support) - 1):
        x = int(support[i])
        dst = succ[g.tail_ptr[x] : g.tail_ptr[x] + g.d_out[x]]
        reference = 1.0 + hitting_times_exact(g, x)[dst].mean()
        assert batched[i] == pytest.approx(reference, rel=1e-9)


def test_return_time_of_transient_vertex_is_infinite():
    # 2 -> 0 <-> 1 with a loop at 2: a walk from 2 that leaves never returns.
    g = Multigraph.from_edges([(0, 1, 1), (1, 0, 1), (2, 0, 1), (2, 2, 1)])
    assert return_times_exact(g, [2, 0]).tolist() == [math.inf, 2.0]
    assert return_time_exact(g, 2) == math.inf
    assert 1.0 + hitting_times_exact(g, 2)[[0, 2]].mean() == math.inf


def test_return_times_need_attractive_scc():
    g = Multigraph.from_edges([(0, 1, 1), (1, 0, 1), (2, 3, 1), (3, 2, 1)])
    with pytest.raises(NonUniqueError):
        return_times_exact(g, [0])
    assert return_times_exact(g, []).shape == (0,)


def test_walk_times_refuse_large_support_before_solving(monkeypatch):
    # Every exact solve starts from transition_matrix or _closed_block; none
    # may run.
    def no_solve(*args):
        raise AssertionError("solve started")

    monkeypatch.setattr(walks, "transition_matrix", no_solve)
    monkeypatch.setattr(walks, "_closed_block", no_solve)
    with pytest.raises(ValidationError, match="budgeted"):
        walk_times_exact(directed_cycle(walks.HITTING_MATRIX_MAX_K + 100))


def test_walk_times_hitting_time_checks_vertices():
    times = walk_times_exact(directed_cycle(5), cover_reps=20, rng_seed=1)
    assert times.hitting.shape == (5, 5)
    assert times.hitting_time(0, 3) == pytest.approx(3.0, abs=1e-12)
    assert times.hitting_time(np.int64(4), 0) == pytest.approx(1.0, abs=1e-12)
    for x, y in ((-1, 0), (5, 0), (1.5, 0), (True, 0), (0, 2.0), (0, 5)):
        with pytest.raises(ValidationError):
            times.hitting_time(x, y)


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


@pytest.mark.parametrize("block", [1, 7, walks.WALK_BLOCK])
def test_walkers_exact_across_block_boundaries(monkeypatch, block):
    # On a directed 200-cycle every walk is deterministic: covering takes
    # 199 steps and reaching the vertex 150 ahead takes 150, whatever the
    # block length. A cap equal to that count (199 is prime, so no block
    # length above 1 divides it) is met by every walk; one step less
    # censors them all.
    monkeypatch.setattr(walks, "WALK_BLOCK", block)
    g = directed_cycle(200)
    for step_cap in (199, 1000):
        cov = cover_time_mc(g, reps=40, step_cap=step_cap, rng_seed=4)
        assert cov.censored == 0 and np.all(cov.samples == 199)
    with pytest.raises(CensoredError):
        cover_time_mc(g, reps=40, step_cap=198, rng_seed=4)
    for step_cap in (150, 1000):
        hit = hitting_time_mc(g, 30, 180, reps=40, step_cap=step_cap, rng_seed=4)
        assert hit.censored == 0 and np.all(hit.samples == 150)
    with pytest.raises(CensoredError):
        hitting_time_mc(g, 30, 180, reps=40, step_cap=149, rng_seed=4)


def test_walk_block_shrinks_for_many_walkers(monkeypatch):
    # A block holds at most WALK_BLOCK_CELLS uniforms, and the last block
    # is cut at the step cap.
    monkeypatch.setattr(walks, "WALK_BLOCK_CELLS", 100)
    g = directed_cycle(20)
    shapes = []

    def settle(step, live, tails):
        shapes.append(tails.shape)
        return live % 2 == 1  # the first block stops half the walkers

    left = walks._walk(g, np.zeros(60, dtype=np.int64), 5, np.random.default_rng(0), settle)
    assert shapes == [(1, 60), (3, 30), (1, 30)]
    assert np.array_equal(left, np.arange(0, 60, 2))


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


def test_cover_matches_exact_slow_graph():
    # Heavy self-loops hold each walker at a vertex for about 60 steps on
    # average, so covering takes hundreds of steps and spans many blocks.
    edges = [(0, 1, 1), (1, 2, 1), (1, 3, 1), (2, 0, 1), (3, 4, 1), (4, 0, 1),
             (4, 2, 1)] + [(v, v, 60) for v in range(5)]
    g = Multigraph.from_edges(edges)
    support = stationary_distribution(g).support
    assert support.tolist() == [0, 1, 2, 3, 4]
    exact = exact_cover_times(g, support)
    assert exact.min() > walks.WALK_BLOCK
    for seed in range(4):
        est = cover_time_mc(g, reps=1000, step_cap=10**5, rng_seed=seed, n_starts=1)
        assert est.censored == 0
        assert abs(est.mean - exact[est.start]) <= 4 * est.se


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
    # 2**70 does not fit in int64; it is out of range all the same.
    g = directed_cycle(3)
    # A bool or a non-integral id is refused, not truncated.
    for x, y in ((0, 9), (-1, 0), (3, 1), (2**70, 0), (1.5, 0), (0, 1.5), (True, 0)):
        with pytest.raises(ValidationError):
            hitting_time_mc(g, x, y, reps=10, step_cap=100, rng_seed=0)
    # One target id: a list of two (or none) is refused, not a raw ValueError.
    for y in (2**70, True, 1.5, np.float64(1.0), [1, 2], []):
        with pytest.raises(ValidationError):
            hitting_times_exact(g, y)
    for xs in ([0, 2**70], [0, 1.5], [True, 0], np.array([0.0, 1.0])):
        with pytest.raises(ValidationError):
            return_times_exact(g, xs)
    with pytest.raises(ValidationError):
        return_time_exact(g, 2.7)
    assert hitting_times_exact(g, np.int64(1))[0] == pytest.approx(1.0)
    assert return_times_exact(g, np.array([2], dtype=np.uint8))[0] == pytest.approx(3.0)
    with pytest.raises(ValidationError):
        hitting_time_mc(g, 0, 1, reps=0, step_cap=100, rng_seed=0)
    with pytest.raises(ValidationError):
        cover_time_mc(g, reps=10, step_cap=100, rng_seed=0, n_starts=0)


def test_walkers_reject_non_integer_counts():
    # A fractional cap would let a 9-step walk count as a hit under 8.5.
    g = directed_cycle(10)
    for reps, step_cap in ((5, 8.5), (5.0, 100), (True, 100), (5, True)):
        with pytest.raises(ValidationError):
            hitting_time_mc(g, 0, 9, reps=reps, step_cap=step_cap)
    for reps, step_cap, n_starts in ((20.0, 100, 2), (20, 100.0, 2), (20, 100, 2.5),
                                     (20, 100, True)):
        with pytest.raises(ValidationError):
            cover_time_mc(g, reps=reps, step_cap=step_cap, n_starts=n_starts)
    est = hitting_time_mc(g, 0, 9, reps=np.int64(5), step_cap=np.int32(9))
    assert est.mean == 9.0 and est.censored == 0


class ConstantUniforms:
    """Generator stub whose `random` fills every draw with one value."""

    def __init__(self, value: float):
        self.value = value

    def random(self, shape) -> np.ndarray:
        return np.full(shape, self.value)


@pytest.mark.parametrize("value, last", [(np.nextafter(1.0, 0.0), True), (0.0, False)])
def test_step_takes_out_edge_of_uniform(value, last):
    # The largest uniform picks the last out-edge of every vertex, zero the
    # first, at out-degrees 1 to 9, on the first step and the next.
    edges = [(v, (v + j) % 10, 1) for v in range(9) for j in range(1, v + 2)]
    g = Multigraph.from_edges(edges + [(9, 0, 1)])
    succ = g.successors()
    blocks = []

    def settle(step, live, tails):
        blocks.append((step, live, tails.copy()))
        return np.ones(len(live), dtype=bool)

    pos = np.repeat(np.arange(g.n), 3)
    left = walks._walk(g, pos, 2, ConstantUniforms(value), settle)
    assert len(left) == 0
    (step, live, tails), = blocks
    assert step == 0 and np.array_equal(live, np.arange(len(pos)))
    for t in tails:
        edge = g.tail_ptr[pos + 1] - 1 if last else g.tail_ptr[pos]
        assert np.array_equal(t, edge)
        pos = succ[t]


def test_step_weights_parallel_edges():
    # 0 -> 1 twice and 0 -> 2 once: the first step hits 1 with probability 2/3.
    g = Multigraph.from_edges([(0, 1, 2), (0, 2, 1), (1, 0, 1), (2, 0, 1)])
    reps = 30000
    est = hitting_time_mc(g, 0, 1, reps=reps, step_cap=10**4, rng_seed=5)
    share = float(np.mean(est.samples == 1))
    se = math.sqrt(2 / 9 / reps)
    assert abs(share - 2 / 3) <= 5 * se


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
            res = stationary_distribution(g)
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


def reference_transition(g: Multigraph) -> sp.csr_matrix:
    """The walk's transition matrix built from the tails' COO triples, apart
    from the graph module's builders (out-degree-0 rows stay empty)."""
    tail = g.tail_vertex
    return sp.csr_matrix((1.0 / g.d_out[tail], (tail, g.successors())), shape=(g.n, g.n))


def attractive_block(g: Multigraph) -> sp.csr_matrix:
    comp = attractive_scc(g)
    return reference_transition(g)[comp][:, comp]


def test_closed_block_matches_fancy_index_reference(toy_dist):
    rng = np.random.default_rng(41)
    graphs = [
        sample_dcm(realize_sequence(toy_dist, int(n)), rng_seed=int(rng.integers(2**31)))
        for n in rng.choice([40, 200, 1000], size=10)
    ] + [
        sample_rout(int(n), int(r), rng_seed=int(rng.integers(2**31)))
        for n, r in zip(rng.choice([30, 200, 1000], size=10), rng.integers(2, 4, size=10))
    ]
    for g in graphs:
        comp = attractive_scc(g)
        assert comp is not None and len(comp) < g.n
        [block] = _closed_block(g, comp)
        ref = reference_transition(g)[comp][:, comp]
        assert block.shape == ref.shape
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(block, name), getattr(ref, name)), name


def test_closed_block_releases_adjacency_for_every_class(toy_dist):
    # The power loop reads only the block, whether the attractive class
    # leaves vertices out (toy law) or is the whole graph (a cycle): the
    # graph's cached adjacency is dropped either way and rebuilt on access.
    toy = sample_dcm(realize_sequence(toy_dist, 2000), rng_seed=3)
    for g, whole in ((toy, False), (directed_cycle(5), True)):
        assert (len(attractive_scc(g)) == g.n) == whole
        res = stationary_distribution(g)
        assert "adjacency" not in vars(g)
        again = stationary_distribution(g)
        assert np.array_equal(res.pi, again.pi) and res.iterations == again.iterations


# Graphs whose attractive class is every vertex: the walk-times law (in- and
# out-degrees 3 or 4, sampled with rng_seed=n) and a directed 7-cycle. Per
# graph: sha256 of pi.tobytes(), then residual, pi_min_rel_residual and the
# iteration count. The sweep digest covers only the toy law, whose class
# leaves vertices out; a change to the block build or the power loop must
# leave these bits alone too.
WALK_PMF = {(3, 3): 0.25, (3, 4): 0.25, (4, 3): 0.25, (4, 4): 0.25}
WHOLE_GRAPH_STATIONARY = {
    250: ("33c2a6ecd2ea323d02c53345e4111140097e4633cc4c7024815a8aedfd3e34e2",
          "0x1.032a600000000p-40", "0x1.7637cc18bf62fp-39", 92),
    4096: ("cdedf87c839695820b047f49083ce0b7de29944281093fccc06e84c2008023d9",
           "0x1.0ab6f58000000p-40", "0x1.314ca277fbce2p-41", 94),
    "cycle": ("e1d3578cfc4a7af6e7e16a6ff8c25d12de8a7160ec7774838256d646a6301bf0",
              "0x0.0p+0", "0x0.0p+0", 1),
}


@pytest.mark.parametrize("case", list(WHOLE_GRAPH_STATIONARY))
def test_whole_graph_stationary_bits(case):
    if case == "cycle":
        g = directed_cycle(7)
    else:
        g = sample_dcm(realize_sequence(BiDegreeDistribution(WALK_PMF), case), rng_seed=case)
    res = stationary_distribution(g)
    assert len(res.support) == g.n
    got = (hashlib.sha256(res.pi.tobytes()).hexdigest(), res.residual.hex(),
           res.pi_min_rel_residual.hex(), res.iterations)
    assert got == WHOLE_GRAPH_STATIONARY[case]


def test_stationary_rejects_non_closed_block(monkeypatch):
    # 0 -> 1 -> 2 -> 3 -> 0: {0, 1} has the edge 1 -> 2 leaving it.
    monkeypatch.setattr(walks, "attractive_scc", lambda g: np.array([0, 1]))
    with pytest.raises(NumericalError):
        stationary_distribution(directed_cycle(4))


def lstsq_stationary(p_sub: sp.csr_matrix) -> np.ndarray:
    """Reference: least-squares solve of the stacked singular system
    [P^T - I; 1^T] pi = e_(k+1)."""
    k = p_sub.shape[0]
    a = np.vstack([p_sub.toarray().T - np.eye(k), np.ones((1, k))])
    b = np.zeros(k + 1)
    b[-1] = 1.0
    return np.linalg.lstsq(a, b, rcond=None)[0]


def test_direct_stationary_matches_lstsq_reference(toy_dist):
    rng = np.random.default_rng(17)
    graphs = [Multigraph.from_edges([(0, 0, 1)])]  # k = 1: a self-loop
    for i, n in enumerate((16, 40, 100, 250, 500, 800, 1200, 1600, 2000, 2000)):
        seed = int(rng.integers(2**31))
        graphs.append(sample_dcm(realize_sequence(toy_dist, n), rng_seed=seed))
        graphs.append(sample_rout(n // 2, 2 + i % 2, rng_seed=seed))
    blocks = [attractive_block(g) for g in graphs if attractive_scc(g) is not None]
    assert len(blocks) >= 18 and blocks[0].shape == (1, 1)
    assert max(b.shape[0] for b in blocks) > 900
    for p_sub in blocks:
        direct = _direct_stationary(p_sub)
        assert np.max(np.abs(direct - lstsq_stationary(p_sub))) <= 1e-12


def test_cross_check_catches_early_stopped_power_iteration(toy_dist):
    g = sample_dcm(realize_sequence(toy_dist, 400), rng_seed=0)
    with pytest.raises(NumericalError, match="disagree"):
        stationary_distribution(g, tol=1e-4)


def test_direct_stationary_singular_system_is_numerical_error():
    # Two closed classes: the bordered balance system is singular.
    with pytest.raises(NumericalError):
        _direct_stationary(sp.csr_matrix(np.eye(2)))


@pytest.mark.parametrize("n", [2**12, 2**14])
def test_power_loop_matches_row_vector_reference(toy_dist, n):
    # The loop multiplies by one transposed view of P; its float order must
    # equal the row-vector product pi @ P bit for bit.
    g = sample_dcm(realize_sequence(toy_dist, n), rng_seed=n)
    res = stationary_distribution(g)
    assert res.cross_check_linf is None
    p_sub = attractive_block(g)
    pi = np.full(p_sub.shape[0], 1.0 / p_sub.shape[0])
    for iterations in range(1, 10**6):
        image = pi @ p_sub
        if np.abs(image - pi).sum() < 1e-12:
            break
        pi = (pi + image) * 0.5
        pi /= pi.sum()
    assert res.iterations == iterations > 50
    full = np.zeros(g.n)
    full[res.support] = pi
    assert np.array_equal(res.pi, full)


def test_stationary_working_set_holds_one_image(toy_dist):
    # The power loop holds the block, comp and three k-vectors (pi, gap and
    # one image); the result holds comp, pi and the n-vector. The traced
    # peak stays within the larger of the two plus a 64 KB slack, a quarter
    # of one k-vector here: a second image alive across a matvec, or the
    # block still alive when the n-vector is allocated, exceeds it.
    n, slack = 2**16, 64 * 1024
    g = sample_dcm(realize_sequence(toy_dist, n), rng_seed=n)
    comp = attractive_scc(g)
    [block] = _closed_block(g, comp)
    block_bytes = block.data.nbytes + block.indices.nbytes + block.indptr.nbytes
    del block
    g.adjacency  # built again after _closed_block released it, before tracing
    k_vec = 8 * len(comp)
    assert k_vec > 2 * slack and len(comp) < n
    loop = block_bytes + comp.nbytes + 3 * k_vec
    result = comp.nbytes + k_vec + 8 * n
    tracemalloc.start()
    try:
        stationary_distribution(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= max(loop, result) + slack


def force_parts(monkeypatch, cores: int) -> list[int]:
    """Make the power loop cut every block into min(cores, k) column parts;
    returns the list the part count of each block build is appended to."""
    built = []

    def spy(g, comp, parts=1):
        built.append(parts)
        return _closed_block(g, comp, parts)

    monkeypatch.setattr(walks, "PART_ROWS", 1)
    monkeypatch.setattr(walks, "usable_cores", lambda: cores)
    monkeypatch.setattr(walks, "_closed_block", spy)
    return built


def straddling_multigraph() -> Multigraph:
    # A 10-cycle plus, from vertex 4, a self-loop, a double edge to 3 and an
    # edge to 6: row 4 reads columns 3, 4, 5, 6, which the cuts of 2, 3 and
    # 7 parts (at 5; 3 and 6; 1, 2, 4, 5, 7 and 8) all split.
    edges = [(i, (i + 1) % 10, 1) for i in range(10)]
    return Multigraph.from_edges(edges + [(4, 4, 1), (4, 3, 2), (4, 6, 1)])


PART_COUNT_GRAPHS = {
    "toy-2^14": lambda dist: sample_dcm(realize_sequence(dist, 2**14), rng_seed=14),
    "walk-law": lambda dist: sample_dcm(
        realize_sequence(BiDegreeDistribution(WALK_PMF), 250), rng_seed=250
    ),
    "straddling": lambda dist: straddling_multigraph(),
    # k = 2 and k = 1, below every forced core count but 1.
    "two-vertex": lambda dist: Multigraph.from_edges([(0, 1, 2), (1, 0, 1), (1, 1, 1)]),
    "self-loop": lambda dist: Multigraph.from_edges([(0, 0, 1)]),
}


# (graph, rows per chunk of the block build or None for graph.BLOCK_ROWS):
# chunks of 1 and 7 rows put chunk boundaries inside the parts too.
PART_COUNT_CASES = [(case, None) for case in PART_COUNT_GRAPHS] + [
    (case, rows) for case in ("straddling", "walk-law") for rows in (1, 7)
]


@pytest.mark.parametrize(
    "case, block_rows",
    PART_COUNT_CASES,
    ids=[case if rows is None else f"{case}-rows{rows}" for case, rows in PART_COUNT_CASES],
)
def test_stationary_bits_do_not_depend_on_part_count(toy_dist, monkeypatch, case, block_rows):
    if block_rows is not None:
        monkeypatch.setattr(graph, "BLOCK_ROWS", block_rows)
    g = PART_COUNT_GRAPHS[case](toy_dist)
    ref = stationary_distribution(g)  # below 2 * PART_ROWS rows: one part
    k = len(ref.support)
    built = force_parts(monkeypatch, 1)
    for cores in (1, 2, 3, 7):
        monkeypatch.setattr(walks, "usable_cores", lambda: cores)
        res = stationary_distribution(g)
        assert res.pi.tobytes() == ref.pi.tobytes(), cores
        assert res.residual.hex() == ref.residual.hex()
        assert res.pi_min_rel_residual.hex() == ref.pi_min_rel_residual.hex()
        assert res.iterations == ref.iterations
        assert res.cross_check_linf == ref.cross_check_linf
    assert built == [min(cores, k) for cores in (1, 2, 3, 7)]


STACK_CASES = [(parts, None) for parts in (2, 3, 7)] + [
    (parts, rows) for rows in (1, 7) for parts in (2, 3, 7)
]


@pytest.mark.parametrize(
    "parts, block_rows",
    STACK_CASES,
    ids=[str(parts) if rows is None else f"{parts}-rows{rows}" for parts, rows in STACK_CASES],
)
def test_closed_block_parts_stack_to_the_block(toy_dist, monkeypatch, parts, block_rows):
    if block_rows is not None:
        monkeypatch.setattr(graph, "BLOCK_ROWS", block_rows)
    graphs = [straddling_multigraph(), directed_cycle(9)] + [
        sample_dcm(realize_sequence(toy_dist, n), rng_seed=n) for n in (300, 3000)
    ]
    for g in graphs:
        comp = attractive_scc(g)
        [block] = _closed_block(g, comp, 1)
        split = _closed_block(g, comp, parts)
        k = len(comp)
        assert [p.shape for p in split] == [
            (k, k * (i + 1) // parts - k * i // parts) for i in range(parts)
        ]
        joined = sp.hstack(split, format="csr")
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(joined, name), getattr(block, name)), name


def test_power_loop_threads_are_joined(toy_dist, monkeypatch):
    pools = []

    class Pool(_threads.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            pools.append(self)

    monkeypatch.setattr(_threads, "ThreadPoolExecutor", Pool)
    g = sample_dcm(realize_sequence(toy_dist, 2**12), rng_seed=12)
    before = threading.active_count()
    stationary_distribution(g)  # one part: no pool
    assert pools == [] and threading.active_count() == before
    built = force_parts(monkeypatch, 2)
    stationary_distribution(g)
    assert len(pools) == 1 and threading.active_count() == before
    monkeypatch.setattr(walks, "MAX_POWER_ITER", 2)
    with pytest.raises(NumericalError, match="did not converge"):
        stationary_distribution(g)
    assert len(pools) == 2 and threading.active_count() == before
    assert built == [2, 2]


def test_power_loop_dispatches_once_per_step(toy_dist, monkeypatch):
    # Only the matvec and |image - pi| go through the pool; the lazy update
    # and the normalisation run on the calling thread.
    dispatches = []
    thread_map = walks.thread_map

    @contextmanager
    def counting(workers):
        with thread_map(workers) as each:
            def counted(fn, items):
                dispatches.append(workers)
                return each(fn, items)

            yield counted

    monkeypatch.setattr(walks, "thread_map", counting)
    g = sample_dcm(realize_sequence(toy_dist, 2**12), rng_seed=12)
    built = force_parts(monkeypatch, 2)
    res = stationary_distribution(g)
    assert built == [2] and res.iterations > 1
    assert dispatches == [2] * res.iterations


def test_parted_working_set_holds_one_image(toy_dist, monkeypatch):
    # As test_stationary_working_set_holds_one_image, with two column
    # parts: the loop holds the parts, comp and three k-vectors.
    n, slack = 2**16, 64 * 1024
    g = sample_dcm(realize_sequence(toy_dist, n), rng_seed=n)
    comp = attractive_scc(g)
    split = _closed_block(g, comp, 2)
    part_bytes = sum(p.data.nbytes + p.indices.nbytes + p.indptr.nbytes for p in split)
    del split
    g.adjacency  # built again after _closed_block released it, before tracing
    k_vec = 8 * len(comp)
    assert k_vec > 2 * slack and len(comp) < n
    loop = part_bytes + comp.nbytes + 3 * k_vec
    result = comp.nbytes + k_vec + 8 * n
    built = force_parts(monkeypatch, 2)
    tracemalloc.start()
    try:
        stationary_distribution(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert built == [2]
    assert peak <= max(loop, result) + slack


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_stationary_rejects_bad_tolerance(two_vertex, tol):
    with pytest.raises(ValidationError):
        stationary_distribution(two_vertex, tol=tol)
