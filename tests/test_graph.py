import math
from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from dcmwalk import (
    BiDegreeSequence,
    Multigraph,
    ValidationError,
    StopRule,
    attractive_scc,
    explore_in_tree,
    realize_sequence,
    sample_dcm,
    sample_rout,
    sccs,
    simulate_marked_gw,
    t_omega,
    t_omega_set,
)
from dcmwalk.cli import main
from dcmwalk.graph import complete_pairing
from dcmwalk.walks import transition_matrix


def directed_cycle(n: int) -> Multigraph:
    return Multigraph.from_edges([(i, (i + 1) % n, 1) for i in range(n)])


def test_sample_single_vertex_forced():
    g = sample_dcm(BiDegreeSequence(((2, 2),)), rng_seed=5)
    assert g.edge_multiplicities() == {(0, 0): 2}


def test_sample_degree_conservation(toy_dist):
    seq = realize_sequence(toy_dist, 4000)
    g = sample_dcm(seq, rng_seed=7)
    dst = g.successors()
    assert np.array_equal(np.bincount(g.tail_vertex, minlength=g.n), g.d_out)
    assert np.array_equal(np.bincount(dst, minlength=g.n), g.d_in)


def test_sample_uniform_matchings():
    # Three vertices with one head and one tail each: 6 equally likely
    # pairings; chi-squared on 60000 samples at the 1% level (5 dof: 15.09).
    seq = BiDegreeSequence(((1, 1), (1, 1), (1, 1)))
    counts = Counter()
    reps = 60_000
    for seed in range(reps):
        g = sample_dcm(seq, rng_seed=seed)
        counts[tuple(g.match.tolist())] += 1
    assert len(counts) == 6
    expected = reps / 6
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 < 15.09


def test_rout_single_vertex():
    g = sample_rout(1, 3, rng_seed=1)
    assert g.edge_multiplicities() == {(0, 0): 3}


def test_rout_degree_laws():
    g = sample_rout(100_000, 2, rng_seed=3)
    assert np.all(g.d_out == 2)
    emp = np.bincount(g.d_in) / g.n
    kmax = len(emp) - 1
    poisson = np.array(
        [math.exp(-2.0) * 2.0**k / math.factorial(k) for k in range(kmax + 1)]
    )
    tv = 0.5 * (np.abs(emp - poisson).sum() + (1.0 - poisson.sum()))
    assert tv < 0.02


def test_scc_cycle_attractive():
    g = directed_cycle(3)
    n_comp, labels = sccs(g)
    assert n_comp == 1
    comp = attractive_scc(g)
    assert comp is not None and len(comp) == 3


def test_scc_two_cycles_no_attractor():
    g = Multigraph.from_edges([(0, 1, 1), (1, 0, 1), (2, 3, 1), (3, 2, 1)])
    n_comp, _ = sccs(g)
    assert n_comp == 2
    assert attractive_scc(g) is None


def test_attractive_scc_on_sampled_graphs(toy_dist):
    seq = realize_sequence(toy_dist, 10_000)
    found = 0
    for seed in range(10):
        g = sample_dcm(seq, rng_seed=seed)
        comp = attractive_scc(g)
        if comp is None:
            continue
        found += 1
        # Closedness: no edge leaves the component.
        mask = np.zeros(g.n, dtype=bool)
        mask[comp] = True
        src_in = mask[g.tail_vertex]
        assert np.all(mask[g.successors()[src_in]])
    assert found >= 9  # uniqueness holds with high probability


def test_t_omega_dead_in_growth():
    # A pendant vertex chain into a cycle: heads whose in-neighbourhood dies.
    g = Multigraph.from_edges(
        [(0, 1, 1), (1, 2, 1), (2, 0, 1), (0, 3, 1), (1, 3, 1), (2, 3, 1), (3, 0, 1), (3, 3, 1)]
    )
    # Vertex 3's second head is fed only through the self-loop plus chain;
    # use the cycle graph below for the clean dead case instead.
    cyc = directed_cycle(5)
    for f in range(cyc.m):
        assert t_omega(cyc, f, omega=2, t_cap=50) is None
        assert t_omega(cyc, f, omega=1, t_cap=50) == 0


def test_t_omega_fraction_matches_survival(toy_dist):
    # The heads with omega-growing in-neighbourhoods are asymptotically the
    # survivors of the in-process: fraction ~ s_minus = 0.4812.
    seq = realize_sequence(toy_dist, 100_000)
    g = sample_dcm(seq, rng_seed=3)
    rng = np.random.default_rng(0)
    heads = rng.choice(g.m, size=3000, replace=False)
    finite = sum(t_omega(g, int(f), omega=32, t_cap=200) is not None for f in heads)
    assert finite / len(heads) == pytest.approx(0.4812, abs=0.03)


def test_t_omega_set_small_graph():
    cyc = directed_cycle(4)
    assert not t_omega_set(cyc, omega=2, t_cap=20).any()


def test_explore_unary_until_collision():
    seq = BiDegreeSequence(((1, 1),) * 50)
    tree = explore_in_tree(seq, 0, StopRule(budget=200), rng_seed=4)
    # Every discovered vertex contributes one head: the tree is a path and
    # the exploration ends on the first collision.
    assert tree.collisions == 1
    sizes = tree.level_sizes
    assert all(s == 1 for s in sizes)


def test_explore_stop_at_level_boundary(toy_dist):
    seq = realize_sequence(toy_dist, 2000)
    tree = explore_in_tree(seq, 0, StopRule(level=3), rng_seed=9)
    assert tree.stopped_at_boundary
    active_levels = tree.active_levels()
    if active_levels:  # exploration may die out early
        assert active_levels == (3,)
    assert not tree.budget_exhausted


def test_explore_budget_flag(toy_dist):
    # The in-growth may die before the budget binds, so look for a seed
    # whose exploration survives long enough to exhaust it.
    seq = realize_sequence(toy_dist, 2000)
    exhausted = 0
    for seed in range(30):
        tree = explore_in_tree(seq, 0, StopRule(budget=5), rng_seed=seed)
        assert tree.num_paired <= 5
        if tree.budget_exhausted:
            exhausted += 1
    assert exhausted >= 1


def test_explore_collision_binomial_bound(toy_dist):
    # Expected collisions in the first L pairings are dominated by
    # Binomial(L, 2 L M / m).
    seq = realize_sequence(toy_dist, 10_000)
    m, cap, reps = seq.m, 100, 1500
    bound = cap * (2 * cap * 5 / m)
    collisions = []
    for seed in range(reps):
        tree = explore_in_tree(seq, seed % m, StopRule(budget=cap), rng_seed=seed)
        collisions.append(tree.collisions)
    mean = float(np.mean(collisions))
    se = float(np.std(collisions)) / math.sqrt(reps)
    assert mean - 3 * se <= bound


def test_explore_matches_gw_shape_distribution(toy_dist, toy_biased):
    # Depth-3 generation-size signatures of the exploration tree against the
    # marked branching process: total variation within the finite-n coupling
    # envelope plus Monte Carlo noise.
    n, reps = 10_000, 30_000
    seq = realize_sequence(toy_dist, n)
    explore_counts: Counter = Counter()
    for seed in range(reps):
        tree = explore_in_tree(seq, seed % seq.m, StopRule(level=3), rng_seed=seed)
        sizes = tree.level_sizes + (0, 0, 0)
        explore_counts[sizes[1:4]] += 1
    gw_counts: Counter = Counter()
    for seed in range(reps):
        tree = simulate_marked_gw(toy_biased, 3, rng_seed=seed)
        sizes = tree.generation_sizes[1:] + (0, 0, 0)
        gw_counts[sizes[:3]] += 1
    keys = set(explore_counts) | set(gw_counts)
    tv = 0.5 * sum(
        abs(explore_counts[k] - gw_counts[k]) / reps for k in keys
    )
    # ~60 pairings explored => coupling error O(pairings^2 / m) plus 3-sigma
    # multinomial noise on the signature distribution.
    envelope = 60.0**2 / seq.m + 3.0 * math.sqrt(len(keys) / reps)
    assert tv <= envelope


def test_explore_consistency_with_sampled_graph(toy_dist):
    # Completing the exploration's partial pairing must reproduce the same
    # in-BFS levels and marks on the resulting graph (collision-free case).
    seq = realize_sequence(toy_dist, 500)
    for seed in range(20):
        tree = explore_in_tree(seq, 2, StopRule(level=3), rng_seed=seed)
        if tree.collisions:
            continue
        g = complete_pairing(seq, tree.pairs)
        inv = g.inverse_match
        # Walk the graph backwards from head 2 and compare level sizes.
        frontier = {2}
        seen = {2}
        for level in range(1, 4):
            nxt = set()
            for h in frontier:
                u = int(g.tail_vertex[inv[h]])
                for hh in range(g.head_ptr[u], g.head_ptr[u + 1]):
                    if hh not in seen:
                        nxt.add(int(hh))
            seen |= nxt
            frontier = nxt
            tree_level = int((tree.level == level).sum())
            assert tree_level == len(nxt)


def test_tree_gamma_matches_graph_path_products(toy_dist):
    # On a collision-free instance, the tree weight sum at level t equals
    # the brute-force sum over in-paths of products of 1/out-degree.
    seq = realize_sequence(toy_dist, 48)
    done = 0
    for seed in range(40):
        tree = explore_in_tree(seq, 1, StopRule(level=3), rng_seed=seed)
        if tree.collisions:
            continue
        g = complete_pairing(seq, tree.pairs)
        inv = g.inverse_match
        for t in (1, 2, 3):
            # Brute force: enumerate heads at distance exactly t and weight
            # each by the product of 1/d_out along the unique path.
            frontier = {1: 1.0}
            seen = {1}
            for _ in range(t):
                nxt = {}
                for h, w in frontier.items():
                    u = int(g.tail_vertex[inv[h]])
                    for hh in range(g.head_ptr[u], g.head_ptr[u + 1]):
                        if hh not in seen:
                            nxt[int(hh)] = w / g.d_out[u]
                seen |= set(nxt)
                frontier = nxt
            brute = sum(frontier.values())
            assert tree.gamma_at(t) == pytest.approx(brute, abs=1e-12)
        done += 1
    assert done >= 5


def test_edge_list_roundtrip(toy_dist, tmp_path):
    seq = realize_sequence(toy_dist, 200)
    g = sample_dcm(seq, rng_seed=1)
    path = tmp_path / "g.edges"
    g.to_edge_list(path)
    h = Multigraph.from_edge_list(path)
    assert g.edge_multiplicities() == h.edge_multiplicities()


def test_edge_list_keeps_trailing_isolated_vertices(tmp_path):
    g = Multigraph.from_edges([(0, 1, 1), (1, 0, 1)], n=5)
    path = tmp_path / "g.edges"
    g.to_edge_list(path)
    assert path.read_text() == "# n=5\n0 1 1\n1 0 1\n"
    h = Multigraph.from_edge_list(path)
    assert h.n == 5
    for name in ("d_in", "d_out", "tail_ptr", "head_ptr", "match"):
        assert np.array_equal(getattr(g, name), getattr(h, name)), name


def test_edge_list_without_header_still_loads(tmp_path):
    path = tmp_path / "old.edges"
    path.write_text("0 1 1\n1 0 1\n")
    assert Multigraph.from_edge_list(path).n == 2


def test_edge_list_header_below_vertex_ids(tmp_path, capsys):
    with pytest.raises(ValidationError):
        Multigraph.from_edges([(0, 3, 1), (3, 0, 1)], n=3)
    small = tmp_path / "small.edges"
    small.write_text("# n=3\n0 3 1\n3 0 1\n")
    with pytest.raises(ValidationError):
        Multigraph.from_edge_list(small)
    assert main(["stationary", "--graph", str(small)]) == 2
    garbled = tmp_path / "garbled.edges"
    garbled.write_text("# vertices=4\n0 1 1\n1 0 1\n")
    assert main(["stationary", "--graph", str(garbled)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and f"{garbled}:1:" in err


def multigraphs_with_parallel_edges():
    """Small dense samples (many self-loops and parallel edges, some of
    multiplicity 4 and more) plus hand-built ones."""
    rng = np.random.default_rng(3)
    graphs = [
        Multigraph.from_edges([(0, 0, 5), (0, 1, 3), (1, 0, 7), (2, 2, 2), (2, 1, 4)]),
        Multigraph.from_edges([(0, 1, 1), (1, 0, 1), (2, 3, 6), (3, 2, 1), (3, 3, 2)], n=6),
    ]
    for _ in range(30):
        n = int(rng.integers(1, 9))
        d_out = rng.integers(1, 12, size=n)
        d_in = np.bincount(rng.integers(0, n, size=int(d_out.sum())), minlength=n)
        seq = BiDegreeSequence.from_arrays(d_in, d_out)
        graphs.append(sample_dcm(seq, rng_seed=int(rng.integers(2**31))))
    return graphs


def test_shared_csr_canonical_and_matches_coo_reference():
    max_mult = 0
    for g in multigraphs_with_parallel_edges():
        tail = np.repeat(np.arange(g.n), g.d_out)
        succ = g.successors()
        adj = g.csr
        assert adj.has_canonical_format
        for u in range(g.n):
            cols = adj.indices[adj.indptr[u]:adj.indptr[u + 1]]
            assert np.all(np.diff(cols) > 0)
        # Building the CSR leaves the half-edge arrays alone.
        assert np.array_equal(g.tail_ptr, np.concatenate(([0], np.cumsum(g.d_out))))
        mult = sp.csr_matrix((np.ones(g.m), (tail, succ)), shape=(g.n, g.n))
        assert np.array_equal(adj.indptr, mult.indptr)
        assert np.array_equal(adj.indices, mult.indices)
        max_mult = max(max_mult, int(mult.data.max()))
        ref_comp, ref_labels = connected_components(mult, directed=True, connection="strong")
        n_comp, labels = sccs(g)
        assert n_comp == ref_comp and np.array_equal(labels, ref_labels)
        # Values: the transition matrix, bit for bit (isolated vertices
        # have empty rows; the walk itself is undefined there).
        ref_p = sp.csr_matrix((1.0 / g.d_out[tail], (tail, succ)), shape=(g.n, g.n))
        assert np.array_equal(adj.data, ref_p.data)
        if np.all(g.d_out > 0):
            assert transition_matrix(g) is adj
    assert max_mult >= 4
