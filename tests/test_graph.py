import math
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from dcmwalk import (
    BiDegreeDistribution,
    BiDegreeSequence,
    Multigraph,
    ValidationError,
    attractive_scc,
    realize_sequence,
    sample_dcm,
    sample_rout,
    sccs,
    thin_depth,
)
from dcmwalk import graph as graph_module
from dcmwalk._checks import exact_total
from dcmwalk.cli import main
from dcmwalk.graph import _closed_block, closed_classes
from dcmwalk.walks import (
    cover_time_mc,
    head_stationary,
    hitting_time_mc,
    return_times_exact,
    stationary_distribution,
    transition_matrix,
)


def directed_cycle(n: int) -> Multigraph:
    return Multigraph.from_edges([(i, (i + 1) % n, 1) for i in range(n)])


def test_sample_single_vertex_forced():
    g = sample_dcm(BiDegreeSequence([2], [2]), rng_seed=5)
    assert g.edge_multiplicities() == {(0, 0): 2}


def test_sample_degree_conservation(toy_dist):
    seq = realize_sequence(toy_dist, 4000)
    g = sample_dcm(seq, rng_seed=7)
    dst = g.successors()
    assert np.array_equal(np.bincount(g.tail_vertex, minlength=g.n), g.d_out)
    assert np.array_equal(np.bincount(dst, minlength=g.n), g.d_in)


def test_sample_uniform_matchings():
    # Three vertices with one head and one tail each: 6 equally likely
    # pairings, each its own successor array; chi-squared on 60000 samples
    # at the 1% level (5 dof: 15.09).
    seq = BiDegreeSequence([1, 1, 1], [1, 1, 1])
    counts = Counter()
    reps = 60_000
    for seed in range(reps):
        g = sample_dcm(seq, rng_seed=seed)
        counts[tuple(g.successors().tolist())] += 1
    assert len(counts) == 6
    expected = reps / 6
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 < 15.09


def test_sample_successors_are_permuted_heads(toy_dist):
    # The in-place shuffle of the int32 head owners draws rng.permutation(m).
    for n, seed in [(4, 0), (400, 11), (5000, 12)]:
        seq = realize_sequence(toy_dist, n)
        g = sample_dcm(seq, rng_seed=seed)
        heads = np.repeat(np.arange(n), seq.in_degrees)
        assert g.successors().dtype == np.int32
        assert np.array_equal(g.successors(), heads[np.random.default_rng(seed).permutation(g.m)])
    assert sample_rout(50, 2, rng_seed=1).successors().dtype == np.int32


def test_half_edge_owners_are_derived(toy_dist):
    g = sample_dcm(realize_sequence(toy_dist, 300), rng_seed=4)
    assert set(vars(g)) == {"d_out", "succ"}
    assert np.array_equal(g.tail_vertex, np.repeat(np.arange(g.n), g.d_out))
    assert np.array_equal(g.d_in, np.bincount(g.successors(), minlength=g.n))
    assert g.tail_vertex.dtype == g.d_in.dtype == np.intp
    assert g.successors() is g.succ and g.succ.dtype == np.int32
    # So is the first tail of each vertex, here also for r-out and
    # for a loaded graph with isolated vertices.
    loaded = Multigraph.from_edges([(0, 2, 3), (2, 0, 1)], n=5)
    for h in (g, sample_rout(40, 3, rng_seed=2), loaded):
        assert "tail_ptr" not in vars(h)
        assert h.tail_ptr.dtype == np.intp
        assert np.array_equal(h.tail_ptr, np.concatenate(([0], np.cumsum(h.d_out))))


def test_csr_with_out_degree_zero_vertices_is_warning_free():
    seq = BiDegreeSequence(np.array([2, 1, 1, 0]), np.array([0, 3, 0, 1]))
    graphs = [
        Multigraph.from_edges([(0, 1, 2), (1, 0, 1)], n=4),
        sample_dcm(seq, rng_seed=2),
    ]
    for g in graphs:
        # The whole vertex set is closed; its block is the full matrix.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            [adj] = _closed_block(g, np.arange(g.n))
        assert np.any(g.d_out == 0)
        tail = np.repeat(np.arange(g.n), g.d_out)
        ref = sp.csr_matrix((1.0 / g.d_out[tail], (tail, g.successors())), shape=adj.shape)
        assert np.array_equal(adj.indptr, ref.indptr)
        assert np.array_equal(adj.data, ref.data)


def test_csr_indices_are_int32_and_match_intp_build(toy_dist, monkeypatch):
    graphs = [sample_dcm(realize_sequence(toy_dist, n), rng_seed=n) for n in (50, 3000)]
    graphs += [sample_rout(n, r, rng_seed=r) for n, r in ((40, 2), (2000, 3))]
    # The builds read the stored int32 columns, never through `successors()`.
    with monkeypatch.context() as patch:
        patch.setattr(Multigraph, "successors", None)
        built = []
        for g in graphs:
            mats = _closed_block(g, np.arange(g.n))
            if np.all(g.d_out > 0):
                mats.append(transition_matrix(g))
            built.append(mats)
    assert sum(map(len, built)) > len(graphs)
    for g, mats in zip(graphs, built):
        ref = sp.csr_matrix(
            (np.repeat(1.0 / g.d_out, g.d_out), g.successors().copy(), g.tail_ptr.copy()),
            shape=(g.n, g.n),
        )
        ref.sum_duplicates()
        for adj in mats:
            assert adj.indices.dtype == np.int32
            for name in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(adj, name), getattr(ref, name)), name


@pytest.mark.parametrize("top, dtype", [(127, np.int8), (128, np.int16), (2**15, np.int32)])
def test_out_degrees_take_the_narrowest_signed_dtype(top, dtype):
    # Vertex 0's one edge of multiplicity `top` sets the dtype. (An
    # out-degree of 2^31, which needs int64, would need 2^31 successors.)
    g = Multigraph.from_edges([(0, 1, top), (1, 0, 1)])
    assert g.d_out.dtype == dtype and g.d_out.tolist() == [top, 1]
    assert (g.m, g.edge_multiplicities()) == (top + 1, {(0, 1): top, (1, 0): 1})
    for given in (np.uint64, np.uint32, np.int64):
        h = Multigraph(g.d_out.astype(given), g.successors())
        assert h.d_out.dtype == dtype and np.array_equal(h.d_out, g.d_out)


def test_stored_out_degree_dtypes_are_signed(toy_dist):
    graphs = [
        sample_dcm(realize_sequence(toy_dist, 300), rng_seed=1),
        sample_rout(30, 3, rng_seed=1),
        Multigraph(np.array([200, 1], dtype=np.uint8), np.ones(201, dtype=np.int32)),
        Multigraph.from_edges([(0, 0, 2)]),
    ]
    for g in graphs:
        assert g.d_out.dtype.kind == "i" and g.d_out.dtype.itemsize <= 2
        assert g.tail_ptr.dtype == np.int64


def test_tail_offsets_and_totals_of_int8_degrees_are_int64_and_exact():
    # 200 out-degrees of 64 are int8; their sum, 12800, is past int8.
    seq = BiDegreeSequence([64] * 200, [64] * 200)
    g = sample_dcm(seq, rng_seed=3)
    assert seq.out_degrees.dtype == g.d_out.dtype == np.int8
    assert seq.m == g.m == 12800
    assert g.tail_ptr.dtype == np.int64
    assert np.array_equal(g.tail_ptr, 64 * np.arange(201))
    total = exact_total(g.d_out)
    assert type(total) is int and total == 12800
    # Across several of exact_total's blocks as well.
    assert exact_total(np.full(10_001, 127, dtype=np.int8)) == 127 * 10_001


def with_int64_out_degrees(g: Multigraph) -> Multigraph:
    """A copy of `g` whose stored out-degrees are int64, as they were before
    they were narrowed."""
    wide = Multigraph(g.d_out, g.successors())
    d_out = g.d_out.astype(np.int64)
    d_out.flags.writeable = False
    object.__setattr__(wide, "d_out", d_out)
    return wide


@pytest.mark.parametrize("d_out, dtype", [([127, 3, 127], np.int8), ([127, 128, 3], np.int16)])
def test_walk_values_of_narrow_out_degrees_match_int64(d_out, dtype):
    # No reader multiplies two degrees, so nothing wraps at the top of int8
    # or int16: every value is the same bits as on int64 out-degrees.
    succ = np.random.default_rng(len(d_out) + d_out[1]).integers(0, 3, size=sum(d_out))
    g = Multigraph(np.array(d_out), succ)
    wide = with_int64_out_degrees(g)
    assert g.d_out.dtype == dtype and wide.d_out.dtype == np.int64
    assert len(attractive_scc(g)) == g.n
    p, q = transition_matrix(g), transition_matrix(wide)
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(p, name), getattr(q, name)), name
    res, ref = stationary_distribution(g), stationary_distribution(wide)
    assert np.array_equal(res.pi, ref.pi)
    assert np.array_equal(head_stationary(g, res), head_stationary(wide, ref))
    assert np.array_equal(return_times_exact(g, [0, 1, 2]), return_times_exact(wide, [0, 1, 2]))
    runs = [hitting_time_mc(h, 0, 2, reps=40, step_cap=500, rng_seed=4) for h in (g, wide)]
    assert np.array_equal(runs[0].samples, runs[1].samples)


@pytest.mark.parametrize(
    "d_out, succ",
    [
        ([1, 2, 2], [0, 1, 1, 2]),
        ([1, 2, 1], [0, 1, -1, 2]),
        ([1, 2, 1], [0, 1, 2, 3]),
        ([1, 2, 1], [0, 1, 2]),
        ([1, 2, 1], [0, 1, 2, 2, 0]),
        ([1, 2, 1], []),
        ([2, -1, 3], [0, 1, 2, 0]),
        ([2**62] * 4, []),
    ],
    ids=["miscount", "negative", "too-large", "short", "long", "empty", "negative-degree",
         "wrapped-count"],
)
def test_pairing_must_be_perfect_matching(d_out, succ):
    # An out-edge list with a negative out-degree, a successor outside
    # 0..n-1 or out-degrees that do not count its successors is refused at
    # construction. A repeated successor is a legal parallel edge. Four
    # out-degrees of 2^62 sum to 0 in int64, yet count 2^64 tails.
    with pytest.raises(ValidationError):
        Multigraph(np.array(d_out), np.array(succ, dtype=np.int32))


def test_stored_successors_are_never_written(tmp_path):
    # Every reader of the graph leaves the stored successors as they were:
    # scipy's merge of duplicate columns sorts in place, on a copy.
    walk_law = BiDegreeDistribution({(3, 3): 0.5, (4, 4): 0.5})
    g = sample_dcm(realize_sequence(walk_law, 300), rng_seed=8)
    before = g.successors().copy()
    comp = attractive_scc(g)
    assert comp is not None and len(comp) == g.n
    _closed_block(g, comp)
    _closed_block(g, comp, parts=3)
    transition_matrix(g)
    hitting_time_mc(g, 0, 1, reps=20, step_cap=10**5, rng_seed=1)
    cover_time_mc(g, reps=20, step_cap=10**6, rng_seed=1)
    g.to_edge_list(tmp_path / "g.edges")
    assert np.array_equal(g.successors(), before)
    assert not g.successors().flags.writeable and not g.d_out.flags.writeable
    # The graph keeps read-only views; the caller's arrays stay writeable.
    # Vertex 1 has a double loop.
    d_out, succ = np.array([1, 2, 1]), np.array([0, 1, 1, 2], dtype=np.int32)
    h = Multigraph(d_out, succ)
    assert d_out.flags.writeable and succ.flags.writeable
    assert not h.successors().flags.writeable
    assert h.edge_multiplicities() == {(0, 0): 1, (1, 1): 2, (2, 2): 1}


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


def closed_classes_one_shot(g: Multigraph) -> tuple[np.ndarray, np.ndarray]:
    """Reference closed-class test over all out-edges at once."""
    n_comp, labels = sccs(g)
    closed = np.ones(n_comp, dtype=bool)
    adj = g.adjacency
    src = np.repeat(labels, np.diff(adj.indptr))
    closed[src[src != labels[adj.indices]]] = False
    return labels, closed


@pytest.mark.parametrize("rows", [1, 7, 64])
def test_closed_classes_by_row_blocks_match_one_shot(toy_dist, monkeypatch, rows):
    # Toy-law and r-out graphs, and graphs whose out-degree-0 vertices make
    # several closed classes. No n is a multiple of 7 or 64, so the last
    # block is a partial one.
    rng = np.random.default_rng(17)
    graphs = [sample_dcm(realize_sequence(toy_dist, n), rng_seed=n) for n in (61, 200)]
    graphs += [sample_rout(n, 2, rng_seed=n) for n in (65, 130)]
    for n in (75, 150):
        d_out = rng.choice([0, 1, 2, 3], size=n, p=[0.1, 0.3, 0.3, 0.3])
        d_in = np.bincount(rng.integers(0, n, size=int(d_out.sum())), minlength=n)
        graphs.append(sample_dcm(BiDegreeSequence(d_in, d_out), rng_seed=n))
    monkeypatch.setattr(graph_module, "CLOSED_TEST_ROWS", rows)
    most_closed = 0
    for g in graphs:
        ref_labels, ref_closed = closed_classes_one_shot(g)
        labels, closed = closed_classes(g)
        assert np.array_equal(labels, ref_labels)
        assert np.array_equal(closed, ref_closed)
        most_closed = max(most_closed, int(closed.sum()))
    assert most_closed >= 3


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
    # On a cycle every vertex has exactly one in-path of each length.
    cyc = directed_cycle(5)
    assert np.array_equal(thin_depth(cyc, omega=2, t_cap=50), np.full(5, -1))
    assert np.array_equal(thin_depth(cyc, omega=1, t_cap=50), np.zeros(5))


@pytest.mark.parametrize(
    "omega, t_cap",
    [(0, 10), (-1, 10), (2, -1), (True, 10), (2.0, 10), (2, False), (2, 10.0), (2**63, 10)],
    ids=["omega0", "omega-1", "t_cap-1", "omega-bool", "omega-float", "t_cap-bool",
         "t_cap-float", "omega-overflow"],
)
def test_thin_depth_rejects_bad_omega_and_t_cap(omega, t_cap):
    with pytest.raises(ValidationError):
        thin_depth(directed_cycle(5), omega=omega, t_cap=t_cap)


def test_thin_depth_matches_dense_path_counts():
    # A 10-cycle with a self-loop, a double edge and a chord, a graph with
    # in-degree-0 and isolated vertices, and a DAG with two paths of
    # different lengths, against the first r at which the unclipped dense count
    # (A^T)^r 1 reaches omega.
    graphs = [
        Multigraph.from_edges(
            [(i, (i + 1) % 10, 1) for i in range(10)] + [(4, 4, 1), (4, 3, 2), (4, 6, 1)]
        ),
        Multigraph.from_edges([(0, 1, 3), (1, 2, 1), (2, 1, 1), (3, 2, 2), (2, 2, 1)], n=5),
        Multigraph.from_edges([(0, 1, 1), (1, 2, 1), (2, 3, 1), (1, 3, 1)]),
    ]
    reached_late = 0
    for g in graphs:
        reverse = g.adjacency.T.toarray().astype(np.int64)
        counts = [np.ones(g.n, dtype=np.int64)]
        for _ in range(8):
            counts.append(reverse @ counts[-1])
        for omega in range(1, 7):
            for t_cap in range(9):
                ref = np.full(g.n, -1)
                for r in range(t_cap, -1, -1):
                    ref[counts[r] >= omega] = r
                assert np.array_equal(thin_depth(g, omega, t_cap), ref), (omega, t_cap)
                reached_late += int(np.sum(ref >= 3))
    assert reached_late > 0


def test_t_omega_fraction_matches_survival(toy_dist):
    # The heads with omega-growing in-neighbourhoods are asymptotically the
    # survivors of the in-process: fraction ~ s_minus = 0.4812. A uniform
    # head is matched with a uniform tail, so it is read at the tail's owner.
    seq = realize_sequence(toy_dist, 100_000)
    g = sample_dcm(seq, rng_seed=3)
    rng = np.random.default_rng(0)
    tails = rng.choice(g.m, size=3000, replace=False)
    depth = thin_depth(g, omega=32, t_cap=200)
    finite = np.count_nonzero(depth[g.tail_vertex[tails]] >= 0)
    assert finite / len(tails) == pytest.approx(0.4812, abs=0.03)


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
    for name in ("d_in", "d_out", "tail_ptr", "succ"):
        assert np.array_equal(getattr(g, name), getattr(h, name)), name


def test_edge_list_roundtrip_random_multigraphs(tmp_path):
    # Self-loops, parallel edges (also split over repeated triples) and
    # isolated vertices, trailing ones included: write-then-load must give
    # back the same arrays.
    rng = np.random.default_rng(29)
    path = tmp_path / "g.edges"
    for _ in range(30):
        top = int(rng.integers(1, 10))
        src = rng.integers(0, top, size=int(rng.integers(1, 25)))
        dst = np.where(rng.random(len(src)) < 0.2, src, rng.integers(0, top, size=len(src)))
        mult = rng.integers(1, 6, size=len(src))
        n = top + int(rng.integers(0, 4))
        g = Multigraph.from_edges(zip(src, dst, mult), n=n)
        g.to_edge_list(path)
        h = Multigraph.from_edge_list(path)
        assert (h.n, h.m) == (g.n, g.m)
        for name in ("d_in", "d_out", "tail_ptr", "tail_vertex", "succ"):
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
        seq = BiDegreeSequence(d_in, d_out)
        graphs.append(sample_dcm(seq, rng_seed=int(rng.integers(2**31))))
    return graphs


def test_shared_csr_canonical_and_matches_coo_reference():
    max_mult = 0
    for g in multigraphs_with_parallel_edges():
        tail = np.repeat(np.arange(g.n), g.d_out)
        succ = g.successors()
        # The whole vertex set is closed: its block is the full matrix, and
        # building it releases the graph's one cache.
        [block] = _closed_block(g, np.arange(g.n))
        assert "adjacency" not in vars(g)
        mats = [block]
        if np.all(g.d_out > 0):
            mats += [transition_matrix(g), transition_matrix(g)]
            assert mats[1] is not mats[2]  # built per call, never cached
        # Building the CSRs leaves the half-edge arrays alone.
        assert np.array_equal(g.tail_ptr, np.concatenate(([0], np.cumsum(g.d_out))))
        mult = sp.csr_matrix((np.ones(g.m), (tail, succ)), shape=(g.n, g.n))
        max_mult = max(max_mult, int(mult.data.max()))
        ref_comp, ref_labels = connected_components(mult, directed=True, connection="strong")
        n_comp, labels = sccs(g)
        assert n_comp == ref_comp and np.array_equal(labels, ref_labels)
        # Values: the transition matrix, bit for bit (isolated vertices
        # have empty rows; the walk itself is undefined there).
        ref_p = sp.csr_matrix((1.0 / g.d_out[tail], (tail, succ)), shape=(g.n, g.n))
        for adj in mats:
            assert adj.has_canonical_format
            for u in range(g.n):
                cols = adj.indices[adj.indptr[u]:adj.indptr[u + 1]]
                assert np.all(np.diff(cols) > 0)
            assert np.array_equal(adj.indptr, mult.indptr)
            assert np.array_equal(adj.indices, mult.indices)
            assert np.array_equal(adj.data, ref_p.data)
        # Structure: the multiplicity adjacency, read-only, whose index
        # arrays the transition matrix shares.
        counts = g.adjacency
        assert np.array_equal(counts.indptr, mult.indptr)
        assert np.array_equal(counts.indices, mult.indices)
        assert np.array_equal(counts.data, mult.data)
        assert counts.data.dtype == np.min_scalar_type(int(g.d_out.max()))
        for adj in mats[1:]:
            assert np.shares_memory(counts.indices, adj.indices)
            assert np.shares_memory(counts.indptr, adj.indptr)
        for arr in (counts.data, counts.indices, counts.indptr):
            assert not arr.flags.writeable
    assert max_mult >= 4


def test_scc_search_reads_the_pattern_only(toy_dist):
    # The adjacency build plus the strong-component search, traced on a fresh
    # graph, stays below 16 bytes per edge: int32 columns and narrow
    # multiplicities, and no float value per edge, built or copied by scipy.
    g = sample_dcm(realize_sequence(toy_dist, 2**16), rng_seed=5)
    tracemalloc.start()
    try:
        sccs(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The adjacency is the graph's one cache.
    assert set(vars(g)) == {"d_out", "succ", "adjacency"}
    assert peak < 16 * g.m
