"""Directed configuration model: sampling, SCC structure and in-neighbourhood
growth.

A graph is its out-edge list. Tails (out-half-edges) are numbered 0..m-1,
grouped by vertex, and a graph stores its out-degrees, in the narrowest
signed integer dtype that holds the largest (`_checks.narrow_dtype`), and
the destination vertex of each tail, `succ`: int32 while n < 2^31 (int64
otherwise). Both are read-only. The model matches heads with tails
uniformly, but every walk quantity depends on the matching only through
where each tail leads, so that is all a graph keeps. The in-degrees, the
owner of each tail and each vertex's first tail (`tail_ptr`, int64) are
derived on access, so a caller that uses one in a loop reads it once.
Graphs are immutable and shareable.

Structure is cached, values are built per request. `Multigraph.adjacency`,
the multiplicity CSR, is a graph's one cache; the SCC, closed-class and
reachability searches read only its pattern. Transition values are built
from it on each request: `_closed_block`, the one builder of a closed
block, selects the block's rows once, releases the cache, and builds values
only for those rows, cut by destination column into as many parts as the
parallel power loop runs (one part is the whole block).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from ._checks import (
    check_addressable, check_int, check_int_array, exact_total, narrow_dtype, read_int_rows,
)
from .degrees import BiDegreeSequence
from .errors import NumericalError, ValidationError

EDGE_LIST_HEADER = "# n="
# Rows per block when `closed_classes` tests each vertex's out-edges: its
# temporaries (9 bytes per edge) then span one block, not all m edges.
CLOSED_TEST_ROWS = 1 << 14
# Rows per chunk when `_closed_block` relabels a closed block's columns and
# cuts its rows into column parts: the gathered columns and the copy of one
# chunk's rows are then its only temporaries, not the whole block's.
BLOCK_ROWS = 1 << 14
# Rows per chunk when `_transition_values` turns multiplicities into
# transition values: its temporaries then span one chunk of rows.
VALUE_ROWS = 1 << 12


@dataclass(frozen=True)
class Multigraph:
    """A directed multigraph as its out-edge list: the out-degrees and the
    destination of each tail, nothing else; n and m are their lengths.

    Tail t belongs to tail_vertex[t] and leads to succ[t]. Self-loops and
    parallel edges are allowed; edge multiplicities are recovered by
    aggregation. Both arrays are kept as read-only views (out-degrees in
    their `narrow_dtype`, successors in the vertex id dtype), so a caller's
    arrays stay writeable.
    No vertex, a negative out-degree, a successor outside 0..n-1, or
    out-degrees that do not count the successors raise ValidationError.
    """

    d_out: np.ndarray
    succ: np.ndarray

    def __post_init__(self):
        d_out = check_int_array(self.d_out, "out-degrees")
        succ = check_int_array(self.succ, "successors")
        if d_out.ndim != 1 or succ.ndim != 1 or d_out.min(initial=0) < 0:
            raise ValidationError("need non-negative 1-d out-degrees and 1-d successors")
        if len(d_out) == 0:
            raise ValidationError("a graph needs at least one vertex")
        d_out = d_out.astype(narrow_dtype(d_out), copy=False)
        n, tails = len(d_out), exact_total(d_out)
        if len(succ) and not 0 <= succ.min() <= succ.max() < n:
            raise ValidationError(f"a successor lies outside 0..{n - 1}")
        if tails != len(succ):
            raise ValidationError(f"out-degrees count {tails} tails, not {len(succ)}")
        for name, arr in (("d_out", d_out), ("succ", succ.astype(_index_dtype(n), copy=False))):
            arr = arr.view()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return len(self.d_out)

    @property
    def m(self) -> int:
        return len(self.succ)

    @property
    def d_in(self) -> np.ndarray:
        """In-degrees, counted from `succ` in O(m) on each access."""
        return np.bincount(self.succ, minlength=self.n)

    @property
    def tail_ptr(self) -> np.ndarray:
        """First tail of each vertex, then m: the cumulative out-degrees,
        derived in O(n) on each access."""
        return np.concatenate(([0], np.cumsum(self.d_out)))

    @property
    def tail_vertex(self) -> np.ndarray:
        """Owner vertex of each tail, derived in O(m) on each access."""
        return np.repeat(np.arange(self.n), self.d_out)

    def successors(self) -> np.ndarray:
        """The destination of each tail: the stored read-only `succ`."""
        return self.succ

    @cached_property
    def adjacency(self) -> sp.csr_matrix:
        """Canonical read-only multiplicity CSR of the graph, built once per
        graph.

        Row u holds u's distinct out-neighbours in increasing order, valued
        mult(u, v) in the narrowest unsigned dtype that holds d_out.max().
        The rows are the tail blocks, merged by sum_duplicates because
        scipy's strong-component search stalls on duplicate columns; the
        merge sorts in place, so it runs on a copy of `succ` (int32 while
        n < 2^31, the dtype scipy stores) and a fresh tail_ptr.

        The structural searches (`sccs`, `closed_classes`, the walkers'
        reachability) read only its pattern, scipy's through `_pattern`;
        `walks.transition_matrix` shares its index arrays. `_closed_block`
        releases this cache; the next access rebuilds it."""
        mult = np.ones(self.m, dtype=np.min_scalar_type(int(self.d_out.max())))
        mat = sp.csr_matrix((mult, self.succ.copy(), self.tail_ptr), shape=(self.n, self.n))
        mat.sum_duplicates()
        for arr in (mat.data, mat.indices, mat.indptr):
            arr.flags.writeable = False
        return mat

    def edge_multiplicities(self) -> dict[tuple[int, int], int]:
        """Multiplicity of each (src, dst) pair that has an edge, in sorted
        order: the merged rows of `adjacency`."""
        adj = self.adjacency
        src = np.repeat(np.arange(self.n), np.diff(adj.indptr)).tolist()
        return dict(zip(zip(src, adj.indices.tolist()), adj.data.tolist()))

    def to_edge_list(self, path) -> None:
        """Write a `# n=<n>` header, then `src dst multiplicity` lines sorted
        by (src, dst)."""
        with open(path, "w", encoding="ascii") as fh:
            fh.write(f"{EDGE_LIST_HEADER}{self.n}\n")
            for (src, dst), mult in self.edge_multiplicities().items():
                fh.write(f"{src} {dst} {mult}\n")

    @classmethod
    def from_edges(cls, edges, n: int | None = None) -> "Multigraph":
        """Build a multigraph from (src, dst, multiplicity) triples.

        Each vertex's tails lead to its out-neighbours in increasing order,
        once per unit of multiplicity. `n` defaults to the largest vertex
        id + 1 and may not be smaller. Multiplicities whose total, as
        successors, the address space cannot hold raise CapacityError.
        """
        edges = np.array(check_int_array(list(edges), "edge entries"), dtype=np.int64)
        if edges.ndim != 2 or edges.shape[1] != 3 or not len(edges):
            raise ValidationError("need a non-empty list of (src, dst, mult) triples")
        bad = (edges[:, 0] < 0) | (edges[:, 1] < 0) | (edges[:, 2] < 1)
        if bad.any():
            raise ValidationError(f"bad edge {tuple(edges[bad][0].tolist())}")
        src, dst, mult = edges[np.lexsort(edges.T[::-1])].T
        top = int(max(src.max(), dst.max()))
        if n is None:
            n = top + 1
        elif n <= top:
            raise ValidationError(f"n={n} but the edges use vertex {top}")
        dtype = np.dtype(_index_dtype(n))
        check_addressable(exact_total(mult), dtype.itemsize, "m")
        # Below the address space, no vertex's total can wrap int64.
        d_out = np.zeros(n, dtype=np.int64)
        np.add.at(d_out, src, mult)
        return cls(d_out, np.repeat(dst.astype(dtype), mult))

    @classmethod
    def from_edge_list(cls, path) -> "Multigraph":
        """Rebuild a multigraph from `src dst multiplicity` lines after an
        optional `# n=<n>` first line (default: largest vertex id + 1)."""
        n, edges = read_int_rows(path, "src dst mult", header=EDGE_LIST_HEADER)
        if not edges:
            raise ValidationError(f"{path}: empty edge list")
        return cls.from_edges(edges, n=n)


def _index_dtype(count: int) -> type:
    """Dtype of vertex ids 0..count-1: int32 when every id fits."""
    return np.int32 if count < 2**31 else np.int64


def sample_dcm(
    seq: BiDegreeSequence, rng_seed: int | np.random.SeedSequence = 0
) -> Multigraph:
    """Sample the configuration model: a uniform perfect matching of heads
    with the tails in canonical order, kept as each tail's destination. The
    array of head owners is shuffled in place (Fisher-Yates), so tail t
    leads to heads[rng.permutation(m)][t]. An m whose successor array the
    address space cannot hold raises CapacityError.
    """
    dtype = _index_dtype(seq.n)
    check_addressable(seq.m, np.dtype(dtype).itemsize, "m")
    succ = np.repeat(np.arange(seq.n, dtype=dtype), seq.in_degrees)
    np.random.default_rng(rng_seed).shuffle(succ)
    return Multigraph(seq.out_degrees, succ)


def sample_rout(n: int, r: int, rng_seed: int | np.random.SeedSequence = 0) -> Multigraph:
    """Sample the r-out digraph: each vertex draws r uniform out-neighbours
    with replacement (self-loops allowed); in-degrees are Binomial(nr, 1/n).
    """
    if check_int(r, "r") < 2 or check_int(n, "n") < 1:
        raise ValidationError(f"need r >= 2 and n >= 1, got r={r}, n={n}")
    rng = np.random.default_rng(rng_seed)
    return Multigraph(np.full(n, r, dtype=np.int64), rng.integers(0, n, size=n * r))


def _transition_values(
    mult: np.ndarray, indptr: np.ndarray, d_out: np.ndarray
) -> np.ndarray:
    """Transition values of CSR rows with multiplicities `mult`, row
    pointers `indptr` and out-degrees `d_out`: 1 / d_out added left to right
    mult times per entry, the float order of sum_duplicates over the
    unmerged rows (out-degree 0 is taken as 1; such a row has no entry).
    Built VALUE_ROWS rows at a time."""
    values = np.empty(len(mult))
    for lo in range(0, len(d_out), VALUE_ROWS):
        hi = min(lo + VALUE_ROWS, len(d_out))
        span = slice(indptr[lo], indptr[hi])
        out, copies = values[span], mult[span]
        step = np.repeat(1.0 / np.maximum(d_out[lo:hi], 1), np.diff(indptr[lo : hi + 1]))
        out[:] = step
        dup = np.flatnonzero(copies > 1)
        step, added = step[dup], 1
        while len(dup):
            out[dup] += step
            added += 1
            keep = copies[dup] > added
            dup, step = dup[keep], step[keep]
    return values


def _pattern(g: Multigraph) -> sp.csr_matrix:
    """The pattern of `g.adjacency` as a float CSR for scipy's graph
    searches, which read only indices and indptr: its data is one
    zero-stride 1.0, so no per-edge value is stored or copied."""
    adj = g.adjacency
    return sp.csr_matrix(
        (np.broadcast_to(1.0, adj.nnz), adj.indices, adj.indptr), shape=adj.shape
    )


def sccs(g: Multigraph) -> tuple[int, np.ndarray]:
    """Strongly connected component labeling (count, per-vertex labels)."""
    n_comp, labels = connected_components(_pattern(g), directed=True, connection="strong")
    return int(n_comp), labels


def closed_classes(g: Multigraph) -> tuple[np.ndarray, np.ndarray]:
    """SCC labels per vertex, and per component whether it is closed: a sink
    of the condensation, with no edge leaving it. Components without
    out-edges at all (out-degree-0 vertices) are closed too. The out-edges
    are tested CLOSED_TEST_ROWS rows at a time."""
    n_comp, labels = sccs(g)
    closed = np.ones(n_comp, dtype=bool)
    if n_comp > 1:
        indptr, indices = g.adjacency.indptr, g.adjacency.indices
        for lo in range(0, g.n, CLOSED_TEST_ROWS):
            hi = min(lo + CLOSED_TEST_ROWS, g.n)
            src = np.repeat(labels[lo:hi], np.diff(indptr[lo : hi + 1]))
            dst = labels[indices[indptr[lo] : indptr[hi]]]
            closed[src[src != dst]] = False
    return labels, closed


def _closed_block(g: Multigraph, comp: np.ndarray, parts: int = 1) -> list[sp.csr_matrix]:
    """The transition matrix restricted to a closed, sorted vertex set
    `comp`, which may be every vertex, as the list of its `parts` column
    parts P[comp][:, comp][:, lo:hi], lo = k * i // parts, their columns
    counted from lo; one part is the whole block. An edge leaving `comp`
    raises NumericalError.

    The rows of `comp` are selected from `g.adjacency` as one copy, and the
    graph's cached `adjacency` is released next. The copy's columns are
    relabelled in place to 0..k-1, BLOCK_ROWS rows at a time, counting each
    part's entries. With more than one part, each row's run in every part
    is then copied, a chunk of rows at a time, into arrays of the part's
    final size, and the copy is dropped: the copy and the parts' patterns
    are alive together, but no value is yet, so this stays below the power
    loop's working set. Only then are the transition values built
    (`_transition_values`), one part at a time, each part's multiplicities
    dropped once its values exist. So the parts cost one block plus one row
    pointer per further part; the resident peak can exceed that by freed
    heap the allocator keeps resident (with glibc's default mmap threshold,
    a few MB at n = 2^22 on the toy law). Each row keeps its column order
    and its values' bits in every part, so a matvec on the parts keeps the
    float order of one on the block."""
    rows = g.adjacency[comp]
    vars(g).pop("adjacency", None)
    k = len(comp)
    cuts = [k * i // parts for i in range(parts + 1)]
    local = np.full(g.n, -1, dtype=rows.indices.dtype)
    local[comp] = np.arange(k)
    below = [0] * (parts - 1)  # entries left of each inner cut
    for top in range(0, k, BLOCK_ROWS):
        cols = rows.indices[rows.indptr[top] : rows.indptr[min(top + BLOCK_ROWS, k)]]
        cols[:] = local[cols]
        if len(cols) and cols.min() < 0:
            raise NumericalError("attractive component has an outgoing edge")
        below = [b + np.count_nonzero(cols < cut) for b, cut in zip(below, cuts[1:-1])]
    del local
    if parts == 1:
        split = [(rows.data, rows.indices, rows.indptr)]
    else:
        split = [
            (np.empty(nnz, rows.data.dtype), np.empty(nnz, rows.indices.dtype),
             np.zeros(k + 1, rows.indptr.dtype))
            for nnz in np.diff([0, *below, rows.nnz])
        ]
        for top in range(0, k, BLOCK_ROWS):
            chunk = rows[top : top + BLOCK_ROWS]
            for (mult, cols, ptr), lo, hi in zip(split, cuts[:-1], cuts[1:]):
                part = chunk[:, lo:hi]
                at = ptr[top]
                mult[at : at + part.nnz] = part.data
                cols[at : at + part.nnz] = part.indices
                ptr[top + 1 : top + len(part.indptr)] = part.indptr[1:] + at
        del chunk, part, mult, cols, ptr
    del rows
    d_out = g.d_out[comp]
    blocks = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        mult, cols, ptr = split.pop(0)
        values = _transition_values(mult, ptr, d_out)
        del mult  # before the next part's values are allocated
        blocks.append(sp.csr_matrix((values, cols, ptr), shape=(k, hi - lo)))
    return blocks


def attractive_scc(g: Multigraph) -> np.ndarray | None:
    """Vertices of the attractive SCC in increasing order, as vertex ids
    (int32 while n < 2^31), or None.

    A component is attractive when it is reachable from every vertex; in a
    finite digraph that holds exactly when it is the unique closed class
    (every vertex can follow the condensation DAG down to some sink).
    """
    labels, closed = closed_classes(g)
    ids = np.arange(g.n, dtype=_index_dtype(g.n))
    if len(closed) == 1:
        return ids
    sinks = np.flatnonzero(closed)
    if len(sinks) != 1:
        return None
    return ids[labels == sinks[0]]


def thin_depth(g: Multigraph, omega: int, t_cap: int) -> np.ndarray:
    """First level r in 0..t_cap at which the in-path width X_r(v) of each
    vertex v reaches omega, or -1 if it does not by t_cap, as an int64
    array over the vertices.

    X_0 = 1 and X_{r+1} = A^T X_r, where A is `g.adjacency`, so parallel
    edges count with their multiplicity and X_r(v) is the number of
    length-r in-paths ending at v. Each level is one matvec on the CSC view
    `g.adjacency.T` (no copy of the adjacency), and X is clipped at omega
    after it. An entry at omega makes every sum it enters at least omega,
    so the clipped X is min(X_r, omega) at every level: every first level
    is exact, no count overflows, and the working set is O(n).

    X counts in-paths, not distinct heads. The two agree while the in-ball
    is a tree, but a cycle inside the ball is counted again on every pass,
    so on small graphs a vertex can reach omega at a level where its
    distinct heads do not. A uniform head is matched with a uniform tail t,
    so a uniform head's in-neighbourhood is read at the owner of a uniform
    tail, `g.tail_vertex[t]`.
    """
    if check_int(omega, "omega") < 1 or check_int(t_cap, "t_cap") < 0:
        raise ValidationError(f"need omega >= 1 and t_cap >= 0, got {omega}, {t_cap}")
    if omega > np.iinfo(np.int64).max // max(int(g.d_in.max(initial=0)), 1):
        raise ValidationError(f"omega={omega} times the largest in-degree overflows int64")
    depth = np.full(g.n, 0 if omega == 1 else -1, dtype=np.int64)
    width = np.ones(g.n, dtype=np.int64)
    reverse = g.adjacency.T
    for r in range(1, t_cap + 1):
        width = np.minimum(reverse @ width, omega)
        depth[(depth < 0) & (width >= omega)] = r
    return depth
