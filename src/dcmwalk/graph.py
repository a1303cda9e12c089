"""Directed configuration model: sampling, SCC structure, in-neighbourhood
growth, and the marked in-exploration process.

Half-edges are flat arrays with index arithmetic: tails (out-half-edges) and
heads (in-half-edges) are numbered 0..m-1, grouped by vertex, and a sampled
graph is a permutation matching tail i to head match[i]. Sampled graphs are
immutable and shareable; exploration is single-threaded per replicate.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .degrees import BiDegreeSequence
from .errors import ValidationError

EDGE_LIST_HEADER = "# n="


@dataclass(frozen=True)
class Multigraph:
    """Half-edge representation of a directed multigraph.

    Tail t belongs to tail_vertex[t] and is paired with head match[t], which
    belongs to head_vertex[match[t]]. Self-loops and parallel edges are
    allowed; edge multiplicities are recovered by aggregation.
    """

    n: int
    m: int
    d_in: np.ndarray
    d_out: np.ndarray
    tail_ptr: np.ndarray
    head_ptr: np.ndarray
    tail_vertex: np.ndarray
    head_vertex: np.ndarray
    match: np.ndarray

    def __post_init__(self):
        if int(self.d_in.sum()) != self.m or int(self.d_out.sum()) != self.m:
            raise ValidationError("head and tail totals differ")
        counts = np.bincount(self.match, minlength=self.m)
        if len(counts) != self.m or not np.all(counts == 1):
            raise ValidationError("pairing is not a perfect matching of half-edges")

    @property
    def inverse_match(self) -> np.ndarray:
        inv = np.empty(self.m, dtype=np.int64)
        inv[self.match] = np.arange(self.m)
        return inv

    def successors(self) -> np.ndarray:
        """Destination vertex of each tail, in tail order."""
        return self.head_vertex[self.match]

    @cached_property
    def csr(self) -> sp.csr_matrix:
        """Canonical read-only CSR of the walk, built once per graph.

        Row u holds u's distinct out-neighbours in increasing order, valued
        mult(u, v) / d_out(u) (1 / d_out(u) summed per parallel edge): the
        pattern is the adjacency, the values the transition matrix. The rows
        are the tail blocks, merged by sum_duplicates because scipy's
        strong-component search stalls on duplicate columns; the merge works
        in place, so indptr starts as a copy of tail_ptr."""
        mat = sp.csr_matrix(
            (1.0 / self.d_out[self.tail_vertex], self.successors(), self.tail_ptr.copy()),
            shape=(self.n, self.n),
        )
        mat.sum_duplicates()
        for arr in (mat.data, mat.indices, mat.indptr):
            arr.flags.writeable = False
        return mat

    def edge_multiplicities(self) -> dict[tuple[int, int], int]:
        """Multiplicity of each (src, dst) pair that has an edge, in sorted order."""
        key = self.tail_vertex * self.n + self.successors()
        keys, counts = np.unique(key, return_counts=True)
        return {divmod(k, self.n): c for k, c in zip(keys.tolist(), counts.tolist())}

    def to_edge_list(self, path) -> None:
        """Write a `# n=<n>` header, then `src dst multiplicity` lines sorted
        by (src, dst)."""
        mult = self.edge_multiplicities()
        with open(path, "w", encoding="ascii") as fh:
            fh.write(f"{EDGE_LIST_HEADER}{self.n}\n")
            for (src, dst) in sorted(mult):
                fh.write(f"{src} {dst} {mult[(src, dst)]}\n")

    @classmethod
    def from_edges(cls, edges, n: int | None = None) -> "Multigraph":
        """Build a multigraph from (src, dst, multiplicity) triples.

        The pairing is reconstructed canonically (half-edges matched in
        sorted edge order), which preserves the multigraph exactly. `n`
        defaults to the largest vertex id + 1 and may not be smaller.
        """
        edges = [(int(s), int(d), int(mult)) for s, d, mult in edges]
        if not edges:
            raise ValidationError("empty edge list")
        for src, dst, mult in edges:
            if src < 0 or dst < 0 or mult < 1:
                raise ValidationError(f"bad edge ({src}, {dst}, {mult})")
        src, dst, mult = np.array(sorted(edges), dtype=np.int64).T
        top = int(max(src.max(), dst.max()))
        if n is None:
            n = top + 1
        elif n <= top:
            raise ValidationError(f"n={n} but the edges use vertex {top}")
        d_out = np.bincount(np.repeat(src, mult), minlength=n)
        return _from_successors(np.repeat(dst, mult), d_out)

    @classmethod
    def from_edge_list(cls, path) -> "Multigraph":
        """Rebuild a multigraph from `src dst multiplicity` lines after an
        optional `# n=<n>` first line (default: largest vertex id + 1)."""
        edges: list[tuple[int, int, int]] = []
        n = None
        with open(path, "r", encoding="ascii") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                if lineno == 1 and line.startswith("#"):
                    value = line[len(EDGE_LIST_HEADER):]
                    if not line.startswith(EDGE_LIST_HEADER) or not value.isdigit():
                        raise ValidationError(f"{path}:1: expected '{EDGE_LIST_HEADER}<n>'")
                    n = int(value)
                    continue
                try:
                    src, dst, mult = (int(v) for v in line.split())
                except ValueError as exc:
                    raise ValidationError(
                        f"{path}:{lineno}: expected integers 'src dst mult'"
                    ) from exc
                edges.append((src, dst, mult))
        if not edges:
            raise ValidationError(f"{path}: empty edge list")
        return cls.from_edges(edges, n=n)


def _paired(d_in: np.ndarray, d_out: np.ndarray, match: np.ndarray) -> Multigraph:
    """The multigraph with these int64 degree arrays whose tail t is paired
    with head match[t]. Canonical half-edge layout: head/tail i belongs to
    the vertex whose block of the cumulative degree count contains i."""
    n = len(d_in)
    return Multigraph(
        n=n, m=len(match), d_in=d_in, d_out=d_out,
        tail_ptr=np.concatenate(([0], np.cumsum(d_out))),
        head_ptr=np.concatenate(([0], np.cumsum(d_in))),
        tail_vertex=np.repeat(np.arange(n), d_out),
        head_vertex=np.repeat(np.arange(n), d_in),
        match=match,
    )


def _from_successors(succ: np.ndarray, d_out: np.ndarray) -> Multigraph:
    """The multigraph whose tails, in canonical order, go to the vertices
    `succ`; each vertex's heads are paired in that tail order."""
    match = np.empty(len(succ), dtype=np.int64)
    match[np.argsort(succ, kind="stable")] = np.arange(len(succ))
    return _paired(np.bincount(succ, minlength=len(d_out)), d_out, match)


def sample_dcm(
    seq: BiDegreeSequence, rng_seed: int | np.random.SeedSequence = 0
) -> Multigraph:
    """Sample the configuration model: a uniform perfect matching of heads
    against the canonical tail order (Fisher-Yates shuffle of the head array).
    """
    rng = np.random.default_rng(rng_seed)
    match = rng.permutation(seq.tail_total)
    return _paired(seq.in_degrees, seq.out_degrees, match)


def sample_rout(n: int, r: int, rng_seed: int | np.random.SeedSequence = 0) -> Multigraph:
    """Sample the r-out digraph: each vertex draws r uniform out-neighbours
    with replacement (self-loops allowed); in-degrees are Binomial(nr, 1/n).
    """
    if r < 2 or n < 1:
        raise ValidationError(f"need r >= 2 and n >= 1, got r={r}, n={n}")
    rng = np.random.default_rng(rng_seed)
    targets = rng.integers(0, n, size=n * r)
    return _from_successors(targets, np.full(n, r, dtype=np.int64))


def sccs(g: Multigraph) -> tuple[int, np.ndarray]:
    """Strongly connected component labeling (count, per-vertex labels)."""
    n_comp, labels = connected_components(g.csr, directed=True, connection="strong")
    return int(n_comp), labels


def closed_classes(g: Multigraph) -> tuple[np.ndarray, np.ndarray]:
    """SCC labels per vertex, and per component whether it is closed: a sink
    of the condensation, with no edge leaving it. Components without
    out-edges at all (out-degree-0 vertices) are closed too."""
    n_comp, labels = sccs(g)
    closed = np.ones(n_comp, dtype=bool)
    if n_comp > 1:
        adj = g.csr
        src = np.repeat(labels, np.diff(adj.indptr))
        closed[src[src != labels[adj.indices]]] = False
    return labels, closed


def attractive_scc(g: Multigraph) -> np.ndarray | None:
    """Vertices of the attractive SCC, or None.

    A component is attractive when it is reachable from every vertex; in a
    finite digraph that holds exactly when it is the unique closed class
    (every vertex can follow the condensation DAG down to some sink).
    """
    labels, closed = closed_classes(g)
    if len(closed) == 1:
        return np.arange(g.n, dtype=np.int64)
    sinks = np.flatnonzero(closed)
    if len(sinks) != 1:
        return None
    return np.flatnonzero(labels == sinks[0])


def t_omega(
    g: Multigraph, f: int, omega: int, t_cap: int
) -> int | None:
    """First level t at which the in-neighbourhood of head f holds at least
    omega heads, or None if the growth dies out or t_cap is reached.

    Levels are breadth-first over heads: the heads one level behind head h
    are the heads of the vertex whose tail is paired with h.
    """
    if omega < 1:
        raise ValidationError("omega must be >= 1")
    if omega == 1:
        return 0
    inv = g.inverse_match
    seen = np.zeros(g.m, dtype=bool)
    frontier = np.array([f], dtype=np.int64)
    seen[f] = True
    for t in range(1, t_cap + 1):
        tails = inv[frontier]
        vertices = g.tail_vertex[tails]
        nxt = _heads_of(g, vertices)
        nxt = nxt[~seen[nxt]]
        nxt = np.unique(nxt)
        if len(nxt) == 0:
            return None
        seen[nxt] = True
        if len(nxt) >= omega:
            return t
        frontier = nxt
    return None


def t_omega_set(g: Multigraph, omega: int, t_cap: int) -> np.ndarray:
    """Boolean mask over heads with finite t_omega (bulk form of t_omega)."""
    return np.array(
        [t_omega(g, f, omega, t_cap) is not None for f in range(g.m)], dtype=bool
    )


def _heads_of(g: Multigraph, vertices: np.ndarray) -> np.ndarray:
    """Concatenated head ids of the given vertices (with repeats collapsed later)."""
    counts = g.d_in[vertices]
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    starts = g.head_ptr[vertices]
    offsets = np.arange(total) - np.repeat(
        np.concatenate(([0], np.cumsum(counts)))[:-1], counts
    )
    return np.repeat(starts, counts) + offsets


@dataclass(frozen=True)
class StopRule:
    """Stop condition for the in-exploration: whichever triggers first.

    level: stop once every head at depth < level is paired (active set is
    exactly that level). active_cap: stop at the first level boundary whose
    level holds at least this many heads. budget: hard cap on pairings
    (stopping mid-level, flagged).
    """

    level: int | None = None
    active_cap: int | None = None
    budget: int | None = None

    def __post_init__(self):
        if self.level is None and self.active_cap is None and self.budget is None:
            raise ValidationError("stop rule needs at least one of level/cap/budget")


@dataclass(frozen=True)
class IncompleteTree:
    """Marked tree of heads built by the in-exploration process.

    Arrays are parallel over nodes; mark is -1 until the node is paired.
    `pairs` records (head id, tail id) in pairing order; `collisions` counts
    pairings that landed on an already-discovered vertex (the excess TX of
    the explored subgraph); collided heads stay as paired leaves.
    """

    root_head: int
    parent: np.ndarray
    head_id: np.ndarray
    level: np.ndarray
    mark: np.ndarray
    paired: np.ndarray
    pairs: tuple[tuple[int, int], ...]
    collisions: int
    stopped_at_boundary: bool
    budget_exhausted: bool

    @property
    def num_nodes(self) -> int:
        return len(self.parent)

    @property
    def num_paired(self) -> int:
        return int(self.paired.sum())

    @property
    def level_sizes(self) -> tuple[int, ...]:
        return tuple(np.bincount(self.level).tolist())

    def active_levels(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.level[~self.paired].tolist())))

    def gamma_at(self, t: int) -> float:
        """Sum over level-t nodes of the in-tree path weights.

        Weight of a node = product of 1/mark over its ancestors at levels
        0..t-1 (each such ancestor is paired, so its mark is known).
        """
        weights = {0: 1.0}
        for node in range(1, self.num_nodes):
            if self.level[node] > t:
                continue
            par = int(self.parent[node])
            if par not in weights or self.mark[par] < 1:
                continue
            weights[node] = weights[par] / float(self.mark[par])
        return float(
            sum(w for node, w in weights.items() if self.level[node] == t)
        )


def explore_in_tree(
    seq: BiDegreeSequence,
    f: int,
    stop: StopRule,
    rng_seed: int | np.random.SeedSequence = 0,
) -> IncompleteTree:
    """Run the marked breadth-first in-exploration from head f.

    Heads are processed in FIFO order (earliest activated first). Each step
    pairs the current head with a uniformly random unpaired tail — drawn by
    a partial Fisher-Yates over the tail array, so the tree's law matches
    the exploration of a uniform configuration without sampling the whole
    graph. If the tail's vertex is new, its heads become the node's children
    and the node's mark is that vertex's out-degree; if the vertex was
    already discovered, the pairing is a collision: the node keeps the mark
    but becomes a childless paired leaf.
    """
    d_in = seq.in_degrees
    d_out = seq.out_degrees
    m = seq.m
    if not 0 <= f < m:
        raise ValidationError(f"head id {f} outside 0..{m - 1}")
    layout = _paired(d_in, d_out, np.arange(m))  # the half-edge layout; no pairing
    head_ptr, head_vertex = layout.head_ptr, layout.head_vertex
    tail_vertex = layout.tail_vertex

    rng = np.random.default_rng(rng_seed)
    pool = np.arange(m, dtype=np.int64)  # tails; consumed prefix is paired
    consumed = 0
    discovered = np.zeros(seq.n, dtype=bool)

    parent = [-1]
    head_id = [f]
    level = [0]
    mark = [-1]
    paired = [False]
    pairs: list[tuple[int, int]] = []
    collisions = 0
    discovered[head_vertex[f]] = True

    queue: deque[int] = deque([0])
    budget_exhausted = False
    current_level = -1
    level_counts = {0: 1}

    def boundary_stop() -> bool:
        if stop.level is not None and current_level >= stop.level:
            return True
        if stop.active_cap is not None and level_counts.get(current_level, 0) >= stop.active_cap:
            return True
        return False

    stopped_at_boundary = False
    while queue:
        node = queue[0]
        if level[node] > current_level:
            current_level = level[node]
            if boundary_stop():
                stopped_at_boundary = True
                break
        if stop.budget is not None and len(pairs) >= stop.budget:
            budget_exhausted = True
            break
        queue.popleft()
        # Uniform unpaired tail via partial Fisher-Yates swap.
        j = int(rng.integers(consumed, m))
        pool[consumed], pool[j] = pool[j], pool[consumed]
        tail = int(pool[consumed])
        consumed += 1
        u = int(tail_vertex[tail])
        pairs.append((head_id[node], tail))
        paired[node] = True
        mark[node] = int(d_out[u])
        if discovered[u]:
            collisions += 1
            continue
        discovered[u] = True
        child_level = level[node] + 1
        for h in range(head_ptr[u], head_ptr[u + 1]):
            parent.append(node)
            head_id.append(int(h))
            level.append(child_level)
            mark.append(-1)
            paired.append(False)
            queue.append(len(parent) - 1)
        level_counts[child_level] = level_counts.get(child_level, 0) + d_in[u]
    else:
        stopped_at_boundary = True  # exploration died out: active set empty

    return IncompleteTree(
        root_head=f,
        parent=np.array(parent, dtype=np.int64),
        head_id=np.array(head_id, dtype=np.int64),
        level=np.array(level, dtype=np.int64),
        mark=np.array(mark, dtype=np.int64),
        paired=np.array(paired, dtype=bool),
        pairs=tuple(pairs),
        collisions=collisions,
        stopped_at_boundary=stopped_at_boundary,
        budget_exhausted=budget_exhausted,
    )


def complete_pairing(seq: BiDegreeSequence, pairs) -> Multigraph:
    """Extend a partial (head, tail) pairing to a full multigraph, matching
    the remaining half-edges in canonical order. Test-support helper for
    shared-randomness consistency between exploration and sampling."""
    m = seq.tail_total
    match = np.full(m, -1, dtype=np.int64)
    used_heads = np.zeros(m, dtype=bool)
    for head, tail in pairs:
        if match[tail] != -1 or used_heads[head]:
            raise ValidationError("partial pairing reuses a half-edge")
        match[tail] = head
        used_heads[head] = True
    free_heads = np.nonzero(~used_heads)[0]
    free_tails = np.nonzero(match == -1)[0]
    match[free_tails] = free_heads
    return _paired(seq.in_degrees, seq.out_degrees, match)
