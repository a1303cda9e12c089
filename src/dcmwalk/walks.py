"""Stationary distributions, extremal values, hitting and cover times.

The stationary vector is computed by power iteration on the lazy kernel
(I + P)/2 restricted to the attractive SCC (the lazy kernel has the same
stationary vector and no periodicity obstruction), with a square dense LU
solve (one balance equation swapped for the normalisation) as a cross-check
on small graphs. Support is structural (SCC membership), never a numeric
threshold on pi. A large attractive block is cut by destination column into
parts, one thread each (PART_ROWS, `_threads.usable_cores`). A step has one
threaded phase: the matvec and |image - pi| per part; the lazy update, the
normalisation and both sums on the calling thread. Every entry of pi is
still summed in the same order, so the bits do not depend on the part count.

The Monte Carlo walkers (`hitting_time_mc`, `cover_time_mc`) share one
block stepper, `_walk`: it draws the uniforms of WALK_BLOCK steps for every
live walker in one call, steps through per-tail tables of the next vertex's
first tail and out-degree, and hands each block's tails to the caller's
bookkeeping (arrivals, traps, first visits) once per block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse._sparsetools import csc_matvec
from scipy.sparse.csgraph import breadth_first_order

from ._checks import check_addressable, check_int, check_int_array, check_real
from ._threads import thread_map, usable_cores
from .errors import (
    CensoredError,
    NonUniqueError,
    NumericalError,
    UnreachableError,
    ValidationError,
)
from .graph import (
    Multigraph,
    _closed_block,
    _pattern,
    _transition_values,
    attractive_scc,
    closed_classes,
)

POWER_TOL = 1e-12
ACCEPT_RESIDUAL = 1e-10
MAX_POWER_ITER = 10**6
CROSS_CHECK_MAX_N = 2000
# Fewest block rows per column part of the power loop: a block with k rows
# runs min(usable cores, k // PART_ROWS) parts, one thread each, and one
# part inline below 2 * PART_ROWS. On the toy law with 2 cores, two parts
# took 15% longer at k = 252k than one, tied at k = 378k and saved 20% at
# k = 505k: a part's matvec still reads every source.
PART_ROWS = 150_000
HITTING_MATRIX_MAX_K = 2500
COVER_STARTS = 10  # start vertices that `cover_time_mc` samples by default
# Steps per block of the Monte Carlo walkers (`_walk`): one draw of
# uniforms and one round of visit, arrival and trap bookkeeping per block.
# It stays below _UNSEEN, so a block-relative step fits an int8 stamp.
WALK_BLOCK = 64
# Most uniforms per block (256 KB of float64): with more than
# WALK_BLOCK_CELLS / WALK_BLOCK = 512 live walkers, blocks are shorter, so
# a block's arrays stay small and finished walkers leave sooner.
WALK_BLOCK_CELLS = 1 << 15
_UNSEEN = np.iinfo(np.int8).max
_SEEN = -1


@dataclass(frozen=True)
class StationaryResult:
    """Stationary vector with structural support and diagnostics.
    `pi_min_rel_residual` = |(pi P)_v - pi_v| / pi_v at v = argmin pi is
    the last step's relative residual at the smallest entry: a diagnostic
    of `pi_min`, not a bound on its relative error. That error has measured
    2 to 7 times this value at POWER_TOL, and 0.04 to 90 times it across
    tolerances."""

    pi: np.ndarray
    support: np.ndarray
    pi_min: float
    pi_max: float
    residual: float
    iterations: int
    pi_min_rel_residual: float
    cross_check_linf: float | None = None

    @property
    def n(self) -> int:
        return len(self.pi)


@dataclass(frozen=True)
class HittingEstimate:
    """Monte Carlo walk-time estimate with censoring diagnostics.

    `samples` holds the per-replicate step counts (step_cap for censored
    replicates) and `censored_mask` flags the censored replicates, so
    callers can emit one CSV row per replicate. A replicate that finishes
    exactly at the step cap is not censored.
    """

    mean: float
    se: float
    reps: int
    hits: int
    censored: int
    step_cap: int
    samples: np.ndarray | None = None
    start: int | None = None
    censored_mask: np.ndarray | None = None


@dataclass(frozen=True)
class WalkTimes:
    """Exact maximal hitting time onto the attractive SCC, plus a cover-time
    estimate and Matthews' bound. `targets` are the SCC's vertices, sorted."""

    targets: np.ndarray
    hitting: np.ndarray  # H of `hitting_matrix`: hitting[x, j] = E[tau_x(y_j)]
    t_hit: float
    t_cov: HittingEstimate
    matthews_upper: float

    def hitting_time(self, x: int, y: int) -> float:
        x, y = _check_vertices(len(self.hitting), (x, y), "vertex")
        j = int(np.searchsorted(self.targets, y))
        if j >= len(self.targets) or self.targets[j] != y:
            raise ValidationError(f"{y} is not one of the solved targets")
        return float(self.hitting[x, j])


def transition_matrix(g: Multigraph) -> sp.csr_matrix:
    """Row-stochastic transition matrix of the simple random walk, built on
    each call: its values come from `_transition_values`, its index arrays
    are the read-only ones of `g.adjacency`."""
    if np.any(g.d_out == 0):
        raise NonUniqueError("vertex with out-degree 0: walk transitions undefined")
    adj = g.adjacency
    values = _transition_values(adj.data, adj.indptr, g.d_out)
    return sp.csr_matrix((values, adj.indices, adj.indptr), shape=adj.shape)


def stationary_distribution(
    g: Multigraph,
    tol: float = POWER_TOL,
) -> StationaryResult:
    """Stationary distribution of the walk, supported on the attractive SCC.

    Power iteration runs on the lazy kernel until the plain-kernel residual
    ||pi P - pi||_1 drops below `tol`, and raises NumericalError after
    MAX_POWER_ITER iterations without that. For graphs with at most 2000
    vertices, a square dense LU solve of the balance equations with one
    replaced by sum(pi) = 1 verifies the result to 1e-10 in sup norm.

    A block of k rows is cut into min(usable cores, k // PART_ROWS) column
    parts [lo, hi) by `_closed_block`, which returns the list of parts for
    every count, and each step runs one threaded phase, one part per thread
    of a pool of that many: the matvec into image[lo:hi] and |image - pi|
    into gap[lo:hi]. The lazy update pi += image, the normalisation and
    both sums, of gap and of pi, run whole-array on the calling thread.
    Every entry keeps its float order, so pi, the residuals and the
    iteration count are the same bits for any part count. With one part
    the phase runs inline and no thread starts; the pool's threads are
    joined on return, also on an error.
    """
    if not 0.0 < check_real(tol, "tol") < math.inf:
        raise ValidationError(f"tol must be positive and finite, got {tol}")
    comp = _walk_class(g)
    k = len(comp)
    parts = max(1, min(usable_cores(), k // PART_ROWS))
    blocks = _closed_block(g, comp, parts)
    pi = np.full(k, 1.0 / k)
    gap = np.empty(k)
    image = np.empty(k)
    # Per part: the arguments of its matvec and its spans of image, pi and
    # gap, views made once. Part i's transpose is a CSC matrix of shape
    # (hi - lo, k) on the arrays of P[:, lo:hi].
    cuts = np.cumsum([0] + [b.shape[1] for b in blocks])
    views = [
        ((b.shape[1], k, b.indptr, b.indices, b.data), image[lo:hi], pi[lo:hi], gap[lo:hi])
        for b, lo, hi in zip(blocks, cuts[:-1], cuts[1:])
    ]

    # The threaded phase of a step, run per part. The rest of the step runs
    # whole-array on this thread, where no bit depends on the part count.
    def advance(view):
        # image[lo:hi] = pi @ P[:, lo:hi]: scipy's CSC matvec, the kernel of
        # `P.T @ pi`, on the part's transpose. It adds each source's term in
        # increasing source order into zeroed entries, the float order of
        # `pi @ P`. It is called directly to write into `image`: `P.T @ pi`
        # would allocate each step's result on a pool thread, whose malloc
        # arena keeps the freed pages after the loop (17 MB more peak RSS
        # in the large-n bench).
        kernel, image_i, pi_i, gap_i = view
        image_i.fill(0.0)
        csc_matvec(*kernel, pi, image_i)
        np.abs(np.subtract(image_i, pi_i, out=gap_i), out=gap_i)

    residual = math.inf
    iterations = 0
    with thread_map(parts) as each:
        for iterations in range(1, MAX_POWER_ITER + 1):
            list(each(advance, views))
            residual = float(gap.sum())
            if residual < tol:
                break
            # The lazy step pi <- (pi + image) / 2, normalised, in place.
            # Halving normal floats is exact, so it cancels in the
            # normalisation bit for bit and is left out.
            np.add(pi, image, out=pi)
            np.divide(pi, pi.sum(), out=pi)
        else:
            raise NumericalError("power iteration did not converge", residual=residual)
    v = int(np.argmin(pi))  # gap holds |pi P - pi| for this pi
    pi_min_rel_residual = float(gap[v] / pi[v])

    linf = None
    if g.n <= CROSS_CHECK_MAX_N:
        direct = _direct_stationary(sp.hstack(blocks, format="csr"))
        linf = float(np.max(np.abs(direct - pi)))
        if linf > ACCEPT_RESIDUAL:
            raise NumericalError(
                "power iteration and direct solve disagree", residual=linf
            )
    del blocks, views, gap, image  # before the n-length result is allocated
    full = np.zeros(g.n)
    full[comp] = pi
    return StationaryResult(
        pi=full,
        support=comp,
        pi_min=float(pi.min()),
        pi_max=float(pi.max()),
        residual=residual,
        iterations=iterations,
        pi_min_rel_residual=pi_min_rel_residual,
        cross_check_linf=linf,
    )


def _walk_class(g: Multigraph) -> np.ndarray:
    """The attractive SCC, after checking that `g` has one and that each of
    its vertices has an out-edge; NonUniqueError otherwise."""
    comp = attractive_scc(g)
    if comp is None:
        raise NonUniqueError()
    if np.any(g.d_out[comp] == 0):
        raise NonUniqueError("attractive component contains a sink vertex")
    return comp


def _direct_stationary(p_sub: sp.csr_matrix) -> np.ndarray:
    """Square LU solve of pi P = pi, sum(pi) = 1 on a dense copy.

    The columns of P^T - I sum to zero, so one balance equation is
    redundant: the last is replaced by the normalisation (Stewart 1994,
    section 2.3). `p_sub` is a closed SCC, hence irreducible, which makes
    the system nonsingular; a singular system raises NumericalError.
    """
    k = p_sub.shape[0]
    a = p_sub.T.toarray()
    a[np.diag_indices(k)] -= 1.0
    a[-1] = 1.0
    b = np.zeros(k)
    b[-1] = 1.0
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"direct stationary solve failed: {exc}") from None


def head_stationary(g: Multigraph, result: StationaryResult) -> np.ndarray:
    """Stationary mass of each edge, in tail order: pi_e(t) = pi(z) / d_out(z)
    for a tail t of vertex z, the mass of the head t is matched with.

    Checks that the masses arriving at each vertex sum to pi within 1e-12.
    """
    z = g.tail_vertex
    pi_e = result.pi[z] / g.d_out[z]
    sums = np.bincount(g.successors(), weights=pi_e, minlength=g.n)
    gap = float(np.max(np.abs(sums - result.pi)))
    if gap > 1e-12:
        raise NumericalError("head stationary masses do not aggregate", residual=gap)
    return pi_e


def empirical_tail(result: StationaryResult, alpha: float) -> float:
    """psi((0, n^-alpha]) = fraction of vertices with 0 < pi <= n^-(1+alpha)."""
    if not check_real(alpha, "alpha") >= 0:  # NaN fails every comparison
        raise ValidationError(f"alpha must be >= 0, got {alpha}")
    n = result.n
    threshold = n ** -(1.0 + alpha)
    sub = result.pi[result.support]
    return float((sub <= threshold).sum()) / n


def _check_vertices(n: int, vertices, what: str) -> np.ndarray:
    """`vertices` (one or many) as a flat int64 array, after checking each
    is an integer in 0..n-1. A bool or a float id is refused, not rounded,
    and so is one outside int64."""
    v = check_int_array(vertices, f"{what} ids").reshape(-1)
    bad = (v < 0) | (v >= n)
    if bad.any():
        raise ValidationError(f"{what} {v[bad][0]} outside 0..{n - 1}")
    return v.astype(np.int64, copy=False)


def hitting_times_exact(g: Multigraph, y: int) -> np.ndarray:
    """Expected steps to hit y from every vertex, by a sparse linear solve.

    States that fail to hit y with probability 1 (they can drain into a
    closed class avoiding y) are reported as +inf. This is the independent
    reference for `hitting_matrix`, and the one exact route to a target
    outside the attractive SCC.
    """
    if g.n > 5000:
        raise ValidationError("exact hitting times budgeted for n <= 5000")
    ys = _check_vertices(g.n, y, "target")
    if len(ys) != 1:
        raise ValidationError(f"expected one target id, got {y!r}")
    y = ys.item()
    p = transition_matrix(g)
    # sink[v]: label of the closed class holding v, or -1 for a transient
    # vertex. States that can reach a closed class other than y's without
    # stepping on y first have hitting probability < 1, hence infinite
    # expectation.
    labels, closed = closed_classes(g)
    sink = np.where(closed[labels], labels, -1)
    blocked = (sink >= 0) & (sink != sink[y])
    # Column v of the adjacency lists the predecessors of v, for reverse
    # reachability.
    pred = g.adjacency.tocsc()
    stack = np.flatnonzero(blocked).tolist()
    while stack:
        v = stack.pop()
        for u in pred.indices[pred.indptr[v] : pred.indptr[v + 1]]:
            if not blocked[u] and u != y:
                blocked[u] = True
                stack.append(int(u))
    finite = ~blocked
    finite[y] = True
    h = np.full(g.n, np.inf)
    h[y] = 0.0
    others = np.nonzero(finite & (np.arange(g.n) != y))[0]
    if len(others) == 0:
        return h
    a = sp.identity(len(others), format="csr") - p[others][:, others]
    h[others] = spla.spsolve(a.tocsc(), np.ones(len(others)))
    return h


def return_time_exact(g: Multigraph, x: int) -> float:
    """Expected return time E[tau+_x] = 1 + mean over out-edges of E[tau_dst(x)]."""
    return float(return_times_exact(g, [x])[0])


def return_times_exact(g: Multigraph, vertices) -> np.ndarray:
    """Expected return times E[tau+_x] for many vertices x.

    A vertex x of the attractive SCC gets 1 + the mean over its out-edges
    of E[tau_dst(x)], read from `hitting_matrix`; a vertex outside it is
    transient and gets +inf. Raises NonUniqueError, as `hitting_matrix`
    does, when there is no attractive SCC.
    """
    xs = _check_vertices(g.n, vertices, "vertex")
    if len(xs) == 0:
        return np.empty(0)
    targets, hitting = hitting_matrix(g)
    col = np.full(g.n, -1)
    col[targets] = np.arange(len(targets))
    j = col[xs]
    on = j >= 0
    times = np.full(len(xs), np.inf)
    xs, j = xs[on], j[on]
    # Out-edges of each x, owner[j] = position in xs of the tail of edges[j].
    deg = g.d_out[xs]
    owner = np.repeat(np.arange(len(xs)), deg)
    first = np.cumsum(deg) - deg
    edges = np.repeat(g.tail_ptr[xs] - first, deg) + np.arange(len(owner))
    steps = hitting[g.successors()[edges], j[owner]]
    times[on] = 1.0 + np.bincount(owner, weights=steps, minlength=len(xs)) / deg
    return times


def hitting_matrix(g: Multigraph) -> tuple[np.ndarray, np.ndarray]:
    """All expected hitting times onto the attractive SCC in one pass.

    Returns (targets, H) with targets the support vertices and H of shape
    (n, len(targets)): H[x, j] = E[tau_x(targets[j])]. Inside the support
    the times come from G = (I - P + 1 u)^(-1) with u the uniform row
    (Kemeny & Snell): pi = u G, the column means of G, and
    m(x, y) = (G[y, y] - G[x, y]) / pi(y), with P's block from
    `_closed_block`. Transient starts add their entry time and entry
    distribution into the support, from the rows of `transition_matrix`,
    built only then. Much faster than a linear solve per target;
    `hitting_times_exact` cross-checks it in the tests.
    """
    comp = _walk_class(g)
    if len(comp) > HITTING_MATRIX_MAX_K:
        raise ValidationError(
            f"hitting_matrix budgeted for supports up to {HITTING_MATRIX_MAX_K}"
        )
    k = len(comp)
    # I - P + 1 u, built in place on the dense restriction of P.
    a = _closed_block(g, comp)[0].toarray()
    np.negative(a, out=a)
    a.flat[:: k + 1] += 1.0
    a += 1.0 / k
    z = np.linalg.inv(a)
    del a
    pi = z.mean(axis=0)
    np.subtract(z.diagonal().copy(), z, out=z)
    z /= pi
    if k == g.n:
        return comp, z
    transient = np.setdiff1d(np.arange(g.n), comp)
    h = np.empty((g.n, k))
    h[comp] = z
    t_rows = transition_matrix(g)[transient]
    lu = spla.splu((sp.identity(len(transient), format="csc")
                    - t_rows[:, transient]).tocsc())
    entry_steps = lu.solve(np.ones(len(transient)))
    entry_dist = lu.solve(t_rows[:, comp].toarray())
    h[transient] = entry_steps[:, None] + entry_dist @ z
    return comp, h


def walk_times_exact(
    g: Multigraph, cover_reps: int = 200, rng_seed: int = 0
) -> WalkTimes:
    """Exact maximal hitting time onto the attractive SCC, a Monte Carlo
    cover-time estimate, and Matthews' bound. The cover walkers stop at
    max(10^4, 50 * Matthews' bound) steps."""
    comp, hitting = hitting_matrix(g)
    t_hit = float(hitting[np.isfinite(hitting)].max())
    bound = matthews_bound(t_hit, len(comp))
    step_cap = max(10_000, int(50 * bound))
    cov = cover_time_mc(g, reps=cover_reps, step_cap=step_cap, rng_seed=rng_seed)
    return WalkTimes(
        targets=comp,
        hitting=hitting,
        t_hit=t_hit,
        t_cov=cov,
        matthews_upper=bound,
    )


def _check_walkable(g: Multigraph, vertices: tuple = (), **counts: int) -> None:
    """Walkers need integer counts (replicates, step cap, starts) of at
    least one, every given vertex in 0..n-1, and an out-edge at every vertex
    they may reach. A bool or a float count is refused, not rounded."""
    for name, value in counts.items():
        if check_int(value, name) < 1:
            raise ValidationError(f"{name} must be >= 1, got {value}")
    _check_vertices(g.n, vertices, "vertex")
    if np.any(g.d_out == 0):
        raise NonUniqueError("vertex with out-degree 0: walk transitions undefined")


def _walk(
    g: Multigraph,
    starts: np.ndarray,
    step_cap: int,
    rng: np.random.Generator,
    settle: Callable[[int, np.ndarray, np.ndarray], np.ndarray],
) -> np.ndarray:
    """Walk one walker from each vertex of `starts`, WALK_BLOCK steps at a
    time (fewer while more than WALK_BLOCK_CELLS / WALK_BLOCK walkers are
    live), until `settle` has stopped them all or step_cap steps are taken.

    A walker's state is the first tail of its vertex and that vertex's
    out-degree. Each block draws one uniform u per step and live walker in
    a single call; a step takes tail first + floor(u * deg), a uniform
    multiplicity-weighted out-edge (u <= 1 - 2^-53, and
    floor((1 - 2^-53) * d) = d - 1 for integers d < 2^53), and reads the
    next state from per-tail tables. After each block,
    settle(step, live, tails) gets the steps taken before the block, the
    indices of the walkers live in it and the tails they took, shape
    (block, len(live)), and returns the mask of those that stop. Stopped
    walkers still draw to the end of their block. The last block is cut at
    step_cap, so the cap is exact. Returns the walkers live at the cap.
    """
    # Tails stay intp: np.take converts narrower indices on every call.
    # The degrees are values, so they keep the graph's narrow dtype.
    tail_ptr, succ = g.tail_ptr, g.successors()
    next_first = tail_ptr[succ]
    next_deg = g.d_out[succ]
    first = tail_ptr[starts]
    deg = g.d_out[starts]
    live = np.arange(len(starts))
    step = 0
    while len(live) and step < step_cap:
        nb = min(WALK_BLOCK, max(1, WALK_BLOCK_CELLS // len(live)), step_cap - step)
        u = rng.random((nb, len(live)))
        tails = np.empty(u.shape, dtype=first.dtype)
        for row, t in zip(u, tails):
            np.multiply(row, deg, out=row)
            t[...] = row  # truncation is floor for u * deg >= 0
            np.add(t, first, out=t)
            first, deg = next_first.take(t), next_deg.take(t)
        keep = ~settle(step, live, tails)
        step += nb
        live, first, deg = live[keep], first[keep], deg[keep]
    return live


def _summarize(
    times: np.ndarray, active: np.ndarray, step_cap: int, start: int | None = None
) -> HittingEstimate:
    """Estimate from per-replicate step counts; `active` marks the replicates
    still walking at the step cap or stopped short of their goal. Those are
    excluded from the mean, set to step_cap in `times`, and counted as
    censored. Raises CensoredError when every replicate is censored."""
    censored = int(active.sum())
    hits = len(times) - censored
    if hits == 0:
        raise CensoredError()
    sample = times[~active].astype(float)
    times[active] = step_cap
    se = float(sample.std(ddof=1) / math.sqrt(hits)) if hits > 1 else math.inf
    return HittingEstimate(
        mean=float(sample.mean()),
        se=se,
        reps=len(times),
        hits=hits,
        censored=censored,
        step_cap=step_cap,
        samples=times,
        start=start,
        censored_mask=active,
    )


def hitting_time_mc(
    g: Multigraph,
    x: int,
    y: int,
    reps: int,
    step_cap: int,
    rng_seed: int = 0,
) -> HittingEstimate:
    """Monte Carlo estimate of E[tau_x(y)] from `reps` independent walks.

    A target that no path from x reaches raises UnreachableError, and a
    `reps` whose arrays would exceed the address space CapacityError,
    before any walk starts. Censored walks (step cap reached, or stopped on
    entering a vertex from which y cannot be reached) are excluded from
    the mean and reported; if every walk is censored a CensoredError is
    raised. The walkers step in blocks of WALK_BLOCK (`_walk`): the law of
    the samples does not depend on the block length, but the samples drawn
    for a given seed do.
    """
    _check_walkable(g, (x, y), reps=reps, step_cap=step_cap)
    check_addressable(reps, 8, "reps")  # the int64 step count of each walk
    pattern = _pattern(g)
    reach = breadth_first_order(pattern, x, return_predecessors=False)
    if y not in reach:
        raise UnreachableError(f"vertex {y} cannot be reached from vertex {x}")
    # trap[v]: y cannot be reached from v. A trap that x does not reach is
    # never stepped on, so it stops no walk.
    trap = np.ones(g.n, dtype=bool)
    trap[breadth_first_order(pattern.T, y, return_predecessors=False)] = False
    # Per tail: it leads to y; a walker taking it stops (at y or in a trap).
    succ = g.successors()
    at_y = succ == y
    stop = at_y | trap[succ]
    del trap
    times = np.zeros(reps, dtype=np.int64)
    active = np.zeros(reps, dtype=bool)

    def settle(step: int, live: np.ndarray, tails: np.ndarray) -> np.ndarray:
        row = stop[tails].argmax(axis=0)  # first stop in the block, else 0
        tail = tails[row, np.arange(len(live))]
        done, hit = stop[tail], at_y[tail]
        times[live[hit]] = step + 1 + row[hit]
        active[live[done & ~hit]] = True
        return done

    if x != y:
        rng = np.random.default_rng(rng_seed)
        active[_walk(g, np.full(reps, x), step_cap, rng, settle)] = True
    return _summarize(times, active, step_cap)


def cover_time_mc(
    g: Multigraph,
    reps: int,
    step_cap: int,
    rng_seed: int = 0,
    n_starts: int = COVER_STARTS,
) -> HittingEstimate:
    """Estimated cover time of the attractive SCC: worst mean over a sampled
    start set, all steps counted from the start vertex.

    All starts walk together in one walker array, `reps // n_starts` (at
    least 2) walkers per start; a walker count whose arrays would exceed
    the address space raises CapacityError before any walk starts. The
    walkers step in blocks of WALK_BLOCK (`_walk`), and their first visits
    are found once per block: the law of the samples does not depend on the
    block length, but the samples drawn for a given seed do.
    """
    _check_walkable(g, reps=reps, step_cap=step_cap, n_starts=n_starts)
    comp = _walk_class(g)
    rng = np.random.default_rng(rng_seed)
    starts = rng.choice(g.n, size=min(n_starts, g.n), replace=False)
    per_start = max(2, reps // len(starts))
    k = len(comp)
    # stamp[w * (k + 1) + local[v]] is _SEEN once walker w has visited
    # vertex v, and _UNSEEN before. Column k stands for every vertex outside
    # the support; it is _SEEN from the start, so stepping there never
    # counts as a fresh visit.
    local = np.full(g.n, k, dtype=np.int64)
    local[comp] = np.arange(k)
    walkers = len(starts) * per_start
    check_addressable(walkers, max(8, k + 1), "walkers")  # int64 steps, k + 1 stamps
    rows = np.arange(walkers) * (k + 1)
    stamp = np.full(walkers * (k + 1), _UNSEEN, dtype=np.int8)
    stamp[rows + k] = _SEEN
    pos = np.repeat(starts, per_start)
    stamp[rows + local[pos]] = _SEEN
    left = k - (local[pos] < k)
    times = np.zeros(walkers, dtype=np.int64)
    walking = np.flatnonzero(left > 0)
    cell_of = local[g.successors()]  # per tail: column of its head vertex

    def settle(step: int, live: np.ndarray, tails: np.ndarray) -> np.ndarray:
        w = walking[live]
        cells = (rows[w] + cell_of.take(tails)).ravel()
        visits = np.flatnonzero(stamp.take(cells) == _UNSEEN)
        fresh = cells[visits]
        row, col = np.divmod(visits, len(w))
        # Stamp each fresh cell with the block-relative step of its first
        # visit, then keep one (step, walker) entry per fresh cell.
        row = row.astype(np.int8)
        np.minimum.at(stamp, fresh, row)
        first = stamp[fresh] == row
        stamp[fresh] = _SEEN
        row, col = row[first], col[first]
        left[w] -= np.bincount(col, minlength=len(w))
        done = left[w] == 0
        last = np.zeros(len(w), dtype=np.int8)
        np.maximum.at(last, col, row)
        times[w[done]] = step + 1 + last[done].astype(np.int64)
        return done

    active = np.zeros(walkers, dtype=bool)
    active[walking[_walk(g, pos[walking], step_cap, rng, settle)]] = True
    estimates = [
        _summarize(t, a, step_cap, start=int(s))
        for s, t, a in zip(
            starts,
            times.reshape(-1, per_start),
            active.reshape(-1, per_start),
        )
    ]
    return max(estimates, key=lambda est: est.mean)


def matthews_bound(t_hit: float, n_targets: int) -> float:
    """Matthews' cover-time bound H_k * t_hit with H_k the harmonic number."""
    if t_hit < 0 or n_targets < 1:
        raise ValidationError("need t_hit >= 0 and n_targets >= 1")
    harmonic = math.fsum(1.0 / k for k in range(1, n_targets + 1))
    return harmonic * t_hit
