"""Stationary distributions, extremal values, hitting and cover times.

The stationary vector is computed by power iteration on the lazy kernel
(I + P)/2 restricted to the attractive SCC (the lazy kernel has the same
stationary vector and no periodicity obstruction), with a direct dense
solve as a cross-check on small graphs. Support is structural (SCC
membership), never a numeric threshold on pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import breadth_first_order

from .errors import (
    CensoredError,
    NonUniqueError,
    NumericalError,
    UnreachableError,
    ValidationError,
)
from .graph import Multigraph, attractive_scc, closed_classes

POWER_TOL = 1e-12
ACCEPT_RESIDUAL = 1e-10
MAX_POWER_ITER = 10**6
CROSS_CHECK_MAX_N = 2000
HITTING_MATRIX_MAX_K = 2500
# Fewest targets for which one dense fundamental-matrix solve beats a sparse
# solve per target. On sampled graphs with in/out-degrees 3-4 and k = 100 to
# 2000 support vertices, the dense solve cost as much as 0.3 to 2.9 sparse
# solves (LU fill-in makes each sparse solve nearly dense).
HITTING_MATRIX_MIN_TARGETS = 3


@dataclass(frozen=True)
class StationaryResult:
    """Stationary vector with structural support and diagnostics.
    `pi_min_rel_residual` = |(pi P)_v - pi_v| / pi_v at v = argmin pi
    certifies `pi_min` relatively, where the L1 `residual` cannot."""

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
    """Exact maximal hitting time plus cover-time estimate and Matthews bound."""

    targets: np.ndarray
    hitting: np.ndarray  # shape (len(targets), n); hitting[j, x] = E[tau_x(y_j)]
    t_hit: float
    t_cov: HittingEstimate
    matthews_upper: float

    def hitting_time(self, x: int, y: int) -> float:
        j = int(np.searchsorted(self.targets, y))
        if j >= len(self.targets) or self.targets[j] != y:
            raise ValidationError(f"{y} is not one of the solved targets")
        return float(self.hitting[j, x])


def transition_matrix(g: Multigraph) -> sp.csr_matrix:
    """Row-stochastic transition matrix of the simple random walk: the
    graph's shared, read-only canonical CSR (`Multigraph.csr`)."""
    if np.any(g.d_out == 0):
        raise NonUniqueError("vertex with out-degree 0: walk transitions undefined")
    return g.csr


def stationary_distribution(
    g: Multigraph,
    tol: float = POWER_TOL,
    max_iter: int = MAX_POWER_ITER,
    cross_check: bool | None = None,
) -> StationaryResult:
    """Stationary distribution of the walk, supported on the attractive SCC.

    Power iteration runs on the lazy kernel until the plain-kernel residual
    ||pi P - pi||_1 drops below `tol`. For graphs with at most 2000 vertices
    (or when cross_check=True), a dense singular-system solve verifies the
    result to 1e-10 in sup norm.
    """
    comp = attractive_scc(g)
    if comp is None:
        raise NonUniqueError()
    if np.any(g.d_out[comp] == 0):
        raise NonUniqueError("attractive component contains a sink vertex")
    k = len(comp)
    p_sub = g.csr
    if k < g.n:
        p_sub = p_sub[comp][:, comp]
        if p_sub.nnz != np.diff(g.csr.indptr)[comp].sum():
            raise NumericalError("attractive component has an outgoing edge")
    pi = np.full(k, 1.0 / k)
    gap = np.empty(k)
    residual = math.inf
    iterations = 0
    for iterations in range(1, max_iter + 1):
        image = pi @ p_sub
        residual = float(np.abs(np.subtract(image, pi, out=gap), out=gap).sum())
        if residual < tol:
            break
        # pi <- (pi + image) / 2, normalised: the lazy step, in place.
        np.add(pi, image, out=pi)
        pi *= 0.5
        pi /= pi.sum()
    else:
        raise NumericalError("power iteration did not converge", residual=residual)
    v = int(np.argmin(pi))  # gap holds |pi P - pi| for this pi
    pi_min_rel_residual = float(gap[v] / pi[v])

    linf = None
    if cross_check or (cross_check is None and g.n <= CROSS_CHECK_MAX_N):
        direct = _direct_stationary(p_sub)
        linf = float(np.max(np.abs(direct - pi)))
        if linf > ACCEPT_RESIDUAL:
            raise NumericalError(
                "power iteration and direct solve disagree", residual=linf
            )
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


def _direct_stationary(p_sub: sp.csr_matrix) -> np.ndarray:
    """Least-squares solve of pi P = pi, sum(pi) = 1 on a dense copy."""
    k = p_sub.shape[0]
    a = np.vstack([p_sub.toarray().T - np.eye(k), np.ones((1, k))])
    b = np.zeros(k + 1)
    b[-1] = 1.0
    sol, *_ = np.linalg.lstsq(a, b, rcond=None)
    return sol


def head_stationary(g: Multigraph, result: StationaryResult) -> np.ndarray:
    """Stationary vector of the walk on heads: pi_e(f) = pi(z) / d_out(z),
    where z is the vertex whose tail is paired with head f.

    Verifies that the head masses of each vertex sum back to pi within 1e-12.
    """
    inv = g.inverse_match
    z = g.tail_vertex[inv]
    pi_e = result.pi[z] / g.d_out[z]
    sums = np.bincount(g.head_vertex, weights=pi_e, minlength=g.n)
    gap = float(np.max(np.abs(sums - result.pi)))
    if gap > 1e-12:
        raise NumericalError("head stationary masses do not aggregate", residual=gap)
    return pi_e


def extremal_values(result: StationaryResult) -> tuple[float, float, int, int]:
    """(pi_min, pi_max, argmin vertex, argmax vertex) over the structural
    support; ties break toward the smallest vertex id."""
    if len(result.support) == 0:
        raise NonUniqueError("empty support")
    sub = result.pi[result.support]
    i_min = int(np.argmin(sub))
    i_max = int(np.argmax(sub))
    return (
        float(sub[i_min]),
        float(sub[i_max]),
        int(result.support[i_min]),
        int(result.support[i_max]),
    )


def empirical_tail(result: StationaryResult, alpha: float) -> float:
    """psi((0, n^-alpha]) = fraction of vertices with 0 < pi <= n^-(1+alpha)."""
    if alpha < 0:
        raise ValidationError(f"alpha must be >= 0, got {alpha}")
    n = result.n
    threshold = n ** -(1.0 + alpha)
    sub = result.pi[result.support]
    return float((sub <= threshold).sum()) / n


class _HittingSolver:
    """Per-target sparse solves of E[tau_x(y)], for targets that the
    fundamental matrix does not cover (single or off-support targets)."""

    def __init__(self, g: Multigraph):
        self.n = g.n
        self.p = transition_matrix(g)
        # sink_of[v]: label of the closed class holding v, or -1 for a
        # transient vertex.
        labels, closed = closed_classes(g)
        self.sink_of = np.where(closed[labels], labels, -1)
        # Column v of P lists the predecessors of v, for reverse reachability.
        self.pred = self.p.tocsc()

    def solve(self, y: int) -> np.ndarray:
        """E[tau_x(y)] for all x; +inf where y is not hit with probability 1."""
        # States that can reach a closed class other than y's without
        # stepping on y first have hitting probability < 1, hence infinite
        # expectation.
        sink = self.sink_of
        blocked = (sink >= 0) & (sink != sink[y])
        stack = np.flatnonzero(blocked).tolist()
        while stack:
            v = stack.pop()
            for u in self.pred.indices[self.pred.indptr[v] : self.pred.indptr[v + 1]]:
                if not blocked[u] and u != y:
                    blocked[u] = True
                    stack.append(int(u))
        finite = ~blocked
        finite[y] = True
        h = np.full(self.n, np.inf)
        h[y] = 0.0
        others = np.nonzero(finite & (np.arange(self.n) != y))[0]
        if len(others) == 0:
            return h
        sub = self.p[others][:, others]
        ident = sp.identity(len(others), format="csr")
        rhs = np.ones(len(others))
        sol = spla.spsolve((ident - sub).tocsc(), rhs)
        h[others] = sol
        return h


def _check_vertices(g: Multigraph, vertices, what: str) -> np.ndarray:
    """`vertices` as a flat int64 array, after checking each is in 0..n-1."""
    v = np.asarray(vertices, dtype=np.int64).reshape(-1)
    if np.any((v < 0) | (v >= g.n)):
        raise ValidationError(f"{what} outside 0..{g.n - 1}")
    return v


def hitting_times_exact(g: Multigraph, y: int) -> np.ndarray:
    """Expected steps to hit y from every vertex, by a sparse linear solve.

    States that fail to hit y with probability 1 (they can drain into a
    closed class avoiding y) are reported as +inf.
    """
    if g.n > 5000:
        raise ValidationError("exact hitting times budgeted for n <= 5000")
    if not 0 <= y < g.n:
        raise ValidationError(f"target {y} outside 0..{g.n - 1}")
    return _HittingSolver(g).solve(y)


def return_time_exact(g: Multigraph, x: int) -> float:
    """Expected return time E[tau+_x] = 1 + mean over out-edges of E[tau_dst(x)]."""
    return float(return_times_exact(g, [x])[0])


def return_times_exact(g: Multigraph, vertices) -> np.ndarray:
    """Expected return times E[tau+_x] for many vertices x.

    The hitting times come from one fundamental-matrix solve when every
    vertex is in the attractive SCC, else from one sparse solve per vertex.
    """
    xs = _check_vertices(g, vertices, "vertex")
    if len(xs) == 0:
        return np.empty(0)
    times = _target_times(g, attractive_scc(g), xs)
    # Out-edges of each x, owner[j] = position in xs of the tail of edges[j].
    deg = g.d_out[xs]
    owner = np.repeat(np.arange(len(xs)), deg)
    first = np.cumsum(deg) - deg
    edges = np.repeat(g.tail_ptr[xs] - first, deg) + np.arange(len(owner))
    steps = times[owner, g.successors()[edges]]
    return 1.0 + np.bincount(owner, weights=steps, minlength=len(xs)) / deg


def _target_times(
    g: Multigraph, comp: np.ndarray | None, targets: np.ndarray
) -> np.ndarray:
    """E[tau_x(y)] with one row per target y and one column per vertex x.

    At least HITTING_MATRIX_MIN_TARGETS targets inside an attractive SCC of
    at most HITTING_MATRIX_MAX_K vertices share one fundamental-matrix
    solve; any other request falls back to a sparse solve per target.
    """
    if (
        comp is not None
        and len(targets) >= HITTING_MATRIX_MIN_TARGETS
        and len(comp) <= HITTING_MATRIX_MAX_K
        and np.isin(targets, comp).all()
    ):
        h = _hitting_matrix(g, comp)
        if np.array_equal(targets, comp):
            return h.T
        return h[:, np.searchsorted(comp, targets)].T
    solver = _HittingSolver(g)
    return np.vstack([solver.solve(int(y)) for y in targets])


def hitting_matrix(g: Multigraph) -> tuple[np.ndarray, np.ndarray]:
    """All expected hitting times onto the attractive SCC in one pass.

    Returns (targets, H) with targets the support vertices and H of shape
    (n, len(targets)): H[x, j] = E[tau_x(targets[j])]. Inside the support
    the times come from G = (I - P + 1 u)^(-1) with u the uniform row
    (Kemeny & Snell): pi = u G, the column means of G, and
    m(x, y) = (G[y, y] - G[x, y]) / pi(y). Transient starts add their entry
    time and entry distribution into the support. Much faster than a linear
    solve per target; the per-target solver cross-checks it in the tests.
    """
    comp = attractive_scc(g)
    if comp is None:
        raise NonUniqueError()
    if len(comp) > HITTING_MATRIX_MAX_K:
        raise ValidationError(
            f"hitting_matrix budgeted for supports up to {HITTING_MATRIX_MAX_K}"
        )
    return comp, _hitting_matrix(g, comp)


def _hitting_matrix(g: Multigraph, comp: np.ndarray) -> np.ndarray:
    """H of `hitting_matrix` for the attractive SCC `comp`."""
    p = transition_matrix(g)
    k = len(comp)
    # I - P + 1 u, built in place on the dense restriction of P.
    a = p[comp][:, comp].toarray()
    np.negative(a, out=a)
    a.flat[:: k + 1] += 1.0
    a += 1.0 / k
    z = np.linalg.inv(a)
    del a
    pi = z.mean(axis=0)
    np.subtract(z.diagonal().copy(), z, out=z)
    z /= pi
    if k == g.n:
        return z
    transient = np.setdiff1d(np.arange(g.n), comp)
    h = np.empty((g.n, k))
    h[comp] = z
    t_rows = p[transient]
    lu = spla.splu((sp.identity(len(transient), format="csc")
                    - t_rows[:, transient]).tocsc())
    entry_steps = lu.solve(np.ones(len(transient)))
    entry_dist = lu.solve(t_rows[:, comp].toarray())
    h[transient] = entry_steps[:, None] + entry_dist @ z
    return h


def walk_times_exact(
    g: Multigraph,
    targets: np.ndarray | None = None,
    cover_reps: int = 200,
    step_cap: int | None = None,
    rng_seed: int = 0,
) -> WalkTimes:
    """Exact maximal hitting time over the given targets (default: the whole
    attractive SCC), a Monte Carlo cover-time estimate, and Matthews' bound."""
    comp = attractive_scc(g)
    if comp is None:
        raise NonUniqueError()
    if targets is None:
        targets = comp
    targets = np.sort(_check_vertices(g, targets, "target"))
    if len(targets) == 0:
        raise ValidationError("need at least one target")
    hitting = _target_times(g, comp, targets)
    t_hit = float(hitting[np.isfinite(hitting)].max())
    bound = matthews_bound(t_hit, len(comp))
    if step_cap is None:
        step_cap = max(10_000, int(50 * bound))
    cov = cover_time_mc(g, reps=cover_reps, step_cap=step_cap, rng_seed=rng_seed)
    return WalkTimes(
        targets=targets,
        hitting=hitting,
        t_hit=t_hit,
        t_cov=cov,
        matthews_upper=bound,
    )


def _check_walkable(g: Multigraph, reps: int, *vertices: int) -> None:
    """Walkers need at least one replicate, every given vertex in 0..n-1,
    and an out-edge at every vertex they may reach."""
    if reps < 1:
        raise ValidationError(f"reps must be >= 1, got {reps}")
    for v in vertices:
        if not 0 <= v < g.n:
            raise ValidationError(f"vertex {v} outside 0..{g.n - 1}")
    if np.any(g.d_out == 0):
        raise NonUniqueError("vertex with out-degree 0: walk transitions undefined")


def _advance(
    g: Multigraph, succ: np.ndarray, pos: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """One uniform out-edge step (multiplicity-weighted) for each walker."""
    return succ[g.tail_ptr[pos] + rng.integers(0, g.d_out[pos])]


def _summarize(
    times: np.ndarray, active: np.ndarray, step_cap: int, start: int | None = None
) -> HittingEstimate:
    """Estimate from per-replicate step counts; `active` marks the replicates
    still walking at the step cap. Those are excluded from the mean, set to
    step_cap in `times`, and counted as censored. Raises CensoredError when
    every replicate is censored."""
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

    A target that no path from x reaches raises UnreachableError before
    any walk starts. Censored walks (step cap reached) are excluded from
    the mean and reported; if every walk is censored a CensoredError is
    raised.
    """
    _check_walkable(g, reps, x, y)
    if y not in breadth_first_order(g.csr, x, return_predecessors=False):
        raise UnreachableError(f"vertex {y} cannot be reached from vertex {x}")
    succ = g.successors()
    rng = np.random.default_rng(rng_seed)
    times = np.zeros(reps, dtype=np.int64)
    # Walkers still on their way, in replicate order, and their positions.
    live = np.arange(reps) if x != y else np.zeros(0, dtype=np.int64)
    pos = np.full(len(live), x, dtype=np.int64)
    step = 0
    while len(live) and step < step_cap:
        step += 1
        pos = _advance(g, succ, pos, rng)
        arrived = pos == y
        if arrived.any():
            times[live[arrived]] = step
            keep = ~arrived
            live, pos = live[keep], pos[keep]
    active = np.zeros(reps, dtype=bool)
    active[live] = True
    return _summarize(times, active, step_cap)


def cover_time_mc(
    g: Multigraph,
    reps: int,
    step_cap: int,
    rng_seed: int = 0,
    n_starts: int = 10,
) -> HittingEstimate:
    """Estimated cover time of the attractive SCC: worst mean over a sampled
    start set, all steps counted from the start vertex.

    All starts walk together in one walker array, `reps // n_starts` (at
    least 2) walkers per start.
    """
    _check_walkable(g, reps)
    if n_starts < 1:
        raise ValidationError(f"n_starts must be >= 1, got {n_starts}")
    succ = g.successors()
    comp = attractive_scc(g)
    if comp is None:
        raise NonUniqueError()
    rng = np.random.default_rng(rng_seed)
    starts = rng.choice(g.n, size=min(n_starts, g.n), replace=False)
    per_start = max(2, reps // len(starts))
    k = len(comp)
    # seen[w, local[v]] marks vertex v as visited by walker w. Column k
    # stands for every vertex outside the support; it is marked from the
    # start, so stepping there never counts as a fresh visit.
    local = np.full(g.n, k, dtype=np.int64)
    local[comp] = np.arange(k)
    walkers = len(starts) * per_start
    rows = np.arange(walkers) * (k + 1)
    seen = np.zeros(walkers * (k + 1), dtype=bool)
    seen[rows + k] = True
    pos = np.repeat(starts, per_start)
    seen[rows + local[pos]] = True
    left = k - (local[pos] < k)
    times = np.zeros(walkers, dtype=np.int64)
    live = np.flatnonzero(left > 0)
    pos, rows, left = pos[live], rows[live], left[live]
    step = 0
    while len(live) and step < step_cap:
        step += 1
        pos = _advance(g, succ, pos, rng)
        cells = rows + local[pos]
        fresh = ~seen[cells]
        if fresh.any():
            seen[cells] = True
            left -= fresh
            done = left == 0
            if done.any():
                times[live[done]] = step
                keep = ~done
                live, pos, rows, left = live[keep], pos[keep], rows[keep], left[keep]
    active = np.zeros(walkers, dtype=bool)
    active[live] = True
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
