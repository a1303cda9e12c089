"""Marked Galton-Watson simulation: trees, path-weight martingales, and
rare-event estimates for the subcritical-growth tails.

Trees are stored generation-major (flat arrays per generation), so weight
computations are single forward sweeps. A node's weight contribution to its
children is 1 / (its own mark): the generation-t weight sum uses the marks
of generations 0..t-1 along each ancestor path, which is exactly the
convention under which the one-step identity
E[Gamma_{t+1} | first t generations] = E[xi/zeta] * Gamma_t holds with no
independence assumption between a node's offspring count and its mark. The
exact-enumeration tests pin this down.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from ._checks import check_int, check_real, check_seed
from ._threads import thread_map, usable_cores
from .branching import (
    MarkedOffspringLaw,
    OffspringLaw,
    conjugate_offspring,
    offspring_pgf,
    subcritical_chain,
    survival_probability,
)
from .errors import (
    CapacityError,
    DegenerateError,
    TruncationError,
    ValidationError,
)
from .ratefn import FiniteLogLaw, rate_function

# Widest generation simulate_marked_gw materializes; a wider one marks the
# tree truncated.
WIDTH_CAP = 10**6
Z_95 = 1.96  # normal quantile of the two-sided 95% intervals
# Most tree shapes duality_check enumerates before it gives up.
DUALITY_MAX_SHAPES = 10**6
# Thinning strength of the splitting potential Psi(x) = exp(-GUIDE * x) that
# subcritical_tail_experiment steers its populations with.
GUIDE = 0.7
# Independent splitting populations per subcritical_tail_experiment call.
RUNS = 8


@dataclass(frozen=True)
class MarkedTree:
    """Generation-major marked tree: per generation, each node's offspring
    count xi and mark zeta. The children of node j of one generation occupy
    a contiguous block of the next, in node order, so no parent index is
    stored."""

    xi: list[np.ndarray]
    zeta: list[np.ndarray]
    truncated: bool = False

    @property
    def extinct(self) -> bool:
        """No node lies past the materialized generations."""
        return not self.truncated and int(self.xi[-1].sum()) == 0

    @classmethod
    def from_offspring(cls, xi_per_gen, zeta_per_gen) -> "MarkedTree":
        """Build a tree from explicit per-generation (xi, zeta) lists, in
        the canonical layout; each generation must hold exactly as many
        nodes as the offspring counts of the one before it sum to.
        """
        xi = [np.asarray(x, dtype=np.int64) for x in xi_per_gen]
        zeta = [np.asarray(z, dtype=np.int64) for z in zeta_per_gen]
        for g in range(1, len(xi)):
            implied = int(xi[g - 1].sum())
            if implied != len(xi[g]):
                raise ValidationError(
                    f"generation {g} has {len(xi[g])} nodes but parents imply "
                    f"{implied}"
                )
        return cls(xi=xi, zeta=zeta)


@dataclass(frozen=True)
class GammaTrace:
    """Per-generation weight sums Gamma_0..Gamma_t and the per-node weights
    at the queried generation."""

    gamma_by_generation: np.ndarray
    leaf_gammas: np.ndarray

    @property
    def gamma(self) -> float:
        return float(self.gamma_by_generation[-1])


class _LawSampler:
    """Inverse-CDF sampler over the support of a marked law; `draw_index`
    counts the cumulative masses <= each uniform, one pass per atom (faster
    than bisection up to about 50 atoms), and `draw` maps the atom indices to
    their (xi, zeta) pairs.

    Uniforms are drawn DRAW_CHUNK at a time into the smallest unsigned index
    type that holds every atom (uint8 up to 256 atoms), so a draw's transient
    memory is one chunk of doubles plus one small index per node.
    `Generator.random` takes one 64-bit output per double, so the chunks
    concatenate to the stream of a single `rng.random(size)` call."""

    DRAW_CHUNK = 1 << 16

    def __init__(self, eta: MarkedOffspringLaw):
        pairs = eta.support
        self.xi = np.array([k for k, _ in pairs], dtype=np.int64)
        self.zeta = np.array([z for _, z in pairs], dtype=np.int64)
        probs = np.array([eta.pmf[p] for p in pairs])
        self.cum = np.cumsum(probs)
        self.cum[-1] = 1.0
        self.index_dtype = np.min_scalar_type(len(pairs) - 1)

    def draw_index(self, rng: np.random.Generator, size: int) -> np.ndarray:
        idx = np.zeros(size, dtype=self.index_dtype)
        for start in range(0, size, self.DRAW_CHUNK):
            chunk = idx[start:start + self.DRAW_CHUNK]
            u = rng.random(len(chunk))
            for c in self.cum[:-1]:
                chunk += u >= c
        return idx

    def draw(self, rng: np.random.Generator, size: int):
        idx = self.draw_index(rng, size)
        return self.xi[idx], self.zeta[idx]


def simulate_marked_gw(
    eta: MarkedOffspringLaw,
    t_max: int,
    rng_seed: int | np.random.SeedSequence = 0,
) -> MarkedTree:
    """Simulate `t_max` generations of the marked process with offspring law
    `eta`, drawing each node's (xi, zeta) pair by inverse CDF.

    Stops early at extinction; a generation whose size would exceed
    WIDTH_CAP is not materialized and the tree is flagged truncated.
    Identical seeds reproduce identical trees.
    """
    seed = check_seed(rng_seed, "rng_seed")
    if check_int(t_max, "t_max") < 0:
        raise ValidationError(f"need t_max >= 0, got {t_max}")
    rng = np.random.default_rng(seed)
    sampler = _LawSampler(eta)
    xi0, zeta0 = sampler.draw(rng, 1)
    xi = [xi0]
    zeta = [zeta0]
    truncated = False
    for g in range(1, t_max + 1):
        size = int(xi[g - 1].sum())
        if size == 0:
            break
        if size > WIDTH_CAP:
            truncated = True
            break
        xi_g, zeta_g = sampler.draw(rng, size)
        xi.append(xi_g)
        zeta.append(zeta_g)
    # Each generation holds as many nodes as the one before sums to, by
    # construction, and the sampler's arrays are int64 already.
    return MarkedTree(xi=xi, zeta=zeta, truncated=truncated)


def gamma(tree: MarkedTree, t: int) -> GammaTrace:
    """Weight sums Gamma_0..Gamma_t of the tree.

    Each node passes weight (own weight / own mark) to each of its children;
    Gamma_0 = 1. Requesting a generation past a truncated one raises; past
    extinction the weights are zero.
    """
    if t < 0:
        raise ValidationError("generation index must be >= 0")
    materialized = len(tree.xi)
    if t > materialized and not tree.extinct:
        raise TruncationError(
            f"generation {t} not materialized (tree has {materialized}"
            f"{' truncated' if tree.truncated else ''})"
        )
    if t == materialized and tree.truncated:
        raise TruncationError(f"generation {t} exceeded the width cap")
    sums = np.zeros(t + 1)
    weights = np.ones(1)
    sums[0] = 1.0
    for r in range(1, t + 1):
        if r > materialized or len(weights) == 0:
            weights = np.zeros(0)
            break
        weights = np.repeat(weights / tree.zeta[r - 1], tree.xi[r - 1])
        sums[r] = weights.sum()
    return GammaTrace(gamma_by_generation=sums, leaf_gammas=weights)


def truncated_gamma(tree: MarkedTree, t0: int, gamma_floor: float, t: int) -> float:
    """Truncated weight sum: every generation-t0 node restarts at weight
    `gamma_floor`, then marks of generations t0..t-1 apply as usual.

    Whenever all generation-t0 weights are >= gamma_floor, this lower-bounds
    the untruncated Gamma_t. The same one-step martingale identity holds.
    """
    if t < t0:
        raise ValidationError(f"need t >= t0, got t={t} < t0={t0}")
    if t0 < 0:
        raise ValidationError("t0 must be >= 0")
    materialized = len(tree.xi)
    if t > materialized and not tree.extinct:
        raise TruncationError(f"generation {t} not materialized")
    if t0 >= materialized:
        if tree.extinct:
            return 0.0
        raise TruncationError(f"generation {t0} not materialized")
    weights = np.full(len(tree.xi[t0]), gamma_floor)
    for r in range(t0 + 1, t + 1):
        if r > materialized or len(weights) == 0:
            return 0.0
        weights = np.repeat(weights / tree.zeta[r - 1], tree.xi[r - 1])
    return float(weights.sum())


@dataclass(frozen=True)
class DualityReport:
    """Exact comparison of conditioned-on-extinction vs conjugate shape laws."""

    max_abs_diff: float
    conditioned_total: float


def duality_check(xi: OffspringLaw, depth: int) -> DualityReport:
    """Enumerate all tree shapes to `depth` and compare P{shape | extinction}
    under `xi` with P{shape} under the conjugate law.

    Requires a supercritical law (so extinction is a nontrivial event), and
    raises CapacityError past DUALITY_MAX_SHAPES shapes.
    """
    nu = math.fsum(k * p for k, p in xi.items())
    if nu <= 1.0:
        raise DegenerateError(f"duality check needs a supercritical law, mean {nu}")
    if not 1 <= check_int(depth, "depth") <= 3:
        raise ValidationError("depth must be in 1..3 for exact enumeration")
    s = survival_probability(offspring_pgf(xi))
    q = 1.0 - s
    if q <= 0.0:
        raise DegenerateError("extinction has probability 0; nothing to condition on")
    xi_hat = conjugate_offspring(xi, s)
    support = sorted(k for k, p in xi.items() if p > 0.0)

    shapes: list[tuple[float, float, int]] = []  # (P_xi, P_hat, leaves at depth)

    def expand(level: int, p_orig: float, p_hat: float, width: int) -> None:
        if len(shapes) > DUALITY_MAX_SHAPES:
            raise CapacityError(f"more than {DUALITY_MAX_SHAPES} shapes at depth {depth}")
        if level == depth:
            shapes.append((p_orig, p_hat, width))
            return
        # All assignments of offspring counts to the `width` nodes of this
        # generation; order matters (nodes are distinguishable).
        def assign(i: int, po: float, ph: float, children: int) -> None:
            if i == width:
                expand(level + 1, po, ph, children)
                return
            for k in support:
                assign(i + 1, po * xi[k], ph * xi_hat.get(k, 0.0), children + k)

        if width == 0:
            shapes.append((p_orig, p_hat, 0))
            return
        assign(0, p_orig, p_hat, 0)

    expand(0, 1.0, 1.0, 1)
    max_diff = 0.0
    total_cond = 0.0
    for p_orig, p_hat, leaves in shapes:
        conditioned = p_orig * q**leaves / q
        max_diff = max(max_diff, abs(conditioned - p_hat))
        total_cond += conditioned
    return DualityReport(max_abs_diff=max_diff, conditioned_total=total_cond)


@dataclass(frozen=True)
class TailEstimate:
    """Rare-event estimate for one (t, a) cell of the subcritical tails."""

    t: int
    a: float
    reps: int
    successes: int
    p_hat: float
    ci_lo: float
    ci_hi: float
    rate_hat: float
    rate_theory: float


def wilson_interval(successes: int, n: int) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion; safe at 0 successes."""
    if n <= 0:
        return (0.0, 1.0)
    phat, z2 = successes / n, Z_95 * Z_95
    denom = 1.0 + z2 / n
    center = (phat + z2 / (2 * n)) / denom
    half = Z_95 * math.sqrt(phat * (1.0 - phat) / n + z2 / (4 * n * n)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def tail_rate_theory(eta: MarkedOffspringLaw, a: float) -> float:
    """Analytic decay rate |log nu_hat| + I(a * H_hat) for the law `eta`."""
    chain = subcritical_chain(eta)
    if chain.tilde is None:
        raise DegenerateError("nu_hat = 0: no single-survivor law")
    law = FiniteLogLaw.from_marked_law(chain.tilde)
    return abs(math.log(chain.nu_hat)) + rate_function(law, a * chain.H_hat)


# Populations of the last tail experiment and the generation they reached,
# under the key of every argument their trajectory depends on (t and a set
# only the threshold and the theory rate). One entry at most; a caller takes
# it with `pop` under the lock, so no two threads advance one Generator.
_CHECKPOINT: dict[tuple, tuple[int, list[_SplittingPopulation]]] = {}
_CHECKPOINT_LOCK = threading.Lock()


def subcritical_tail_experiment(
    eta: MarkedOffspringLaw,
    t: int,
    a: float,
    omega: int,
    reps: int,
    rng_seed: int = 0,
    event: str = "lb",
) -> TailEstimate:
    """Estimate the probability of the thin-growth events at generation t.

    event "lb": P{0 < Gamma_t < e^(-a H t), 0 < X_r < omega for all r <= t};
    event "ub": P{some leaf weight < e^(-a H t), 0 < X_t < omega}.

    These probabilities decay like e^(-(|log nu_hat| + I(aH)) t), far below
    what vanilla Monte Carlo resolves at t ~ 30, so the estimator uses
    guided splitting (`_SplittingPopulation`, with guide GUIDE): `reps` root
    trajectories split across RUNS independent populations, each
    systematically resampled every generation among the replicas within the
    width cap. The populations advance concurrently, one thread per CPU this
    process may use (at most RUNS; inline with one CPU), and each draws
    only from its own Generator, so the output bits do not depend on the
    core count. For the "ub" event, which does not constrain intermediate
    widths, trajectories are still capped at 8 * omega nodes per generation.

    Resume contract: the populations' trajectory does not depend on t or a.
    The populations of the last call are kept at the generation it reached,
    and a call that differs from it only in t or a, with t at least that
    generation, resumes them instead of replaying those generations; a
    smaller t starts cold. A ladder in increasing t therefore simulates
    max(t) generations per population, not their sum. The output is
    bit-identical to a cold call either way. The kept state is about 14
    bytes per replica; a call with any other argument replaces it.

    The interval (ci_lo, ci_hi) is p_hat +- Z_95 standard errors across the
    runs. With no successes, ci_lo = 0 and ci_hi is the Wilson upper bound.
    """
    seed = check_seed(rng_seed, "rng_seed")
    if eta.mean_offspring() <= 1.0:
        raise DegenerateError("tail experiment needs a supercritical law")
    if not eta.marks_at_least_two:
        raise ValidationError("tail experiment needs marks >= 2")
    for name, value in (("t", t), ("omega", omega), ("reps", reps)):
        check_int(value, name)
    check_real(a, "a")
    if not math.isfinite(a) or a < 1.0 or t < 1 or omega < 2 or reps < RUNS:
        raise ValidationError(
            f"need a finite a >= 1, t >= 1, omega >= 2, reps >= {RUNS}"
        )
    if event not in ("lb", "ub"):
        raise ValidationError(f"unknown event {event!r}")

    h_hat = subcritical_chain(eta).H_hat
    gamma_threshold = math.exp(-a * h_hat * t)
    rate_theory = tail_rate_theory(eta, a)

    kill_width = omega if event == "lb" else max(8 * omega, 64)
    sampler = _LawSampler(eta)
    # The key reads the copy's state before spawning advances its counter;
    # the caller's object is never advanced, so a repeated call resumes.
    seed_key = repr(seed.state)
    seeds = seed.spawn(RUNS)
    n_per_run = max(2, reps // RUNS)

    key = (tuple(sorted(eta.pmf.items())), omega, event, reps, seed_key)
    with _CHECKPOINT_LOCK:
        done, pops = _CHECKPOINT.pop(key, (0, []))
        _CHECKPOINT.clear()
    if done > t:  # a Generator cannot rewind
        done, pops = 0, []
    if not pops:
        pops = [None] * RUNS

    def run(i: int) -> tuple[float, int]:
        if pops[i] is None:
            pops[i] = _SplittingPopulation(
                sampler, np.random.default_rng(seeds[i]), n_per_run, kill_width, GUIDE
            )
        pops[i].advance(t - done)
        return pops[i].estimate(gamma_threshold, omega, event)

    # Each run reads only its own Generator and the read-only sampler, and
    # numpy releases the GIL in the loops that advance it; the results come
    # back in run order, so the output does not depend on the worker count.
    with thread_map(min(RUNS, usable_cores())) as each:
        results = list(each(run, range(RUNS)))
    run_estimates = [p_run for p_run, _ in results]
    total_successes = sum(succ for _, succ in results)
    with _CHECKPOINT_LOCK:
        _CHECKPOINT.clear()
        _CHECKPOINT[key] = (t, pops)

    p_hat = float(np.mean(run_estimates))
    if total_successes == 0 or p_hat == 0.0:
        ci_lo = 0.0
        ci_hi = wilson_interval(0, reps)[1]
        p_hat = 0.0
        rate_hat = math.inf
    else:
        rate_hat = -math.log(p_hat) / t
        se = float(np.std(run_estimates, ddof=1)) / math.sqrt(RUNS)
        ci_lo = max(0.0, p_hat - Z_95 * se)
        ci_hi = p_hat + Z_95 * se
    return TailEstimate(
        t=t,
        a=a,
        reps=reps,
        successes=total_successes,
        p_hat=p_hat,
        ci_lo=ci_lo,
        ci_hi=ci_hi,
        rate_hat=rate_hat,
        rate_theory=rate_theory,
    )


class _SplittingPopulation:
    """One guided-splitting population, advanced generation by generation.

    Incremental weights u_r = 1{0 < X_r < kill_width} * Psi(X_r)/Psi(X_r-1)
    with the thinning potential Psi(x) = exp(-guide * x); the population is
    systematically resampled proportional to u_r every generation, and the
    estimator Psi(1) * prod_r mean(u_r) * mean(1{event} / Psi(X_t)) is the
    standard unbiased Feynman-Kac normalizing estimate of the target
    probability. The potential steers the ensemble toward the near-collapse
    trajectories that dominate the event; it cancels exactly, so its choice
    affects variance only.

    The state after a generation is all that later generations read: the
    Generator, `log_factor` (log of Psi(1) * prod_r mean(u_r)) and the
    shared-block arrays. `block` holds the node weights of each distinct
    replica once, back to back: block b has block_sizes[b] >= 1 nodes,
    starts at the sum of the sizes before it and is shared by counts[b]
    consecutive clones, which point at it instead of copying it. A
    population whose every replica dies out drops its arrays and estimates
    (0.0, 0) from then on.

    A population touches no state but its own and the read-only sampler,
    so distinct populations may advance in distinct threads.
    """

    def __init__(
        self,
        sampler: _LawSampler,
        rng: np.random.Generator,
        n_replicas: int,
        kill_width: int,
        guide: float,
    ):
        self.sampler = sampler
        self.rng = rng
        self.kill_width = kill_width
        self.guide = guide
        self.block = np.ones(n_replicas)
        self.block_sizes = np.ones(n_replicas, dtype=np.int64)
        self.counts = np.ones(n_replicas, dtype=np.int64)
        self.log_factor = -guide  # Psi(X_0) with X_0 = 1
        self.dead = False

    def advance(self, steps: int) -> None:
        """Run `steps` more generations.

        Each generation draws every node's atom, sums offspring counts into
        per-replica widths and resamples before any child weight exists;
        child weights are then built only for the kept replicas. Replica r
        of the generation draws for nodes bounds[r] to bounds[r + 1] - 1.
        Every temporary is dropped as soon as it is dead, and the gather
        indices are int32 while the generation has fewer than 2^31 nodes.
        """
        if self.dead:
            return
        sampler = self.sampler
        for _ in range(steps):
            sizes = np.repeat(self.block_sizes, self.counts)
            bounds = np.concatenate(([0], np.cumsum(sizes)))
            atom = sampler.draw_index(self.rng, int(bounds[-1]))
            # A width is at most its replica's size times the largest
            # offspring count, so the per-node gather and its sums run in the
            # narrowest dtype that holds that bound, not in int64.
            top = np.min_scalar_type(int(self.block_sizes.max()) * int(sampler.xi.max()))
            widths = np.add.reduceat(sampler.xi.astype(top)[atom], bounds[:-1], dtype=top)
            widths = widths.astype(np.int64)
            u = np.where(
                (widths > 0) & (widths < self.kill_width),
                np.exp(-self.guide * (widths - sizes)),
                0.0,
            )
            u_total = float(u.sum())
            if u_total <= 0.0:
                self.dead = True
                self.block = self.block_sizes = self.counts = None
                return
            self.log_factor += math.log(u_total / len(u))
            clones = _systematic_clones(u, self.rng.random())
            del u
            # Only the kept replicas' nodes have children that survive: gather
            # their draw positions and their (shared) block positions.
            index = np.int32 if bounds[-1] < 2**31 else np.int64
            kept = np.flatnonzero(clones)
            kept_sizes = sizes[kept]
            del sizes
            kept_starts = np.cumsum(kept_sizes) - kept_sizes
            local = np.arange(kept_starts[-1] + kept_sizes[-1], dtype=index)
            pos = local + np.repeat((bounds[kept] - kept_starts).astype(index), kept_sizes)
            del bounds
            atom = atom[pos]
            del pos
            offsets = np.cumsum(self.block_sizes) - self.block_sizes
            base = np.repeat(offsets, self.counts)[kept]
            del offsets
            src = local + np.repeat((base - kept_starts).astype(index), kept_sizes)
            del local, base, kept_starts, kept_sizes
            weights = self.block[src]
            self.block = None
            del src
            weights /= sampler.zeta[atom]
            self.block = np.repeat(weights, sampler.xi[atom])
            del weights, atom
            self.block_sizes = widths[kept]
            self.counts = clones[kept]
            del widths, clones, kept

    def estimate(
        self, gamma_threshold: float, omega: int, event: str
    ) -> tuple[float, int]:
        """(estimate, successes) of `event` at the current generation; draws
        nothing. The weight sums ("lb") or minima ("ub") are taken once per
        block and repeated per clone; a block holds the values, in the
        order, a per-clone copy would, so they match it to the bit."""
        if self.dead:
            return 0.0, 0
        sizes = np.repeat(self.block_sizes, self.counts)
        offsets = np.cumsum(self.block_sizes) - self.block_sizes
        if event == "lb":
            gamma_per = np.repeat(np.add.reduceat(self.block, offsets), self.counts)
            success = (gamma_per > 0.0) & (gamma_per < gamma_threshold)
        else:
            min_w = np.repeat(np.minimum.reduceat(self.block, offsets), self.counts)
            success = (sizes < omega) & (min_w < gamma_threshold)
        succ = int(success.sum())
        correction = float(np.where(success, np.exp(self.guide * sizes), 0.0).mean())
        return math.exp(self.log_factor) * correction, succ


def _systematic_clones(u: np.ndarray, uniform: float) -> np.ndarray:
    """Systematic resampling (Douc, Cappe & Moulines 2005): with c = cumsum(u)
    / sum(u) (u >= 0, c_(R-1) = 1 exactly), replica r gets floor(R c_r + U) -
    floor(R c_(r-1) + U) clones, none at zero weight, R in all (edges <= R).
    The edges are formed in place, in that order of operations."""
    edges = np.cumsum(u)
    edges /= edges[-1]
    edges *= len(u)
    edges += uniform
    np.floor(edges, out=edges)
    np.minimum(edges, len(u), out=edges)
    return np.diff(edges, prepend=0.0).astype(np.int64)


def fit_decay_rate(ts, p_hats) -> tuple[float, float]:
    """Least-squares slope of -log p against t, dropping the smallest t.

    Returns (rate, standard error); NaNs when fewer than two distinct t
    remain, and a NaN standard error when only two points remain.
    """
    pts = sorted(
        (t, p) for t, p in zip(ts, p_hats) if p > 0.0 and math.isfinite(p)
    )
    if len(pts) >= 3:
        pts = pts[1:]
    return least_squares_slope([t for t, _ in pts], [-math.log(p) for _, p in pts])


def least_squares_slope(xs, ys) -> tuple[float, float]:
    """Ordinary least-squares slope of ys against xs and its standard error:
    NaNs with fewer than two distinct xs, a NaN error with two points."""
    x = np.array(xs, dtype=float)
    y = np.array(ys, dtype=float)
    if len(np.unique(x)) < 2:
        return (math.nan, math.nan)
    xbar, ybar = x.mean(), y.mean()
    sxx = ((x - xbar) ** 2).sum()
    slope = ((x - xbar) * (y - ybar)).sum() / sxx
    resid = y - (ybar + slope * (x - xbar))
    dof = len(x) - 2
    se = math.sqrt((resid**2).sum() / dof / sxx) if dof > 0 else math.nan
    return (float(slope), float(se))
