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
from dataclasses import dataclass, field

import numpy as np

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

DEFAULT_WIDTH_CAP = 10**6


@dataclass(frozen=True)
class MarkedTree:
    """Generation-major marked tree: per generation, each node's parent index
    in the previous generation, offspring count xi, and mark zeta."""

    parent: list[np.ndarray]
    xi: list[np.ndarray]
    zeta: list[np.ndarray]
    truncated: bool = False

    @property
    def depth(self) -> int:
        """Index of the last materialized generation."""
        return len(self.xi) - 1

    @property
    def generation_sizes(self) -> tuple[int, ...]:
        return tuple(len(x) for x in self.xi)

    @property
    def next_generation_size(self) -> int:
        """Size of the first generation past the materialized ones."""
        return int(self.xi[-1].sum())

    @property
    def extinct(self) -> bool:
        return not self.truncated and self.next_generation_size == 0

    @classmethod
    def from_offspring(cls, xi_per_gen, zeta_per_gen, truncated=False) -> "MarkedTree":
        """Build a tree from explicit per-generation (xi, zeta) lists.

        Parents follow the canonical layout: children of node j in one
        generation occupy a contiguous block of the next.
        """
        xi = [np.asarray(x, dtype=np.int64) for x in xi_per_gen]
        zeta = [np.asarray(z, dtype=np.int64) for z in zeta_per_gen]
        parent = [np.array([-1], dtype=np.int64)]
        for g in range(1, len(xi)):
            parent.append(np.repeat(np.arange(len(xi[g - 1])), xi[g - 1]))
            if len(parent[g]) != len(xi[g]):
                raise ValidationError(
                    f"generation {g} has {len(xi[g])} nodes but parents imply "
                    f"{len(parent[g])}"
                )
        return cls(parent=parent, xi=xi, zeta=zeta, truncated=truncated)


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
    """Inverse-CDF sampler over the support of a marked law."""

    def __init__(self, eta: MarkedOffspringLaw):
        pairs = eta.support
        self.xi = np.array([k for k, _ in pairs], dtype=np.int64)
        self.zeta = np.array([z for _, z in pairs], dtype=np.int64)
        probs = np.array([eta.pmf[p] for p in pairs])
        self.cum = np.cumsum(probs)
        self.cum[-1] = 1.0

    def draw(self, rng: np.random.Generator, size: int):
        idx = np.searchsorted(self.cum, rng.random(size), side="right")
        idx = np.minimum(idx, len(self.cum) - 1)
        return self.xi[idx], self.zeta[idx]


def simulate_marked_gw(
    eta: MarkedOffspringLaw,
    t_max: int,
    width_cap: int = DEFAULT_WIDTH_CAP,
    rng_seed: int | np.random.SeedSequence = 0,
) -> MarkedTree:
    """Simulate `t_max` generations of the marked process with offspring law
    `eta`, drawing each node's (xi, zeta) pair by inverse CDF.

    Stops early at extinction; a generation whose size would exceed
    `width_cap` is not materialized and the tree is flagged truncated.
    Identical seeds reproduce identical trees.
    """
    if t_max < 0 or width_cap < 1:
        raise ValidationError("need t_max >= 0 and width_cap >= 1")
    rng = np.random.default_rng(rng_seed)
    sampler = _LawSampler(eta)
    xi0, zeta0 = sampler.draw(rng, 1)
    parent = [np.array([-1], dtype=np.int64)]
    xi = [xi0]
    zeta = [zeta0]
    truncated = False
    for g in range(1, t_max + 1):
        size = int(xi[g - 1].sum())
        if size == 0:
            break
        if size > width_cap:
            truncated = True
            break
        parent.append(np.repeat(np.arange(len(xi[g - 1])), xi[g - 1]))
        xi_g, zeta_g = sampler.draw(rng, size)
        xi.append(xi_g)
        zeta.append(zeta_g)
    return MarkedTree(parent=parent, xi=xi, zeta=zeta, truncated=truncated)


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


def perturb_down(eta: MarkedOffspringLaw, beta: float, n: int) -> MarkedOffspringLaw:
    """Remove atoms with mass below n^(beta-1) and renormalize."""
    _check_beta(beta, n)
    threshold = n ** (beta - 1.0)
    kept = {pair: p for pair, p in eta.pmf.items() if p >= threshold}
    if not kept:
        raise DegenerateError(f"every atom is below the threshold {threshold:.3e}")
    mass = math.fsum(kept.values())
    return MarkedOffspringLaw({pair: p / mass for pair, p in kept.items()})


def perturb_up(eta: MarkedOffspringLaw, beta: float, n: int) -> MarkedOffspringLaw:
    """Scale the law down slightly and park mass n^(beta-1) at offspring 0.

    The added atom sits at (0, min mark); a childless node's mark never
    enters any weight product, so the mark slot is immaterial.
    """
    _check_beta(beta, n)
    added = n ** (beta - 1.0)
    if added >= 1.0:
        raise DegenerateError(f"perturbation mass {added} >= 1")
    c_up = 1.0 - added
    out = {pair: c_up * p for pair, p in eta.pmf.items()}
    zero_pair = (0, min(z for _, z in eta.pmf))
    out[zero_pair] = out.get(zero_pair, 0.0) + added
    return MarkedOffspringLaw(out)


def _check_beta(beta: float, n: int) -> None:
    if not 0.0 < beta < 0.25:
        raise ValidationError(f"beta must lie in (0, 1/4), got {beta}")
    if n < 2:
        raise ValidationError(f"need n >= 2, got {n}")


@dataclass(frozen=True)
class DualityReport:
    """Exact comparison of conditioned-on-extinction vs conjugate shape laws."""

    depth: int
    num_shapes: int
    max_abs_diff: float
    conditioned_total: float
    conjugate_total: float


def duality_check(
    xi: OffspringLaw, depth: int, max_shapes: int = 10**6
) -> DualityReport:
    """Enumerate all tree shapes to `depth` and compare P{shape | extinction}
    under `xi` with P{shape} under the conjugate law.

    Requires a supercritical law (so extinction is a nontrivial event).
    """
    nu = math.fsum(k * p for k, p in xi.items())
    if nu <= 1.0:
        raise DegenerateError(f"duality check needs a supercritical law, mean {nu}")
    if depth < 1 or depth > 3:
        raise ValidationError("depth must be in 1..3 for exact enumeration")
    s = survival_probability(offspring_pgf(xi))
    q = 1.0 - s
    if q <= 0.0:
        raise DegenerateError("extinction has probability 0; nothing to condition on")
    xi_hat = conjugate_offspring(xi, s)
    support = sorted(k for k, p in xi.items() if p > 0.0)

    shapes: list[tuple[float, float, int]] = []  # (P_xi, P_hat, leaves at depth)

    def expand(level: int, p_orig: float, p_hat: float, width: int) -> None:
        if len(shapes) > max_shapes:
            raise CapacityError(f"more than {max_shapes} shapes at depth {depth}")
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
    total_conj = 0.0
    for p_orig, p_hat, leaves in shapes:
        conditioned = p_orig * q**leaves / q
        max_diff = max(max_diff, abs(conditioned - p_hat))
        total_cond += conditioned
        total_conj += p_hat
    return DualityReport(
        depth=depth,
        num_shapes=len(shapes),
        max_abs_diff=max_diff,
        conditioned_total=total_cond,
        conjugate_total=total_conj,
    )


@dataclass(frozen=True)
class TailEstimate:
    """Rare-event estimate for one (t, a) cell of the subcritical tails."""

    event: str
    t: int
    a: float
    omega: int
    reps: int
    runs: int
    successes: int
    p_hat: float
    ci_lo: float
    ci_hi: float
    rate_hat: float
    rate_theory: float
    flags: tuple[str, ...] = field(default=())


def wilson_interval(successes: int, n: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion; safe at 0 successes."""
    if n <= 0:
        return (0.0, 1.0)
    phat = successes / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / n + z * z / (4 * n * n)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def tail_rate_theory(eta: MarkedOffspringLaw, a: float) -> float:
    """Analytic decay rate |log nu_hat| + I(a * H_hat) for the law `eta`."""
    chain = subcritical_chain(eta)
    if chain.tilde is None:
        raise DegenerateError("nu_hat = 0: no single-survivor law")
    law = FiniteLogLaw.from_marked_law(chain.tilde)
    return abs(math.log(chain.nu_hat)) + rate_function(law, a * chain.H_hat)


def subcritical_tail_experiment(
    eta: MarkedOffspringLaw,
    t: int,
    a: float,
    omega: int,
    reps: int,
    rng_seed: int = 0,
    event: str = "lb",
    runs: int = 8,
    guide: float = 0.7,
) -> TailEstimate:
    """Estimate the probability of the thin-growth events at generation t.

    event "lb": P{0 < Gamma_t < e^(-a H t), 0 < X_r < omega for all r <= t};
    event "ub": P{some leaf weight < e^(-a H t), 0 < X_t < omega}.

    These probabilities decay like e^(-(|log nu_hat| + I(aH)) t), far below
    what vanilla Monte Carlo resolves at t ~ 30, so the estimator uses
    generation-sequential splitting: `reps` root trajectories split across
    `runs` independent populations, each resampled among the replicas still
    satisfying the width constraint after every generation. The product of
    per-generation survival fractions times the final event frequency is a
    consistent estimator of the probability. For the "ub" event, which does
    not constrain intermediate widths, trajectories are still capped at
    8 * omega nodes per generation (flagged; paths that exceed the cap and
    return below omega are vanishingly rare in this regime).
    """
    if eta.mean_offspring() <= 1.0:
        raise DegenerateError("tail experiment needs a supercritical law")
    if not eta.marks_at_least_two:
        raise ValidationError("tail experiment needs marks >= 2")
    if a < 1.0 or t < 1 or omega < 2 or reps < runs:
        raise ValidationError("need a >= 1, t >= 1, omega >= 2, reps >= runs")
    if event not in ("lb", "ub"):
        raise ValidationError(f"unknown event {event!r}")

    h_hat = subcritical_chain(eta).H_hat
    gamma_threshold = math.exp(-a * h_hat * t)
    rate_theory = tail_rate_theory(eta, a)

    kill_width = omega if event == "lb" else max(8 * omega, 64)
    flags = [] if event == "lb" else ["intermediate_width_capped"]
    sampler = _LawSampler(eta)
    seeds = np.random.SeedSequence(rng_seed).spawn(runs)
    n_per_run = max(2, reps // runs)

    run_estimates = []
    total_successes = 0
    for seq in seeds:
        rng = np.random.default_rng(seq)
        p_run, succ = _splitting_run(
            sampler, t, gamma_threshold, omega, kill_width, n_per_run, rng,
            event, guide,
        )
        run_estimates.append(p_run)
        total_successes += succ

    p_hat = float(np.mean(run_estimates))
    if total_successes == 0 or p_hat == 0.0:
        ci_lo = 0.0
        ci_hi = wilson_interval(0, reps)[1]
        p_hat = 0.0
        rate_hat = math.inf
        flags.append("zero_successes")
    else:
        se = float(np.std(run_estimates, ddof=1)) / math.sqrt(runs) if runs > 1 else 0.0
        ci_lo = max(0.0, p_hat - 1.96 * se)
        ci_hi = p_hat + 1.96 * se
        rate_hat = -math.log(p_hat) / t
    return TailEstimate(
        event=event,
        t=t,
        a=a,
        omega=omega,
        reps=reps,
        runs=runs,
        successes=total_successes,
        p_hat=p_hat,
        ci_lo=ci_lo,
        ci_hi=ci_hi,
        rate_hat=rate_hat,
        rate_theory=rate_theory,
        flags=tuple(flags),
    )


def _splitting_run(
    sampler: _LawSampler,
    t: int,
    gamma_threshold: float,
    omega: int,
    kill_width: int,
    n_replicas: int,
    rng: np.random.Generator,
    event: str,
    guide: float,
) -> tuple[float, int]:
    """One guided-splitting population; returns (estimate, successes).

    Incremental weights u_r = 1{0 < X_r < kill_width} * Psi(X_r)/Psi(X_r-1)
    with the thinning potential Psi(x) = exp(-guide * x); the population is
    multinomially resampled proportional to u_r every generation, and the
    estimator Psi(1) * prod_r mean(u_r) * mean(1{event} / Psi(X_t)) is the
    standard unbiased Feynman-Kac normalizing estimate of the target
    probability. The potential steers the ensemble toward the near-collapse
    trajectories that dominate the event; it cancels exactly, so its choice
    affects variance only.
    """
    R = n_replicas
    weights = np.ones(R)
    replica = np.arange(R, dtype=np.int64)
    sizes_prev = np.ones(R)
    log_factor = -guide  # Psi(X_0) with X_0 = 1
    for _ in range(t):
        xi, zeta = sampler.draw(rng, len(weights))
        child_w = np.repeat(weights / zeta, xi)
        widths = np.bincount(np.repeat(replica, xi), minlength=R)
        ok = (widths > 0) & (widths < kill_width)
        u = np.where(ok, np.exp(-guide * (widths - sizes_prev)), 0.0)
        cdf = np.cumsum(u)
        u_total = float(cdf[-1])
        if u_total <= 0.0:
            return 0.0, 0
        log_factor += math.log(u_total / R)
        # `replica` is sorted, so each replica's children form the contiguous
        # block starts[r]:starts[r] + widths[r] of child_w.
        starts = np.concatenate(([0], np.cumsum(widths)))[:-1]
        # Draws are < cdf[-1], and right-bisection skips zero-mass slots, so
        # only replicas with positive weight are ever cloned.
        choice = np.searchsorted(cdf, rng.random(R) * u_total, side="right")
        rep_counts = widths[choice]
        total = int(rep_counts.sum())
        slot_start = np.concatenate(([0], np.cumsum(rep_counts)))[:-1]
        within = np.arange(total) - np.repeat(slot_start, rep_counts)
        src = np.repeat(starts[choice], rep_counts) + within
        weights = child_w[src]
        replica = np.repeat(np.arange(R, dtype=np.int64), rep_counts)
        sizes_prev = rep_counts.astype(float)
    gamma_per = np.bincount(replica, weights=weights, minlength=R)
    sizes = np.bincount(replica, minlength=R)
    if event == "lb":
        success = (gamma_per > 0.0) & (gamma_per < gamma_threshold)
    else:
        min_w = np.full(R, np.inf)
        np.minimum.at(min_w, replica, weights)
        success = (sizes > 0) & (sizes < omega) & (min_w < gamma_threshold)
    succ = int(success.sum())
    correction = float(np.where(success, np.exp(guide * sizes), 0.0).mean())
    return math.exp(log_factor) * correction, succ


def fit_decay_rate(ts, p_hats) -> tuple[float, float]:
    """Least-squares slope of -log p against t, dropping the smallest t.

    Returns (rate, standard error); NaNs when fewer than two distinct t
    remain.
    """
    pts = sorted(
        (t, p) for t, p in zip(ts, p_hats) if p > 0.0 and math.isfinite(p)
    )
    if len(pts) >= 3:
        pts = pts[1:]
    return least_squares_slope([t for t, _ in pts], [-math.log(p) for _, p in pts])


def least_squares_slope(xs, ys) -> tuple[float, float]:
    """Ordinary least-squares slope of ys against xs and its standard error:
    NaNs with fewer than two distinct xs, a standard error of 0 with two."""
    x = np.array(xs, dtype=float)
    y = np.array(ys, dtype=float)
    if len(np.unique(x)) < 2:
        return (math.nan, math.nan)
    xbar, ybar = x.mean(), y.mean()
    sxx = ((x - xbar) ** 2).sum()
    slope = ((x - xbar) * (y - ybar)).sum() / sxx
    resid = y - (ybar + slope * (x - xbar))
    dof = len(x) - 2
    se = math.sqrt((resid**2).sum() / dof / sxx) if dof > 0 else 0.0
    return (float(slope), float(se))
