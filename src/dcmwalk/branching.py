"""Branching-process parameters derived from a bi-degree distribution.

Everything here is closed-form or fixed-point arithmetic over finite pmfs:
out-size biasing, offspring pgfs and survival probabilities,
extinction-conditioned (conjugate) laws, the single-survivor law and its
entropy H_hat (`subcritical_chain` runs the chain from the pgf to H_hat), and
the out-entropy H_plus that sets the entropic time scale. All functions are
pure.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

from ._checks import PROB_TOL, check_int_pair, check_pmf, read_pmf
from .degrees import BiDegreeDistribution
from .errors import DegenerateError, NumericalError, ValidationError

FIXED_POINT_TOL = 1e-14
MAX_FIXED_POINT_ITER = 10**6

OffspringLaw = dict[int, float]


@dataclass(frozen=True)
class MarkedOffspringLaw:
    """Joint law of (offspring count, integer mark >= 1)."""

    pmf: dict[tuple[int, int], float]

    def __post_init__(self):
        items = []
        for pair, p in self.pmf.items():
            k, zeta = check_int_pair(pair, ("offspring count", "mark"))
            if k < 0 or zeta < 1:
                raise ValidationError(f"need offspring count >= 0 and mark >= 1, got {pair}")
            items.append(((k, zeta), p))
        object.__setattr__(self, "pmf", check_pmf(items, "offspring law"))

    @property
    def support(self) -> list[tuple[int, int]]:
        return sorted(self.pmf)

    @property
    def marks_at_least_two(self) -> bool:
        return all(zeta >= 2 for _, zeta in self.pmf)

    def offspring_marginal(self) -> OffspringLaw:
        out: OffspringLaw = {}
        for (k, _), p in self.pmf.items():
            out[k] = out.get(k, 0.0) + p
        return out

    def mark_marginal(self) -> OffspringLaw:
        out: OffspringLaw = {}
        for (_, zeta), p in self.pmf.items():
            out[zeta] = out.get(zeta, 0.0) + p
        return out

    def mean_offspring(self) -> float:
        return math.fsum(k * p for (k, _), p in self.pmf.items())

    def mean_ratio(self) -> float:
        """E[xi / zeta]."""
        return math.fsum(k / zeta * p for (k, zeta), p in self.pmf.items())

    def mean_ratio_exact(self) -> Fraction:
        """E[xi / zeta] in exact rational arithmetic (floats via Fraction)."""
        return sum(
            (Fraction(p) * k / zeta for (k, zeta), p in self.pmf.items()),
            Fraction(0),
        )

    def to_json(self) -> str:
        entries = [
            {"xi": k, "zeta": z, "p": self.pmf[(k, z)]} for k, z in self.support
        ]
        return json.dumps({"pmf": entries})

    @classmethod
    def from_json(cls, text: str) -> "MarkedOffspringLaw":
        return cls(read_pmf(text, ("xi", "zeta"), "offspring law"))


@dataclass(frozen=True)
class BpParameters:
    """Analytic parameters of the in-branching process of a distribution.

    `nu_hat` and `H_hat` are zero / NaN, and the single-survivor law `tilde`
    is None, in the degenerate regime where the in-process never dies
    (minimum in-degree >= 2 on the biased support).
    """

    lam: float
    nu: float
    s_minus: float
    nu_hat: float
    H_hat: float
    H_plus: float
    t_ent_coeff: float
    tilde: MarkedOffspringLaw | None = field(compare=False)

    @property
    def degenerate(self) -> bool:
        return self.nu_hat == 0.0


@dataclass(frozen=True)
class SubcriticalChain:
    """Offspring pgf, survival s, nu_hat = g'(1 - s), single-survivor law and
    its mean log mark H_hat: the chain behind C = H_hat / phi(a0). Without a
    subcritical spine (nu_hat = 0) `tilde` is None and `H_hat` is NaN."""

    coeffs: list[float]
    s: float
    nu_hat: float
    tilde: MarkedOffspringLaw | None
    H_hat: float


def out_size_biased(dist: BiDegreeDistribution) -> MarkedOffspringLaw:
    """Degree law of the vertex incident to a uniform random tail.

    pmf(k, ell) = (ell / lambda) p(k, ell); pairs with ell = 0 vanish, so the
    mark is at least 1 on the result.
    """
    lam = dist.mean_out
    if lam <= 0.0:
        raise DegenerateError("out-size biasing needs mean out-degree > 0")
    return MarkedOffspringLaw(
        {(k, ell): ell * p / lam for (k, ell), p in dist.pmf.items() if ell > 0}
    )


def offspring_pgf(xi: OffspringLaw) -> list[float]:
    """Coefficients c_k = P{xi = k} of the pgf of an offspring law."""
    coeffs = [0.0] * (max(xi) + 1)
    for k, p in xi.items():
        coeffs[k] = p
    return coeffs


def pgf_value(coeffs, q: float) -> float:
    return math.fsum(p * q**k for k, p in enumerate(coeffs) if p != 0.0)


def pgf_derivative(coeffs, q: float) -> float:
    return math.fsum(k * p * q ** (k - 1) for k, p in enumerate(coeffs) if k >= 1 and p != 0.0)


def survival_probability(coeffs) -> float:
    """Survival probability of a Galton-Watson process with pgf `coeffs`.

    Iterates q <- g(q) from q = 0, which converges monotonically to the
    smallest fixed point of g in [0, 1]; returns s = 1 - q. Subcritical and
    critical processes yield s = 0 (the critical case may stall and raise).
    """
    total = math.fsum(coeffs)
    if abs(total - 1.0) > 1e-9 or any(c < -PROB_TOL for c in coeffs):
        raise ValidationError("pgf coefficients must be a probability vector")
    q = 0.0
    for _ in range(MAX_FIXED_POINT_ITER):
        q_next = pgf_value(coeffs, q)
        if abs(q_next - q) < FIXED_POINT_TOL:
            return max(0.0, 1.0 - q_next)
        q = q_next
    raise NumericalError(
        "survival fixed point stalled (near-critical pgf?)",
        residual=abs(pgf_value(coeffs, q) - q),
    )


def subcritical_chain(eta: MarkedOffspringLaw) -> SubcriticalChain:
    """Survival, nu_hat, single-survivor law and H_hat of the law `eta`."""
    coeffs = offspring_pgf(eta.offspring_marginal())
    s = survival_probability(coeffs)
    nu_hat = pgf_derivative(coeffs, 1.0 - s)
    if nu_hat <= 0.0:
        return SubcriticalChain(coeffs, s, 0.0, None, math.nan)
    tilde = single_survivor_law(eta, s)
    return SubcriticalChain(coeffs, s, nu_hat, tilde, _mean_log_mark(tilde))


def conjugate_offspring(xi: OffspringLaw, s: float) -> OffspringLaw:
    """Offspring law of the process conditioned on extinction.

    For s < 1: p_hat(k) = (1-s)^(k-1) p(k) for k >= 1, with the k = 0 atom
    absorbing the remaining mass (equal to p(0)/(1-s) when s is the exact
    survival probability, since g(1-s) = 1-s). For s = 1 the conditioned
    process keeps only unary steps: p_hat(1) = p(1), p_hat(0) = 1 - p(1).
    """
    if not 0.0 <= s <= 1.0:
        raise ValidationError(f"survival probability {s} outside [0, 1]")
    if s == 1.0:
        p1 = xi.get(1, 0.0)
        out = {0: 1.0 - p1}
        if p1 > 0.0:
            out[1] = p1
        return out
    q = 1.0 - s
    out = {k: q ** (k - 1) * p for k, p in xi.items() if k >= 1 and p > 0.0}
    mass = math.fsum(out.values())
    if mass > 1.0 + PROB_TOL:
        raise ValidationError(f"conjugate mass {mass} exceeds 1; s too small?")
    out[0] = max(0.0, 1.0 - mass)
    return out


def single_survivor_law(eta: MarkedOffspringLaw, s: float) -> MarkedOffspringLaw:
    """Law of (xi, zeta) conditioned on exactly one surviving child.

    p_tilde(k, ell) = k (1-s)^(k-1) p(k, ell) / nu_hat. Undefined when
    nu_hat = 0 (the regime with in-degree >= 2 everywhere has no subcritical
    spine).
    """
    if not 0.0 <= s <= 1.0:
        raise ValidationError(f"survival probability {s} outside [0, 1]")
    q = 1.0 - s
    weights = {
        (k, zeta): k * q ** (k - 1) * p
        for (k, zeta), p in eta.pmf.items()
        if k >= 1
    }
    nu_hat = math.fsum(weights.values())
    if nu_hat <= 0.0:
        raise DegenerateError("nu_hat = 0: no single-survivor law")
    return MarkedOffspringLaw({pair: w / nu_hat for pair, w in weights.items()})


def _mean_log_mark(law: MarkedOffspringLaw) -> float:
    return math.fsum(p * math.log(zeta) for (_, zeta), p in law.pmf.items())


def distribution_out_entropy(dist: BiDegreeDistribution) -> float:
    """H_plus computed from a distribution: E[D_in log D_out] / lambda."""
    lam = dist.mean_out
    acc = []
    for (k, ell), p in dist.pmf.items():
        if k == 0 or p == 0.0:
            continue
        if ell == 0:
            raise DegenerateError(
                "support pair with in-degree > 0 but out-degree 0"
            )
        acc.append(k * math.log(ell) * p)
    h_plus = math.fsum(acc) / lam
    if h_plus <= 0.0:
        raise DegenerateError("H_plus = 0")
    return h_plus


def compute_bp_parameters(dist: BiDegreeDistribution) -> BpParameters:
    """All scalar branching parameters of a mean-balanced distribution."""
    chain = subcritical_chain(out_size_biased(dist))
    h_plus = distribution_out_entropy(dist)
    return BpParameters(
        lam=dist.mean_out,
        nu=pgf_derivative(chain.coeffs, 1.0),
        s_minus=chain.s,
        nu_hat=chain.nu_hat,
        H_hat=chain.H_hat,
        H_plus=h_plus,
        t_ent_coeff=1.0 / h_plus,
        tilde=chain.tilde,
    )
