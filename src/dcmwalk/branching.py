"""Branching-process parameters derived from a bi-degree distribution.

Everything here is closed-form or fixed-point arithmetic over finite pmfs:
size biasing, survival probabilities, extinction-conditioned (conjugate)
laws, the single-survivor law and its entropy, and the out-entropy that sets
the entropic time scale. All functions are pure.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .degrees import PROB_TOL, BiDegreeDistribution, BiDegreeSequence
from .errors import DegenerateError, NumericalError, ValidationError

FIXED_POINT_TOL = 1e-14
MAX_FIXED_POINT_ITER = 10**6

OffspringLaw = dict[int, float]


@dataclass(frozen=True)
class MarkedOffspringLaw:
    """Joint law of (offspring count, integer mark >= 1)."""

    pmf: dict[tuple[int, int], float]

    def __post_init__(self):
        cleaned = {}
        for pair, p in self.pmf.items():
            k, zeta = int(pair[0]), int(pair[1])
            if k < 0:
                raise ValidationError(f"negative offspring count in {pair}")
            if zeta < 1:
                raise ValidationError(f"mark {zeta} below 1 in {pair}")
            if p < -PROB_TOL or p > 1 + PROB_TOL:
                raise ValidationError(f"probability {p} for {pair} outside [0, 1]")
            if p > 0.0:
                cleaned[(k, zeta)] = float(p)
        if not cleaned:
            raise ValidationError("empty offspring law")
        total = math.fsum(cleaned.values())
        if abs(total - 1.0) > PROB_TOL:
            raise ValidationError(f"offspring law sums to {total}, not 1")
        object.__setattr__(self, "pmf", cleaned)

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
        data = json.loads(text)
        if not isinstance(data, dict) or "pmf" not in data:
            raise ValidationError('offspring-law JSON must be {"pmf": [...]}')
        pmf: dict[tuple[int, int], float] = {}
        for entry in data["pmf"]:
            try:
                pair = (int(entry["xi"]), int(entry["zeta"]))
                p = float(entry["p"])
            except (KeyError, TypeError, ValueError) as exc:
                raise ValidationError(f"bad pmf entry {entry!r}") from exc
            pmf[pair] = pmf.get(pair, 0.0) + p
        return cls(pmf)


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


def bivariate_gf(dist: BiDegreeDistribution, z: float, w: float) -> float:
    """Evaluate sum p(k, ell) z^k w^ell over the finite support."""
    return math.fsum(p * z**k * w**ell for (k, ell), p in dist.pmf.items())


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


def in_size_biased(dist: BiDegreeDistribution) -> MarkedOffspringLaw:
    """Degree law of the vertex incident to a uniform random head.

    Mirror of :func:`out_size_biased` with weights (k / lambda) p(k, ell).
    Returned with the pair order swapped to (out-degree, in-degree): the
    in-degree is positive on the biased support, so it takes the mark slot.
    """
    lam = dist.mean_in
    if lam <= 0.0:
        raise DegenerateError("in-size biasing needs mean in-degree > 0")
    return MarkedOffspringLaw(
        {(ell, k): k * p / lam for (k, ell), p in dist.pmf.items() if k > 0}
    )


def out_biased_mean_ratio_exact(dist: BiDegreeDistribution) -> Fraction:
    """E[xi / zeta] of the out-size-biased law, in exact rational arithmetic.

    Equals sum(k p 1{ell >= 1}) / sum(ell p); for a mean-balanced
    distribution whose positive in-degree mass sits on out-degrees >= 1 this
    is exactly 1 (the float pmf values convert to rationals losslessly).
    """
    num = sum(
        (Fraction(p) * k for (k, ell), p in dist.pmf.items() if ell >= 1),
        Fraction(0),
    )
    den = sum((Fraction(p) * ell for (_, ell), p in dist.pmf.items()), Fraction(0))
    if den == 0:
        raise DegenerateError("mean out-degree is zero")
    return num / den


def offspring_pgf(xi: OffspringLaw) -> list[float]:
    """Coefficients c_k = P{xi = k} of the pgf of an offspring law."""
    coeffs = [0.0] * (max(xi) + 1)
    for k, p in xi.items():
        coeffs[k] = p
    return coeffs


def in_offspring_pgf(dist: BiDegreeDistribution) -> list[float]:
    """Coefficients of the in-process offspring pgf (1/lam) df/dw(z, 1).

    Coefficient c_k = (1/lam) sum_ell ell p(k, ell) is the offspring marginal
    of the out-size-biased law.
    """
    return offspring_pgf(out_size_biased(dist).offspring_marginal())


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


def subcritical_expansion_rate(dist: BiDegreeDistribution) -> float:
    """nu_hat = g'(1 - s) of the in-process; lies in [0, 1)."""
    return subcritical_chain(out_size_biased(dist)).nu_hat


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


def surviving_offspring(xi: OffspringLaw, s: float) -> OffspringLaw:
    """Offspring law of the subprocess of individuals with surviving progeny.

    p*(k) = s^(k-1) g^(k)(1-s) / k! for k >= 1. Test helper only: it backs
    the nu and nu_hat identities and feeds no pipeline.
    """
    if not 0.0 < s <= 1.0:
        raise DegenerateError("surviving-offspring law needs s > 0")
    kmax = max(xi)
    q = 1.0 - s
    out: OffspringLaw = {}
    for k in range(1, kmax + 1):
        # g^(k)(q) / k! = sum_{m >= k} C(m, k) p(m) q^(m-k)
        deriv = math.fsum(
            math.comb(m, k) * p * q ** (m - k) for m, p in xi.items() if m >= k
        )
        val = s ** (k - 1) * deriv
        if val > 0.0:
            out[k] = val
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


def subcritical_entropy(eta: MarkedOffspringLaw, s: float) -> float:
    """H_hat = E[log zeta_tilde] under the single-survivor law."""
    return _mean_log_mark(single_survivor_law(eta, s))


def _mean_log_mark(law: MarkedOffspringLaw) -> float:
    return math.fsum(p * math.log(zeta) for (_, zeta), p in law.pmf.items())


def out_entropy(seq: BiDegreeSequence) -> tuple[float, float]:
    """Out-entropy H_plus = (1/m) sum d_in(x) log d_out(x) and 1 / H_plus.

    The entropic time is log(n) / H_plus. Vertices with in-degree 0 do not
    contribute; a vertex with in-degree > 0 and out-degree 0 makes the walk
    entropy undefined.
    """
    m = seq.m
    acc = []
    for k, ell in seq.degrees:
        if k == 0:
            continue
        if ell == 0:
            raise DegenerateError(
                "vertex with in-degree > 0 but out-degree 0: walk entropy undefined"
            )
        acc.append(k * math.log(ell))
    h_plus = math.fsum(acc) / m
    if h_plus <= 0.0:
        raise DegenerateError("H_plus = 0: all reachable vertices have out-degree 1")
    return h_plus, 1.0 / h_plus


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
