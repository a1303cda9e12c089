"""Large-deviation rate function, the exponent tradeoff phi, and its minimizer.

The rate function I(z) is the Fenchel-Legendre transform of the cumulant
generating function of the log-mark law; phi(a) trades distance from the
bulk (|log nu_hat|) against trajectory lightness (I(a * H_hat)), and its
minimum sets the predicted exponent 1 + H_hat / phi(a0) of the smallest
positive stationary value.

Extended reals are represented by math.inf, never by sentinel numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._checks import PROB_TOL, check_int, check_pmf
from .branching import BpParameters, MarkedOffspringLaw
from .errors import DegenerateError, ValidationError

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

MIN_LOG_MARK = math.log(2.0)
# Relative band above the best grid value of phi that minimize_phi scans in
# full. Bisection noise in I is about 1e-15 relative; only values inside the
# band can tie or beat the minimum through it.
PHI_TIE_BAND = 1e-9
# rate_function stops bisecting once |K'(lam) - z| falls below Z_TOL;
# minimize_phi brackets a0 on a grid of GRID_STEP resolution and refines it
# by golden-section search to a bracket of A0_TOL.
Z_TOL = 1e-12
GRID_STEP = 1e-4
A0_TOL = 1e-9


@dataclass(frozen=True)
class FiniteLogLaw:
    """Finite law of Z = log(mark) under the single-survivor process."""

    atoms: dict[float, float]

    def __post_init__(self):
        for z in self.atoms:
            if not z >= MIN_LOG_MARK - PROB_TOL:  # NaN fails every comparison
                raise ValidationError(f"log-mark atom {z} below log 2; marks must be >= 2 here")
        items = ((float(z), p) for z, p in self.atoms.items())
        object.__setattr__(self, "atoms", check_pmf(items, "log-mark law"))

    @classmethod
    def from_marked_law(cls, tilde: MarkedOffspringLaw) -> "FiniteLogLaw":
        atoms: dict[float, float] = {}
        for (_, zeta), p in tilde.pmf.items():
            z = math.log(zeta)
            atoms[z] = atoms.get(z, 0.0) + p
        return cls(atoms)

    @property
    def mean(self) -> float:
        return math.fsum(z * p for z, p in self.atoms.items())

    @property
    def z_min(self) -> float:
        return min(self.atoms)

    @property
    def z_max(self) -> float:
        return max(self.atoms)


@dataclass(frozen=True)
class ExponentReport:
    """Minimizer of phi and the resulting stationary-minimum exponent."""

    a0: float
    phi_a0: float
    exponent: float
    degenerate: bool


def _shifted_weights(law: FiniteLogLaw, lam: float) -> tuple[float, list]:
    """shift = max(lam * z) over the atoms, and each atom z with its weight
    p * exp(lam * z - shift): the terms of E[exp(lam * Z)], overflow-safe."""
    items = law.atoms.items()
    shift = max(lam * z for z, _ in items)
    return shift, [(z, p * math.exp(lam * z - shift)) for z, p in items]


def cumulant_gf(law: FiniteLogLaw, lam: float) -> float:
    """log E[exp(lam * Z)], max-shifted for overflow safety."""
    shift, weights = _shifted_weights(law, lam)
    return shift + math.log(math.fsum(w for _, w in weights))


def _tilted_mean(law: FiniteLogLaw, lam: float) -> float:
    """E_lam[Z] = K'(lam), the mean under the exponentially tilted law."""
    _, weights = _shifted_weights(law, lam)
    return math.fsum(z * w for z, w in weights) / math.fsum(w for _, w in weights)


def rate_function(law: FiniteLogLaw, z: float) -> float:
    """I(z) = sup_lam {lam z - cumulant_gf(lam)} as an extended real.

    Returns +inf strictly outside [min atom, max atom] and -log P{Z = edge}
    at the edges. The interior supremum solves the monotone equation
    K'(lam) = z by bisection on an adaptively doubled bracket, to within
    Z_TOL.
    """
    z_min, z_max = law.z_min, law.z_max
    edge_pad = 1e-14 * max(1.0, abs(z_max), abs(z_min))
    if z > z_max + edge_pad or z < z_min - edge_pad:
        return math.inf
    if z >= z_max - edge_pad:
        return -math.log(law.atoms[z_max])
    if z <= z_min + edge_pad:
        return -math.log(law.atoms[z_min])
    # z is interior, so the law has at least two atoms and K' is strictly
    # increasing from z_min to z_max.
    lo, hi = -1.0, 1.0
    for _ in range(200):
        if _tilted_mean(law, lo) < z:
            break
        lo *= 2.0
    for _ in range(200):
        if _tilted_mean(law, hi) > z:
            break
        hi *= 2.0
    lam = 0.5 * (lo + hi)
    for _ in range(300):
        lam = 0.5 * (lo + hi)
        val = _tilted_mean(law, lam)
        if abs(val - z) < Z_TOL:
            break
        if val < z:
            lo = lam
        else:
            hi = lam
        if hi - lo <= 1e-13 * max(1.0, abs(lo), abs(hi)):
            lam = 0.5 * (lo + hi)
            break
    return lam * z - cumulant_gf(law, lam)


def phi(params: BpParameters, law: FiniteLogLaw | None, a: float) -> float:
    """phi(a) = (|log nu_hat| + I(a * H_hat)) / a, +inf in the degenerate regime."""
    if a <= 0.0:
        raise ValidationError(f"phi needs a > 0, got {a}")
    if params.degenerate or law is None:
        return math.inf
    rate = rate_function(law, a * params.H_hat)
    if math.isinf(rate):
        return math.inf
    return (abs(math.log(params.nu_hat)) + rate) / a


def rate_table(law: FiniteLogLaw, npts: int) -> tuple[tuple[float, float], ...]:
    """Sample (z, I(z)) on an evenly spaced grid over the law's support."""
    z_min, z_max = law.z_min, law.z_max
    if npts < 2 or z_max == z_min:
        return ((law.mean, rate_function(law, law.mean)),)
    step = (z_max - z_min) / (npts - 1)
    return tuple(
        (z_min + i * step, rate_function(law, z_min + i * step)) for i in range(npts)
    )


def _golden_section(f, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Minimize a scalar function on [lo, hi] to bracket width `tol`."""
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > tol:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = f(x2)
    x = 0.5 * (lo + hi)
    return x, f(x)


def _first_grid_argmin(f, npts: int) -> int:
    """First index i in 0..npts-1 with the smallest f(i), for f quasiconvex
    up to noise far below PHI_TIE_BAND (relative).

    Golden-section search over the indices brackets the minimum in about
    log(npts) evaluations; a scan outward from the bracket's best index
    then visits every index up to the first one, on each side, whose value
    exceeds the band above the best value seen. Past that index f can only
    grow, so the scan holds every index the exhaustive sweep could pick,
    and it picks among them the same way: the first of the smallest.
    """
    cache: dict[int, float] = {}

    def val(i: int) -> float:
        if i not in cache:
            cache[i] = f(i)
        return cache[i]

    lo, hi = 0, npts - 1
    while hi - lo > 2:
        width = hi - lo
        inner = max(width // 2 + 1, round(_GOLDEN * width))
        m1, m2 = hi - inner, lo + inner
        if val(m1) <= val(m2):
            hi = m2
        else:
            lo = m1
    best = min(val(i) for i in range(lo, hi + 1))
    for i, step in ((lo, -1), (hi, 1)):
        while 0 <= i + step < npts and val(i) <= best * (1.0 + PHI_TIE_BAND):
            i += step
            best = min(best, val(i))
    # Every index within the band of the minimum is cached by now.
    return min(cache, key=lambda i: (cache[i], i))


def minimize_phi(
    params: BpParameters,
    law: FiniteLogLaw | None,
) -> ExponentReport:
    """Locate a0 = argmin phi over [1, z_max / H_hat] and build the report.

    The first minimizing index of phi on a grid of GRID_STEP resolution
    brackets a0, and golden-section search refines that bracket to width
    A0_TOL. The index comes from a search over the grid
    (:func:`_first_grid_argmin`), not from evaluating every grid point:
    I is convex, non-negative and continuous up to z_max, so each sublevel
    set {a : |log nu_hat| + I(a H_hat) <= t a} is an interval and phi is
    quasiconvex on [1, z_max / H_hat]. Only grid points whose values lie
    within PHI_TIE_BAND of the best one, a band far wider than the
    bisection noise of I, can then hold the first minimizer, and the search
    scans every one of them.
    The degenerate regime (nu_hat = 0) contributes exponent exactly 1.
    """
    if params.degenerate or law is None:
        return ExponentReport(a0=1.0, phi_a0=math.inf, exponent=1.0, degenerate=True)
    h_hat = params.H_hat
    if not h_hat > 0.0:
        raise DegenerateError("minimize_phi needs H_hat > 0")
    a_hi = law.z_max / h_hat
    if a_hi <= 1.0 + 1e-12:
        # Single feasible point: deterministic log-mark law, I = inf off the mean.
        phi_1 = phi(params, law, 1.0)
        return ExponentReport(
            a0=1.0,
            phi_a0=phi_1,
            exponent=_exponent(h_hat, phi_1),
            degenerate=False,
        )

    def objective(a: float) -> float:
        return phi(params, law, min(max(a, 1.0), a_hi))

    npts = max(2, int(math.ceil((a_hi - 1.0) / GRID_STEP)) + 1)
    step = (a_hi - 1.0) / (npts - 1)
    best_i = _first_grid_argmin(lambda i: objective(1.0 + i * step), npts)
    lo = 1.0 + max(0, best_i - 1) * step
    hi = 1.0 + min(npts - 1, best_i + 1) * step
    a0, phi_a0 = _golden_section(objective, lo, hi, A0_TOL)
    # The refined bracket may sit next to a boundary whose endpoint wins.
    for edge in (1.0, a_hi):
        val = objective(edge)
        if val < phi_a0:
            a0, phi_a0 = edge, val
    if math.isinf(phi_a0):
        raise DegenerateError("phi is infinite on the whole feasible domain")
    return ExponentReport(
        a0=a0,
        phi_a0=phi_a0,
        exponent=_exponent(h_hat, phi_a0),
        degenerate=False,
    )


def _exponent(h_hat: float, phi_a0: float) -> float:
    """1 + H_hat / phi(a0). phi(a0) = 0 needs nu_hat = 1, where no finite
    exponent exists: DegenerateError."""
    if phi_a0 == 0.0:
        raise DegenerateError("phi(a0) = 0 (nu_hat = 1): no finite exponent")
    return 1.0 + h_hat / phi_a0


def rout_exponent(r: int) -> float:
    """Predicted stationary-minimum exponent for the r-out digraph.

    Solves 1 - s = exp(-s r) for the largest root by bisection and returns
    1 + log(r) / (s r - log r). Cross-check target for the general pipeline
    applied to the Poisson(r)-in / constant-r-out law.
    """
    if check_int(r, "r") < 2:
        raise ValidationError(f"r-out model needs r >= 2, got {r}")

    def f(s: float) -> float:
        return 1.0 - s - math.exp(-s * r)

    lo, hi = 1e-12, 1.0
    if not (f(lo) > 0.0 > f(hi)):
        raise DegenerateError(f"no supercritical root for r = {r}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-15:
            break
    s = 0.5 * (lo + hi)
    return 1.0 + math.log(r) / (s * r - math.log(r))
