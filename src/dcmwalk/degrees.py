"""Bi-degree distributions and sequences for the directed configuration model.

A bi-degree distribution is a finite probability mass function over
(in-degree, out-degree) pairs; a bi-degree sequence is a concrete list of
per-vertex degree pairs whose head and tail totals match. Both are immutable
after construction and safe to share across threads.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ._checks import (
    PROB_TOL, check_addressable, check_int, check_int_array, check_int_pair, check_pmf,
    exact_total, narrow_dtype, read_pmf,
)
from .errors import BalanceError, RealizationError, ValidationError

MAX_DEGREE = 64  # largest in- or out-degree of a distribution's support


@dataclass(frozen=True)
class BiDegreeDistribution:
    """Probability mass function over (in-degree, out-degree) pairs.

    Degrees are integers in 0..MAX_DEGREE; probabilities must be in [0, 1]
    and sum to 1 within 1e-12. Mean balance (E[D_in] == E[D_out]) is
    required for model use but only flagged here; see :attr:`mean_balanced`.
    """

    pmf: dict[tuple[int, int], float]

    def __post_init__(self):
        items = []
        for pair, p in self.pmf.items():
            k, ell = check_int_pair(pair, ("in-degree", "out-degree"))
            if not (0 <= k <= MAX_DEGREE and 0 <= ell <= MAX_DEGREE):
                raise ValidationError(f"degree pair {pair} outside 0..{MAX_DEGREE}")
            items.append(((k, ell), p))
        object.__setattr__(self, "pmf", check_pmf(items, "distribution"))

    @property
    def support(self) -> list[tuple[int, int]]:
        return sorted(self.pmf)

    @property
    def mean_in(self) -> float:
        return math.fsum(k * p for (k, _), p in self.pmf.items())

    @property
    def mean_out(self) -> float:
        return math.fsum(ell * p for (_, ell), p in self.pmf.items())

    @property
    def mean_balanced(self) -> bool:
        return abs(self.mean_in - self.mean_out) <= PROB_TOL * max(1.0, self.mean_out)

    def require_mean_balanced(self) -> None:
        """Raise RealizationError (a ValidationError) unless mean-balanced."""
        if not self.mean_balanced:
            raise RealizationError(
                f"distribution is not mean-balanced: "
                f"E[D_in]={self.mean_in!r} != E[D_out]={self.mean_out!r}"
            )

    @property
    def max_in(self) -> int:
        return max(k for k, _ in self.pmf)

    @property
    def max_out(self) -> int:
        return max(ell for _, ell in self.pmf)

    def to_json(self) -> str:
        entries = [
            {"in": k, "out": ell, "p": self.pmf[(k, ell)]} for k, ell in self.support
        ]
        return json.dumps({"pmf": entries})

    @classmethod
    def from_json(cls, text: str) -> "BiDegreeDistribution":
        return cls(read_pmf(text, ("in", "out"), "distribution"))


class BiDegreeSequence:
    """Per-vertex degrees, held as two read-only arrays whose sums agree:
    vertex v has in-degree in_degrees[v] and out-degree out_degrees[v], and
    the m heads pair with the m tails. Each array has the narrowest signed
    integer dtype that holds its largest degree (`narrow_dtype`): int8 for
    every realized law, since MAX_DEGREE < 128.

    The constructor copies its input, so a caller's array never becomes
    read-only, and raises BalanceError when sum(d_in) != sum(d_out), the
    sums taken exactly (`exact_total`), so a total past int64 cannot wrap.
    """

    def __init__(self, in_degrees, out_degrees):
        self._set_arrays(in_degrees, out_degrees)

    def _set_arrays(self, in_degrees, out_degrees, copy: bool = True) -> None:
        """Check and store the degrees as read-only arrays, each narrowed by
        `narrow_dtype`, and their common sum as m. copy=False adopts arrays
        the caller owns and never writes again as they are, when they are
        already narrow."""
        kin = check_int_array(in_degrees, "in-degrees")
        kout = check_int_array(out_degrees, "out-degrees")
        if kin.ndim != 1 or kin.shape != kout.shape:
            raise ValidationError("in- and out-degree arrays differ in shape")
        if len(kin) == 0:
            raise ValidationError("empty degree sequence")
        if kin.min() < 0 or kout.min() < 0:
            v = np.flatnonzero((kin < 0) | (kout < 0))[0]
            raise ValidationError(f"negative degree in pair ({kin[v]}, {kout[v]})")
        kin = kin.astype(narrow_dtype(kin), copy=copy)
        kout = kout.astype(narrow_dtype(kout), copy=copy)
        heads, tails = exact_total(kin), exact_total(kout)
        if heads != tails:
            raise BalanceError(heads, tails)
        kin.flags.writeable = kout.flags.writeable = False
        self.in_degrees, self.out_degrees, self.m = kin, kout, tails

    @property
    def degrees(self) -> tuple[tuple[int, int], ...]:
        """The pairs as a tuple of Python int tuples, built on each access."""
        return tuple(zip(self.in_degrees.tolist(), self.out_degrees.tolist()))

    @property
    def n(self) -> int:
        return len(self.in_degrees)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of :func:`validate_sequence`."""

    n: int
    m: int
    lam: float
    delta_in: int
    delta_out: int
    max_in: int
    max_out: int
    min_out_ok: bool
    degree_cap_ok: bool
    flags: tuple[str, ...] = field(default=())

    @property
    def ok(self) -> bool:
        return not self.flags


def validate_sequence(
    seq: BiDegreeSequence, max_degree_cap: int = MAX_DEGREE
) -> ValidationReport:
    """Check a sequence against the model hypotheses: a minimum out-degree
    below 2 or degrees above the cap are reported as flags. Balance needs
    no check, since no unbalanced sequence can be built.
    """
    delta_in, max_in = int(seq.in_degrees.min()), int(seq.in_degrees.max())
    delta_out, max_out = int(seq.out_degrees.min()), int(seq.out_degrees.max())
    report_flags = []
    min_out_ok = delta_out >= 2
    if not min_out_ok:
        report_flags.append("min_out_degree_below_2")
    degree_cap_ok = max_in <= max_degree_cap and max_out <= max_degree_cap
    if not degree_cap_ok:
        report_flags.append("degree_above_cap")
    return ValidationReport(
        n=seq.n,
        m=seq.m,
        lam=seq.m / seq.n,
        delta_in=delta_in,
        delta_out=delta_out,
        max_in=max_in,
        max_out=max_out,
        min_out_ok=min_out_ok,
        degree_cap_ok=degree_cap_ok,
        flags=tuple(report_flags),
    )


def realize_sequence(dist: BiDegreeDistribution, n: int) -> BiDegreeSequence:
    """Realize a mean-balanced distribution as a balanced n-vertex sequence.

    Counts start at round(n * p) per support pair, then a deterministic
    repair pass restores sum(counts) == n and exact head/tail balance by
    moving unit counts between support pairs (lexicographic preference,
    shortest move sequence via breadth-first search over the imbalance).
    The repair perturbs O(max_degree * |support|) vertices, so the empirical
    distribution of the result is within O(1/n) of `dist` in total variation.
    Vertices come grouped by pair, in support order. The degree arrays are
    built in their narrow dtype (int8, as MAX_DEGREE < 128); an n whose
    arrays the address space cannot hold raises CapacityError.
    """
    pairs = dist.support
    counts = _support_counts(dist, n)
    reps = [counts[pair] for pair in pairs]
    ins, outs = (np.array(side) for side in zip(*pairs))
    ins, outs = ins.astype(narrow_dtype(ins)), outs.astype(narrow_dtype(outs))
    check_addressable(n, max(ins.itemsize, outs.itemsize), "n")
    # The fresh arrays are adopted, not copied: one copy of the sequence.
    seq = BiDegreeSequence.__new__(BiDegreeSequence)
    seq._set_arrays(np.repeat(ins, reps), np.repeat(outs, reps), copy=False)
    return seq


def _support_counts(dist: BiDegreeDistribution, n: int) -> dict[tuple[int, int], int]:
    """Vertex count per support pair for :func:`realize_sequence`."""
    if check_int(n, "n") < 1:
        raise RealizationError(f"need n >= 1, got {n}")
    dist.require_mean_balanced()
    pairs = dist.support
    counts = {pair: round(n * dist.pmf[pair]) for pair in pairs}

    # Fix the vertex total first, adjusting lexicographically largest pairs.
    total = sum(counts.values())
    for pair in reversed(pairs):
        if total == n:
            break
        if total < n:
            counts[pair] += n - total
            total = n
        else:
            take = min(counts[pair], total - n)
            counts[pair] -= take
            total -= take
    if total != n:
        raise RealizationError("cannot match vertex total during repair")

    _rebalance_counts(counts, pairs)
    return counts


def _rebalance_counts(counts: dict[tuple[int, int], int], pairs) -> None:
    """Zero the head/tail deficit by total-preserving unit moves between pairs.

    A move takes one vertex from pair A to pair B and changes the deficit
    D = sum(count * (k - ell)) by e(B) - e(A). The shortest sequence of
    deltas reaching D = 0 is found by BFS; infeasible targets (e.g. a single
    support pair with k != ell) raise RealizationError.
    """
    excess = {pair: pair[0] - pair[1] for pair in pairs}
    deficit = sum(c * excess[pair] for pair, c in counts.items())
    if deficit == 0:
        return
    deltas = sorted(
        {excess[b] - excess[a] for a in pairs for b in pairs if excess[b] != excess[a]}
    )
    if not deltas:
        raise RealizationError(
            f"support cannot absorb imbalance {deficit}: all pairs have k - ell "
            f"= {excess[pairs[0]]}"
        )
    # BFS over reachable deficits; bound keeps the search finite.
    bound = abs(deficit) + 2 * max(abs(d) for d in deltas)
    seen = {deficit: None}
    queue = deque([deficit])
    while queue:
        d = queue.popleft()
        if d == 0:
            break
        for step in deltas:
            nxt = d + step
            if abs(nxt) <= bound and nxt not in seen:
                seen[nxt] = (d, step)
                queue.append(nxt)
    if 0 not in seen:
        raise RealizationError(f"imbalance {deficit} unreachable with support deltas")
    path = []
    node = 0
    while seen[node] is not None:
        prev, step = seen[node]
        path.append(step)
        node = prev
    for step in reversed(path):
        moved = False
        for a in pairs:
            if counts[a] <= 0:
                continue
            for b in pairs:
                if excess[b] - excess[a] == step:
                    counts[a] -= 1
                    counts[b] += 1
                    moved = True
                    break
            if moved:
                break
        if not moved:
            raise RealizationError("repair move infeasible: no pair has spare count")
