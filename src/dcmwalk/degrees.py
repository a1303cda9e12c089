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
from functools import cached_property

import numpy as np

from .errors import BalanceError, RealizationError, ValidationError

PROB_TOL = 1e-12
DEFAULT_MAX_DEGREE = 64


@dataclass(frozen=True)
class BiDegreeDistribution:
    """Probability mass function over (in-degree, out-degree) pairs.

    Probabilities must be in [0, 1] and sum to 1 within 1e-12. Mean balance
    (E[D_in] == E[D_out]) is required for model use but only flagged here;
    see :attr:`mean_balanced`.
    """

    pmf: dict[tuple[int, int], float]
    max_degree: int = DEFAULT_MAX_DEGREE

    def __post_init__(self):
        cleaned = {}
        for pair, p in self.pmf.items():
            k, ell = int(pair[0]), int(pair[1])
            if k < 0 or ell < 0:
                raise ValidationError(f"negative degree in support pair {pair}")
            if k > self.max_degree or ell > self.max_degree:
                raise ValidationError(
                    f"degree pair {pair} exceeds cap {self.max_degree}"
                )
            if p < -PROB_TOL or p > 1 + PROB_TOL:
                raise ValidationError(f"probability {p} for {pair} outside [0, 1]")
            if p > 0.0:
                cleaned[(k, ell)] = float(p)
        if not cleaned:
            raise ValidationError("empty distribution support")
        total = math.fsum(cleaned.values())
        if abs(total - 1.0) > PROB_TOL:
            raise ValidationError(f"probabilities sum to {total}, not 1")
        object.__setattr__(self, "pmf", cleaned)

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
    def from_json(cls, text: str, max_degree: int = DEFAULT_MAX_DEGREE) -> "BiDegreeDistribution":
        data = json.loads(text)
        if not isinstance(data, dict) or "pmf" not in data:
            raise ValidationError('distribution JSON must be {"pmf": [...]}')
        pmf: dict[tuple[int, int], float] = {}
        for entry in data["pmf"]:
            try:
                pair = (int(entry["in"]), int(entry["out"]))
                p = float(entry["p"])
            except (KeyError, TypeError, ValueError) as exc:
                raise ValidationError(f"bad pmf entry {entry!r}") from exc
            pmf[pair] = pmf.get(pair, 0.0) + p
        return cls(pmf, max_degree=max_degree)


class BiDegreeSequence:
    """Per-vertex (in-degree, out-degree) pairs, held as two read-only int64
    arrays; build one from pairs or with :meth:`from_arrays`.

    Construction is permissive about head/tail balance so that
    :func:`validate_sequence` can report the deficit; every model operation
    requires a balanced sequence.
    """

    def __init__(self, degrees):
        pairs = np.array(degrees, dtype=np.int64)
        if pairs.size and (pairs.ndim != 2 or pairs.shape[1] != 2):
            raise ValidationError("degree sequence must be (d_in, d_out) pairs")
        self._set_arrays(*pairs.reshape(-1, 2).T)

    @classmethod
    def from_arrays(cls, in_degrees, out_degrees) -> "BiDegreeSequence":
        """Sequence whose vertex v has degrees (in_degrees[v], out_degrees[v])."""
        seq = cls.__new__(cls)
        seq._set_arrays(in_degrees, out_degrees)
        return seq

    def _set_arrays(self, in_degrees, out_degrees) -> None:
        kin = np.array(in_degrees, dtype=np.int64)
        kout = np.array(out_degrees, dtype=np.int64)
        if kin.ndim != 1 or kin.shape != kout.shape:
            raise ValidationError("in- and out-degree arrays differ in shape")
        if len(kin) == 0:
            raise ValidationError("empty degree sequence")
        bad = np.flatnonzero((kin < 0) | (kout < 0))
        if len(bad):
            v = bad[0]
            raise ValidationError(f"negative degree in pair ({kin[v]}, {kout[v]})")
        kin.flags.writeable = kout.flags.writeable = False
        self.in_degrees, self.out_degrees = kin, kout

    def __eq__(self, other) -> bool:
        if not isinstance(other, BiDegreeSequence):
            return NotImplemented
        return np.array_equal(self.in_degrees, other.in_degrees) and np.array_equal(
            self.out_degrees, other.out_degrees
        )

    @property
    def degrees(self) -> tuple[tuple[int, int], ...]:
        """The pairs as a tuple of Python int tuples, built on each access."""
        return tuple(zip(self.in_degrees.tolist(), self.out_degrees.tolist()))

    @property
    def n(self) -> int:
        return len(self.in_degrees)

    @cached_property
    def head_total(self) -> int:
        return int(self.in_degrees.sum())

    @cached_property
    def tail_total(self) -> int:
        return int(self.out_degrees.sum())

    @property
    def balanced(self) -> bool:
        return self.head_total == self.tail_total

    @property
    def m(self) -> int:
        """Total edge count; defined only for balanced sequences."""
        if not self.balanced:
            raise BalanceError(self.head_total, self.tail_total)
        return self.tail_total

    def to_file(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for k, ell in self.degrees:
                fh.write(f"{k} {ell}\n")

    @classmethod
    def from_file(cls, path) -> "BiDegreeSequence":
        degrees = []
        with open(path, "r", encoding="ascii") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                parts = line.split()
                if len(parts) != 2:
                    raise ValidationError(f"{path}:{lineno}: expected 'd_in d_out'")
                degrees.append((int(parts[0]), int(parts[1])))
        return cls(tuple(degrees))


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of :func:`validate_sequence`; balance failures raise instead."""

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
    seq: BiDegreeSequence, max_degree_cap: int = DEFAULT_MAX_DEGREE
) -> ValidationReport:
    """Check a sequence against the model hypotheses.

    Head/tail imbalance is a hard error (:class:`BalanceError`); a minimum
    out-degree below 2 or degrees above the cap are reported as flags.
    """
    if not seq.balanced:
        raise BalanceError(seq.head_total, seq.tail_total)
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


def empirical_distribution(seq: BiDegreeSequence) -> BiDegreeDistribution:
    """Empirical pmf of the degree pairs: count / n."""
    counts: dict[tuple[int, int], int] = {}
    for pair in seq.degrees:
        counts[pair] = counts.get(pair, 0) + 1
    n = seq.n
    max_deg = max(max(k for k, _ in counts), max(ell for _, ell in counts))
    return BiDegreeDistribution(
        {pair: c / n for pair, c in counts.items()},
        max_degree=max(DEFAULT_MAX_DEGREE, max_deg),
    )


def realize_sequence(dist: BiDegreeDistribution, n: int) -> BiDegreeSequence:
    """Realize a mean-balanced distribution as a balanced n-vertex sequence.

    Counts start at round(n * p) per support pair, then a deterministic
    repair pass restores sum(counts) == n and exact head/tail balance by
    moving unit counts between support pairs (lexicographic preference,
    shortest move sequence via breadth-first search over the imbalance).
    The repair perturbs O(max_degree * |support|) vertices, so the empirical
    distribution of the result is within O(1/n) of `dist` in total variation.
    Vertices come grouped by pair, in support order.
    """
    pairs = dist.support
    counts = _support_counts(dist, n)
    reps = [counts[pair] for pair in pairs]
    seq = BiDegreeSequence.from_arrays(
        np.repeat([k for k, _ in pairs], reps), np.repeat([ell for _, ell in pairs], reps)
    )
    if not seq.balanced:
        raise RealizationError("repair failed to balance head and tail totals")
    return seq


def _support_counts(dist: BiDegreeDistribution, n: int) -> dict[tuple[int, int], int]:
    """Vertex count per support pair for :func:`realize_sequence`."""
    if n < 1:
        raise RealizationError(f"need n >= 1, got {n}")
    if not dist.mean_balanced:
        raise RealizationError(
            f"distribution is not mean-balanced: "
            f"E[D_in]={dist.mean_in!r} != E[D_out]={dist.mean_out!r}"
        )
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


def total_variation(
    a: BiDegreeDistribution, b: BiDegreeDistribution
) -> float:
    """Total variation distance between two bi-degree distributions."""
    support = set(a.pmf) | set(b.pmf)
    return 0.5 * math.fsum(
        abs(a.pmf.get(pair, 0.0) - b.pmf.get(pair, 0.0)) for pair in support
    )
