import json
import math
import tracemalloc

import numpy as np
import pytest

from dcmwalk import (
    BalanceError,
    BiDegreeDistribution,
    BiDegreeSequence,
    CapacityError,
    RealizationError,
    ValidationError,
    out_size_biased,
    realize_sequence,
    sample_dcm,
    validate_sequence,
)
from dcmwalk._checks import narrow_dtype
from dcmwalk.degrees import MAX_DEGREE, _support_counts

from conftest import TOY_PMF, TWO_FACTOR_PMF, poisson_rout_dist, zqcy_dist

FIXTURE_LAWS = {
    "toy": lambda: BiDegreeDistribution(dict(TOY_PMF)),
    "two_factor": lambda: BiDegreeDistribution(dict(TWO_FACTOR_PMF)),
    "zqcy5": lambda: zqcy_dist(5),
    "zqcy10": lambda: zqcy_dist(10),
    "zqcy20": lambda: zqcy_dist(20),
    "poisson_rout": poisson_rout_dist,
}


def empirical_distribution(seq: BiDegreeSequence) -> BiDegreeDistribution:
    """Empirical pmf of the degree pairs: count / n."""
    counts: dict[tuple[int, int], int] = {}
    for pair in seq.degrees:
        counts[pair] = counts.get(pair, 0) + 1
    n = seq.n
    return BiDegreeDistribution({pair: c / n for pair, c in counts.items()})


def total_variation(a: BiDegreeDistribution, b: BiDegreeDistribution) -> float:
    """Total variation distance between two bi-degree distributions."""
    support = set(a.pmf) | set(b.pmf)
    return 0.5 * math.fsum(
        abs(a.pmf.get(pair, 0.0) - b.pmf.get(pair, 0.0)) for pair in support
    )


def test_validate_regular_pair():
    report = validate_sequence(BiDegreeSequence([2, 2], [2, 2]))
    assert report.n == 2 and report.m == 4 and report.lam == 2.0
    assert report.ok


def test_validate_unbalanced_raises():
    with pytest.raises(BalanceError) as err:
        validate_sequence(BiDegreeSequence([1, 2], [2, 2]))
    assert err.value.deficit == -1


def test_validate_toy_blocks():
    seq = BiDegreeSequence(np.repeat([0, 0, 5, 5], 1000), np.repeat([2, 3, 2, 3], 1000))
    report = validate_sequence(seq)
    assert report.lam == pytest.approx(2.5)
    assert report.delta_out == 2 and report.min_out_ok


def test_validate_flags_low_out_degree():
    report = validate_sequence(BiDegreeSequence([1, 1], [1, 1]))
    assert "min_out_degree_below_2" in report.flags


def test_distribution_requires_normalization():
    with pytest.raises(ValidationError):
        BiDegreeDistribution({(2, 2): 0.5})


def test_realize_exact_multiple():
    seq = realize_sequence(BiDegreeDistribution({(2, 2): 1.0}), 10)
    assert seq.degrees == ((2, 2),) * 10


def test_realize_toy_4000(toy_dist):
    seq = realize_sequence(toy_dist, 4000)
    assert seq.n == 4000 and seq.m == 10000
    counts = {}
    for pair in seq.degrees:
        counts[pair] = counts.get(pair, 0) + 1
    assert counts == {pair: 1000 for pair in TOY_PMF}


def test_realize_toy_4001_tv_bound(toy_dist):
    seq = realize_sequence(toy_dist, 4001)
    assert seq.n == 4001 and seq.m == seq.in_degrees.sum() == seq.out_degrees.sum()
    tv = total_variation(empirical_distribution(seq), toy_dist)
    assert tv <= 4 / 4001


def test_realize_infeasible_single_point():
    # A lone support pair with k != ell cannot balance any n.
    with pytest.raises(RealizationError):
        realize_sequence(BiDegreeDistribution({(1, 2): 1.0}), 5)


def test_realize_infeasible_parity():
    # Mean-balanced, but integer counts need n even; all repair moves shift
    # the deficit by 4 while rounding leaves it at 2.
    mirror = BiDegreeDistribution({(0, 2): 0.5, (2, 0): 0.5})
    with pytest.raises(RealizationError):
        realize_sequence(mirror, 5)
    assert realize_sequence(mirror, 6).m == 6


def test_realize_rejects_unbalanced_mean():
    skew = BiDegreeDistribution({(1, 2): 0.5, (2, 2): 0.5})
    with pytest.raises(RealizationError):
        realize_sequence(skew, 100)


def test_empirical_inverts_realize(toy_dist):
    seq = realize_sequence(toy_dist, 4000)
    emp = empirical_distribution(seq)
    assert emp.pmf == {pair: pytest.approx(0.25) for pair in TOY_PMF}


def test_empirical_counts():
    # The oracle of the total-variation bounds below.
    emp = empirical_distribution(BiDegreeSequence([0, 2, 2], [2, 2, 0]))
    assert emp.pmf == {
        (0, 2): pytest.approx(1 / 3),
        (2, 2): pytest.approx(1 / 3),
        (2, 0): pytest.approx(1 / 3),
    }


def random_balanced_law(rng) -> BiDegreeDistribution:
    """A random mean-balanced law on up to six pairs with degrees below 7."""
    size = int(rng.integers(2, 6))
    pairs = [(int(k), int(l)) for k, l in rng.integers(0, 7, size=(size, 2))]
    pairs = sorted(set(pairs) | {(3, 3)})
    probs = rng.dirichlet(np.ones(len(pairs)))
    # Mirroring each pair's mass forces mean balance exactly.
    balanced = {}
    for (k, l), w in zip(pairs, probs):
        balanced[(k, l)] = balanced.get((k, l), 0.0) + float(w) / 2
        balanced[(l, k)] = balanced.get((l, k), 0.0) + float(w) / 2
    return BiDegreeDistribution(balanced)


def test_realize_empirical_tv_property():
    # Random mean-balanced distributions: realize -> empirical stays within
    # (max_in + max_out) * |support| / n of the original in total variation.
    rng = np.random.default_rng(7)
    for _ in range(25):
        dist = random_balanced_law(rng)
        n = int(rng.integers(50, 400))
        try:
            seq = realize_sequence(dist, n)
        except RealizationError:
            continue
        report = validate_sequence(seq, max_degree_cap=64)
        assert report.n == n
        bound = (dist.max_in + dist.max_out) * len(dist.pmf) / n
        assert total_variation(empirical_distribution(seq), dist) <= bound


def test_distribution_json_roundtrip(toy_dist):
    text = toy_dist.to_json()
    again = BiDegreeDistribution.from_json(text)
    assert again.pmf == toy_dist.pmf
    parsed = json.loads(text)
    assert all(set(e) == {"in", "out", "p"} for e in parsed["pmf"])


@pytest.mark.parametrize("name", FIXTURE_LAWS)
def test_distribution_json_round_trip_is_lossless(name):
    # The law and its out-size-biased offspring law: equal on reload, keys
    # in sorted order, and the same bytes written again.
    dist = FIXTURE_LAWS[name]()
    eta = out_size_biased(dist)
    for law in (dist, eta):
        text = law.to_json()
        again = type(law).from_json(text)
        assert again == law
        assert list(again.pmf) == law.support
        assert again.to_json() == text


def test_degree_cap_is_one_constant():
    # A law at the cap is built and reloaded; one past it is refused both
    # ways, so every law that can be built can be reloaded.
    at_cap = BiDegreeDistribution({(MAX_DEGREE, 2): 0.5, (0, MAX_DEGREE): 0.5})
    assert BiDegreeDistribution.from_json(at_cap.to_json()) == at_cap
    over = MAX_DEGREE + 1
    with pytest.raises(ValidationError):
        BiDegreeDistribution({(over, 2): 1.0})
    with pytest.raises(ValidationError):
        BiDegreeDistribution.from_json(f'{{"pmf": [{{"in": {over}, "out": 2, "p": 1.0}}]}}')


def test_realize_arrays_match_pair_expansion(toy_dist):
    # Reference: the tuple expansion, [pair] * count in support order.
    rng = np.random.default_rng(11)
    laws = [toy_dist] + [random_balanced_law(rng) for _ in range(20)]
    checked = 0
    for dist in laws:
        for n in (1, 7, 100, 1001, 4096):
            try:
                seq = realize_sequence(dist, n)
            except RealizationError:
                continue
            counts = _support_counts(dist, n)
            expected = []
            for pair in dist.support:
                expected.extend([pair] * counts[pair])
            assert seq.degrees == tuple(expected)
            assert np.array_equal(seq.in_degrees, [k for k, _ in expected])
            assert np.array_equal(seq.out_degrees, [l for _, l in expected])
            assert seq.in_degrees.dtype == seq.out_degrees.dtype == np.int8
            checked += 1
    assert checked >= 60


def test_realize_holds_one_copy_of_the_sequence(toy_dist):
    # realize adopts the two int64 arrays it builds instead of copying
    # them: its traced peak is their bytes plus a 64 KB slack, and a second
    # copy of either array (2 MB each at n = 2^18) exceeds that.
    n, slack = 2**18, 64 * 1024
    tracemalloc.start()
    try:
        seq = realize_sequence(toy_dist, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= seq.in_degrees.nbytes + seq.out_degrees.nbytes + slack
    with pytest.raises(ValueError):
        seq.out_degrees[0] = 9  # read-only


def test_from_arrays_leaves_caller_arrays_writable():
    # The constructor copies: the caller's arrays stay writable and its
    # later writes do not reach the sequence, whose own arrays are read-only.
    d_in, d_out = np.array([1, 2], dtype=np.int64), np.array([2, 1], dtype=np.int64)
    seq = BiDegreeSequence(d_in, d_out)
    assert d_in.flags.writeable and d_out.flags.writeable
    d_in[0] = 5
    assert seq.in_degrees[0] == 1
    assert (seq.n, seq.m, seq.degrees) == (2, 3, ((1, 2), (2, 1)))
    assert all(type(v) is int for pair in seq.degrees for v in pair)
    with pytest.raises(ValueError):
        seq.in_degrees[0] = 9  # read-only


@pytest.mark.parametrize(
    "top, dtype", [(127, np.int8), (128, np.int16), (2**15, np.int32), (2**31, np.int64)]
)
def test_degree_arrays_take_the_narrowest_signed_dtype(top, dtype):
    # Each array is stored in the narrowest signed dtype that holds its own
    # largest degree, whatever dtype it is given in.
    for given in (list, np.int64, np.uint64, np.uint32):
        d_in, d_out = [top, 0], [0, top]
        if given is not list:
            d_in, d_out = np.array(d_in, dtype=given), np.array(d_out, dtype=given)
        seq = BiDegreeSequence(d_in, d_out)
        assert seq.in_degrees.dtype == seq.out_degrees.dtype == dtype == narrow_dtype(
            np.array([0, top]))
        assert (seq.m, seq.degrees) == (top, ((top, 0), (0, top)))
    seq = BiDegreeSequence([top, 3], [2, 1 + top])
    assert (seq.in_degrees.dtype, seq.out_degrees.dtype) == (dtype, narrow_dtype(
        np.array([top + 1])))


def test_stored_degree_dtypes_are_signed():
    # Unsigned inputs are stored signed: numpy's cumulative sum of an
    # unsigned array is uint64, which mixed with int64 gives float64.
    for given in (np.uint8, np.uint16, np.uint32, np.uint64, np.int16, np.int32):
        seq = BiDegreeSequence(np.array([200, 1], dtype=given), np.array([1, 200], dtype=given))
        for arr in (seq.in_degrees, seq.out_degrees):
            assert arr.dtype == np.int16 and arr.dtype.kind == "i"
            assert np.cumsum(arr).dtype == np.int64
    realized = 0
    for dist in FIXTURE_LAWS.values():
        try:
            seq = realize_sequence(dist(), 1000)
        except RealizationError:
            continue
        assert seq.in_degrees.dtype == seq.out_degrees.dtype == np.int8
        realized += 1
    assert realized >= 4


def test_unbalanced_sequence_is_refused_when_built():
    # m heads pair with m tails: a sequence with sum(d_in) != sum(d_out)
    # is never built, so no later step needs to check its balance.
    with pytest.raises(BalanceError) as err:
        BiDegreeSequence([0, 3, 2, 1], [2, 1, 2, 0])
    assert (err.value.head_total, err.value.tail_total, err.value.deficit) == (6, 5, 1)
    assert "deficit 1" in str(err.value)


def test_degree_totals_do_not_wrap():
    # Four in-degrees of 2^62 sum to 0 in int64, as do four zeros: the
    # totals are compared exactly, so the sequence is unbalanced.
    with pytest.raises(BalanceError) as err:
        BiDegreeSequence([2**62] * 4, [0] * 4)
    assert (err.value.head_total, err.value.tail_total) == (2**64, 0)


def test_sampling_a_total_beyond_the_address_space_is_a_capacity_error():
    # A balanced total past int64, and one that fits int64 but not as int32
    # successors in the address space: each sequence is built, and sampling
    # it raises CapacityError before any array is allocated.
    for degrees in ([2**62] * 4, [2**61] * 2):
        seq = BiDegreeSequence(degrees, degrees)
        assert seq.m == sum(degrees)
        with pytest.raises(CapacityError):
            sample_dcm(seq)


def test_sequence_construction_rejects_bad_input():
    with pytest.raises(ValidationError):
        BiDegreeSequence([], [])
    with pytest.raises(ValidationError):
        BiDegreeSequence([[1, 2]], [[2, 1]])
    with pytest.raises(ValidationError, match=r"\(2, -1\)"):
        BiDegreeSequence([1, 2], [2, -1])
    with pytest.raises(ValidationError):
        BiDegreeSequence([1, 2], [1])
