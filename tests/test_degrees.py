import json

import numpy as np
import pytest

from dcmwalk import (
    BalanceError,
    BiDegreeDistribution,
    BiDegreeSequence,
    RealizationError,
    ValidationError,
    empirical_distribution,
    realize_sequence,
    validate_sequence,
)
from dcmwalk.degrees import _support_counts, total_variation

from conftest import TOY_PMF


def test_validate_regular_pair():
    report = validate_sequence(BiDegreeSequence(((2, 2), (2, 2))))
    assert report.n == 2 and report.m == 4 and report.lam == 2.0
    assert report.ok


def test_validate_unbalanced_raises():
    with pytest.raises(BalanceError) as err:
        validate_sequence(BiDegreeSequence(((1, 2), (2, 2))))
    assert err.value.deficit == -1


def test_validate_toy_blocks():
    degrees = [(0, 2)] * 1000 + [(0, 3)] * 1000 + [(5, 2)] * 1000 + [(5, 3)] * 1000
    report = validate_sequence(BiDegreeSequence(tuple(degrees)))
    assert report.lam == pytest.approx(2.5)
    assert report.delta_out == 2 and report.min_out_ok


def test_validate_flags_low_out_degree():
    report = validate_sequence(BiDegreeSequence(((1, 1), (1, 1))))
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
    assert seq.n == 4001 and seq.balanced
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
    assert realize_sequence(mirror, 6).balanced


def test_realize_rejects_unbalanced_mean():
    skew = BiDegreeDistribution({(1, 2): 0.5, (2, 2): 0.5})
    with pytest.raises(RealizationError):
        realize_sequence(skew, 100)


def test_empirical_inverts_realize(toy_dist):
    seq = realize_sequence(toy_dist, 4000)
    emp = empirical_distribution(seq)
    assert emp.pmf == {pair: pytest.approx(0.25) for pair in TOY_PMF}


def test_empirical_counts():
    emp = empirical_distribution(BiDegreeSequence(((0, 2), (2, 2), (2, 0))))
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


def test_sequence_file_roundtrip(tmp_path, toy_dist):
    seq = realize_sequence(toy_dist, 40)
    path = tmp_path / "seq.txt"
    seq.to_file(path)
    assert BiDegreeSequence.from_file(path).degrees == seq.degrees


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
            assert seq.in_degrees.dtype == seq.out_degrees.dtype == np.int64
            checked += 1
    assert checked >= 60


def test_sequence_tuple_and_array_construction_agree(tmp_path):
    pairs = ((0, 2), (3, 1), (2, 2), (1, 0))
    from_tuples = BiDegreeSequence(pairs)
    from_arrays = BiDegreeSequence.from_arrays(
        np.array([0, 3, 2, 1]), np.array([2, 1, 2, 0])
    )
    assert from_tuples == from_arrays
    for seq in (from_tuples, from_arrays):
        assert seq.degrees == pairs
        assert all(type(v) is int for pair in seq.degrees for v in pair)
        assert np.array_equal(seq.in_degrees, [0, 3, 2, 1])
        assert np.array_equal(seq.out_degrees, [2, 1, 2, 0])
        assert (seq.n, seq.head_total, seq.tail_total) == (4, 6, 5)
        with pytest.raises(ValueError):
            seq.in_degrees[0] = 9  # read-only
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    from_tuples.to_file(a)
    from_arrays.to_file(b)
    assert a.read_bytes() == b.read_bytes()
    assert BiDegreeSequence.from_file(b) == from_tuples


def test_sequence_construction_rejects_bad_input():
    with pytest.raises(ValidationError):
        BiDegreeSequence(())
    with pytest.raises(ValidationError):
        BiDegreeSequence(((1, 2, 3),))
    with pytest.raises(ValidationError, match=r"\(2, -1\)"):
        BiDegreeSequence(((1, 1), (2, -1)))
    with pytest.raises(ValidationError):
        BiDegreeSequence.from_arrays([1, 2], [1])
