from fractions import Fraction

import pytest

from wdexp.exponents import tensor_exponents
from wdexp.generator import SplitMix64
from wdexp.jordan import (
    Partition,
    exact_rank,
    jordan_type_from_ranks,
    nilpotent_rank,
    rank_sequence,
    tensor_partition,
    unramified_oracle_artin,
)
from wdexp.rep import WDRep, parse_rep


def test_partition_invariants():
    p = Partition((4, 2, 2, 1))
    assert p.size == 9
    assert len(p) == 4
    with pytest.raises(ValueError):
        Partition((2, 3))
    with pytest.raises(ValueError):
        Partition((0,))


def test_single_block_rank_examples():
    assert nilpotent_rank(Partition((2,)), Partition((3,))) == 4
    assert nilpotent_rank(Partition((1,)), Partition((1,))) == 0
    assert nilpotent_rank(Partition((4,)), Partition((4,))) == 12


def test_single_block_law_small_range():
    for m in range(1, 9):
        for n in range(1, 9):
            assert nilpotent_rank(Partition((m,)), Partition((n,))) == m * n - min(m, n)


def test_multi_block_rank_additive_structure():
    # rank of a block-diagonal operator equals the sum over block pairs
    got = nilpotent_rank(Partition((2, 2)), Partition((3, 1)))
    expected = sum(
        p * q - min(p, q) for p in (2, 2) for q in (3, 1)
    )
    assert got == expected


def _packed_tensor_sum_matrix(a: Partition, b: Partition) -> dict:
    """Reference: the sparse map of J_a (x) 1 + 1 (x) J_b for the
    block-diagonal nilpotents of both partitions, as one matrix.  Basis
    vector (block pair bp, i, j) maps to (bp, i+1, j) + (bp, i, j+1),
    coordinates clipped at the block boundary."""
    mat = {}
    offsets = []
    base = 0
    width = max(list(a.parts) + list(b.parts)) + 2
    for p in a.parts:
        for q in b.parts:
            offsets.append((base, p, q))
            base += (p + q + 2) * width
    for base_idx, p, q in offsets:
        def idx(i, j):
            return base_idx + (i + j) * width + i
        for i in range(p):
            for j in range(q):
                row = {}
                if i + 1 < p:
                    row[idx(i + 1, j)] = 1
                if j + 1 < q:
                    row[idx(i, j + 1)] = 1
                if row:
                    mat[idx(i, j)] = row
    return mat


def _partitions(n, largest=None):
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest or n), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def test_block_pair_rank_sum_matches_one_packed_elimination():
    # the operator is a direct sum over block pairs, so eliminating the
    # whole packed matrix at once gives the sum of the block-pair ranks
    parts = [Partition(t) for n in range(1, 7) for t in _partitions(n)]
    assert len(parts) == 29
    for a in parts:
        for b in parts:
            expected = exact_rank(_packed_tensor_sum_matrix(a, b).values())
            assert nilpotent_rank(a, b) == expected, (a, b)


def test_empty_partition_rejected():
    with pytest.raises(ValueError):
        nilpotent_rank(Partition(()), Partition((1,)))


def test_tensor_partition_examples():
    assert tensor_partition(1, 5).parts == (5,)
    assert tensor_partition(2, 2).parts == (3, 1)
    assert tensor_partition(2, 3).parts == (4, 2)
    assert tensor_partition(3, 3).parts == (5, 3, 1)
    for r, s in ((0, 1), (1, 0), (-1, 2)):
        with pytest.raises(ValueError, match="block sizes must be >= 1"):
            tensor_partition(r, s)


def test_tensor_partition_laws():
    for r in range(1, 9):
        for s in range(1, 9):
            p = tensor_partition(r, s)
            assert len(p) == min(r, s)
            assert p.size == r * s
            assert p.parts == tensor_partition(s, r).parts


def test_rank_sequence_convex_decreasing():
    from wdexp.jordan import _tensor_sum_matrix

    for r, s in ((2, 2), (3, 4), (5, 2)):
        mat = _tensor_sum_matrix(r, s)
        seq = [r * s] + rank_sequence(mat, r * s)
        diffs = [seq[k] - seq[k + 1] for k in range(len(seq) - 1)]
        assert all(d >= 0 for d in diffs)
        assert all(diffs[k] >= diffs[k + 1] for k in range(len(diffs) - 1))


def test_jordan_type_from_bad_ranks_rejected():
    with pytest.raises(ValueError):
        jordan_type_from_ranks(4, [1, 2, 0])


def test_exact_rank_rational_entries():
    rows = [
        {0: Fraction(1, 2), 1: Fraction(1, 3)},
        {0: Fraction(3, 2), 1: Fraction(5)},
        {0: Fraction(2), 1: Fraction(4, 3)},  # 4x the first row
    ]
    assert exact_rank(rows) == 2


def test_oracle_examples(unit_model):
    x = parse_rep("Sp_2(u)", unit_model)
    y = parse_rep("Sp_3(u)", unit_model)
    assert unramified_oracle_artin(x, y) == 4
    one = parse_rep("Sp_1(u)", unit_model)
    for ytext in ("Sp_3(u)", "Sp_2(u) + Sp_5(u)", "4*Sp_1(u)"):
        yy = parse_rep(ytext, unit_model)
        from wdexp.exponents import exponents_of

        assert unramified_oracle_artin(one, yy) == exponents_of(yy, unit_model).ar
    xx = parse_rep("2*Sp_2(u)", unit_model)
    assert unramified_oracle_artin(xx, y) == 8
    # the zero representation tensors to zero: Artin exponent 0
    assert unramified_oracle_artin(WDRep.zero(), y) == unramified_oracle_artin(y, WDRep.zero()) == 0


def test_oracle_rejects_ramified(zoo_model):
    with pytest.raises(ValueError):
        unramified_oracle_artin(
            parse_rep("Sp_1(a)", zoo_model), parse_rep("Sp_1(u)", zoo_model)
        )


def test_oracle_agrees_with_formula_random(unit_model):
    rng = SplitMix64(99)
    for _ in range(40):
        terms_x = [(1, 1 + rng.below(6), "u") for _ in range(1 + rng.below(3))]
        terms_y = [(1, 1 + rng.below(6), "u") for _ in range(1 + rng.below(3))]
        x, y = WDRep.from_terms(terms_x), WDRep.from_terms(terms_y)
        assert unramified_oracle_artin(x, y) == tensor_exponents(x, y, unit_model).ar
