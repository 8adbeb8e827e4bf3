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
from wdexp.rep import Indecomposable, WDRep, parse_rep


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


def test_empty_partition_rejected():
    with pytest.raises(ValueError):
        nilpotent_rank(Partition(()), Partition((1,)))


def test_tensor_partition_examples():
    assert tensor_partition(1, 5).parts == (5,)
    assert tensor_partition(2, 2).parts == (3, 1)
    assert tensor_partition(2, 3).parts == (4, 2)
    assert tensor_partition(3, 3).parts == (5, 3, 1)


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
        mat = _tensor_sum_matrix(Partition((r,)), Partition((s,)))
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


def test_oracle_rejects_ramified(zoo_model):
    with pytest.raises(ValueError):
        unramified_oracle_artin(
            parse_rep("Sp_1(a)", zoo_model), parse_rep("Sp_1(u)", zoo_model)
        )


def test_oracle_agrees_with_formula_random(unit_model):
    rng = SplitMix64(99)
    for _ in range(40):
        terms_x = [(1, Indecomposable(1 + rng.below(6), "u")) for _ in range(1 + rng.below(3))]
        terms_y = [(1, Indecomposable(1 + rng.below(6), "u")) for _ in range(1 + rng.below(3))]
        x, y = WDRep.from_terms(terms_x), WDRep.from_terms(terms_y)
        assert unramified_oracle_artin(x, y) == tensor_exponents(x, y, unit_model).ar
