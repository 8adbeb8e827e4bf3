from fractions import Fraction

import pytest

from wdexp.exponents import tensor_exponents
from wdexp.generator import SplitMix64
from wdexp.jordan import (
    Partition,
    _tensor_sum_matrix,
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
    assert sum(p.parts) == 9
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


def test_repeated_parts_eliminated_once_and_weighted(monkeypatch):
    # (3,3,1) x (2,2) has six block pairs but two distinct ones, (3,2) and
    # (1,2): each is eliminated once and its rank counted 2*2 and 1*2 times
    import wdexp.jordan

    calls = []

    def counting_rank(rows):
        calls.append(1)
        return exact_rank(rows)

    monkeypatch.setattr(wdexp.jordan, "exact_rank", counting_rank)
    got = nilpotent_rank(Partition((3, 3, 1)), Partition((2, 2)))
    assert len(calls) == 2
    assert got == sum(p * q - min(p, q) for p in (3, 3, 1) for q in (2, 2)) == 18


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
            assert sum(p.parts) == r * s
            assert p.parts == tensor_partition(s, r).parts


def test_tensor_sum_matrix_from_its_definition():
    # basis (i, j) sits at (i + j)*p + i and maps to (i+1, j) + (i, j+1),
    # clipped at the block edge; keys, values and key order must match
    for p in range(1, 9):
        for q in range(1, 9):
            at = {(i, j): (i + j) * p + i for i in range(p) for j in range(q)}
            assert len(set(at.values())) == p * q
            expected = {}
            for (i, j), k in at.items():
                row = {at[n]: 1 for n in ((i + 1, j), (i, j + 1)) if n in at}
                if row:
                    expected[k] = row
            got = _tensor_sum_matrix(p, q)
            assert got == expected, (p, q)
            assert list(got) == list(expected), (p, q)
            assert all(list(got[k]) == list(expected[k]) for k in got), (p, q)


def test_rank_sequence_convex_decreasing():
    for r, s in ((2, 2), (3, 4), (5, 2)):
        mat = _tensor_sum_matrix(r, s)
        seq = [r * s] + rank_sequence(mat, r * s)
        diffs = [seq[k] - seq[k + 1] for k in range(len(seq) - 1)]
        assert all(d >= 0 for d in diffs)
        assert all(diffs[k] >= diffs[k + 1] for k in range(len(diffs) - 1))


def test_jordan_type_from_bad_ranks_rejected():
    with pytest.raises(ValueError):
        jordan_type_from_ranks(4, [1, 2, 0])


def test_jordan_type_round_trips_every_small_partition():
    # rank(N^k) = sum of max(lambda_i - k, 0) for the nilpotent N of Jordan
    # type lambda, down to the first 0
    count = 0
    for n in range(1, 11):
        for parts in _partitions(n):
            ranks = [sum(max(p - k, 0) for p in parts) for k in range(1, parts[0] + 1)]
            assert jordan_type_from_ranks(n, ranks) == Partition(parts), parts
            count += 1
    assert count == 138  # p(1) + ... + p(10)


def test_exact_rank_rational_entries():
    rows = [
        {0: Fraction(1, 2), 1: Fraction(1, 3)},
        {0: Fraction(3, 2), 1: Fraction(5)},
        {0: Fraction(2), 1: Fraction(4, 3)},  # 4x the first row
    ]
    assert exact_rank(rows) == 2


def test_exact_rank_dependent_rows():
    # the reduction of the second row by the first must cancel to nothing
    assert exact_rank([{0: 1, 1: 1}, {0: 2, 1: 2}]) == 1
    assert exact_rank([{0: 1, 1: 1}, {0: 2, 1: 3}]) == 2


def _dense_rank(rows) -> int:
    """Reference: dense Gauss-Jordan elimination over Fraction."""
    cols = sorted({c for row in rows for c in row})
    mat = [[Fraction(row.get(c, 0)) for c in cols] for row in rows]
    rank = 0
    for j in range(len(cols)):
        piv = next((i for i in range(rank, len(mat)) if mat[i][j]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        lead = mat[rank][j]
        mat[rank] = [v / lead for v in mat[rank]]
        for i, other in enumerate(mat):
            if i != rank and other[j]:
                f = other[j]
                mat[i] = [v - f * w for v, w in zip(other, mat[rank])]
        rank += 1
    return rank


def _random_sparse_rows(rng) -> list:
    """Up to 8 sparse rows over up to 8 columns, with empty rows, explicit
    zero entries, repeated rows (the same dict or an equal one) and
    multiples of earlier rows."""
    values = (0, 1, -1, 2, -2, 3, Fraction(1, 2), Fraction(-1, 3))
    width = 1 + rng.below(8)
    rows = []
    for _ in range(rng.below(9)):
        kind = rng.below(8) if rows else 0
        if kind == 5:
            rows.append({})
        elif kind == 6:
            earlier = rng.choice(rows)
            rows.append(earlier if rng.below(2) else dict(earlier))
        elif kind == 7:
            f = rng.choice(values[1:])
            rows.append({c: f * v for c, v in rng.choice(rows).items()})
        else:
            rows.append({c: rng.choice(values) for c in range(width) if rng.below(3)})
    return rows


def test_exact_rank_matches_dense_reference_and_leaves_rows_alone():
    rng = SplitMix64(38)
    for case in range(1200):
        rows = _random_sparse_rows(rng)
        before = [dict(row) for row in rows]
        assert exact_rank(rows) == _dense_rank(before), (case, before)
        assert rows == before, case
        # rows as a dict view, as rank_sequence and nilpotent_rank pass them
        mat = dict(enumerate(rows))
        assert exact_rank(mat.values()) == _dense_rank(before), (case, before)
        assert list(mat.values()) == before, case


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
