"""Exact nilpotent linear algebra: ground truth for the unramified theory.

Jordan blocks are realized as genuine matrices, tensor-sum operators
J_p (x) 1 + 1 (x) J_q of block pairs are built explicitly, and ranks come
from exact fraction-free Gaussian elimination.  The operator of two
partitions is the direct sum of its block-pair operators, so its rank is
the sum of the block-pair ranks.  Equal summands have equal ranks: if p
occurs k times in one partition and q occurs l times in the other, the
pair (p, q) is eliminated once and its rank counted k*l times.  Nothing
here consults the pairing table or the exponent formulas, which is the
point: for representations supported on the unramified orbit, the Artin
exponent equals the rank of the nilpotent operator, so these ranks
independently check the formula path.
"""

from __future__ import annotations

from .model import UNRAMIFIED_ID, FrozenValue
from .rep import WDRep


class Partition(FrozenValue):
    """Weakly decreasing positive parts.  A `FrozenValue`: immutable, and
    equal to another Partition exactly when the parts are."""

    __slots__ = ("parts",)

    def __init__(self, parts: tuple[int, ...]):
        if any(p < 1 for p in parts):
            raise ValueError(f"parts must be positive: {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"parts must be weakly decreasing: {parts}")
        object.__setattr__(self, "parts", parts)

    def __len__(self):
        return len(self.parts)


# -- sparse exact elimination ----------------------------------------------


def exact_rank(rows) -> int:
    """Rank of a matrix given as a list of sparse rows {col: value}.

    Fraction-free: each reduction replaces row by piv_lead*row -
    row_lead*piv, which preserves rank over the rationals exactly.  A
    caller's row is never mutated.  It is copied once, before its first
    reduction (or when it holds a zero entry, which is dropped), and that
    copy is reduced in place: the lead entry cancels exactly (b*a - a*b),
    so it is popped, and only the pivot's other columns are updated.  A row
    that becomes a pivot unreduced is stored as given, so a pivot may be a
    caller's row; pivots are never mutated.  The rank is the number of
    pivots.  Every column of a row and of its pivot is at least the lead,
    so each reduction raises the lead, and a row is reduced at most once
    per column.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        own = not all(row.values())
        if own:
            row = {c: v for c, v in row.items() if v}
        while row:
            lead = min(row)
            piv = pivots.get(lead)
            if piv is None:
                pivots[lead] = row
                break
            if not own:
                row = row.copy()
                own = True
            a = row.pop(lead)
            b = piv[lead]
            if b != 1:
                for c in row:
                    row[c] *= b
            for c, v in piv.items():
                if c != lead:
                    w = row.get(c, 0) - a * v
                    if w:
                        row[c] = w
                    else:
                        del row[c]
    return len(pivots)


def _sparse_mul(a: dict, b: dict) -> dict:
    """Product of sparse maps {row: {col: val}} over a shared index space."""
    out = {}
    for r, row in a.items():
        acc: dict[int, int] = {}
        for k, va in row.items():
            for c, vb in b.get(k, {}).items():
                w = acc.get(c, 0) + va * vb
                if w:
                    acc[c] = w
                else:
                    acc.pop(c, None)
        if acc:
            out[r] = acc
    return out


def rank_sequence(mat: dict, n: int) -> list[int]:
    """[rank(M^1), rank(M^2), ...] down to rank 0; raises if M is not
    nilpotent within n powers."""
    ranks = []
    power = mat
    for _ in range(max(n, 1)):
        r = exact_rank(power.values())
        ranks.append(r)
        if r == 0:
            return ranks
        power = _sparse_mul(power, mat)
    raise ValueError("matrix is not nilpotent")


def jordan_type_from_ranks(n: int, ranks: list[int]) -> Partition:
    """Block sizes from the rank sequence: the number of blocks of size at
    least k is the drop d_k = rank(M^(k-1)) - rank(M^k), so the Jordan type
    is the conjugate partition of the drops, which must not increase."""
    seq = [n] + list(ranks)
    if seq[-1] != 0:
        seq.append(0)
    drops = [a - b for a, b in zip(seq, seq[1:])]
    if any(a < b for a, b in zip(drops, drops[1:] + [0])):
        raise ValueError(f"rank sequence {seq} is not convex-decreasing")
    return Partition(tuple(sum(d >= i for d in drops) for i in range(1, max(drops, default=0) + 1)))


# -- tensor-sum operators ----------------------------------------------------


def _tensor_sum_matrix(p: int, q: int) -> dict:
    """Sparse map of J_p (x) 1 + 1 (x) J_q for one block pair.

    Basis vector (i, j) maps to (i+1, j) + (i, j+1), coordinates clipped at
    the block boundary.  Indices are packed by the antidiagonal i+j, which
    keeps elimination fill-in local.
    """
    mat = {}
    for i in range(p):
        for j in range(q):
            k = (i + j) * p + i
            row = {}
            if i + 1 < p:
                row[k + p + 1] = 1
            if j + 1 < q:
                row[k + p] = 1
            if row:
                mat[k] = row
    return mat


def nilpotent_rank(a: Partition, b: Partition) -> int:
    """Rank of J_a (x) 1 + 1 (x) J_b by exact elimination.  The operator is
    the direct sum of the block-pair operators J_p (x) 1 + 1 (x) J_q, so its
    rank is the sum of the block-pair ranks.  Each distinct pair (p, q) is
    eliminated once and weighted by k*l, where p occurs k times in a and q
    occurs l times in b."""
    if not a.parts or not b.parts:
        raise ValueError("partitions must be nonempty")
    b_mult = _multiplicities(b.parts)
    return sum(k * l * exact_rank(_tensor_sum_matrix(p, q).values())
               for p, k in _multiplicities(a.parts) for q, l in b_mult)


def _multiplicities(parts: tuple[int, ...]) -> list[tuple[int, int]]:
    """(part, multiplicity) of each distinct part, in the order of parts."""
    return [(p, parts.count(p)) for p in dict.fromkeys(parts)]


def tensor_partition(r: int, s: int) -> Partition:
    """Jordan type of J_r (x) 1 + 1 (x) J_s, from the rank sequence of its
    powers.  Has min(r,s) parts summing to r*s."""
    if r < 1 or s < 1:
        raise ValueError("block sizes must be >= 1")
    mat = _tensor_sum_matrix(r, s)
    n = r * s
    return jordan_type_from_ranks(n, rank_sequence(mat, n))


# -- the oracle --------------------------------------------------------------


def _unramified_partition(x: WDRep) -> Partition:
    parts = []
    for k, r, cls in x.terms:
        if cls != UNRAMIFIED_ID:
            raise ValueError(
                f"representation has non-unramified class {cls!r}; the oracle "
                f"only covers the unramified orbit"
            )
        parts.extend([r] * k)
    parts.sort(reverse=True)
    return Partition(tuple(parts))


def unramified_oracle_artin(x: WDRep, y: WDRep) -> int:
    """Artin exponent of x tensor y for unramified-orbit representations,
    computed as the rank of the tensor-sum nilpotent operator."""
    a = _unramified_partition(x)
    b = _unramified_partition(y)
    if not a.parts or not b.parts:
        return 0
    return nilpotent_rank(a, b)
