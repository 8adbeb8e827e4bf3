"""Exact nilpotent linear algebra: ground truth for the unramified theory.

Jordan blocks are realized as genuine matrices, tensor-sum operators
J_p (x) 1 + 1 (x) J_q of block pairs are built explicitly, and ranks come
from exact fraction-free Gaussian elimination.  The operator of two
partitions is the direct sum of its block-pair operators, so its rank is
the sum of the block-pair ranks.  Nothing here consults the pairing
table or the exponent formulas, which is the point: for representations
supported on the unramified orbit, the Artin exponent equals the rank of
the nilpotent operator, so these ranks independently check the formula
path.
"""

from __future__ import annotations

from .model import UNRAMIFIED_ID
from .rep import WDRep


class Partition:
    """Weakly decreasing positive parts.  Immutable, and equal to another
    Partition exactly when the parts are."""

    __slots__ = ("parts",)

    def __init__(self, parts: tuple[int, ...]):
        if any(p < 1 for p in parts):
            raise ValueError(f"parts must be positive: {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"parts must be weakly decreasing: {parts}")
        object.__setattr__(self, "parts", parts)

    def __setattr__(self, name, value):
        raise AttributeError(f"Partition is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"Partition is immutable: cannot delete {name!r}")

    def __eq__(self, other):
        return self.parts == other.parts if other.__class__ is Partition else NotImplemented

    def __hash__(self):
        return hash((self.parts,))

    def __repr__(self):
        return f"Partition(parts={self.parts!r})"

    def __reduce__(self):
        return Partition, (self.parts,)

    @property
    def size(self) -> int:
        return sum(self.parts)

    def __len__(self):
        return len(self.parts)


# -- sparse exact elimination ----------------------------------------------


def exact_rank(rows) -> int:
    """Rank of a matrix given as a list of sparse rows {col: value}.

    Fraction-free: each reduction replaces row by piv_lead*row -
    row_lead*piv, which preserves rank over the rationals exactly.
    """
    pivots: dict[int, dict[int, int]] = {}
    rank = 0
    for row in rows:
        row = {c: v for c, v in row.items() if v}
        while row:
            lead = min(row)
            piv = pivots.get(lead)
            if piv is None:
                pivots[lead] = row
                rank += 1
                break
            a, b = row[lead], piv[lead]
            new = {}
            for c in row.keys() | piv.keys():
                v = b * row.get(c, 0) - a * piv.get(c, 0)
                if v:
                    new[c] = v
            row = new
    return rank


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
    least k is rank(M^(k-1)) - rank(M^k)."""
    seq = [n] + list(ranks)
    while seq[-1] != 0:
        seq.append(0)
    parts = []
    for k in range(1, len(seq)):
        at_least_k = seq[k - 1] - seq[k]
        at_least_k1 = seq[k] - seq[k + 1] if k + 1 < len(seq) else 0
        exactly_k = at_least_k - at_least_k1
        if exactly_k < 0:
            raise ValueError(f"rank sequence {seq} is not convex-decreasing")
        parts.extend([k] * exactly_k)
    parts.sort(reverse=True)
    return Partition(tuple(parts))


# -- tensor-sum operators ----------------------------------------------------


def _tensor_sum_matrix(p: int, q: int) -> dict:
    """Sparse map of J_p (x) 1 + 1 (x) J_q for one block pair.

    Basis vector (i, j) maps to (i+1, j) + (i, j+1), coordinates clipped at
    the block boundary.  Indices are packed by the antidiagonal i+j, which
    keeps elimination fill-in local.
    """
    def idx(i, j):
        return (i + j) * p + i

    mat = {}
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


def nilpotent_rank(a: Partition, b: Partition) -> int:
    """Rank of J_a (x) 1 + 1 (x) J_b by exact elimination.  The operator is
    the direct sum of the block-pair operators J_p (x) 1 + 1 (x) J_q, so its
    rank is the sum of the block-pair ranks."""
    if not a.parts or not b.parts:
        raise ValueError("partitions must be nonempty")
    return sum(exact_rank(_tensor_sum_matrix(p, q).values()) for p in a.parts for q in b.parts)


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
