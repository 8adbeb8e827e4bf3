"""Integer group ring on rational keys with the max product.

Elements are finite formal sums sum_a c_a*[a] with integer coefficients and
rational keys.  Addition is coefficient-wise; the vee product is the
bi-additive extension of [a] v [b] = [max(a,b)].  Two homomorphisms read off
totals: degree d([a]) = 1 and weight v([a]) = a.  The positive cone A+
(keys >= 0, coefficients >= 0) is where representations land via the S-map,
with d = dimension and v = Swan exponent.  `mp_vee_weight` sums v(x vee y)
without building x vee y; the Swan bridge feeds it L-scaled int slopes.
"""

from __future__ import annotations

from fractions import Fraction

from .rationals import format_rational


class MaxPlusElem:
    """Canonical form: no zero coefficients, keys are Fractions."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        d: dict[Fraction, int] = {}
        items = coeffs.items() if isinstance(coeffs, dict) else coeffs
        for a, c in items:
            if type(a) is not Fraction:
                a = Fraction(a)
            if type(c) is not int:
                c = int(c)
            if c:
                c += d.get(a, 0)
                if c:
                    d[a] = c
                else:
                    del d[a]
        self.coeffs = d

    @staticmethod
    def zero() -> "MaxPlusElem":
        return MaxPlusElem()

    def __add__(self, other: "MaxPlusElem") -> "MaxPlusElem":
        return MaxPlusElem(list(self.coeffs.items()) + list(other.coeffs.items()))

    def __eq__(self, other):
        return isinstance(other, MaxPlusElem) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __bool__(self):
        return bool(self.coeffs)

    def __repr__(self):
        return " + ".join(f"{'' if c == 1 else c}[{format_rational(a)}]"
                          for a, c in sorted(self.coeffs.items())) or "0"


def mp_vee(x: MaxPlusElem, y: MaxPlusElem) -> MaxPlusElem:
    """Bi-additive extension of [a] v [b] = [max(a,b)]."""
    out: dict[Fraction, int] = {}
    for a, ca in x.coeffs.items():
        for b, cb in y.coeffs.items():
            k = max(a, b)
            out[k] = out.get(k, 0) + ca * cb
    return MaxPlusElem(out)


def mp_vee_weight(xs, ys):
    """v(x vee y) = sum c_a*c_b*max(a, b) over two collections of (key,
    coefficient) pairs, keys int or Fraction; 0 if either is empty."""
    return sum([ca * cb * (a if a >= b else b) for a, ca in xs for b, cb in ys])


def mp_degree_weight(x: MaxPlusElem) -> tuple[int, Fraction]:
    """(d, v) = (sum of coefficients, key-weighted sum of coefficients)."""
    return sum(x.coeffs.values()), sum((c * a for a, c in x.coeffs.items()), Fraction(0))


def s_map(constituents) -> MaxPlusElem:
    """sum dim_i * [slope_i] over (dim, slope) pairs; lands in A+ with
    d = total dimension and v = total Swan exponent."""
    items = []
    for dim, slope in constituents:
        if type(dim) is not int:
            dim = int(dim)
        if type(slope) is not Fraction:
            slope = Fraction(slope)
        if dim < 1:
            raise ValueError(f"dimension must be >= 1, got {dim}")
        if slope < 0:
            raise ValueError(f"slope must be >= 0, got {slope}")
        items.append((slope, dim))
    return MaxPlusElem(items)


def _pair_weights(d1: int, v1, d2: int, v2) -> tuple[Fraction, Fraction]:
    """(v1, v2) as Fractions, once degrees >= 1 and weights >= 0 are checked."""
    v1, v2 = Fraction(v1), Fraction(v2)
    if d1 < 1 or d2 < 1:
        raise ValueError("degrees must be >= 1")
    if v1 < 0 or v2 < 0:
        raise ValueError("weights must be >= 0")
    return v1, v2


def pair_upper_bound(d1: int, v1, d2: int, v2) -> Fraction:
    """d2*v1 + d1*v2 - min(v1, v2): the weight bound for the vee product of
    positive-cone elements with the given degrees and weights."""
    v1, v2 = _pair_weights(d1, v1, d2, v2)
    return d2 * v1 + d1 * v2 - min(v1, v2)


def optimal_witness(d1: int, v1, d2: int, v2) -> tuple[MaxPlusElem, MaxPlusElem]:
    """Positive-cone elements with the prescribed (d, v) whose vee product
    attains pair_upper_bound exactly: (d_k - 1)[0] + [v_k]."""
    v1, v2 = _pair_weights(d1, v1, d2, v2)
    return (MaxPlusElem([(Fraction(0), d1 - 1), (v1, 1)]),
            MaxPlusElem([(Fraction(0), d2 - 1), (v2, 1)]))


def pair_witness(d1: int, v1, d2: int, v2) -> tuple[Fraction, MaxPlusElem, MaxPlusElem, Fraction]:
    """(bound, w1, w2, weight): `pair_upper_bound`, the `optimal_witness`
    pair and the weight v(w1 vee w2) of that pair, which equals the bound."""
    bound = pair_upper_bound(d1, v1, d2, v2)
    w1, w2 = optimal_witness(d1, v1, d2, v2)
    return bound, w1, w2, mp_vee_weight(w1.coeffs.items(), w2.coeffs.items())
