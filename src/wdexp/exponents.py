"""Artin/Swan exponents of representations and their tensor products.

Everything reduces to one closed kernel on pairs of indecomposables:

    dim = r*s*m_i*m_j
    sw  = r*s*m_i*m_j*s(i,j)
    ar  = sw + dim - d*min(r,s),   d = deg_i if j is the dual of i else 0

A pair of unramified indecomposables gives the rank formula r*s - min(r,s).
Terms are resolved to class-index triples once per representation by
`rep.resolve_terms`, and `expand_kernel`, the one loop that evaluates the
kernel, sums it bilinearly over the term pairs of two such tuples in
integers on the model's tables (`ModelInstance.S`, `dim`, `deg`, `dual`).
`indec_tensor_kernel` is its one-term case and `tensor_exponents` its
WDRep form.  `kernel_row` is the kernel of Sp_1(i) with every class at
once, times L; it serves class minimality only.  Twisting
by a character chi puts Sp_1(chi) on the left; Sp_r of the dual orbit of
chi twists into the unramified orbit, with ar = r-1.  `exponents_of` is
the twist by Sp_1(u), whose unit row s(u,i) = slope_i gives
sw = r*m_i*slope_i.  `rep_exponents` builds a representation's record
once: its terms, its dual's (`rep.dual_terms`), its exponents and x ox
dual(x).  Minimality has one shape, a pair (sigma, eta) in the order of
MODES: `rep_minimality` compares every character twist of x's terms with
`exponents_of(x)`, and `is_minimal_rep` reads one mode of it.
`class_minimality` applies it to every Sp_1(i) at once, for the class flags.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from operator import add, eq, mul
from typing import NamedTuple

from .model import UNRAMIFIED_ID, ModelInstance, mode_index
from .rep import WDRep, dual_terms, resolve_terms

# Builds a record from a tuple of its fields in one C call, without the
# Python frame of a NamedTuple's generated __new__.
_new = tuple.__new__


class ExponentReport(NamedTuple):
    """dim/ar/sw are integers; eta = ar/dim and varsigma = sw/dim are None
    exactly for the zero representation."""

    dim: int
    ar: int
    sw: int

    @property
    def eta(self) -> Fraction | None:
        return None if self.dim == 0 else Fraction(self.ar, self.dim)

    @property
    def varsigma(self) -> Fraction | None:
        return None if self.dim == 0 else Fraction(self.sw, self.dim)


def expand_kernel(xs, ys, m: ModelInstance) -> ExponentReport:
    """The kernel summed bilinearly over the term pairs of two resolved
    representations, x's terms outer, in integers on the model's integer
    tables: each term pair's sw = dim*S[a][b]/L must be exact."""
    S, dim, deg, dual, L = m.S, m.dim, m.deg, m.dual, m.L
    n = lsw = lost = 0
    for k, r, a in xs:
        row, ra, da = S[a], r * dim[a], dual[a]
        for l, s, b in ys:
            d = ra * s * dim[b]
            w = d * row[b]
            if w % L:
                raise ValueError(f"sw of Sp_{r}({m.ids[a]}) tensor Sp_{s}({m.ids[b]}) is not an "
                                 f"integer: {Fraction(w, L)}")
            kl = k * l
            n += kl * d
            lsw += kl * w
            if b == da:
                lost += kl * deg[a] * (r if r < s else s)
    sw = lsw // L
    return _new(ExponentReport, (n, sw + n - lost, sw))


def indec_tensor_kernel(r: int, i: str, s: int, j: str, m: ModelInstance) -> tuple[int, int, int]:
    """(ar, sw, dim) of Sp_r(class_i) tensor Sp_s(class_j)."""
    if r < 1 or s < 1:
        raise ValueError("Sp-lengths must be >= 1")
    dim, ar, sw = expand_kernel(((1, r, m.at(i)),), ((1, s, m.at(j)),), m)
    return ar, sw, dim


def kernel_row(a: int, m: ModelInstance) -> tuple[list[int], list[int], list[int]]:
    """The kernel of Sp_1(class a) tensor Sp_1(class b) for every class
    index b, as three lists over b: L*ar, L*sw and dim.  L*sw is a multiple
    of L exactly where sw is an integer; on the other cells, where
    `indec_tensor_kernel` raises, the row holds L times the rational values."""
    L = m.L
    dims = list(map(mul, repeat(m.dim[a]), m.dim))
    lsw = list(map(mul, dims, m.S[a]))
    lar = list(map(add, lsw, map(mul, dims, repeat(L))))
    lar[m.dual[a]] -= L * m.deg[a]
    return lar, lsw, dims


def tensor_exponents(x: WDRep, y: WDRep, m: ModelInstance) -> ExponentReport:
    """Bilinear expansion of the kernel over term pairs; symmetric in x, y."""
    return expand_kernel(resolve_terms(x, m), resolve_terms(y, m), m)


def _unit_twist(terms, m: ModelInstance) -> ExponentReport:
    """The exponents of resolved terms: their twist by Sp_1(u)."""
    return expand_kernel(((1, 1, m.at(UNRAMIFIED_ID)),), terms, m)


def exponents_of(x: WDRep, m: ModelInstance) -> ExponentReport:
    """Exponents of a representation: its twist by the unramified orbit."""
    return _unit_twist(resolve_terms(x, m), m)


def rep_minimality(terms, m: ModelInstance, own: ExponentReport) -> tuple[bool, bool]:
    """(sigma, eta), in the order of MODES: whether no in-model character
    twist of x, resolved to `terms`, has a lower Swan or Artin exponent than
    `own` = exponents_of(x), which is the twist by the unramified orbit.
    Every twist is evaluated before either comparison, so a twist that
    raises does so in both modes."""
    u = m.index.get(UNRAMIFIED_ID)
    twists = [expand_kernel(((1, 1, chi),), terms, m) for chi in m.chars if chi != u]
    return all(t.sw >= own.sw for t in twists), all(t.ar >= own.ar for t in twists)


class RepExponents(NamedTuple):
    """What the bound checks read of one representation x: the resolved
    terms of x and of its dual, its exponents, x ox dual(x), its shape."""

    terms: tuple[tuple[int, int, int], ...]
    dual: tuple[tuple[int, int, int], ...]
    own: ExponentReport
    x_xdual: ExponentReport
    is_indecomposable: bool
    is_irreducible: bool


def rep_exponents(x: WDRep, m: ModelInstance) -> RepExponents:
    """The record of x.  Its dual's terms are those of `rep_dual`, so x ox
    dual(x) raises where `tensor_exponents(x, rep_dual(x, m), m)` does.
    Its shape is read off x.terms once, by the rule of `WDRep.is_irreducible`."""
    xt = x.terms
    indecomposable = len(xt) == 1 and xt[0][0] == 1
    terms = resolve_terms(x, m)
    dterms = dual_terms(terms, m)
    return _new(RepExponents, (terms, dterms, _unit_twist(terms, m),
                               expand_kernel(terms, dterms, m),
                               indecomposable, indecomposable and xt[0][1] == 1))


def is_minimal_rep(x: WDRep, mode: str, m: ModelInstance) -> bool:
    """No in-model character twist lowers the Artin exponent of x (mode
    "eta") or its Swan exponent (mode "sigma")."""
    if x.is_zero:
        raise ValueError("minimality is undefined for the zero representation")
    k, terms = mode_index(mode), resolve_terms(x, m)
    return rep_minimality(terms, m, _unit_twist(terms, m))[k]


def class_minimality(m: ModelInstance) -> tuple[tuple[bool, ...], tuple[bool, ...]]:
    """(sigma, eta), in the order of MODES: bools over the class indices,
    whether `is_minimal_rep` holds for Sp_1 of each class in that mode.
    Cell b of a character's `kernel_row` is the twist of Sp_1(b) by it, and
    cell b of the unramified orbit's row is Sp_1(b) itself, so class b is
    minimal when no character's row falls below the unit row at b.  The
    rows hold L times the exponents, so cells with a non-integral Swan
    exponent, where `is_minimal_rep` raises, compare the rational values.
    Raises ModelStructureError when m has no unramified orbit."""
    ua = m.at(UNRAMIFIED_ID)
    own = kernel_row(ua, m)
    rows = [own if chi == ua else kernel_row(chi, m) for chi in m.chars]
    # Item 1 of a row is L*sw (mode "sigma") and item 0 is L*ar ("eta").
    return tuple(tuple(map(eq, map(min, zip(own[k], *(row[k] for row in rows))), own[k]))
                 for k in (1, 0))


def swan_profile(terms, m: ModelInstance) -> list[tuple[int, int]]:
    """(L*slope, dim) in ints of each group of irreducible Weil-group constituents
    of x, resolved to `terms`: the (key, coefficient) pairs of `mp_vee_weight`."""
    dim, slope = m.dim, m.slope
    return [(slope[a], k * r * dim[a]) for k, r, a in terms]
