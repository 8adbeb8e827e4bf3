"""Artin/Swan exponents of representations and their tensor products.

Everything reduces to one closed kernel on pairs of indecomposables,
evaluated only by `indec_tensor_kernel`:

    dim = r*s*m_i*m_j
    sw  = r*s*m_i*m_j*s(i,j)
    ar  = sw + dim - d*min(r,s),   d = deg_i if j is the dual of i else 0

A pair of unramified indecomposables gives the rank formula r*s - min(r,s),
and `tensor_exponents` expands the kernel bilinearly.  `kernel_row` is the
kernel of Sp_1(i) with every class at once, times L, for the validator's
M8 and for class minimality.  Twisting by a character chi puts Sp_1(chi)
on the left; Sp_r of the dual orbit of chi then twists into the unramified
orbit, with ar = r-1.  `exponents_of` is the twist by the unramified orbit
Sp_1(u): the unit row s(u,i) = slope_i gives sw = r*m_i*slope_i,
ar(Sp_r(u)) = r-1 and the additive rule ar(Sp_r(sigma)) = r*ar(sigma) for
ramified sigma.  Minimality has one shape, a pair (sigma, eta) in the
order of MODES: `rep_minimality` evaluates every character twist of x once
and compares both exponents with `exponents_of(x)`, and `is_minimal_rep`
reads one mode of it.  `class_minimality` applies the same rule to every
Sp_1(i) at once, reading the twists off the characters' kernel rows; it is
the one source of the class flags.  The kernel computes in integers on the
model's integer tables (`ModelInstance.S`, `dim`, `deg`, `dual`).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from operator import add, eq, mul
from typing import NamedTuple

from .model import MODES, UNRAMIFIED_ID, ModelInstance
from .rep import WDRep


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

    def exponent(self, mode: str) -> int:
        """ar for mode "eta", sw for mode "sigma"; rejects any other mode."""
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        return self.ar if mode == "eta" else self.sw


def indec_tensor_kernel(r: int, i: str, s: int, j: str, m: ModelInstance) -> tuple[int, int, int]:
    """(ar, sw, dim) of Sp_r(class_i) tensor Sp_s(class_j), in integers on
    the model's integer tables: sw = dim*S[i][j]/L must be exact."""
    if r < 1 or s < 1:
        raise ValueError("Sp-lengths must be >= 1")
    a, b = m.at(i), m.at(j)
    dim = r * s * m.dim[a] * m.dim[b]
    sw, rest = divmod(dim * m.S[a][b], m.L)
    if rest:
        raise ValueError(f"sw of Sp_{r}({i}) tensor Sp_{s}({j}) is not an integer: "
                         f"{Fraction(dim * m.S[a][b], m.L)}")
    d = m.deg[a] if b == m.dual[a] else 0
    return sw + dim - d * min(r, s), sw, dim


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
    ar = sw = dim = 0
    for kx, ix in x.terms:
        for ky, iy in y.terms:
            a, w, d = indec_tensor_kernel(ix.r, ix.cls, iy.r, iy.cls, m)
            ar += kx * ky * a
            sw += kx * ky * w
            dim += kx * ky * d
    return ExponentReport(dim, ar, sw)


def _twist(chi: str, x: WDRep, m: ModelInstance) -> ExponentReport:
    """Exponents of Sp_1(chi) tensor x, term by term through the kernel, not
    `tensor_exponents` on a one-term WDRep: building one per twist made a
    10 x 50 `run_sweep` 16.5% slower (median of 16 interleaved runs, Python
    3.11.7, 2 CPUs)."""
    ar = sw = dim = 0
    for k, ind in x.terms:
        a, w, d = indec_tensor_kernel(1, chi, ind.r, ind.cls, m)
        ar += k * a
        sw += k * w
        dim += k * d
    return ExponentReport(dim, ar, sw)


def exponents_of(x: WDRep, m: ModelInstance) -> ExponentReport:
    """Exponents of a representation: its twist by the unramified orbit."""
    return _twist(UNRAMIFIED_ID, x, m)


def rep_minimality(x: WDRep, m: ModelInstance, own: ExponentReport) -> tuple[bool, bool]:
    """(sigma, eta), in the order of MODES: whether no in-model character
    twist of x has a lower Swan or Artin exponent than `own` =
    exponents_of(x), which is the twist by the unramified orbit.  Every
    twist is evaluated before either comparison, so a twist that raises
    does so in both modes."""
    twists = [_twist(chi, x, m) for chi in m.characters if chi != UNRAMIFIED_ID]
    return all(t.sw >= own.sw for t in twists), all(t.ar >= own.ar for t in twists)


def is_minimal_rep(x: WDRep, mode: str, m: ModelInstance) -> bool:
    """No in-model character twist lowers the Artin exponent of x (mode
    "eta") or its Swan exponent (mode "sigma")."""
    if x.is_zero:
        raise ValueError("minimality is undefined for the zero representation")
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    return rep_minimality(x, m, exponents_of(x, m))[MODES.index(mode)]


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


def swan_profile(x: WDRep, m: ModelInstance) -> list[tuple[int, int]]:
    """(dimension, L*slope) of each group of irreducible constituents of the
    restriction of x to the Weil group, in ints from the model's tables."""
    at, dim, slope = m.at, m.dim, m.slope
    return [(k * ind.r * dim[a], slope[a]) for k, ind in x.terms for a in (at(ind.cls),)]
