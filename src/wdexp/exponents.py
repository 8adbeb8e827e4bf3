"""Artin/Swan exponents of representations and their tensor products.

Everything reduces to one closed kernel on pairs of indecomposables,
evaluated only by `indec_tensor_kernel`:

    dim = r*s*m_i*m_j
    sw  = r*s*m_i*m_j*s(i,j)
    ar  = sw + dim - d*min(r,s),   d = deg_i if j is the dual of i else 0

A pair of unramified indecomposables gives the rank formula r*s - min(r,s),
and `tensor_exponents` expands the kernel bilinearly.  `kernel_row` is the
kernel of Sp_1(i) with every class at once, times L, for the validator's
M8; the kernel and the row share the one formula, `_artin`.  Twisting by a
character chi puts Sp_1(chi) on the left; Sp_r of the dual orbit of chi
then twists into the unramified orbit, with ar = r-1.  `exponents_of` is
the twist by the unramified orbit Sp_1(u): the unit row s(u,i) = slope_i
gives sw = r*m_i*slope_i, ar(Sp_r(u)) = r-1 and the additive rule
ar(Sp_r(sigma)) = r*ar(sigma) for ramified sigma.  `character_twists`
lists the character twists of x once, and `is_minimal_among` compares them
with `exponents_of(x)` for either mode.  The kernel computes in integers
on the model's integer tables (`ModelInstance.S`, `dim`, `deg`, `dual`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .model import MODES, UNRAMIFIED_ID, ModelInstance
from .rep import WDRep


@dataclass(frozen=True)
class ExponentReport:
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

    def normalized(self, mode: str) -> Fraction:
        """eta for mode "eta", varsigma for mode "sigma"."""
        if self.dim == 0:
            raise ValueError("normalized exponent undefined for the zero representation")
        return Fraction(self.exponent(mode), self.dim)


def _artin(sw: int, dim: int, fixed: int) -> int:
    """The Artin exponent ar = sw + dim - fixed of Sp_r(class_i) tensor
    Sp_s(class_j), fixed = d*min(r,s); linear, so L times each argument
    gives L*ar."""
    return sw + dim - fixed


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
    return _artin(sw, dim, d * min(r, s)), sw, dim


def kernel_row(a: int, m: ModelInstance) -> tuple[list[int], list[int], list[int]]:
    """The kernel of Sp_1(class a) tensor Sp_1(class b) for every class
    index b, as three lists over b: L*ar, dim, and L*sw mod L.  The last is
    nonzero exactly where sw is not an integer, the cells on which
    `indec_tensor_kernel` raises; the others hold L times its ar."""
    L, da = m.L, m.dim[a]
    dims = [da * db for db in m.dim]
    lsw = list(map(mul, dims, m.S[a]))
    fixed = [0] * len(dims)
    fixed[m.dual[a]] = L * m.deg[a]
    return list(map(_artin, lsw, [L * d for d in dims], fixed)), dims, [w % L for w in lsw]


def tensor_exponents(x: WDRep, y: WDRep, m: ModelInstance) -> ExponentReport:
    """Bilinear expansion of the kernel over term pairs; symmetric in x, y."""
    ar = 0
    sw = 0
    dim = 0
    for kx, ix in x.terms:
        for ky, iy in y.terms:
            a, w, d = indec_tensor_kernel(ix.r, ix.cls, iy.r, iy.cls, m)
            ar += kx * ky * a
            sw += kx * ky * w
            dim += kx * ky * d
    return ExponentReport(dim, ar, sw)


def _twist(chi: str, x: WDRep, m: ModelInstance) -> ExponentReport:
    """Exponents of Sp_1(chi) tensor x, term by term through the kernel."""
    ar = 0
    sw = 0
    dim = 0
    for k, ind in x.terms:
        a, w, d = indec_tensor_kernel(1, chi, ind.r, ind.cls, m)
        ar += k * a
        sw += k * w
        dim += k * d
    return ExponentReport(dim, ar, sw)


def exponents_of(x: WDRep, m: ModelInstance) -> ExponentReport:
    """Exponents of a representation: its twist by the unramified orbit."""
    return _twist(UNRAMIFIED_ID, x, m)


def character_twists(x: WDRep, m: ModelInstance, own: ExponentReport) -> list[ExponentReport]:
    """x twisted by each in-model character; `own` = exponents_of(x) stands
    in for the twist by the unramified orbit, which it equals."""
    return [own if chi == UNRAMIFIED_ID else _twist(chi, x, m) for chi in m.characters]


def is_minimal_among(own: ExponentReport, twists, mode: str) -> bool:
    """The minimality rule: no twist has a lower Artin exponent (mode
    "eta") or Swan exponent (mode "sigma") than `own`."""
    least = own.exponent(mode)
    return all(t.exponent(mode) >= least for t in twists)


def is_minimal_rep(x: WDRep, mode: str, m: ModelInstance) -> bool:
    """No in-model character twist lowers the Artin exponent of x (mode
    "eta") or its Swan exponent (mode "sigma")."""
    if x.is_zero:
        raise ValueError("minimality is undefined for the zero representation")
    own = exponents_of(x, m)
    return is_minimal_among(own, character_twists(x, m, own), mode)


def swan_profile(x: WDRep, m: ModelInstance) -> list[tuple[int, Fraction]]:
    """(dimension, slope) of each group of irreducible constituents of the
    restriction of x to the Weil group; feeds the max-plus S-map."""
    return [(k * ind.r * m.cls(ind.cls).dim, m.cls(ind.cls).slope) for k, ind in x.terms]
