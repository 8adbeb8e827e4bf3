"""Artin/Swan exponents of representations and their tensor products.

Everything reduces to one closed kernel on pairs of indecomposables:

    dim = r*s*m_i*m_j
    sw  = r*s*m_i*m_j*s(i,j)
    ar  = sw + dim - d*min(r,s),   d = deg_i if j is the dual of i else 0

which specializes to ar(Sp_r(unramified)) = r-1, to the additive rule
ar(Sp_r(sigma)) = r*ar(sigma) for ramified sigma, and to the rank formula
m*n - min(m,n) for a pair of unramified indecomposables.  Exponents are
additive over direct sums and the tensor expands bilinearly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .model import UNRAMIFIED_ID, ModelInstance
from .rep import WDRep, rep_dim


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


def _as_int(q: Fraction, what: str) -> int:
    if q.denominator != 1:
        raise ValueError(f"{what} is not an integer: {q}")
    return q.numerator


def exponents_of(x: WDRep, m: ModelInstance) -> ExponentReport:
    """Exponents of a representation, additive over its terms."""
    ar = 0
    sw = 0
    for k, ind in x.terms:
        c = m.cls(ind.cls)
        sw_cls = _as_int(c.dim * c.slope, f"Swan exponent of class {ind.cls}")
        sw += k * ind.r * sw_cls
        if ind.cls == UNRAMIFIED_ID:
            ar += k * (ind.r - 1)
        else:
            ar += k * ind.r * (sw_cls + c.dim)
    return ExponentReport(rep_dim(x, m), ar, sw)


def indec_tensor_kernel(r: int, i: str, s: int, j: str, m: ModelInstance) -> tuple[int, int, int]:
    """(ar, sw, dim) of Sp_r(class_i) tensor Sp_s(class_j)."""
    if r < 1 or s < 1:
        raise ValueError("Sp-lengths must be >= 1")
    ci, cj = m.cls(i), m.cls(j)
    dim = r * s * ci.dim * cj.dim
    sw = _as_int(Fraction(dim) * m.pair(i, j), f"sw of Sp_{r}({i}) tensor Sp_{s}({j})")
    d = ci.deg if j == ci.dual else 0
    ar = sw + dim - d * min(r, s)
    return ar, sw, dim


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


def twisted_artin(chi: str, x: WDRep, m: ModelInstance) -> int:
    """Artin exponent of (character chi) tensor x.

    Needs only pairing values: each term Sp_r(i) contributes
    r*m_i*(s(chi,i)+1), except that it contributes r-1 when dim_i = 1 and
    chi is the dual orbit of i, the twist then landing in the unramified
    orbit.  Equals ar(x) when chi is the unramified orbit.
    """
    if chi not in m.characters:
        raise ValueError(f"{chi!r} is not a character class of the model")
    total = 0
    for k, ind in x.terms:
        c = m.cls(ind.cls)
        if c.dim == 1 and chi == c.dual:
            total += k * (ind.r - 1)
        else:
            total += k * ind.r * _as_int(
                c.dim * (m.pair(chi, ind.cls) + 1), "twisted Artin exponent"
            )
    return total


def twisted_swan(chi: str, x: WDRep, m: ModelInstance) -> int:
    """Swan exponent of (character chi) tensor x; no special case needed,
    the dual-orbit coincidence already has pairing slope 0."""
    if chi not in m.characters:
        raise ValueError(f"{chi!r} is not a character class of the model")
    total = Fraction(0)
    for k, ind in x.terms:
        c = m.cls(ind.cls)
        total += k * ind.r * c.dim * m.pair(chi, ind.cls)
    return _as_int(total, "twisted Swan exponent")


def is_eta_minimal_rep(x: WDRep, m: ModelInstance) -> bool:
    """No in-model character twist lowers the Artin exponent of x."""
    if x.is_zero:
        raise ValueError("minimality is undefined for the zero representation")
    ar = exponents_of(x, m).ar
    return all(twisted_artin(chi, x, m) >= ar for chi in m.characters)


def is_sigma_minimal_rep(x: WDRep, m: ModelInstance) -> bool:
    """No in-model character twist lowers the Swan exponent of x."""
    if x.is_zero:
        raise ValueError("minimality is undefined for the zero representation")
    sw = exponents_of(x, m).sw
    return all(twisted_swan(chi, x, m) >= sw for chi in m.characters)


def is_minimal_rep(x: WDRep, mode: str, m: ModelInstance) -> bool:
    if mode == "eta":
        return is_eta_minimal_rep(x, m)
    if mode == "sigma":
        return is_sigma_minimal_rep(x, m)
    raise ValueError(f"mode must be 'eta' or 'sigma', got {mode!r}")


def swan_profile(x: WDRep, m: ModelInstance) -> list[tuple[int, Fraction]]:
    """(dimension, slope) of each group of irreducible constituents of the
    restriction of x to the Weil group; feeds the max-plus S-map."""
    return [(k * ind.r * m.dim(ind.cls), m.slope(ind.cls)) for k, ind in x.terms]


def is_eta_homogeneous(x: WDRep, m: ModelInstance) -> bool:
    """All irreducible constituents share one normalized Artin exponent.

    Unramified constituents have the value 0; any ramified class i
    contributes slope_i + 1.
    """
    if x.is_zero:
        raise ValueError("homogeneity is undefined for the zero representation")
    values = set()
    for _, ind in x.terms:
        if ind.cls == UNRAMIFIED_ID:
            values.add(Fraction(0))
        else:
            values.add(m.slope(ind.cls) + 1)
    return len(values) == 1
