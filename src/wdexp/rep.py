"""Semisimple representations as multisets of indecomposables Sp_r(class).

Text grammar (insensitive to ASCII whitespace):

    rep  := term ('+' term)* | '0'
    term := [int '*'] 'Sp_' int '(' id ')'
    int  := [0-9]+   (ASCII digits, as in slopes)

A term is a (multiplicity, Sp-length, class id) triple, the shape that
`resolve_terms` returns with a class index in place of the id.
Normalization merges equal indecomposables and sorts terms by (class id,
Sp-length); the canonical printer inverts `parse_rep` on normalized values.
The empty multiset is the zero representation.  A representation meets a
model only here: `reps`, `resolve_terms` and `dual_terms`, the one dual rule.
"""

from __future__ import annotations

import re
from itertools import combinations_with_replacement
from string import whitespace

from .model import FrozenValue, ModelInstance


class RepSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class WDRep(FrozenValue):
    """terms: tuple of (multiplicity, Sp-length, class id) triples,
    normalized; `resolve_terms` gives the same triples with class indices.
    A `FrozenValue`: immutable, and equal to another WDRep exactly when
    the terms are."""

    __slots__ = ("terms",)

    def __init__(self, terms: tuple[tuple[int, int, str], ...] = ()):
        object.__setattr__(self, "terms", terms)

    @staticmethod
    def zero() -> "WDRep":
        return WDRep()

    @staticmethod
    def from_terms(items) -> "WDRep":
        """Normalize (multiplicity, Sp-length, class id) triples."""
        merged: dict[tuple[str, int], int] = {}
        for k, r, cls in items:
            if r < 1:
                raise ValueError(f"Sp-length must be >= 1, got {r}")
            if k < 1:
                raise ValueError(f"multiplicity must be >= 1, got {k}")
            merged[cls, r] = merged.get((cls, r), 0) + k
        return WDRep(tuple([(k, r, cls) for (cls, r), k in sorted(merged.items())]))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_indecomposable(self) -> bool:
        """A single term Sp_r(i) of multiplicity 1."""
        return len(self.terms) == 1 and self.terms[0][0] == 1

    @property
    def is_irreducible(self) -> bool:
        """A single term Sp_1(i) of multiplicity 1."""
        return self.is_indecomposable and self.terms[0][1] == 1

    def __add__(self, other: "WDRep") -> "WDRep":
        return WDRep.from_terms(self.terms + other.terms)


_TOKEN = re.compile(r"(?:(?P<int>[0-9]+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<sym>[*+()]))")


def _tokenize(text: str):
    pos, out = 0, []
    while pos < len(text):
        if text[pos] in whitespace:
            pos += 1
            continue
        mt = _TOKEN.match(text, pos)
        if mt is None:
            raise RepSyntaxError(f"unexpected character {text[pos]!r}", pos)
        out.append((mt.lastgroup, mt.group(mt.lastgroup), pos))
        pos = mt.end()
    return out


def parse_rep(text: str, m: ModelInstance) -> WDRep:
    """Parse the grammar above against model m; result is normalized."""
    toks = _tokenize(text)
    if not toks:
        raise RepSyntaxError("empty representation expression", 0)

    idx = 0

    def peek():
        return toks[idx] if idx < len(toks) else ("end", "", len(text))

    def take(kind, value=None):
        nonlocal idx
        t = peek()
        if t[0] != kind or (value is not None and t[1] != value):
            want = value if value is not None else kind
            raise RepSyntaxError(f"expected {want!r}, found {t[1]!r}", t[2])
        idx += 1
        return t

    if len(toks) == 1 and toks[0][:2] == ("int", "0"):
        return WDRep.zero()

    def term():
        mult = 1
        t = peek()
        if t[0] == "int":
            mult = int(take("int")[1])
            take("sym", "*")
            if mult < 1:
                raise RepSyntaxError(f"multiplicity must be >= 1, got {mult}", t[2])
        name = take("name")
        mm = re.fullmatch(r"Sp_(\d+)", name[1])
        if not mm:
            raise RepSyntaxError(f"expected 'Sp_<int>', found {name[1]!r}", name[2])
        r = int(mm.group(1))
        if r < 1:
            raise RepSyntaxError(f"Sp-length must be >= 1, got {r}", name[2])
        take("sym", "(")
        cls_tok = take("name")
        cls = cls_tok[1]
        if cls not in m.classes:
            raise RepSyntaxError(f"unknown class id {cls!r}", cls_tok[2])
        take("sym", ")")
        return (mult, r, cls)

    items = [term()]
    while peek()[0] != "end":
        take("sym", "+")
        items.append(term())
    return WDRep.from_terms(items)


def format_rep(x: WDRep) -> str:
    """Canonical printer; parse_rep(format_rep(x)) == x."""
    if x.is_zero:
        return "0"
    return " + ".join(("" if k == 1 else f"{k}*") + f"Sp_{r}({cls})" for k, r, cls in x.terms)


def reps(m: ModelInstance, terms: int, max_r: int) -> list[WDRep]:
    """The one enumeration of small representations: the `from_terms` of each
    multiset of 1..terms singles (1, r, i), i in `m.ids` and r in 1..max_r,
    by size in `combinations_with_replacement` order, C(N + terms, terms) - 1
    of them for N = len(m.ids) * max_r."""
    if terms < 1 or max_r < 1:
        raise ValueError(f"need terms >= 1 and max_r >= 1, got {terms} and {max_r}")
    singles = [(1, r, i) for i in m.ids for r in range(1, max_r + 1)]
    return [WDRep.from_terms(combo) for n in range(1, terms + 1)
            for combo in combinations_with_replacement(singles, n)]


def resolve_terms(x: WDRep, m: ModelInstance) -> tuple[tuple[int, int, int], ...]:
    """The terms of x as (multiplicity, Sp-length, class index) triples."""
    try:
        return tuple([(k, r, m.index[cls]) for k, r, cls in x.terms])
    except KeyError:
        return tuple([(k, r, m.at(cls)) for k, r, cls in x.terms])


def dual_terms(terms, m: ModelInstance) -> tuple[tuple[int, int, int], ...]:
    """The resolved terms of the contragredient, (k, r, dual[a]) in the order
    of a normalized WDRep (indices follow the sorted ids), the one dual rule."""
    return tuple([(k, r, a) for a, r, k in sorted([(m.dual[a], r, k) for k, r, a in terms])])


def rep_dim(x: WDRep, m: ModelInstance) -> int:
    return sum(k * r * m.dim[a] for k, r, a in resolve_terms(x, m))


def rep_dual(x: WDRep, m: ModelInstance) -> WDRep:
    """The contragredient of x: its `dual_terms`, normalized by `from_terms`."""
    dterms = dual_terms(resolve_terms(x, m), m)
    return WDRep.from_terms([(k, r, m.ids[a]) for k, r, a in dterms])
