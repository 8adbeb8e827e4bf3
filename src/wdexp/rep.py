"""Semisimple representations as multisets of indecomposables Sp_r(class).

Text grammar (whitespace-insensitive):

    rep  := term ('+' term)* | '0'
    term := [int '*'] 'Sp_' int '(' id ')'
    int  := [0-9]+   (ASCII digits, as in slopes)

Normalization merges equal indecomposables and sorts terms by
(class id, Sp-length); the canonical printer inverts `parse_rep` on
normalized values.  The empty multiset is the zero representation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .model import ModelInstance


class RepSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class Indecomposable:
    r: int
    cls: str

    def __post_init__(self):
        if self.r < 1:
            raise ValueError(f"Sp-length must be >= 1, got {self.r}")


@dataclass(frozen=True)
class WDRep:
    """terms: tuple of (multiplicity, Indecomposable), normalized."""

    terms: tuple[tuple[int, Indecomposable], ...] = ()

    @staticmethod
    def zero() -> "WDRep":
        return WDRep()

    @staticmethod
    def from_terms(items) -> "WDRep":
        merged: dict[Indecomposable, int] = {}
        for k, ind in items:
            if k < 1:
                raise ValueError(f"multiplicity must be >= 1, got {k}")
            merged[ind] = merged.get(ind, 0) + k
        ordered = sorted(merged.items(), key=lambda kv: (kv[0].cls, kv[0].r))
        return WDRep(tuple((k, ind) for ind, k in ordered))

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
        return self.is_indecomposable and self.terms[0][1].r == 1

    def __add__(self, other: "WDRep") -> "WDRep":
        return WDRep.from_terms(list(self.terms) + list(other.terms))

    def classes(self) -> set[str]:
        return {ind.cls for _, ind in self.terms}


_TOKEN = re.compile(r"(?:(?P<int>[0-9]+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<sym>[*+()]))")


def _tokenize(text: str):
    pos, out = 0, []
    while pos < len(text):
        if text[pos].isspace():
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
        return (mult, Indecomposable(r, cls))

    items = [term()]
    while peek()[0] != "end":
        take("sym", "+")
        items.append(term())
    return WDRep.from_terms(items)


def format_rep(x: WDRep) -> str:
    """Canonical printer; parse_rep(format_rep(x)) == x."""
    if x.is_zero:
        return "0"
    parts = []
    for k, ind in x.terms:
        head = f"{k}*" if k != 1 else ""
        parts.append(f"{head}Sp_{ind.r}({ind.cls})")
    return " + ".join(parts)


def rep_dim(x: WDRep, m: ModelInstance) -> int:
    return sum(k * ind.r * m.cls(ind.cls).dim for k, ind in x.terms)


def rep_dual(x: WDRep, m: ModelInstance) -> WDRep:
    """Replace each class by its dual orbit, preserving lengths and
    multiplicities.  At orbit level this is the contragredient."""
    return WDRep.from_terms(
        (k, Indecomposable(ind.r, m.cls(ind.cls).dual)) for k, ind in x.terms
    )
