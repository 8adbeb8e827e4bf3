"""Exact rational parsing and printing.

All quantities in this package are exact: integers or `fractions.Fraction`.
Rationals cross module and file boundaries as reduced "p/q" strings
(plain "p" when the denominator is 1).
"""

from fractions import Fraction
from string import whitespace


def _spelled(text, kind: str) -> str:
    """The text of an outside number, refused if it holds an underscore or
    a non-ASCII character (`int` would read "1_0" as 10 and "١" as 1)."""
    s = str(text)
    if "_" in s or not s.isascii():
        raise ValueError(f"invalid {kind} {text!r}")
    return s


def parse_int(text) -> int:
    """Parse a decimal integer, with an optional sign and outer ASCII
    whitespace, under the spelling rule of `parse_rational`."""
    if isinstance(text, int):
        return int(text)
    return int(_spelled(text, "int"))


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p", with outer ASCII whitespace, into a Fraction.
    Raises ValueError on junk, a zero denominator, an underscore, a
    non-ASCII character and a control character that is not whitespace
    (U+001F, which `str.strip` would drop) included."""
    if isinstance(text, int):
        return Fraction(text)
    s = _spelled(text, "rational").strip(whitespace)
    if "/" in s:
        num, _, den = s.partition("/")
        if int(den) == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(s))


def format_rational(q) -> str:
    """Canonical reduced string: "3/4", "-1/2", "2", "0"."""
    if type(q) is not Fraction:
        q = Fraction(q)
    return format_ratio(q.numerator, q.denominator)


def format_ratio(n: int, d: int) -> str:
    """`format_rational` of n/d for a reduced pair with d > 0, without
    building a Fraction."""
    return str(n) if d == 1 else f"{n}/{d}"
