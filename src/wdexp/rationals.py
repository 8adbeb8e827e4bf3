"""Exact rational parsing and printing.

All quantities in this package are exact: integers or `fractions.Fraction`.
Rationals cross module and file boundaries as reduced "p/q" strings
(plain "p" when the denominator is 1).
"""

from fractions import Fraction


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
    """Parse "p/q" or "p" into a Fraction. Raises ValueError on junk,
    a zero denominator, an underscore and a non-ASCII character included."""
    if isinstance(text, int):
        return Fraction(text)
    s = _spelled(text, "rational").strip()
    if "/" in s:
        num, _, den = s.partition("/")
        if int(den) == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(s))


def format_rational(q) -> str:
    """Canonical reduced string: "3/4", "-1/2", "2", "0"."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"
