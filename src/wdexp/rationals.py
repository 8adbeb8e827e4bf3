"""Exact rational parsing and printing.

All quantities in this package are exact: integers or `fractions.Fraction`.
Rationals cross module and file boundaries as reduced "p/q" strings
(plain "p" when the denominator is 1).
"""

from fractions import Fraction


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" into a Fraction. Raises ValueError on junk,
    a zero denominator, an underscore and a non-ASCII character included
    (`int` would read "1_0" as 10 and "١" as 1)."""
    if isinstance(text, int):
        return Fraction(text)
    s = str(text)
    if "_" in s or not s.isascii():
        raise ValueError(f"invalid rational {text!r}")
    s = s.strip()
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
