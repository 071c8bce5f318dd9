"""Exact-rational helpers shared by the library, the JSON schemas and the CSV writer.

All multiplexing gains and cooperation prelogs in this package are
``fractions.Fraction`` values end to end; floats only ever appear in CSV
output, and even there the exact numerator/denominator pair is kept in
trailing columns.
"""

from __future__ import annotations

from fractions import Fraction


def parse_ratio(text: str) -> Fraction:
    """Parse 'p/q', 'p' or a decimal string into an exact Fraction."""
    return Fraction(text.strip())


def ratio_to_json(x: Fraction | int) -> dict:
    f = Fraction(x)
    return {"num": f.numerator, "den": f.denominator}


def ratio_from_json(obj: dict) -> Fraction:
    return Fraction(obj["num"], obj["den"])


def ratio_to_csv(x: Fraction | int) -> str:
    """Exact decimal when the denominator divides a power of 10, else 12 significant digits."""
    f = Fraction(x)
    den, twos, fives = f.denominator, 0, 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return f"{float(f):.12g}"
    digits = max(twos, fives)
    scaled = f.numerator * 10**digits // f.denominator
    if digits == 0:
        return str(scaled)
    sign = "-" if scaled < 0 else ""
    s = str(abs(scaled)).rjust(digits + 1, "0")
    return f"{sign}{s[:-digits]}.{s[-digits:]}"
