"""Exact-rational helpers shared by the library, the JSON schemas and the CSV writer.

All multiplexing gains and cooperation prelogs in this package are
``fractions.Fraction`` values end to end; floats only ever appear in CSV
output, and even there the exact numerator/denominator pair is kept in
trailing columns; ``ratio_to_csv`` writes a value of denominator 1 as ``str(num)``.
"""

from __future__ import annotations

from fractions import Fraction


def _num_den(x: Fraction | int) -> tuple[int, int]:
    """Lowest-terms pair, read off an int or Fraction without re-wrapping it."""
    f = x if isinstance(x, (int, Fraction)) else Fraction(x)
    return f.numerator, f.denominator


def ratio_to_json(x: Fraction | int) -> dict:
    num, den = _num_den(x)
    return {"num": num, "den": den}


def ratio_from_json(obj: dict) -> Fraction:
    return Fraction(obj["num"], obj["den"])


def ratio_to_csv(x: Fraction | int) -> str:
    return pair_to_csv(*_num_den(x))


def pair_to_csv(num: int, den: int) -> str:
    """Lowest-terms num/den: exact decimal when den divides a power of 10, else 12 digits."""
    if den == 1:
        return str(num)
    twos = (den & -den).bit_length() - 1  # the trailing zero bits
    rest, fives = den >> twos, 0
    while rest % 5 == 0:
        rest //= 5
        fives += 1
    if rest != 1:
        return f"{num / den:.12g}"  # float(Fraction) divides the same ints
    digits = max(twos, fives)
    scaled = num * 10**digits // den
    sign = "-" if scaled < 0 else ""
    s = str(abs(scaled)).rjust(digits + 1, "0")
    return f"{sign}{s[:-digits]}.{s[-digits:]}"
