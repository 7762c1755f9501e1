"""Exact rational plumbing.

Rationals are plain ``fractions.Fraction`` values: stored reduced, denominator
positive, arbitrary precision.  The text format is ``p/q`` with ``/q`` omitted
for integers; ``parse_rational``/``format_rational`` round-trip bit-exactly.
Both refuse integers over MAX_DIGITS digits, the interpreter's own default;
every parser reads integers as ``INT_DIGITS`` and names an overlong one with
``check_digit_budget``, and ``check_int_budget`` refuses computed ones.
``rational_pairs`` reads many texts in the same grammar, and under the same
budget, as reduced integer (numerator, denominator) pairs, with no
``Fraction`` per text.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import repeat
from math import gcd
from operator import floordiv
from typing import Iterable

Rational = Fraction
MAX_DIGITS = 4300  # CPython's default int <-> str limit, which is never lifted
_DIGITS_CAP = 10**MAX_DIGITS
INT_DIGITS = rf"\d{{1,{MAX_DIGITS}}}"  # the digits of an integer within the budget
_OVERLONG = re.compile(rf"\d{{{MAX_DIGITS + 1}}}")

_RATIONAL_RE = re.compile(rf"\s*(-?{INT_DIGITS})\s*(?:/\s*({INT_DIGITS})\s*)?$")


def check_digit_budget(text: str, what: str) -> None:
    """Refuse a text with a run of more than MAX_DIGITS digits.  Parsers call this only
    once their INT_DIGITS patterns fail to match, so input that parses pays nothing."""
    if _OVERLONG.search(text):
        raise ValueError(f"{what} exceeds the {MAX_DIGITS}-digit budget")


def check_int_budget(values: Iterable[int], what: str) -> None:
    """Refuse integers that would print with more than MAX_DIGITS digits, in one
    builtin pass.  Code that can produce such integers calls this on its results."""
    if max(map(abs, values), default=0) >= _DIGITS_CAP:
        raise ValueError(f"{what} exceeds the {MAX_DIGITS}-digit budget")


def parse_rational(text: str) -> Fraction:
    m = _RATIONAL_RE.match(text)
    if m is None:
        check_digit_budget(text, "rational")
        raise ValueError(f"not a rational: {text!r}")
    num, den = int(m.group(1)), int(m.group(2) or "1")
    if den == 0:
        raise ValueError(f"zero denominator: {text!r}")
    return Fraction(num, den)


def rational_pairs(texts: list[str]) -> list[tuple[int, int]]:
    """Reduced (numerator, denominator) pairs of texts, each read as parse_rational reads it.

    Each distinct text is read once, in one regex pass and builtin maps; a
    loop runs only to raise parse_rational's error for the first text that
    fails.  Distinct texts keep their first-seen order, so that text is the
    first failing one of ``texts``.
    """
    distinct = list(dict.fromkeys(texts))
    found = list(map(_RATIONAL_RE.match, distinct))
    if not all(found):
        for text in distinct:
            parse_rational(text)
    num_texts, den_texts = zip(*map(re.Match.groups, found, repeat("1"))) if found else ((), ())
    nums, dens = list(map(int, num_texts)), list(map(int, den_texts))
    if 0 in dens:
        parse_rational(distinct[dens.index(0)])
    common = list(map(gcd, nums, dens))
    reduced = zip(map(floordiv, nums, common), map(floordiv, dens, common))
    return list(map(dict(zip(distinct, reduced)).__getitem__, texts))


def format_rational(x: Fraction) -> str:
    x = Fraction(x)
    if abs(x.numerator) >= _DIGITS_CAP or x.denominator >= _DIGITS_CAP:
        raise ValueError(f"result exceeds the {MAX_DIGITS}-digit budget; use a lower depth")
    return str(x)


def euclid_div(a: int, b: int) -> tuple[int, int]:
    """Quotient and remainder with 0 <= r < b, also for negative dividends."""
    if b <= 0:
        raise ValueError(f"divisor must be positive, got {b}")
    # Python's // is floor division for ints, which is exactly this contract.
    return a // b, a % b
