"""Exact rational plumbing.

Rationals are plain ``fractions.Fraction`` values: stored reduced, denominator
positive, arbitrary precision.  The text format is ``p/q`` with ``/q`` omitted
for integers; ``parse_rational``/``format_rational`` round-trip bit-exactly.
Both refuse integers over MAX_DIGITS digits: 4300, the interpreter's default
limit, or its limit at import if that is lower, so CPython's own conversion
error never shows.  Every parser reads integers as ``INT_DIGITS`` and names an
overlong one with ``check_digit_budget``, and ``check_int_budget`` refuses
computed ones.
``rational_pairs`` reads many texts in the same grammar, and under the same
budget, as reduced integer (numerator, denominator) pairs, with no
``Fraction`` per text.
"""

from __future__ import annotations

import re
import sys
from contextlib import suppress
from fractions import Fraction
from itertools import filterfalse, repeat
from math import gcd
from operator import floordiv
from typing import Iterable

Rational = Fraction
# CPython's default int <-> str limit, or the interpreter's nonzero limit if lower
MAX_DIGITS = min(4300, getattr(sys, "get_int_max_str_digits", int)() or 4300)
_DIGITS_CAP = 10**MAX_DIGITS
INT_DIGITS = rf"\d{{1,{MAX_DIGITS}}}"  # the digits of an integer within the budget
_OVERLONG = re.compile(rf"\d{{{MAX_DIGITS + 1}}}")

_RATIONAL_RE = re.compile(rf"\s*(-?{INT_DIGITS})\s*(?:/\s*({INT_DIGITS})\s*)?$")
_INT_RE = re.compile(rf"-?{INT_DIGITS}")
_INT_LIST_CHARS = re.compile(r"[\s\d,-]*")


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
    return _format_ratio(*Fraction(x).as_integer_ratio())


def _format_ratio(p: int, q: int) -> str:
    if abs(p) >= _DIGITS_CAP or q >= _DIGITS_CAP:
        raise ValueError(f"result exceeds the {MAX_DIGITS}-digit budget; use a lower depth")
    return f"{p}/{q}" if q != 1 else str(p)  # str(Fraction(p, q)) for coprime p, q > 0


def _parse_ints(body: str) -> tuple[int, ...] | str:
    """The integers of a comma list of -?INT_DIGITS between any whitespace, else its first bad
    token.  On these characters and at most MAX_DIGITS per token, ``int`` reads just such
    tokens, pads but \\x1c-\\x1f included; the loop strips each token."""
    toks = body.replace(", ", ",").split(",")  # one-digit tokens stay shared 1-char strings
    if _INT_LIST_CHARS.fullmatch(body) and max(map(len, toks)) <= MAX_DIGITS:
        with suppress(ValueError):
            return tuple(map(int, toks))
    bad = next(filterfalse(_INT_RE.fullmatch, map(str.strip, toks)), None)
    return tuple(map(int, map(str.strip, toks))) if bad is None else bad


def _format_ints(values: tuple[int, ...], sep: str) -> str:
    """``sep.join(map(str, values))`` in one %-format pass, about twice as fast."""
    return ((f"%s{sep}" * len(values)) % values)[: -len(sep)]


def euclid_div(a: int, b: int) -> tuple[int, int]:
    """Quotient and remainder with 0 <= r < b, also for negative dividends."""
    if b <= 0:
        raise ValueError(f"divisor must be positive, got {b}")
    # Python's // is floor division for ints, which is exactly this contract.
    return a // b, a % b
