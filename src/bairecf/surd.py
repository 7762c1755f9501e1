"""Quadratic surds (p + q*sqrt(d))/r with exact integer-only decisions.

A surd stands for one specific irrational number.  Comparison against any
rational is decided exactly and never answers "equal" (d is not a perfect
square), the floor needs no rounding, and 1/(s - floor(s)) stays in the same
shape with the same radicand.  Digit expansion builds no surds: it runs on
integers in ``cf.expand_surd``.  This is not a general algebraic-number type.
"""

from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .rational import INT_DIGITS, check_digit_budget


class Ordering(enum.Enum):
    LT = "LT"
    GT = "GT"


@dataclass(frozen=True)
class QuadraticSurd:
    """(p + q*sqrt(d))/r, reduced, with r > 0, q != 0, d >= 2 not a square."""

    p: int
    q: int
    d: int
    r: int = 1

    def __post_init__(self):
        p, q, d, r = self.p, self.q, self.d, self.r
        for name, v in (("p", p), ("q", q), ("d", d), ("r", r)):
            if not isinstance(v, int):
                raise ValueError(f"{name} must be an integer, got {v!r}")
        if d < 2 or math.isqrt(d) ** 2 == d:
            raise ValueError(f"radicand must be >= 2 and not a perfect square, got {d}")
        if q == 0:
            raise ValueError("q = 0 would make the value rational; use Fraction instead")
        if r == 0:
            raise ValueError("zero denominator")
        if r < 0:
            p, q, r = -p, -q, -r
        g = math.gcd(p, q, r)
        object.__setattr__(self, "p", p // g)
        object.__setattr__(self, "q", q // g)
        object.__setattr__(self, "r", r // g)

    def compare(self, x: Fraction | int) -> Ordering:
        """Exact order against a rational; never equal."""
        x = Fraction(x)
        # sign of (p + q*sqrt(d))/r - a/b  ==  sign of (p*b - a*r) + (q*b)*sqrt(d)
        a_part = self.p * x.denominator - x.numerator * self.r
        b_part = self.q * x.denominator
        if b_part > 0:
            if a_part >= 0:
                return Ordering.GT
            return Ordering.GT if b_part * b_part * self.d > a_part * a_part else Ordering.LT
        if a_part <= 0:
            return Ordering.LT
        return Ordering.GT if a_part * a_part > b_part * b_part * self.d else Ordering.LT

    def floor(self) -> int:
        """Greatest integer below the value (the value is never an integer)."""
        u = math.isqrt(self.q * self.q * self.d)
        floor_q_sqrt = u if self.q > 0 else -u - 1
        return (self.p + floor_q_sqrt) // self.r

    def recip_frac(self) -> QuadraticSurd:
        """1/(s - floor(s)); always > 1, same radicand."""
        p1 = self.p - self.floor() * self.r
        den = p1 * p1 - self.q * self.q * self.d  # never 0: d is not a square
        return QuadraticSurd(self.r * p1, -self.r * self.q, self.d, den)

    def __floor__(self) -> int:
        return self.floor()

    def __lt__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.compare(other) is Ordering.LT
        return NotImplemented

    def __gt__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.compare(other) is Ordering.GT
        return NotImplemented

    def __le__(self, other):
        return self.__lt__(other)

    def __ge__(self, other):
        return self.__gt__(other)

    def __str__(self) -> str:
        return format_surd(self)


_SURD_RE = re.compile(
    rf"\s*\(\s*(-?{INT_DIGITS})\s*([+-])\s*({INT_DIGITS})\s*\*\s*"
    rf"sqrt\(\s*({INT_DIGITS})\s*\)\s*\)\s*/\s*(-?{INT_DIGITS})\s*$"
)


def parse_surd(text: str) -> QuadraticSurd:
    m = _SURD_RE.match(text)
    if m is None:
        check_digit_budget(text, "surd parameter")
        raise ValueError(f"not a surd (expected \"(p+q*sqrt(d))/r\"): {text!r}")
    p = int(m.group(1))
    q = int(m.group(3)) * (1 if m.group(2) == "+" else -1)
    return QuadraticSurd(p, q, int(m.group(4)), int(m.group(5)))


def format_surd(s: QuadraticSurd) -> str:
    sign = "+" if s.q >= 0 else "-"
    return f"({s.p}{sign}{abs(s.q)}*sqrt({s.d}))/{s.r}"
