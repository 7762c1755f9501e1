"""Finite-precision two-way dictionary between digit sequences and irrationals.

Forward: a point of the integer-headed sequence space, read to a given depth,
names a nested open rational interval (its digit word's interval); the interval
pins the irrational the full sequence denotes.  Inverse: a quadratic surd's
digit expansion recovers the sequence to any depth.  Open balls of radius 1/n
around a point fix exactly the first n digits, so they correspond to the
interval of that length-n word.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .baire import Baire2Prefix
from .cover import IntervalQ, interval_of, locate
from .surd import QuadraticSurd


@dataclass(frozen=True)
class PhiApproximation:
    """Depth-d approximation: the interval of the first d+1 digits."""

    depth: int
    interval: IntervalQ
    midpoint: Fraction

    @property
    def width(self) -> Fraction:
        return self.interval.length


def phi_forward(p: Baire2Prefix, depth: int) -> PhiApproximation:
    """Interval and midpoint named by the first depth+1 digits of p."""
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    word = p.prefix(depth + 1)
    iv = interval_of(word)
    return PhiApproximation(depth, iv, iv.midpoint)


def phi_inverse(x: QuadraticSurd, depth: int) -> Baire2Prefix:
    """The sequence point carrying x's first depth+1 digits (no tail claimed)."""
    return Baire2Prefix(locate(x, depth).word)


@dataclass(frozen=True)
class BallImageCheck:
    cylinder: tuple[int, ...]
    interval: IntervalQ
    samples_checked: int
    all_inside: bool


def check_ball_image(
    a: Baire2Prefix,
    n: int,
    sample_digits: tuple[int, ...] = (1, 2, 3),
    sample_len: int = 2,
) -> BallImageCheck:
    """Match the radius-1/n ball around a with the interval of its n-digit word.

    The ball fixes indices 0..n-1, so its image should be the interval of
    a's length-n prefix; sampled extensions of that prefix are pushed forward
    and checked to land inside.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    prefix = a.prefix(n)
    iv = phi_forward(a, n - 1).interval
    samples = 0
    all_inside = True
    for ext in itertools.product(sample_digits, repeat=sample_len):
        ap = phi_forward(Baire2Prefix(prefix + ext), n - 1 + sample_len)
        all_inside &= iv.contains_interval(ap.interval)
        samples += 1
    return BallImageCheck(prefix, iv, samples, all_inside)
