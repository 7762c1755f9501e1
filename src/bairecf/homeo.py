"""Finite-precision two-way dictionary between digit sequences and irrationals.

Forward: a point of the integer-headed sequence space, read to a given depth,
names a nested open rational interval (its digit word's interval); the interval
pins the irrational the full sequence denotes.  Inverse: a quadratic surd's
digit expansion recovers the sequence to any depth, with no interval built
(``cover.locate`` checks containment).  Open balls of radius 1/n around a point
fix exactly the first n digits, so they correspond to the interval of that
length-n word.  That is a theorem (each child interval lies inside its parent),
so a sampled word escaping the interval is an internal error.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .baire import Baire2Prefix
from .cf import _fold, _fold_word, expand_surd
from .cover import IntervalQ, _interval, interval_of
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
    iv = interval_of(p.prefix(depth + 1))
    return PhiApproximation(depth, iv, iv.midpoint)


def phi_inverse(x: QuadraticSurd, depth: int) -> Baire2Prefix:
    """The sequence point carrying x's first depth+1 digits (no tail claimed)."""
    return Baire2Prefix(expand_surd(x, depth))


@dataclass(frozen=True)
class BallImageCheck:
    cylinder: tuple[int, ...]
    interval: IntervalQ
    samples_checked: int
    all_inside: bool


def check_ball_image(a: Baire2Prefix, n: int) -> BallImageCheck:
    """Match the radius-1/n ball around a, which fixes indices 0..n-1, with the
    interval of a's n-digit prefix: the 9 words extending that prefix by two
    digits from 1..3 are pushed onto its fold and land inside."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    prefix = a.prefix(n)
    state = _fold_word(prefix)
    iv = _interval(state)
    exts = list(product((1, 2, 3), repeat=2))
    for ext in exts:
        if not iv.contains_interval(_interval(_fold(ext, state))):
            raise RuntimeError(f"internal error: word {prefix + ext} leaves {iv}")
    return BallImageCheck(prefix, iv, len(exts), True)
