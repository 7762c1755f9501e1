"""Nested open rational intervals addressed by continued-fraction words.

A word (a0, ..., an) of length n+1 names a member of the level-n family: the
open interval between the word's value and the value with its last digit bumped
by one, that is p_n/q_n and (p_n + p_{n-1})/(q_n + q_{n-1}), both read off one
fold of the word's digits (``cf``'s, refused past the digit budget).  Bumping
the last digit raises the value at even levels and lowers it at odd levels, so
endpoints are normalized to lo < hi regardless of the level's parity.  Each
level's members are pairwise disjoint, children refine their parent, closures of
grandchildren sit inside the open grandparent (the shared-endpoint caveat lives
one level up, between parent and child), and member lengths are exactly 1 at
level 0, at most 1/2 at level 1 and below 1/(n+1) at every level n >= 2.

A slice is verified by one depth-first walk in Stern-Brocot order (Graham,
Knuth & Patashnik, *Concrete Mathematics*, 4.5): digits taken downward below
even levels and upward below odd ones meet every level in ascending order.
The walk keeps only the current word's ancestors and the last member met at
each level, so its memory is O(max_level), not O(words).  A word costs one
fold onto its parent's state and integer cross-multiplications against bounds
held in locals; each bottom parent's children are checked in one loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .cf import _EMPTY, _as_digits, _fold, _fold_word, expand_surd
from .rational import format_rational
from .report import PropertyCheck
from .surd import QuadraticSurd


@dataclass(frozen=True)
class IntervalQ:
    """Open interval with rational endpoints, lo < hi."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", Fraction(self.lo))
        object.__setattr__(self, "hi", Fraction(self.hi))
        if not self.lo < self.hi:
            raise ValueError(f"empty interval: lo={self.lo} hi={self.hi}")

    @property
    def length(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains_value(self, x: Fraction) -> bool:
        return self.lo < x < self.hi

    def contains_surd(self, s: QuadraticSurd) -> bool:
        return s > self.lo and s < self.hi

    def contains_interval(self, other: "IntervalQ") -> bool:
        """Set containment of open intervals."""
        return self.lo <= other.lo and other.hi <= self.hi

    def contains_closure_of(self, other: "IntervalQ") -> bool:
        """[other.lo, other.hi] inside this open interval."""
        return self.lo < other.lo and other.hi < self.hi

    def disjoint_from(self, other: "IntervalQ") -> bool:
        return self.hi <= other.lo or other.hi <= self.lo

    def __str__(self) -> str:
        return f"({format_rational(self.lo)}, {format_rational(self.hi)})"


def _ends(state: tuple[int, int, int, int]):
    """(lo, hi) of p/q and (p + p0)/(q + q0), as (numerator, positive denominator) pairs."""
    p, q, p0, q0 = state
    value, bumped = (p, q), (p + p0, q + q0)
    return (value, bumped) if p * q0 < p0 * q else (bumped, value)


def _interval(state: tuple[int, int, int, int]) -> IntervalQ:
    lo, hi = _ends(state)
    return IntervalQ(Fraction(*lo), Fraction(*hi))


def interval_of(word: Sequence[int]) -> IntervalQ:
    """The open interval named by a digit word; level = len(word) - 1."""
    return _interval(_fold_word(_as_digits(word, "word")))


@dataclass(frozen=True)
class CoverMember:
    level: int
    word: tuple[int, ...]
    interval: IntervalQ


def member_of(word: Sequence[int]) -> CoverMember:
    digits = _as_digits(word, "word")
    return CoverMember(len(digits) - 1, digits, _interval(_fold_word(digits)))


def children(word: Sequence[int], k_max: int) -> list[CoverMember]:
    """Members one level down obtained by appending k = 1..k_max.

    The parent is validated and folded once; each child pushes one digit.
    """
    digits = _as_digits(word, "word")
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    state, level = _fold_word(digits), len(digits)
    return [CoverMember(level, digits + (k,), _interval(_fold((k,), state)))
            for k in range(1, k_max + 1)]


def locate(x: QuadraticSurd, level: int) -> CoverMember:
    """The level's unique member whose interval holds x, by digit expansion."""
    if level < 0:
        raise ValueError(f"level must be >= 0, got {level}")
    m = member_of(expand_surd(x, level))
    if not m.interval.contains_surd(x):
        raise RuntimeError(f"internal error: {x} escaped its own interval {m.interval}")
    return m


_CHECKS = ("disjoint", "refinement", "closure_refinement", "mesh")


@dataclass(frozen=True)
class CoverReport:
    disjoint: PropertyCheck
    refinement: PropertyCheck
    closure_refinement: PropertyCheck
    mesh: PropertyCheck
    max_length_by_level: Mapping[int, Fraction]
    words_checked: int

    @property
    def all_passed(self) -> bool:
        return all(getattr(self, name).passed for name in _CHECKS)

    def as_json(self) -> dict:
        return {
            **{name: getattr(self, name).as_json() for name in _CHECKS},
            "max_length_by_level": {
                str(n): format_rational(v) for n, v in sorted(self.max_length_by_level.items())
            },
            "words_checked": self.words_checked,
            "passed": self.all_passed,
        }


def _show(word: tuple[int, ...], lo: int, lo_q: int, hi: int, hi_q: int) -> str:
    return f"{word} ({Fraction(lo, lo_q)}, {Fraction(hi, hi_q)})"


def verify_cover_properties(
    max_level: int, a0_range: tuple[int, int], digit_max: int
) -> CoverReport:
    """Exhaustively check the family's advertised behaviour on a finite slice.

    The slice is every word up to max_level with first digit in a0_range
    (inclusive) and later digits in 1..digit_max.  Each member's hi <= the lo
    of the next member met at its level proves each level sorted and pairwise
    disjoint, so a child inside its parent lies in no other member of that
    level: such a member would overlap the parent.  A failing check names the
    lowest failing level's first failure: in walk order for disjointness, in
    parent-major (lexicographic) word order otherwise.
    """
    a0_lo, a0_hi = a0_range
    if max_level < 0:
        raise ValueError(f"max_level must be >= 0, got {max_level}")
    if a0_lo > a0_hi:
        raise ValueError(f"empty a0 range: [{a0_lo}, {a0_hi}]")
    if digit_max < 1:
        raise ValueError(f"digit_max must be >= 1, got {digit_max}")

    # Ends are (numerator, positive denominator) pairs compared by
    # cross-multiplication, so (-1, 0) and (1, 0) act as -inf and +inf.
    orders = (range(digit_max, 0, -1), range(1, digit_max + 1))
    # Per level, the member met last as (parent word, last digit, lo, lo_q, hi, hi_q).
    last = [((), None, -1, 0, -1, 0)] * (max_level + 1)
    longest = [(0, 1)] * (max_level + 1)  # per level, the largest length
    fails: dict[str, tuple] = {}  # check -> (ordering key, counterexample)
    words = 0

    def fail(check, key, counterexample):
        if check not in fails or key < fails[check][0]:
            fails[check] = (key, counterexample)

    # A frame: level, parent word, parent's and grandparent's lo, lo_q, hi, hi_q,
    # parent state, digits left.  Its loop breaks to descend and resumes on return.
    stack = [(0, (), -1, 0, 1, 0, -1, 0, 1, 0, _EMPTY, iter(range(a0_lo, a0_hi + 1)))]
    while stack:
        level, pword, plo, plo_q, phi, phi_q, glo, glo_q, ghi, ghi_q, pstate, todo = stack[-1]
        xword, xk, xlo, xlo_q, xhi, xhi_q = last[level]
        top, top_q = longest[level]
        # Lengths are exactly 1 at level 0; at level 1, 1/(k(k+1)) tops out at
        # 1/2, attained at k = 1; from level 2 on the strict bound 1/(level+1)
        # holds.  excess = n (level + 1) - d has the sign of n/d - 1/(level+1).
        descend, bound, cut = level < max_level, level + 1, (0, 0, -1)[min(level, 2)]
        for k in todo:
            p, q, p0, q0 = state = _fold((k,), pstate)
            det = p * q0 - p0 * q
            if det < 0:
                lo, lo_q, hi, hi_q = p, q, p + p0, q + q0
            else:
                lo, lo_q, hi, hi_q, det = p + p0, q + q0, p, q, -det
            if xhi * lo_q > lo * xhi_q:
                relation = ("overlaps" if hi * xlo_q > xlo * hi_q
                            else "is walked before but lies above")
                fail("disjoint", level, f"level {level}: "
                     f"{_show(xword + (xk,), xlo, xlo_q, xhi, xhi_q)} {relation} "
                     f"{_show(pword + (k,), lo, lo_q, hi, hi_q)}")
            xword, xk, xlo, xlo_q, xhi, xhi_q = pword, k, lo, lo_q, hi, hi_q
            if plo * lo_q > lo * plo_q or hi * phi_q > phi * hi_q:
                fail("refinement", (level, pword + (k,)),
                     f"{_show(pword + (k,), lo, lo_q, hi, hi_q)} not inside parent "
                     f"{_show(pword, plo, plo_q, phi, phi_q)}")
            # A k=1 child's closure touches its parent's end but sits inside the open grandparent.
            if glo * lo_q >= lo * glo_q or hi * ghi_q >= ghi * hi_q:
                fail("closure_refinement", (level, pword + (k,)),
                     f"closure of {_show(pword + (k,), lo, lo_q, hi, hi_q)} not inside "
                     f"{_show(pword[:-1], glo, glo_q, ghi, ghi_q)}")
            n, d = -det, lo_q * hi_q  # the length |p q' - p' q| / (q (q + q'))
            if n * top_q > top * d:
                top, top_q = n, d
            excess = n * bound - d
            if excess > cut or excess and not level:
                relation = ("!= 1", "> 1/2", f">= 1/{bound}")[min(level, 2)]
                fail("mesh", (level, pword + (k,)),
                     f"level-{level} member {pword + (k,)} has length {Fraction(n, d)} {relation}")
            if descend:
                break
        else:  # the frame ran out: every one of its digits was pushed
            stack.pop()
            words += digit_max if level else a0_hi - a0_lo + 1
            k = None
        last[level], longest[level] = (xword, xk, xlo, xlo_q, xhi, xhi_q), (top, top_q)
        if k is not None:
            stack.append((bound, pword + (k,), lo, lo_q, hi, hi_q, plo, plo_q, phi, phi_q,
                          state, iter(orders[level % 2])))

    checks = (PropertyCheck.fail(fails[n][1]) if n in fails else PropertyCheck.ok()
              for n in _CHECKS)
    # A mesh failure ends the reported maxima at its level.
    levels = fails["mesh"][0][0] + 1 if "mesh" in fails else max_level + 1
    maxima = {level: Fraction(*longest[level]) for level in range(levels)}
    return CoverReport(*checks, maxima, words)
