"""Nested open rational intervals addressed by continued-fraction words.

A word (a0, ..., an) of length n+1 names a member of the level-n family: the
open interval between the word's value and the value with its last digit
bumped by one, that is p_n/q_n and (p_n + p_{n-1})/(q_n + q_{n-1}), both
read off one fold of the word's digits.  Bumping the last digit raises the
value at even levels and lowers it at odd levels, so endpoints are normalized
to lo < hi regardless of the level's parity.  Each level's members are
pairwise disjoint, children refine their parent, closures of grandchildren sit
inside the open grandparent (the shared-endpoint caveat lives one level up,
between parent and child), and member lengths at level n shrink below 1/(n+1)
for n >= 1.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .cf import _as_digits, _fold, expand_surd
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
        return f"({self.lo}, {self.hi})"


def _interval(state: tuple[int, int, int, int]) -> IntervalQ:
    # p/q versus (p + p0)/(q + q0), both denominators positive
    p, q, p0, q0 = state
    v, v_bumped = Fraction(p, q), Fraction(p + p0, q + q0)
    if p * q0 < p0 * q:
        return IntervalQ(v, v_bumped)
    return IntervalQ(v_bumped, v)


def interval_of(word: Sequence[int]) -> IntervalQ:
    """The open interval named by a digit word; level = len(word) - 1."""
    return _interval(_fold(_as_digits(word, "word")))


@dataclass(frozen=True)
class CoverMember:
    level: int
    word: tuple[int, ...]
    interval: IntervalQ


def member_of(word: Sequence[int]) -> CoverMember:
    digits = _as_digits(word, "word")
    return CoverMember(len(digits) - 1, digits, interval_of(digits))


def children(word: Sequence[int], k_max: int) -> list[CoverMember]:
    """Members one level down obtained by appending k = 1..k_max."""
    digits = _as_digits(word, "word")
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    return [member_of(digits + (k,)) for k in range(1, k_max + 1)]


def locate(x: QuadraticSurd, level: int) -> tuple[int, ...]:
    """The level's unique word whose interval holds x, by digit expansion."""
    word = expand_surd(x, level)
    iv = interval_of(word)
    if not iv.contains_surd(x):
        raise RuntimeError(f"internal error: {x} escaped its own interval {iv}")
    return word


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
        return all(
            c.passed
            for c in (self.disjoint, self.refinement, self.closure_refinement, self.mesh)
        )

    def as_json(self) -> dict:
        return {
            "disjoint": self.disjoint.as_json(),
            "refinement": self.refinement.as_json(),
            "closure_refinement": self.closure_refinement.as_json(),
            "mesh": self.mesh.as_json(),
            "max_length_by_level": {
                str(level): str(self.max_length_by_level[level])
                for level in sorted(self.max_length_by_level)
            },
            "words_checked": self.words_checked,
            "passed": self.all_passed,
        }


def _check_disjoint(levels: list[list[CoverMember]]) -> PropertyCheck:
    for members in levels:
        ordered = sorted(members, key=lambda m: (m.interval.lo, m.interval.hi))
        for a, b in zip(ordered, ordered[1:]):
            if not a.interval.disjoint_from(b.interval):
                return PropertyCheck.fail(
                    f"level {a.level}: {a.word} {a.interval} overlaps {b.word} {b.interval}"
                )
    return PropertyCheck.ok()


def _check_refinement(levels: list[list[CoverMember]], digit_max: int) -> PropertyCheck:
    for level_index in range(1, len(levels)):
        prev = levels[level_index - 1]
        parents = sorted(prev, key=lambda m: m.interval.lo)
        keys = [m.interval.lo for m in parents]
        for c, m in enumerate(levels[level_index]):
            parent = prev[c // digit_max]
            if not parent.interval.contains_interval(m.interval):
                return PropertyCheck.fail(
                    f"{m.word} {m.interval} not inside parent {parent.word} {parent.interval}"
                )
            # Uniqueness: with the level sorted by lo, the only member that can
            # contain m is the last one starting at or before m.lo.  Anything
            # else containing m would overlap it, which disjointness forbids.
            i = bisect_right(keys, m.interval.lo) - 1
            if i < 0 or parents[i].word != parent.word:
                witness = parents[i].word if i >= 0 else None
                return PropertyCheck.fail(
                    f"{m.word} is bracketed by member {witness}, not its parent word"
                )
    return PropertyCheck.ok()


def _check_closure_refinement(levels: list[list[CoverMember]], digit_max: int) -> PropertyCheck:
    # Closures poke out one level up through the shared endpoint of the k=1
    # child, but sit strictly inside the open interval two levels up.
    for level_index in range(2, len(levels)):
        grands = levels[level_index - 2]
        for c, m in enumerate(levels[level_index]):
            grand = grands[c // digit_max**2]
            if not grand.interval.contains_closure_of(m.interval):
                return PropertyCheck.fail(
                    f"closure of {m.word} {m.interval} not inside {grand.word} {grand.interval}"
                )
    return PropertyCheck.ok()


def _check_mesh(levels: list[list[CoverMember]]) -> tuple[PropertyCheck, dict[int, Fraction]]:
    # Level 0: every length is exactly 1.  Level 1: lengths 1/(k(k+1)) top out
    # at 1/2, attained at k = 1, so the bound is non-strict there.  From level
    # 2 on the strict bound 1/(level+1) holds.
    max_by_level: dict[int, Fraction] = {}
    for level_index, members in enumerate(levels):
        max_by_level[level_index] = max(m.interval.length for m in members)
        bound = Fraction(1, level_index + 1)
        for m in members:
            length = m.interval.length
            if level_index == 0 and length != 1:
                fail = f"level-0 member {m.word} has length {length} != 1"
            elif level_index == 1 and length > bound:
                fail = f"level-1 member {m.word} has length {length} > 1/2"
            elif level_index >= 2 and length >= bound:
                fail = f"level-{level_index} member {m.word} has length {length} >= {bound}"
            else:
                continue
            return PropertyCheck.fail(fail), max_by_level
    return PropertyCheck.ok(), max_by_level


def verify_cover_properties(
    max_level: int, a0_range: tuple[int, int], digit_max: int
) -> CoverReport:
    """Exhaustively check the family's advertised behaviour on a finite slice.

    Enumerates every word up to max_level with first digit in a0_range
    (inclusive) and later digits in 1..digit_max, parent-major: the children
    of a member are consecutive, so member c's parent is member c // digit_max.
    """
    a0_lo, a0_hi = a0_range
    if max_level < 0:
        raise ValueError(f"max_level must be >= 0, got {max_level}")
    if a0_lo > a0_hi:
        raise ValueError(f"empty a0 range: [{a0_lo}, {a0_hi}]")
    if digit_max < 1:
        raise ValueError(f"digit_max must be >= 1, got {digit_max}")

    # Each child pushes one digit onto its parent's state; only the current
    # level's states are kept.
    heads, digits = range(a0_lo, a0_hi + 1), range(1, digit_max + 1)
    states = [_fold((a0,)) for a0 in heads]
    levels = [[CoverMember(0, (a0,), _interval(st)) for a0, st in zip(heads, states)]]
    for level in range(1, max_level + 1):
        states = [_fold((k,), st) for st in states for k in digits]
        words = (m.word + (k,) for m in levels[-1] for k in digits)
        levels.append([CoverMember(level, w, _interval(st)) for w, st in zip(words, states)])
    del states  # the checks read only intervals; the states would add to peak memory

    disjoint = _check_disjoint(levels)
    refinement = _check_refinement(levels, digit_max)
    closure = _check_closure_refinement(levels, digit_max)
    mesh, max_by_level = _check_mesh(levels)
    return CoverReport(
        disjoint=disjoint,
        refinement=refinement,
        closure_refinement=closure,
        mesh=mesh,
        max_length_by_level=max_by_level,
        words_checked=sum(map(len, levels)),
    )
