"""Integer-sequence points, the first-difference ultrametric, cylinders,
and the digit-wise recoding psi between the two sequence spaces.

A point is a finite run of known entries, optionally followed by a repeating
tail block (so eventually-periodic points are represented exactly).  The two
spaces differ only in the least entry allowed after the head, 0 or 1; psi
zigzags the head onto the integers and adds 1 after it, and its inverse undoes
both.  Distances over truncated points are tagged: EXACT when the first
disagreement index was observed, or when equality is decidable from the
periodic normal forms; AT_MOST when the inspected window showed no
disagreement, a finite-precision report rather than a value of the metric,
which lives on total sequences.  Points are read, checked, compared, sliced
and printed by builtin passes whose per-entry loop runs in C (one each to read
and to print); a Python loop runs only to name the first offending entry.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress, cycle, islice, repeat
from operator import add, ne

from .rational import _format_ints, _parse_ints, check_digit_budget, check_int_budget


class InsufficientPrecisionError(ValueError):
    """A point was consulted past its known entries and it has no tail."""


def _require_ints(block: tuple, what: str) -> None:
    if not all(map(isinstance, block, repeat(int))):
        i = next(i for i, e in enumerate(block) if not isinstance(e, int))
        raise ValueError(f"{what} {i} is not an integer: {block[i]!r}")


def _require_at_least(block: tuple, lo: int, what: str, start: int = 0) -> None:
    if min(islice(block, start, None), default=lo) < lo:
        i = next(i for i in range(start, len(block)) if block[i] < lo)
        raise ValueError(f"{what} {i} must be >= {lo}, got {block[i]}")


def _primitive_block(block: tuple[int, ...]) -> tuple[int, ...]:
    n = len(block)
    for p in range(1, n):
        if n % p == 0 and block == block[:p] * (n // p):
            return block[:p]
    return block


@dataclass(frozen=True)
class _SeqPoint:
    """A point of either space; ``least``, the least entry each subclass allows,
    binds from index ``least_from`` on and in all of the tail, which recurs past 0."""

    entries: tuple[int, ...]
    tail: tuple[int, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        if self.tail is not None:
            object.__setattr__(self, "tail", tuple(self.tail))
            if not self.tail:
                raise ValueError("tail block must be non-empty")
        tail = self.tail or ()
        _require_ints(self.entries, "entry")
        _require_ints(tail, "tail entry")
        _require_at_least(self.entries, self.least, "entry", self.least_from)
        _require_at_least(tail, self.least, "tail entry")

    def is_total(self) -> bool:
        return self.tail is not None

    def defined_through(self, n: int) -> bool:
        """True when indices 0..n-1 are all known."""
        return self.tail is not None or len(self.entries) >= n

    def value_at(self, i: int) -> int:
        if i < 0:
            raise ValueError(f"index must be >= 0, got {i}")
        if i < len(self.entries):
            return self.entries[i]
        if self.tail is None:
            raise InsufficientPrecisionError(f"{self} has no entry at index {i} and no tail")
        return self.tail[(i - len(self.entries)) % len(self.tail)]

    def _stream(self):
        """Entries at indices 0, 1, ..., lazily: the tail repeats forever."""
        return chain(self.entries, cycle(self.tail or ()))

    def prefix(self, n: int) -> tuple[int, ...]:
        """Entries at indices 0..n-1."""
        if not self.defined_through(n):
            raise InsufficientPrecisionError(f"{self} has no entry at index "
                                             f"{len(self.entries)} and no tail, need index {n - 1}")
        return tuple(islice(self._stream(), max(n, 0)))

    def normal_form(self) -> tuple[tuple[int, ...], tuple[int, ...] | None]:
        """Canonical (entries, tail): primitive period, shortest pre-period."""
        if self.tail is None:
            return (self.entries, None)
        tail = _primitive_block(self.tail)
        entries = list(self.entries)
        while entries and entries[-1] == tail[-1]:
            entries.pop()
            tail = tail[-1:] + tail[:-1]
        return (tuple(entries), tail)

    def __str__(self) -> str:
        return format_point(self)


class BairePrefix(_SeqPoint):
    """Point of the space of sequences of non-negative integers."""

    least, least_from = 0, 0


class Baire2Prefix(_SeqPoint):
    """Point with an arbitrary integer at index 0 and positive integers after."""

    least, least_from = 1, 1


@dataclass(frozen=True)
class Distance:
    """Tagged exact rational distance report."""

    kind: str  # "EXACT" | "AT_MOST"
    value: Fraction

    @staticmethod
    def exact(value: Fraction) -> "Distance":
        return Distance("EXACT", Fraction(value))

    @staticmethod
    def at_most(value: Fraction) -> "Distance":
        return Distance("AT_MOST", Fraction(value))

    def __str__(self) -> str:
        return f"{self.kind} {self.value}"


def first_difference(f: _SeqPoint, g: _SeqPoint, bound: int) -> int | None:
    """Least index < bound where the points disagree, or None."""
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    for h in (f, g):
        if not h.defined_through(bound):
            raise InsufficientPrecisionError(f"{h} is not defined through index {bound - 1}")
    return next(compress(range(bound), map(ne, f._stream(), g._stream())), None)


def baire_distance(f: _SeqPoint, g: _SeqPoint, bound: int) -> Distance:
    """1/(k+1) for first disagreement k; 0 for provably equal points.

    Without a disagreement below ``bound`` and without provable equality the
    result is the honest upper bound AT_MOST 1/(bound+1).
    """
    k = first_difference(f, g, bound)
    if k is not None:
        return Distance.exact(Fraction(1, k + 1))
    if f.is_total() and g.is_total() and f.normal_form() == g.normal_form():
        return Distance.exact(Fraction(0))
    return Distance.at_most(Fraction(1, bound + 1))


class _WholeSpace:
    __slots__ = ()

    def __repr__(self) -> str:
        return "WHOLE_SPACE"


WHOLE_SPACE = _WholeSpace()


def cylinder_of_ball(f: _SeqPoint, r: Fraction) -> "tuple[int, ...] | _WholeSpace":
    """The prefix whose cylinder equals the open ball around f of radius r.

    For r > 1 the ball is everything.  Otherwise g is in the ball exactly when
    its first difference k from f has 1/(k+1) < r, that is k >= m for the
    unique integer m >= 1 with 1/(m+1) < r <= 1/m; so the cylinder fixes
    indices 0..m-1, with m = floor(1/r).
    """
    r = Fraction(r)
    if r <= 0:
        raise ValueError(f"radius must be positive, got {r}")
    if r > 1:
        return WHOLE_SPACE
    return f.prefix(r.denominator // r.numerator)


def _zigzag(n: int) -> int:
    return n // 2 if n % 2 == 0 else -(n + 1) // 2


def _unzigzag(z: int) -> int:
    return 2 * z if z >= 0 else -2 * z - 1


def _recode(p: _SeqPoint, head_map, shift: int, cls: type) -> _SeqPoint:
    """The cls point with head_map applied at index 0 and shift added after it; a
    tail-only point first moves its head into entries.  The head map and an upward
    shift can lengthen an integer, so what they make past the digit budget is refused."""
    entries, tail = p.entries, p.tail
    if not entries and tail is not None:
        entries, tail = tail[:1], tail[1:] + tail[:1]
    entries = (*map(head_map, entries[:1]), *map(add, entries[1:], repeat(shift)))
    if tail is not None:
        tail = tuple(map(add, tail, repeat(shift)))
    check_int_budget(chain(entries, tail or ()) if shift > 0 else entries[:1], "psi entry")
    return cls(entries, tail)


def psi_map(f: BairePrefix) -> Baire2Prefix:
    """Recoding onto the integer-headed space: zigzag at index 0, +1 after."""
    return _recode(f, _zigzag, 1, Baire2Prefix)


def psi_inverse(p: Baire2Prefix) -> BairePrefix:
    return _recode(p, _unzigzag, -1, BairePrefix)


_POINT_RE = re.compile(r"\s*\(([^()~]*)\)\s*(?:~\s*\(([^()~]*)\)\s*)?$")


def _parse_int_list(body: str, what: str) -> tuple[int, ...]:
    ints = _parse_ints(body) if body.strip() else ()
    if isinstance(ints, str):
        check_digit_budget(ints, f"{what} entry")
        raise ValueError(f"bad {what} entry: {ints!r}")
    return ints


def parse_point(text: str, cls: type = BairePrefix) -> _SeqPoint:
    """Parse "(a0,a1,...)" with optional "~(b0,...,bk)" repeating tail."""
    m = _POINT_RE.match(text)
    if m is None:
        raise ValueError(f"not a point: {text!r}")
    entries = _parse_int_list(m.group(1), "point")
    tail = None
    if m.group(2) is not None:
        tail = _parse_int_list(m.group(2), "tail")
        if not tail:
            raise ValueError(f"empty tail block: {text!r}")
    return cls(entries, tail)


def format_point(p: _SeqPoint) -> str:
    tail = "" if p.tail is None else f"~({_format_ints(p.tail, ',')})"
    return f"({_format_ints(p.entries, ',')}){tail}"
