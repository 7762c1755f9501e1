"""Integer-sequence points, the first-difference ultrametric, cylinders,
and the digit-wise recoding between the two sequence spaces.

A point is a finite run of known entries, optionally followed by a repeating
tail block (so eventually-periodic points are represented exactly).  Distances
over truncated points are tagged: EXACT when the first disagreement index was
observed, or when equality is decidable from the periodic normal forms; AT_MOST
when the inspected window showed no disagreement.  AT_MOST is a finite-precision
report, not a value of the underlying metric, which lives on total sequences.
Points are parsed, validated, compared, sliced and printed by builtin scans
(``map``, ``all``, ``min``, ``compress``, ``islice``) whose per-entry loop runs
in C; a Python loop runs only to name the first offending entry.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress, cycle, islice, repeat
from operator import ne

from .rational import INT_DIGITS, check_digit_budget


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
    for p in range(1, n + 1):
        if n % p == 0 and block == block[:p] * (n // p):
            return block[:p]
    return block


@dataclass(frozen=True)
class _SeqPoint:
    entries: tuple[int, ...]
    tail: tuple[int, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        if self.tail is not None:
            object.__setattr__(self, "tail", tuple(self.tail))
            if len(self.tail) == 0:
                raise ValueError("tail block must be non-empty")
        _require_ints(self.entries, "entry")
        if self.tail is not None:
            _require_ints(self.tail, "tail entry")
        self._validate()

    def _validate(self) -> None:
        raise NotImplementedError

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
            raise InsufficientPrecisionError(
                f"{self} has no entry at index {i} and no tail"
            )
        return self.tail[(i - len(self.entries)) % len(self.tail)]

    def _stream(self):
        """Entries at indices 0, 1, ..., lazily: the tail repeats forever."""
        return chain(self.entries, cycle(self.tail or ()))

    def prefix(self, n: int) -> tuple[int, ...]:
        """Entries at indices 0..n-1."""
        if not self.defined_through(n):
            raise InsufficientPrecisionError(
                f"{self} is only known through index {len(self.entries) - 1}, need {n - 1}"
            )
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

    def _validate(self) -> None:
        _require_at_least(self.entries, 0, "entry")
        if self.tail is not None:
            _require_at_least(self.tail, 0, "tail entry")


class Baire2Prefix(_SeqPoint):
    """Point with an arbitrary integer at index 0 and positive integers after."""

    def _validate(self) -> None:
        _require_at_least(self.entries, 1, "entry", start=1)
        if self.tail is not None:
            # The tail repeats from index >= 1 eventually, so every block
            # entry must satisfy the >= 1 constraint.
            _require_at_least(self.tail, 1, "tail entry")


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
            raise InsufficientPrecisionError(
                f"{h} is not defined through index {bound - 1}"
            )
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


def _expose_head(
    entries: tuple[int, ...], tail: tuple[int, ...] | None
) -> tuple[tuple[int, ...], tuple[int, ...] | None]:
    # Index 0 is recoded differently from the rest, so it must sit in entries.
    if not entries and tail is not None:
        return (tail[0],), tail[1:] + tail[:1]
    return entries, tail


def psi_map(f: BairePrefix) -> Baire2Prefix:
    """Recoding onto the integer-headed space: zigzag at index 0, +1 after."""
    entries, tail = _expose_head(f.entries, f.tail)
    head = (_zigzag(entries[0]),) if entries else ()
    rest = tuple(e + 1 for e in entries[1:])
    new_tail = tuple(t + 1 for t in tail) if tail is not None else None
    return Baire2Prefix(head + rest, new_tail)


def psi_inverse(p: Baire2Prefix) -> BairePrefix:
    entries, tail = _expose_head(p.entries, p.tail)
    head = (_unzigzag(entries[0]),) if entries else ()
    rest = tuple(e - 1 for e in entries[1:])
    new_tail = tuple(t - 1 for t in tail) if tail is not None else None
    return BairePrefix(head + rest, new_tail)


_POINT_RE = re.compile(r"\s*\(([^()~]*)\)\s*(?:~\s*\(([^()~]*)\)\s*)?$")
_INT_RE = re.compile(rf"-?{INT_DIGITS}")


def _parse_int_list(body: str, what: str) -> tuple[int, ...]:
    body = body.strip()
    if not body:
        return ()
    toks = list(map(str.strip, body.split(",")))
    if not all(map(_INT_RE.fullmatch, toks)):
        bad = next(tok for tok in toks if not _INT_RE.fullmatch(tok))
        check_digit_budget(bad, f"{what} entry")
        raise ValueError(f"bad {what} entry: {bad!r}")
    return tuple(map(int, toks))


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
    body = "(" + ",".join(map(str, p.entries)) + ")"
    if p.tail is not None:
        body += "~(" + ",".join(map(str, p.tail)) + ")"
    return body
