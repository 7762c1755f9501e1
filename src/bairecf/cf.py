"""Continued-fraction words: expansion, evaluation, convergents.

A finite word (a0, a1, ..., an) denotes a0 + 1/(a1 + 1/(... + 1/an)), with a0
any integer and every later digit a positive integer.  Canonical words (the
``CFWord`` type) additionally end in a digit >= 2 whenever they are longer
than one digit, which makes rational -> word one-to-one.  Evaluation and tail
substitution accept arbitrary valid digit sequences, canonical or not.  Values,
tails and convergents all come from one integer fold of the convergent
recurrence (Khinchin, *Continued Fractions*, section 2); q_n never shrinks, so a
value past the digit budget is refused mid-fold.  A surd's digits come from the
integer (P + sqrt(D))/Q recurrence (Perron), one isqrt per expansion.  Words
are read, checked and printed by builtin passes (``split``, ``map``, ``min``, a
%-format) whose per-digit loop runs in C; a Python loop only names a bad digit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, islice, repeat
from typing import Sequence

from .rational import (_DIGITS_CAP, MAX_DIGITS, _format_ints, _parse_ints, check_digit_budget,
                       check_int_budget)
from .surd import QuadraticSurd


def _as_digits(w, what: str = "digit sequence") -> tuple[int, ...]:
    if isinstance(w, CFWord):
        return w.digits
    digits = tuple(w)
    if not digits:
        raise ValueError(f"{what} must have at least one digit")
    if not (all(map(isinstance, digits, repeat(int)))
            and min(islice(digits, 1, None), default=1) >= 1):
        for i, a in enumerate(digits):
            if not isinstance(a, int):
                raise ValueError(f"{what}: digit {i} is not an integer: {a!r}")
            if i >= 1 and a < 1:
                raise ValueError(f"{what}: digit {i} must be >= 1, got {a}")
    return digits


@dataclass(frozen=True)
class CFWord:
    """Canonical finite continued-fraction word."""

    digits: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "digits", tuple(self.digits))
        digits = _as_digits(self.digits, "CF word")
        if len(digits) > 1 and digits[-1] < 2:
            raise ValueError("canonical CF word must not end in 1")

    def __len__(self) -> int:
        return len(self.digits)

    def __iter__(self):
        return iter(self.digits)

    def __str__(self) -> str:
        return format_cf(self.digits)


def expand_rational(x: Fraction) -> CFWord:
    """Canonical word of a rational, by iterated floor division."""
    a, b = x.numerator, x.denominator
    digits = []
    while b:  # each remainder is below its divisor, so the divisors fall to 0
        q, r = divmod(a, b)  # euclid_div, as every divisor b is positive
        digits.append(q)
        a, b = b, r
    return CFWord(tuple(digits))


_EMPTY = (1, 0, 0, 1)  # (p_n, q_n, p_{n-1}, q_{n-1}) of the empty word


def _fold(digits: Sequence[int], state: tuple[int, int, int, int] = _EMPTY):
    """Push digits onto (p_n, q_n, p_{n-1}, q_{n-1}) by p_n = a*p_{n-1} + p_{n-2}, likewise q.

    After a whole word p_n/q_n is its value and (p_n + p_{n-1})/(q_n + q_{n-1})
    the value with its last digit bumped; every q is positive after the head.
    """
    p, q, p0, q0 = state
    for a in digits:
        p, q, p0, q0 = a * p + p0, a * q + q0, p, q
    return p, q, p0, q0


def _fold_word(digits: Sequence[int]):
    """``_fold(digits)``, refused at the first 512-digit chunk where q reaches 10^MAX_DIGITS."""
    state = _EMPTY
    for start in range(0, len(digits), 512):
        state = _fold(digits[start : start + 512], state)
        if state[1] >= _DIGITS_CAP:
            raise ValueError(f"result exceeds the {MAX_DIGITS}-digit budget; use a lower depth")
    return state


def evaluate(w: "CFWord | Sequence[int]") -> Fraction:
    """Exact value p_n/q_n of a word whose q stays within the digit budget."""
    p, q, _, _ = _fold_word(_as_digits(w))
    return Fraction(p, q)


def evaluate_with_tail(prefix: Sequence[int], x: Fraction) -> Fraction:
    """Value of (prefix..., x) for a rational x = n/d > 0 in the last slot:
    (p*n + p'*d)/(q*n + q'*d), with p/q and p'/q' the prefix's last two convergents."""
    x = Fraction(x)
    if x <= 0:
        raise ValueError(f"tail value must be positive, got {x}")
    digits = tuple(prefix)
    p, q, p0, q0 = _fold(_as_digits(digits, "prefix")) if digits else _EMPTY
    n, d = x.numerator, x.denominator
    return Fraction(p * n + p0 * d, q * n + q0 * d)


def _convergent_pairs(digits: Sequence[int]):
    """Each prefix's (p_k, q_k), reduced as p_k q_{k-1} - p_{k-1} q_k = +-1 and q_k > 0."""
    states = accumulate(digits, lambda state, a: _fold((a,), state), initial=_EMPTY)
    return (state[:2] for state in islice(states, 1, None))


def convergents(w: "CFWord | Sequence[int]") -> list[Fraction]:
    """Values of all prefixes."""
    return [Fraction(p, q) for p, q in _convergent_pairs(_as_digits(w))]


def expand_surd(s: QuadraticSurd, depth: int) -> tuple[int, ...]:
    """First depth+1 digits of the (infinite) word of an irrational.

    Every returned prefix pins the value strictly between the prefix's value
    and the value with its last digit bumped by one.  s = (p + q*sqrt(d))/r is
    (P + sqrt(D))/Q with P = sgn(q)*p*r, D = d*q^2*r^2, Q = sgn(q)*r^2, so that
    Q | D - P^2.  Each digit a = floor((P + isqrt(D) + [Q < 0])/Q) is exact as
    sqrt(D) is irrational; the next complete quotient has P <- a*Q - P and the
    exact Q <- (D - P^2)/Q (Perron, *Die Lehre von den Kettenbrüchen*).  A digit
    can outgrow the surd's parameters, so digits past the digit budget are refused.
    """
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    sign = 1 if s.q > 0 else -1
    P, Q, D = sign * s.p * s.r, sign * s.r * s.r, s.d * (s.q * s.r) ** 2
    root, digits = math.isqrt(D), []
    for _ in range(depth + 1):
        a = (P + root + (Q < 0)) // Q
        digits.append(a)
        P = a * Q - P
        Q = (D - P * P) // Q
    check_int_budget(digits, "surd digit")
    return tuple(digits)


def parse_cf(text: str) -> tuple[int, ...]:
    """Read "[a0]" or "[a0; a1, ..., an]", with any whitespace around each mark."""
    body = text.strip()
    head, semi, tail = body[1:-1].partition(";")
    ok = body[:1] == "[" and body[-1:] == "]" and "," not in head and "-" not in tail
    digits = _parse_ints(f"{head},{tail}" if semi else head) if ok else text
    if isinstance(digits, str):  # a bad token or text
        check_digit_budget(text, "word digit")
        raise ValueError(f"not a continued-fraction word: {text!r}")
    return _as_digits(digits)


def format_cf(w: "CFWord | Sequence[int]") -> str:
    digits = w.digits if isinstance(w, CFWord) else tuple(w)
    if len(digits) == 1:
        return f"[{digits[0]}]"
    return f"[{digits[0]}; {_format_ints(digits[1:], ', ')}]"
