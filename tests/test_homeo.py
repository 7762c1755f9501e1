"""Tests for the digit-sequence/irrational dictionary."""

import random
import re
from fractions import Fraction

import pytest

from bairecf import (
    Baire2Prefix,
    InsufficientPrecisionError,
    check_ball_image,
    cylinder_of_ball,
    interval_of,
    locate,
    phi_forward,
    phi_inverse,
)
from bairecf.cover import IntervalQ
from _oracles import NAMED_SURDS, ball_image_oracle, periodic_surd


def test_phi_forward_examples():
    p = Baire2Prefix((1,), (2,))
    a2 = phi_forward(p, 2)
    assert (a2.interval.lo, a2.interval.hi) == (Fraction(7, 5), Fraction(10, 7))
    assert a2.midpoint == Fraction(99, 70)
    a3 = phi_forward(p, 3)
    assert (a3.interval.lo, a3.interval.hi) == (Fraction(24, 17), Fraction(17, 12))
    q = Baire2Prefix((0,), (1,))
    a1 = phi_forward(q, 1)
    assert (a1.interval.lo, a1.interval.hi) == (Fraction(1, 2), Fraction(1))
    assert a1.width == Fraction(1, 2)


def test_phi_forward_depth_zero_is_unit_interval():
    for head in range(-4, 5):
        a0 = phi_forward(Baire2Prefix((head,), (1,)), 0)
        assert (a0.interval.lo, a0.interval.hi) == (Fraction(head), Fraction(head + 1))
        assert a0.width == 1


def test_phi_forward_rejects_bad_depth_and_short_points():
    with pytest.raises(ValueError):
        phi_forward(Baire2Prefix((1, 2)), -1)
    with pytest.raises(InsufficientPrecisionError):
        phi_forward(Baire2Prefix((1, 2)), 5)


def _random_point(rng):
    head = (rng.randint(-3, 3),)
    rest = tuple(rng.randint(1, 4) for _ in range(12))
    return Baire2Prefix(head + rest)


def test_phi_forward_intervals_nest():
    rng = random.Random(9090)
    for _ in range(250):
        p = _random_point(rng)
        prev = phi_forward(p, 0).interval
        for depth in range(1, 11):
            cur = phi_forward(p, depth).interval
            assert prev.contains_interval(cur)
            prev = cur


def test_phi_forward_widths_shrink():
    rng = random.Random(9191)
    for _ in range(250):
        p = _random_point(rng)
        assert phi_forward(p, 0).width == 1
        assert phi_forward(p, 1).width <= Fraction(1, 2)
        for depth in range(2, 11):
            assert phi_forward(p, depth).width < Fraction(1, depth + 1)


def test_phi_inverse_examples():
    assert phi_inverse(NAMED_SURDS["sqrt3"], 3) == Baire2Prefix((1, 1, 2, 1))
    assert phi_inverse(NAMED_SURDS["sqrt2"], 3) == Baire2Prefix((1, 2, 2, 2))
    assert phi_inverse(NAMED_SURDS["minus_sqrt2"], 2) == Baire2Prefix((-2, 1, 1))
    assert phi_inverse(NAMED_SURDS["golden"], 4) == Baire2Prefix((1, 1, 1, 1, 1))


def test_round_trip_named_surds():
    # inverse then forward must bracket the original point, ever tighter
    for x in NAMED_SURDS.values():
        for depth in range(13):
            p = phi_inverse(x, depth)
            ap = phi_forward(p, depth)
            assert ap.interval.contains_surd(x)
            if depth == 1:
                assert ap.width <= Fraction(1, 2)
            elif depth >= 2:
                assert ap.width < Fraction(1, depth + 1)


def test_round_trip_random_periodic_surds():
    rng = random.Random(9292)
    for _ in range(150):
        head = tuple(
            rng.randint(-4, 4) if i == 0 else rng.randint(1, 4)
            for i in range(rng.randint(1, 3))
        )
        block = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 3)))
        x = periodic_surd(head, block)
        depth = rng.randint(0, 9)
        p = phi_inverse(x, depth)
        # an infinite expansion with positive later digits is unique, so the
        # recovered digits are the word itself read off cyclically
        expected = (head + block * 12)[: depth + 1]
        assert p.entries == expected
        assert phi_forward(p, depth).interval.contains_surd(x)


def test_round_trip_digits_match_expansion():
    rng = random.Random(1618)
    surds = list(NAMED_SURDS.values()) + [
        periodic_surd(tuple(rng.randint(-9, 9) if i == 0 else rng.randint(1, 50)
                            for i in range(rng.randint(1, 4))),
                      tuple(rng.randint(1, 50) for _ in range(rng.randint(1, 4))))
        for _ in range(20)]
    for x in surds:
        for depth in (0, 1, rng.randint(2, 12), rng.randint(13, 200)):
            assert phi_inverse(x, depth).entries == locate(x, depth).word


def test_deep_intervals_past_the_digit_budget_are_refused():
    message = r"^result exceeds the 4300-digit budget; use a lower depth$"
    p = Baire2Prefix((0,), (9,))  # q passes 10^4300 at 4483 digits
    assert phi_forward(p, 4000).width > 0 and check_ball_image(p, 4000).all_inside
    with pytest.raises(ValueError, match=message):
        phi_forward(p, 4500)
    with pytest.raises(ValueError, match=message):
        check_ball_image(p, 4500)


def test_check_ball_image_examples():
    r = check_ball_image(Baire2Prefix((1,), (2,)), 3)
    assert r.cylinder == (1, 2, 2)
    assert (r.interval.lo, r.interval.hi) == (Fraction(7, 5), Fraction(10, 7))
    assert r.all_inside
    assert r.samples_checked == 9

    r = check_ball_image(Baire2Prefix((0, 1, 1, 1)), 2)
    assert r.cylinder == (0, 1)
    assert (r.interval.lo, r.interval.hi) == (Fraction(1, 2), Fraction(1))
    assert r.all_inside

    r = check_ball_image(Baire2Prefix((3,), (1,)), 1)
    assert r.cylinder == (3,)
    assert (r.interval.lo, r.interval.hi) == (Fraction(3), Fraction(4))
    assert r.all_inside


def test_check_ball_image_randomized():
    rng = random.Random(9393)
    for _ in range(60):
        p = _random_point(rng)
        n = rng.randint(1, 6)
        r = check_ball_image(p, n)
        assert r.all_inside
        assert r.cylinder == p.prefix(n) == cylinder_of_ball(p, Fraction(1, n))
        assert r.interval == interval_of(p.prefix(n))
        assert r.samples_checked == 9


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except ValueError as e:  # InsufficientPrecisionError included, told apart by name
        return type(e).__name__, str(e)


def test_check_ball_image_matches_the_oracle():
    rng = random.Random(9494)
    for _ in range(400):
        head = (rng.randint(-3, 3),)
        rest = tuple(rng.choice([1, 2, 3, 7, 10**20]) for _ in range(rng.randint(0, 7)))
        tail = None if rng.random() < 0.5 else tuple(rng.randint(1, 4)
                                                     for _ in range(rng.randint(1, 3)))
        p = Baire2Prefix(head + rest, tail)
        n = rng.randint(0, 9)
        got = _outcome(check_ball_image, p, n)
        assert got == _outcome(ball_image_oracle, p, n), (p, n)
        assert got[0] != "ok" or got[1].samples_checked == 9


def test_escaping_sample_is_an_internal_error(monkeypatch):
    # the fifth sample, the extension (2, 2), is made to leave the interval
    verdicts = iter([True] * 4 + [False])
    monkeypatch.setattr(IntervalQ, "contains_interval", lambda self, other: next(verdicts))
    with pytest.raises(RuntimeError, match=re.escape(
            "internal error: word (1, 2, 2, 2, 2) leaves (7/5, 10/7)")):
        check_ball_image(Baire2Prefix((1,), (2,)), 3)


def test_check_ball_image_errors():
    with pytest.raises(ValueError):
        check_ball_image(Baire2Prefix((1, 2)), 0)
    with pytest.raises(InsufficientPrecisionError):
        check_ball_image(Baire2Prefix((1, 2)), 3)
