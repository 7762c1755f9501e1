import itertools
import random
from fractions import Fraction

import pytest

from bairecf import (
    WHOLE_SPACE,
    Baire2Prefix,
    BairePrefix,
    Distance,
    InsufficientPrecisionError,
    baire_distance,
    cylinder_of_ball,
    first_difference,
    format_point,
    parse_point,
    psi_inverse,
    psi_map,
)


def test_prefix_validation():
    BairePrefix((0, 1, 2))
    BairePrefix((), (3,))
    with pytest.raises(ValueError):
        BairePrefix((0, -1))
    with pytest.raises(ValueError):
        BairePrefix((0,), (1, -2))
    with pytest.raises(ValueError):
        BairePrefix((0,), ())
    Baire2Prefix((-7, 1, 2))
    Baire2Prefix((5,), (3, 1))
    with pytest.raises(ValueError):
        Baire2Prefix((1, 0))
    with pytest.raises(ValueError):
        Baire2Prefix((1,), (2, 0))


def test_value_at_and_definedness():
    p = BairePrefix((3, 1), (4, 5))
    assert [p.value_at(i) for i in range(7)] == [3, 1, 4, 5, 4, 5, 4]
    assert p.defined_through(100)
    q = BairePrefix((3, 1))
    assert q.defined_through(2)
    assert not q.defined_through(3)
    with pytest.raises(InsufficientPrecisionError):
        q.value_at(2)
    with pytest.raises(ValueError, match="index must be >= 0, got -1"):
        q.value_at(-1)


def test_prefix_extraction():
    p = BairePrefix((3,), (2, 1))
    assert p.prefix(1) == (3,)
    assert p.prefix(4) == (3, 2, 1, 2)
    q = BairePrefix((3, 1, 4))
    with pytest.raises(InsufficientPrecisionError,
                       match=r"^\(3,1,4\) has no entry at index 3 and no tail, need index 3$"):
        q.prefix(4)
    with pytest.raises(InsufficientPrecisionError,
                       match=r"^\(\) has no entry at index 0 and no tail, need index 1$"):
        BairePrefix(()).prefix(2)
    assert BairePrefix(()).prefix(0) == ()


def test_normal_form_identifies_equal_points():
    a = parse_point("(0)~(2,1)")
    b = parse_point("(0,2)~(1,2)")
    assert a.normal_form() == b.normal_form()
    c = parse_point("(1,2)~(2)")
    d = parse_point("(1)~(2)")
    assert c.normal_form() == d.normal_form()
    e = parse_point("(1,1)~(2,2)")
    assert e.normal_form() == parse_point("(1,1)~(2)").normal_form()
    assert parse_point("(3)").normal_form() != parse_point("(3)~(3)").normal_form()


def test_normal_form_randomized_consistency():
    """Unrolling tail elements into the entries never changes the normal form."""
    rng = random.Random(9090)
    for _ in range(500):
        entries = tuple(rng.randint(0, 3) for _ in range(rng.randint(0, 4)))
        tail = tuple(rng.randint(0, 3) for _ in range(rng.randint(1, 3)))
        p = BairePrefix(entries, tail)
        rolled = BairePrefix(entries + tail[:1], tail[1:] + tail[:1])
        assert p.normal_form() == rolled.normal_form()
        repeated = BairePrefix(entries, tail * rng.randint(2, 3))
        assert p.normal_form() == repeated.normal_form()


def test_first_difference_examples():
    assert first_difference(BairePrefix((0, 1, 2)), BairePrefix((0, 1, 5)), 3) == 2
    assert first_difference(BairePrefix((7, 7, 7)), BairePrefix((7, 7, 7)), 3) is None
    assert first_difference(BairePrefix((1,), (2,)), BairePrefix((1, 2, 2, 3)), 4) == 3


def test_first_difference_requires_definedness():
    # the precondition is definedness through the bound, even when points
    # already differ inside the defined region
    with pytest.raises(InsufficientPrecisionError):
        first_difference(BairePrefix((1, 2)), BairePrefix((2, 2)), 3)
    with pytest.raises(ValueError):
        first_difference(BairePrefix((1,)), BairePrefix((2,)), 0)


def test_baire_distance_exact_and_bounded():
    d = baire_distance(BairePrefix((0, 1, 2)), BairePrefix((0, 1, 5)), 3)
    assert d == Distance.exact(Fraction(1, 3))
    same = BairePrefix((1, 1, 1, 1))
    d2 = baire_distance(same, BairePrefix((1, 1, 1, 1)), 4)
    assert d2 == Distance.at_most(Fraction(1, 5))
    assert str(d) == "EXACT 1/3"
    assert str(d2) == "AT_MOST 1/5"


def test_baire_distance_exact_zero_via_normal_forms():
    a = parse_point("(0)~(2,1)")
    b = parse_point("(0,2)~(1,2)")
    assert baire_distance(a, b, 8) == Distance.exact(Fraction(0))
    c = parse_point("(0)~(2,1)")
    e = parse_point("(0,2)~(1,3)")
    # differ first at index 4 (0,2,1,2,1... vs 0,2,1,3,1...)
    assert baire_distance(c, e, 8) == Distance.exact(Fraction(1, 4))


def test_baire_distance_total_but_unequal_beyond_bound():
    a = parse_point("(1,1,1,1,1,1)~(1)")
    b = parse_point("(1)~(1,1,1,1,1,1,2)")
    # equal through index 6, differ at index 7; bound 4 sees nothing
    assert baire_distance(a, b, 4) == Distance.at_most(Fraction(1, 5))
    assert baire_distance(a, b, 16) == Distance.exact(Fraction(1, 8))


def test_ultrametric_triangle_randomized():
    rng = random.Random(6060)
    for _ in range(2000):
        pts = [
            BairePrefix(tuple(rng.randint(0, 2) for _ in range(6)), (rng.randint(0, 2),))
            for _ in range(3)
        ]
        f, g, h = pts
        dfh = baire_distance(f, h, 8).value
        dfg = baire_distance(f, g, 8).value
        dgh = baire_distance(g, h, 8).value
        assert dfh <= max(dfg, dgh)


def test_cylinder_of_ball_examples():
    f = BairePrefix((3, 1, 4, 1, 5))
    assert cylinder_of_ball(f, Fraction(1, 3)) == (3, 1, 4)
    assert cylinder_of_ball(f, Fraction(2)) is WHOLE_SPACE
    assert repr(WHOLE_SPACE) == "WHOLE_SPACE"
    assert cylinder_of_ball(BairePrefix((3, 1, 4)), Fraction(1)) == (3,)
    assert cylinder_of_ball(f, Fraction(1, 4)) == (3, 1, 4, 1)
    assert cylinder_of_ball(f, Fraction(1, 5)) == (3, 1, 4, 1, 5)
    with pytest.raises(ValueError):
        cylinder_of_ball(f, Fraction(0))
    with pytest.raises(InsufficientPrecisionError):
        cylinder_of_ball(BairePrefix((3,)), Fraction(1, 3))
    # r = 1/6 asks for six fixed entries (1/7 < 1/6 <= 1/6) but f has five
    with pytest.raises(InsufficientPrecisionError):
        cylinder_of_ball(f, Fraction(1, 6))


def test_cylinder_radius_bracketing():
    # m is the unique integer with 1/(m+1) < r <= 1/m
    f = BairePrefix((0,), (1,))
    for m in range(1, 30):
        r_hi = Fraction(1, m)
        assert cylinder_of_ball(f, r_hi) == f.prefix(m)
        r_mid = (Fraction(1, m + 1) + Fraction(1, m)) / 2
        assert cylinder_of_ball(f, r_mid) == f.prefix(m)


def test_cylinder_is_the_open_ball_brute_force():
    # every pair of total points over small alphabets, both spaces: g is
    # closer than r to f exactly when it lies in f's cylinder
    radii = [Fraction(1, m) for m in range(1, 7)]
    radii += [(a + b) / 2 for a, b in zip(radii, radii[1:])] + [Fraction(2)]
    for cls, heads, digits in ((BairePrefix, (0, 1), (0, 1)), (Baire2Prefix, (-1, 0), (1, 2))):
        points = [
            cls((head, *rest), tail)
            for head in heads
            for rest in itertools.product(digits, repeat=2)
            for tail in ((1,), (2, 1))
        ]
        for f in points:
            for r in radii:
                cyl = cylinder_of_ball(f, r)
                for g in points:
                    inside = cyl is WHOLE_SPACE or g.prefix(len(cyl)) == cyl
                    assert (baire_distance(f, g, 8).value < r) == inside, (f, g, r)


def test_ball_center_property():
    # any point of the returned cylinder set reproduces the same cylinder
    rng = random.Random(7070)
    for _ in range(400):
        f = BairePrefix(tuple(rng.randint(0, 3) for _ in range(8)))
        r = rng.choice([Fraction(1, 5), Fraction(2, 9), Fraction(1, 3), Fraction(3, 7)])
        sigma = cylinder_of_ball(f, r)
        m = len(sigma)
        bump = (f.entries[m] + 1,) if m < 8 else ()
        g = BairePrefix(sigma + bump + tuple(rng.randint(0, 3) for _ in range(8 - m - len(bump))))
        d = baire_distance(f, g, 8)
        if bump:
            assert d == Distance.exact(Fraction(1, m + 1))
            assert d.value < r
        assert cylinder_of_ball(g, r) == sigma


def test_ball_boundary_pair_shares_the_cylinder():
    # a pair whose first difference sits at the first index the cylinder
    # leaves free is closer than r, so both points name the same cylinder
    f = BairePrefix((0, 0, 0, 0, 0, 0, 0, 0))
    g = BairePrefix((0, 0, 0, 0, 7, 0, 0, 0))
    r = Fraction(2, 9)
    assert baire_distance(f, g, 8) == Distance.exact(Fraction(1, 5))
    assert Fraction(1, 5) < r
    assert cylinder_of_ball(f, r) == (0, 0, 0, 0)
    assert cylinder_of_ball(g, r) == (0, 0, 0, 0)


def test_psi_map_examples():
    assert psi_map(BairePrefix((0, 1, 2), (3,))) == Baire2Prefix((0, 2, 3), (4,))
    assert psi_map(BairePrefix((1,))) == Baire2Prefix((-1,))
    assert psi_map(BairePrefix((2, 0))) == Baire2Prefix((1, 1))
    # empty entries with a tail: the head still gets the zigzag treatment
    assert psi_map(BairePrefix((), (0,))) == Baire2Prefix((0,), (1,))
    assert psi_map(BairePrefix((), (1, 0))) == Baire2Prefix((-1,), (1, 2))


def test_psi_head_bijection_covers_all_integers():
    heads = {psi_map(BairePrefix((n,))).entries[0] for n in range(0, 20)}
    assert heads == set(range(-10, 10))


def test_psi_round_trip_exhaustive():
    for length in range(1, 5):
        for entries in itertools.product(range(4), repeat=length):
            p = BairePrefix(entries)
            assert psi_inverse(psi_map(p)) == p


def test_psi_round_trip_with_tails():
    rng = random.Random(8080)
    for _ in range(500):
        entries = tuple(rng.randint(0, 5) for _ in range(rng.randint(0, 4)))
        tail = tuple(rng.randint(0, 5) for _ in range(rng.randint(1, 3)))
        p = BairePrefix(entries, tail)
        q = psi_map(p)
        back = psi_inverse(q)
        assert back.normal_form() == p.normal_form()


def test_psi_is_isometric():
    rng = random.Random(9191)
    for _ in range(1000):
        f = BairePrefix(tuple(rng.randint(0, 4) for _ in range(8)), (0,))
        g = BairePrefix(tuple(rng.randint(0, 4) for _ in range(8)), (0,))
        df = baire_distance(f, g, 8)
        dg = baire_distance(psi_map(f), psi_map(g), 8)
        assert df == dg


def test_parse_format_points():
    for text in ["(1,2,3)", "()", "(0)~(2,1)", "(7)~(3)"]:
        assert format_point(parse_point(text)) == text
    assert format_point(parse_point(" ( 1 , 2 ) ")) == "(1,2)"
    with pytest.raises(ValueError):
        parse_point("1,2")
    with pytest.raises(ValueError):
        parse_point("(1,2)~()")
    with pytest.raises(ValueError):
        parse_point("(1,x)")
