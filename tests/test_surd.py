import math
import operator
import random
from fractions import Fraction

import pytest

from bairecf import Ordering, QuadraticSurd, format_surd, parse_surd

from _oracles import NAMED_SURDS, NON_SQUARES, compare_oracle


def test_constructor_normalizes_sign_and_gcd():
    s = QuadraticSurd(2, -4, 3, -6)
    assert (s.p, s.q, s.d, s.r) == (-1, 2, 3, 3)
    t = QuadraticSurd(0, 2, 8, 4)
    assert (t.p, t.q, t.d, t.r) == (0, 1, 8, 2)


def test_constructor_rejects_bad_parameters():
    with pytest.raises(ValueError):
        QuadraticSurd(1, 1, 4)  # perfect square
    with pytest.raises(ValueError):
        QuadraticSurd(1, 1, 1)
    with pytest.raises(ValueError):
        QuadraticSurd(1, 0, 2)  # rational
    with pytest.raises(ValueError):
        QuadraticSurd(1, 1, 2, 0)
    with pytest.raises(ValueError):
        QuadraticSurd(Fraction(1, 2), 1, 2)  # type: ignore[arg-type]


def test_compare_known_values():
    sqrt2 = NAMED_SURDS["sqrt2"]
    assert sqrt2.compare(1) is Ordering.GT
    assert sqrt2.compare(2) is Ordering.LT
    assert sqrt2.compare(Fraction(141421356, 100000000)) is Ordering.GT
    assert sqrt2.compare(Fraction(141421357, 100000000)) is Ordering.LT
    minus = NAMED_SURDS["minus_sqrt2"]
    assert minus.compare(-1) is Ordering.LT
    assert minus.compare(-2) is Ordering.GT


def test_compare_matches_oracle_randomized():
    rng = random.Random(20040917)
    for _ in range(2000):
        p = rng.randint(-20, 20)
        q = rng.choice([n for n in range(-12, 13) if n != 0])
        d = rng.choice(NON_SQUARES)
        r = rng.choice([n for n in range(-15, 16) if n != 0])
        s = QuadraticSurd(p, q, d, r)
        x = Fraction(rng.randint(-60, 60), rng.randint(1, 40))
        assert s.compare(x).value == compare_oracle(s, x)


def test_compare_near_the_value_matches_oracle():
    # rationals straddling the surd very closely
    rng = random.Random(404)
    for _ in range(300):
        q = rng.choice([1, 2, 3, -1, -2])
        d = rng.choice(NON_SQUARES)
        s = QuadraticSurd(rng.randint(-5, 5), q, d, rng.randint(1, 6))
        lo = s.floor()
        for den in (7, 97, 1000003):
            for num_off in (-1, 0, 1):
                x = Fraction(lo * den + num_off, den)
                assert s.compare(x).value == compare_oracle(s, x)


def test_floor_brackets_value():
    rng = random.Random(555)
    for _ in range(1500):
        p = rng.randint(-25, 25)
        q = rng.choice([n for n in range(-10, 11) if n != 0])
        d = rng.choice(NON_SQUARES)
        r = rng.choice([n for n in range(-12, 13) if n != 0])
        s = QuadraticSurd(p, q, d, r)
        f = s.floor()
        assert s.compare(f) is Ordering.GT
        assert s.compare(f + 1) is Ordering.LT


def test_floor_examples():
    assert NAMED_SURDS["sqrt2"].floor() == 1
    assert NAMED_SURDS["minus_sqrt2"].floor() == -2
    assert NAMED_SURDS["golden"].floor() == 1
    assert QuadraticSurd(0, 1, 99).floor() == 9
    assert math.floor(NAMED_SURDS["minus_sqrt2"]) == -2


def test_recip_frac_is_reciprocal_of_fractional_part():
    """recip = 1/(s - floor(s)) checked by cross multiplication at a rational."""
    rng = random.Random(777)
    for _ in range(800):
        s = QuadraticSurd(
            rng.randint(-10, 10),
            rng.choice([n for n in range(-8, 9) if n != 0]),
            rng.choice(NON_SQUARES),
            rng.choice([n for n in range(-9, 10) if n != 0]),
        )
        t = s.recip_frac()
        assert t.d == s.d
        assert t.compare(1) is Ordering.GT
        # s - floor(s) and 1/t must agree: compare both against shared cuts
        f = s.floor()
        for cut_den in (3, 8, 13):
            for cut_num in range(1, cut_den):
                cut = Fraction(cut_num, cut_den)
                left = s.compare(f + cut)  # fractional part vs cut
                right = t.compare(1 / cut)  # reciprocal flips the order
                assert (left is Ordering.GT) == (right is Ordering.LT)


def test_recip_frac_golden_fixed_point():
    golden = NAMED_SURDS["golden"]
    assert golden.recip_frac() == golden


def test_recip_frac_sqrt2():
    # 1/(sqrt2 - 1) = 1 + sqrt2
    assert NAMED_SURDS["sqrt2"].recip_frac() == QuadraticSurd(1, 1, 2, 1)


def test_rich_comparisons():
    sqrt3 = NAMED_SURDS["sqrt3"]
    assert sqrt3 > 1
    assert sqrt3 < 2
    assert sqrt3 > Fraction(173, 100)
    assert sqrt3 < Fraction(174, 100)
    assert (sqrt3 >= 1) and (sqrt3 <= 2)
    for compare in (operator.lt, operator.gt, operator.le, operator.ge):
        with pytest.raises(TypeError):
            compare(sqrt3, "x")


def test_parse_format_round_trip():
    for name, s in NAMED_SURDS.items():
        assert parse_surd(format_surd(s)) == s, name
    assert format_surd(NAMED_SURDS["minus_sqrt2"]) == "(0-1*sqrt(2))/1"
    assert parse_surd("( 1 + 1 * sqrt( 5 ) ) / 2") == NAMED_SURDS["golden"]
    assert parse_surd("(0+1*sqrt(8))/-2") == QuadraticSurd(0, -1, 8, 2)


@pytest.mark.parametrize(
    "bad", ["", "sqrt(2)", "(1+sqrt(2))/1", "(1+1*sqrt(2))", "1+1*sqrt(2)/1", "(1+1*sqrt(-2))/1"]
)
def test_parse_rejects(bad):
    with pytest.raises(ValueError):
        parse_surd(bad)
