import random
import sys
from fractions import Fraction

import pytest

from bairecf import (
    Baire2Prefix,
    euclid_div,
    format_rational,
    parse_cf,
    parse_point,
    parse_rational,
    parse_surd,
)
from bairecf.rational import MAX_DIGITS, _format_ratio, rational_pairs


def test_parse_basic():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-7/2") == Fraction(-7, 2)
    assert parse_rational("5") == Fraction(5)
    assert parse_rational("-5") == Fraction(-5)
    assert parse_rational("0/3") == Fraction(0)


def test_parse_whitespace_and_reduction():
    assert parse_rational("  6 / 8 ") == Fraction(3, 4)
    assert parse_rational(" -10/4") == Fraction(-5, 2)


@pytest.mark.parametrize("bad", ["", "3/", "/4", "3.5", "a", "1/-2", "3 4", "--2"])
def test_parse_rejects(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_parse_zero_denominator():
    with pytest.raises(ValueError, match="zero denominator"):
        parse_rational("3/0")


def test_format_round_trip():
    for num in range(-30, 31):
        for den in range(1, 20):
            x = Fraction(num, den)
            assert parse_rational(format_rational(x)) == x


def test_format_is_reduced():
    assert format_rational(Fraction(6, 8)) == "3/4"
    assert format_rational(Fraction(4, 2)) == "2"
    assert format_rational(Fraction(0, 7)) == "0"


def test_digit_budget_matches_the_interpreter_limit_without_lifting_it():
    limit = sys.get_int_max_str_digits()
    assert MAX_DIGITS == 4300
    big = 10**MAX_DIGITS  # the least integer with MAX_DIGITS + 1 digits
    for x in (Fraction(big - 1, big - 3), Fraction(-(big - 1), 7), Fraction(1, big - 1)):
        text = format_rational(x)
        assert parse_rational(text) == x
    assert parse_rational("-" + "9" * MAX_DIGITS + "/" + "7" * MAX_DIGITS) < 0
    for x in (Fraction(big), Fraction(-big, 3), Fraction(1, big), Fraction(big + 1, big + 2)):
        with pytest.raises(ValueError, match="exceeds the 4300-digit budget; use a lower"):
            format_rational(x)
        # the pair printer behind `cf convergents` refuses them with the same message
        with pytest.raises(ValueError, match="exceeds the 4300-digit budget; use a lower"):
            _format_ratio(x.numerator, x.denominator)
    assert _format_ratio(-(big - 1), 1) == format_rational(Fraction(-(big - 1)))
    for text in ("1" * 4301, "-" + "1" * 4301, "1/" + "1" * 4301, "0" * 4300 + "1/2"):
        with pytest.raises(ValueError, match="exceeds the 4300-digit budget"):
            parse_rational(text)
    assert sys.get_int_max_str_digits() == limit


def test_parsers_share_the_digit_budget():
    ok, over = "7" * MAX_DIGITS, "7" * (MAX_DIGITS + 1)
    assert parse_point(f"({' ' * MAX_DIGITS}1, {'0' * (MAX_DIGITS - 1)}2)").entries == (1, 2)
    assert parse_cf(f"[{ok}; {ok}]") == (int(ok), int(ok))
    assert parse_point(f"(-{ok})~({ok})", Baire2Prefix).entries == (-int(ok),)
    assert parse_surd(f"({ok}+1*sqrt(2))/1").p == int(ok)
    cases = [
        (parse_cf, f"[{over}]", "word digit"),
        (parse_cf, f"[1; {ok}, {over}]", "word digit"),
        (parse_point, f"(1, -{over})", "point entry"),
        (parse_point, f"(1, -{'0' * MAX_DIGITS}1)", "point entry"),
        (parse_point, f"(1)~(2,{over})", "tail entry"),
        (parse_surd, f"(1-1*sqrt(2))/-{over}", "surd parameter"),
        (parse_rational, f" -{over} / 3", "rational"),
    ]
    for parse, text, what in cases:
        with pytest.raises(ValueError, match=f"^{what} exceeds the 4300-digit budget$"):
            parse(text)
    # malformed text without an overlong integer keeps its own message
    with pytest.raises(ValueError, match="not a continued-fraction word"):
        parse_cf(f"[{ok}; x]")
    with pytest.raises(ValueError, match="bad point entry"):
        parse_point(f"({ok}, 1.5)")


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int digit limit")
def test_digit_budget_holds_where_int_has_no_limit():
    """With the interpreter's limit lifted after import, int() reads any length,
    so the list reader measures its tokens itself."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        test_parsers_share_the_digit_budget()
    finally:
        sys.set_int_max_str_digits(limit)


def test_euclid_div_exhaustive():
    # a = q*b + r with 0 <= r < b, also for negative a
    for a in range(-50, 51):
        for b in range(1, 51):
            q, r = euclid_div(a, b)
            assert a == q * b + r
            assert 0 <= r < b


def test_euclid_div_examples():
    assert euclid_div(7, 3) == (2, 1)
    assert euclid_div(-7, 3) == (-3, 2)
    assert euclid_div(-7, 4) == (-2, 1)
    assert euclid_div(6, 3) == (2, 0)


def test_euclid_div_rejects_nonpositive_divisor():
    with pytest.raises(ValueError):
        euclid_div(5, 0)
    with pytest.raises(ValueError):
        euclid_div(5, -3)


def _pairs_oracle(texts):
    """parse_rational text by text, as (numerator, denominator) pairs."""
    return [(v.numerator, v.denominator) for v in map(parse_rational, texts)]


def test_rational_pairs_match_parse_rational():
    rng = random.Random(777)
    good = ["3/4", " 6 / 8 ", "-10/4", "5", "-0", "0/3", "12/1", "9" * MAX_DIGITS,
            "1/" + "7" * MAX_DIGITS, " " * MAX_DIGITS + "2/3", "7/3\n"]
    bad = ["", "3/", "3.5", "1/-2", "--2", "1/0", "0/00", "9" * (MAX_DIGITS + 1),
           "1/" + "1" * (MAX_DIGITS + 1)]
    errors = 0
    for _ in range(400):
        texts = [rng.choice(good) for _ in range(rng.randint(0, 8))]
        for _ in range(rng.choice([0, 0, 1, 2])):
            texts.insert(rng.randint(0, len(texts)), rng.choice(bad))
        try:
            want = _pairs_oracle(texts)
        except ValueError as e:
            errors += 1
            with pytest.raises(ValueError) as exc:
                rational_pairs(texts)
            assert str(exc.value) == str(e)
        else:
            assert rational_pairs(texts) == want
    assert 100 < errors < 350
