import math
import random
from collections import Counter
from itertools import accumulate
from fractions import Fraction

import pytest

from bairecf import (
    CFWord,
    convergents,
    evaluate,
    evaluate_with_tail,
    expand_rational,
    expand_surd,
    format_cf,
    interval_of,
    parse_cf,
)
from bairecf.cf import _fold, _fold_word
from bairecf.rational import MAX_DIGITS
from bairecf.surd import QuadraticSurd

from _oracles import (
    NAMED_SURDS,
    compare_oracle,
    expand_surd_oracle,
    fold_value,
    interval_oracle,
    periodic_surd,
)


def test_expand_examples():
    assert expand_rational(Fraction(355, 113)).digits == (3, 7, 16)
    assert expand_rational(Fraction(0)).digits == (0,)
    assert expand_rational(Fraction(7)).digits == (7,)
    assert expand_rational(Fraction(-7, 4)).digits == (-2, 4)
    assert expand_rational(Fraction(1, 2)).digits == (0, 2)
    assert expand_rational(Fraction(-1, 2)).digits == (-1, 2)


def test_expand_fibonacci_worst_case():
    # slowest expansions relative to denominator size
    a, b = 1, 1
    for _ in range(40):
        a, b = a + b, a
    w = expand_rational(Fraction(a, b))
    assert evaluate(w) == Fraction(a, b)


def test_cfword_canonical_constraints():
    CFWord((3,))
    w = CFWord((3, 7, 16))
    assert (list(w), str(w)) == ([3, 7, 16], "[3; 7, 16]")
    CFWord((0, 1, 1, 2))
    with pytest.raises(ValueError):
        CFWord((3, 1))  # must not end in 1 when longer than one digit
    with pytest.raises(ValueError):
        CFWord((3, 0, 2))
    with pytest.raises(ValueError):
        CFWord(())


def test_round_trip_exhaustive_small():
    for p in range(-40, 41):
        for q in range(1, 41):
            if math.gcd(p, q) != 1:
                continue
            x = Fraction(p, q)
            w = expand_rational(x)
            assert evaluate(w) == x
            if len(w) > 1:
                assert w.digits[-1] >= 2


def test_evaluate_accepts_noncanonical():
    assert evaluate((2, 1, 1)) == Fraction(5, 2)
    assert evaluate((3, 7, 15, 1)) == evaluate((3, 7, 16))


def test_noncanonical_tail_split_equivalence():
    # (..., a) and (..., a-1, 1) denote the same rational
    rng = random.Random(1001)
    for _ in range(500):
        digits = [rng.randint(-5, 5)] + [rng.randint(1, 6) for _ in range(rng.randint(1, 5))]
        if digits[-1] < 2:
            digits[-1] = 2
        split = digits[:-1] + [digits[-1] - 1, 1]
        assert evaluate(digits) == evaluate(split)


def test_evaluate_rejects_bad_digits():
    with pytest.raises(ValueError):
        evaluate(())
    with pytest.raises(ValueError):
        evaluate((1, 0))
    with pytest.raises(ValueError):
        evaluate((1, -2))


def test_evaluate_with_tail():
    assert evaluate_with_tail((), Fraction(7, 3)) == Fraction(7, 3)
    assert evaluate_with_tail((3,), Fraction(2)) == Fraction(7, 2)
    # substituting the last digit as the tail value reproduces the word
    rng = random.Random(1002)
    for _ in range(500):
        digits = [rng.randint(-5, 5)] + [rng.randint(1, 6) for _ in range(rng.randint(1, 5))]
        assert evaluate_with_tail(digits[:-1], Fraction(digits[-1])) == evaluate(digits)
    with pytest.raises(ValueError):
        evaluate_with_tail((3,), Fraction(0))
    with pytest.raises(ValueError):
        evaluate_with_tail((3,), Fraction(-1, 2))


def test_convergents_match_prefix_evaluation():
    """Recurrence route equals back-to-front prefix evaluation (two independent routes)."""
    rng = random.Random(1003)
    for _ in range(400):
        digits = tuple(
            [rng.randint(-8, 8)] + [rng.randint(1, 9) for _ in range(rng.randint(0, 7))]
        )
        cs = convergents(digits)
        assert len(cs) == len(digits)
        for i, c in enumerate(cs):
            assert c == fold_value(digits[: i + 1])


def test_one_fold_matches_back_to_front_oracle():
    """Values, tails, convergents and intervals against back-to-front Fraction folds."""
    rng = random.Random(5025)
    for _ in range(300):
        n = rng.randint(1, 40)
        word = (rng.randint(-50, 50),) + tuple(rng.randint(1, 12) for _ in range(n - 1))
        assert evaluate(word) == fold_value(word)
        cs = convergents(word)
        assert cs == [fold_value(word[: i + 1]) for i in range(n)]
        iv = interval_of(word)
        assert (iv.lo, iv.hi) == interval_oracle(word)
        x = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
        prefix = word[: rng.randint(0, n)]
        assert evaluate_with_tail(prefix, x) == fold_value(prefix, x)
    assert evaluate_with_tail((), Fraction(3, 7)) == fold_value((), Fraction(3, 7))


def test_convergents_sqrt2_prefix():
    cs = convergents((1, 2, 2, 2, 2))
    assert cs == [
        Fraction(1),
        Fraction(3, 2),
        Fraction(7, 5),
        Fraction(17, 12),
        Fraction(41, 29),
    ]


_CAP = 10**MAX_DIGITS
BUDGET = f"^result exceeds the {MAX_DIGITS}-digit budget; use a lower depth$"


def _check_fold_word(digits):
    """_fold_word is _fold while q stays under 10^MAX_DIGITS, and refuses exactly past it."""
    state = _fold(digits)
    if state[1] < _CAP:
        assert _fold_word(digits) == state
        assert evaluate(digits) == Fraction(*state[:2])
        return False
    with pytest.raises(ValueError, match=BUDGET):
        _fold_word(digits)
    with pytest.raises(ValueError, match=BUDGET):
        evaluate(digits)
    return True


def test_fold_word_matches_fold_and_refuses_once_q_reaches_the_budget():
    rng = random.Random(4300)
    refused = 0
    for _ in range(40):
        n, top = rng.choice(((10, 9), (600, 9), (4600, 9), (5000, 3), (300, 10**40)))
        digits = (rng.randint(-10**50, 10**50),) + tuple(rng.randint(1, top) for _ in range(n))
        refused += _check_fold_word(digits)
    assert 0 < refused < 40
    # All-9 words: q first reaches the budget at one length, mid-chunk, p still below it.
    states = list(accumulate((9,) * 4600, lambda st, a: _fold((a,), st), initial=_fold((0,))))
    first = next(n for n, st in enumerate(states) if st[1] >= _CAP)
    assert first % 512 and states[first][0] < _CAP
    for n in (1, 511, 512, 513, first - 1, first, first + 1, 4600):
        assert _check_fold_word((0,) + (9,) * n) == (n >= first)
    # Large digits: [0; 9, a] has q = 9a + 1, exactly 10^MAX_DIGITS at a = (10^MAX_DIGITS - 1)/9.
    a = (10**MAX_DIGITS - 1) // 9
    for a2, past in ((a - 1, False), (a, True), (a + 1, True)):
        assert _check_fold_word((0, 9, a2)) is past
    assert [_check_fold_word((1, a1)) for a1 in (10**MAX_DIGITS - 1, 10**MAX_DIGITS)] == [
        False, True]
    # p past the budget with q under it is left to the printer.
    assert not _check_fold_word((10**MAX_DIGITS, 2))
    assert not _check_fold_word((-(10**MAX_DIGITS),))


def test_expand_surd_sqrt2():
    assert expand_surd(NAMED_SURDS["sqrt2"], 5) == (1, 2, 2, 2, 2, 2)


def test_expand_surd_golden_ratio():
    assert expand_surd(NAMED_SURDS["golden"], 8) == (1,) * 9


def test_expand_surd_negative():
    # -sqrt2 = [-2; 1, 1, 2, 2, 2, ...]: floor is -2, then the tail flips
    assert expand_surd(NAMED_SURDS["minus_sqrt2"], 5) == (-2, 1, 1, 2, 2, 2)


def test_expand_surd_depth_zero_and_errors():
    assert expand_surd(NAMED_SURDS["sqrt3"], 0) == (1,)
    with pytest.raises(ValueError):
        expand_surd(NAMED_SURDS["sqrt3"], -1)


def test_expand_surd_matches_periodic_oracle():
    """Digits of head+periodic words rebuilt from the fixed-point quadratic."""
    rng = random.Random(1004)
    for _ in range(250):
        head = tuple(
            [rng.randint(-4, 4)] + [rng.randint(1, 4) for _ in range(rng.randint(0, 3))]
        )
        block = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 3)))
        s = periodic_surd(head, block)
        depth = 12
        want = (head + block * depth)[: depth + 1]
        assert expand_surd(s, depth) == want


def test_expand_surd_takes_one_isqrt_and_builds_no_surd(monkeypatch):
    calls = Counter()

    def counted(name, f):
        return lambda *args: calls.update((name,)) or f(*args)

    monkeypatch.setattr(math, "isqrt", counted("isqrt", math.isqrt))
    monkeypatch.setattr(QuadraticSurd, "floor", counted("floor", QuadraticSurd.floor))
    monkeypatch.setattr(
        QuadraticSurd, "__post_init__", counted("surd", QuadraticSurd.__post_init__)
    )
    for name in ("sqrt2", "golden", "minus_sqrt2", "sqrt7"):
        s = NAMED_SURDS[name]
        for depth in (0, 20, 1000):
            calls.clear()
            digits = expand_surd(s, depth)
            assert calls == Counter(isqrt=1)
            assert digits == expand_surd_oracle(s, depth)


def _random_surd(rng) -> tuple:
    """(p + q*sqrt(d))/r with magnitudes from 1 to 10^9, and the signs of q and r."""
    bound = rng.choice((10, 10**3, 10**6, 10**9))
    d = rng.randint(2, rng.choice((50, 10**6, 10**12)))
    while math.isqrt(d) ** 2 == d:
        d += 1
    sq, sr = rng.choice((1, -1)), rng.choice((1, -1))
    q, r = sq * rng.randint(1, bound), sr * rng.randint(1, bound)
    return QuadraticSurd(rng.randint(-bound, bound), q, d, r), (sq, sr)


def test_expand_surd_matches_floor_loop_oracle_and_pins_every_prefix():
    """The integer recurrence against the surd-per-digit loop on seeded random
    surds; each prefix's interval holds the surd by independent comparison."""
    rng = random.Random(1010)
    cases = [(QuadraticSurd(0, 1, 2, 3), (1, 1)), (QuadraticSurd(0, -1, 2, -3), (-1, -1))]
    cases += [_random_surd(rng) for _ in range(400)]
    signs, unscaled = set(), 0
    for i, (s, sign) in enumerate(cases):
        signs.add(sign)
        # r does not divide d*q^2 - p^2, so (P, Q) = (p, r) would break Q | D - P^2
        unscaled += (s.d * s.q * s.q - s.p * s.p) % s.r != 0
        depth = rng.randint(0, 60) if i % 4 else 60
        digits = expand_surd(s, depth)
        assert digits == expand_surd_oracle(s, depth), s
        for k in range(1, depth + 2):
            iv = interval_of(digits[:k])
            assert (compare_oracle(s, iv.lo), compare_oracle(s, iv.hi)) == ("GT", "LT"), (s, k)
    assert len(signs) == 4 and unscaled > 100


def test_expand_surd_known_periodic_words():
    assert expand_surd(periodic_surd((1,), (2,)), 6) == (1, 2, 2, 2, 2, 2, 2)
    # sqrt3 = [1; 1, 2, 1, 2, ...]
    assert expand_surd(NAMED_SURDS["sqrt3"], 6) == (1, 1, 2, 1, 2, 1, 2)
    # same value as sqrt3 even though the oracle builds it over radicand 12
    rebuilt = periodic_surd((1,), (1, 2))
    assert expand_surd(rebuilt, 10) == expand_surd(NAMED_SURDS["sqrt3"], 10)


def test_uniqueness_of_canonical_words():
    """Distinct canonical words of length <= 5 never share a value."""
    import itertools

    seen = {}
    words = []
    for a0 in range(-6, 7):
        words.append((a0,))
    for length in range(2, 6):
        for a0 in range(-6, 7):
            for mid in itertools.product(range(1, 7), repeat=length - 2):
                for last in range(2, 7):
                    words.append((a0, *mid, last))
    for w in words:
        v = evaluate(w)
        assert v not in seen, f"{w} and {seen[v]} both give {v}"
        seen[v] = w


def _random_prefix(rng, max_len=6, digit_max=5):
    return tuple(
        [rng.randint(-5, 5)] + [rng.randint(1, digit_max) for _ in range(rng.randint(0, max_len - 1))]
    )


def _random_pair(rng):
    # rationals 1 <= x < y <= 10
    while True:
        x = Fraction(rng.randint(1, 100), rng.randint(1, 10))
        y = Fraction(rng.randint(1, 100), rng.randint(1, 10))
        if 1 <= x < y <= 10:
            return x, y


def test_tail_monotonicity_parity():
    # substituting at slot n+1 after prefix (a0..an): n even flips the order
    rng = random.Random(31415)
    for _ in range(1500):
        prefix = _random_prefix(rng)
        n = len(prefix) - 1
        x, y = _random_pair(rng)
        vx = evaluate_with_tail(prefix, x)
        vy = evaluate_with_tail(prefix, y)
        if n % 2 == 0:
            assert vx > vy
        else:
            assert vx < vy


def test_integer_slot_corollary():
    rng = random.Random(27182)
    for _ in range(400):
        prefix = _random_prefix(rng)
        n = len(prefix) - 1
        for k in range(1, 21):
            vk = evaluate_with_tail(prefix, Fraction(k))
            vk1 = evaluate_with_tail(prefix, Fraction(k + 1))
            if n % 2 == 0:
                assert vk > vk1
            else:
                assert vk < vk1


def test_tail_convergence_to_prefix_value():
    """|[prefix, k] - [prefix]| strictly decreasing, < 1/k for prefixes of
    two or more digits, and exactly 1/k for a bare integer part."""
    rng = random.Random(16180)
    for _ in range(60):
        prefix = _random_prefix(rng)
        base = evaluate(prefix)
        prev = None
        for k in range(1, 51):
            gap = abs(evaluate_with_tail(prefix, Fraction(k)) - base)
            if prev is not None:
                assert gap < prev
            if len(prefix) == 1:
                assert gap == Fraction(1, k)
            else:
                assert gap < Fraction(1, k)
            prev = gap


def test_distance_estimate():
    # |[a0..an,x] - [a0..an,y]| < (y-x)/(xy+n) for n >= 1
    rng = random.Random(14142)
    for _ in range(1500):
        n = rng.randint(1, 6)
        prefix = tuple([rng.randint(-5, 5)] + [rng.randint(1, 5) for _ in range(n)])
        x, y = _random_pair(rng)
        gap = abs(evaluate_with_tail(prefix, x) - evaluate_with_tail(prefix, y))
        assert gap < (y - x) / (x * y + n)


def test_distance_estimate_base_identity():
    # [a0,x] - [a0,y] = (y-x)/(xy) symbolically
    rng = random.Random(17320)
    for _ in range(300):
        a0 = rng.randint(-8, 8)
        x, y = _random_pair(rng)
        lhs = evaluate_with_tail((a0,), x) - evaluate_with_tail((a0,), y)
        assert lhs == (y - x) / (x * y)


def test_parse_format_round_trip():
    words = [(3,), (3, 7, 16), (-2, 4), (0, 2), (5, 1, 1, 1, 2)]
    for w in words:
        assert parse_cf(format_cf(w)) == w
    assert format_cf((3,)) == "[3]"
    assert format_cf((3, 7, 16)) == "[3; 7, 16]"
    assert parse_cf(" [ -2 ; 4 , 1 ] ") == (-2, 4, 1)


@pytest.mark.parametrize("bad", ["", "3", "[3, 2]", "[3; 0]", "[3; -1]", "[3;]", "[a]"])
def test_parse_rejects(bad):
    with pytest.raises(ValueError):
        parse_cf(bad)
