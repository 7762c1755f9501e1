"""Points and words against the per-entry loop oracles: every value, every
error message and every first-offender index must agree, on seeded random
inputs and on points of 20 000 entries."""

import random
import tracemalloc

from bairecf import (
    Baire2Prefix,
    BairePrefix,
    first_difference,
    format_cf,
    format_point,
    parse_cf,
    parse_point,
    psi_inverse,
    psi_map,
)
from bairecf.baire import _parse_int_list
from bairecf.cf import _as_digits

from _oracles import (
    as_digits_oracle,
    first_difference_oracle,
    parse_cf_oracle,
    parse_int_list_oracle,
    point_check_oracle,
    prefix_oracle,
    psi_oracle,
)

# Unicode digits and spaces, a plus sign, an underscore, empty and bare-sign tokens.
TOKENS = ["0", "7", "42", "-3", "-0", "\u0663", "\u0661\u0662", "\uff11\uff12", "\u2003",
          "\x1c", "+5", "1_0", "", "-", "--1", "1.0", "x", "\u0663\u2003", "\u20035",
          "\x1c-2\x1c", " 8 ", "\u00a09"]
PADS = ["", " ", "\u2003", "\x1c", "\t"]
ENTRIES = [0, 1, 2, 5, 0, 1, 2, 3, -1, -3, True, False, 10**30, -(10**30), "3", 1.0, None]


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except ValueError as e:  # InsufficientPrecisionError included, told apart by name
        return type(e).__name__, str(e)


def _point_outcome(cls, entries, tail):
    try:
        p = cls(entries, tail)
    except ValueError as e:
        return type(e).__name__, str(e)
    return "ok", (p.entries, p.tail)


def _oracle_point(cls, entries, tail):
    def build():
        point_check_oracle(tuple(entries), None if tail is None else tuple(tail),
                           cls is Baire2Prefix)
        return tuple(entries), None if tail is None else tuple(tail)
    return _outcome(build)


def _old_format_point(p):
    body = "(" + ",".join(str(e) for e in p.entries) + ")"
    if p.tail is not None:
        body += "~(" + ",".join(str(e) for e in p.tail) + ")"
    return body


def _old_format_cf(digits):
    if len(digits) == 1:
        return f"[{digits[0]}]"
    return f"[{digits[0]}; " + ", ".join(str(a) for a in digits[1:]) + "]"


def test_token_lists_match_the_oracle():
    rng = random.Random(9001)
    for _ in range(3000):
        toks = [rng.choice(PADS) + rng.choice(TOKENS) + rng.choice(PADS)
                for _ in range(rng.randint(0, 6))]
        body = rng.choice(PADS) + ",".join(toks) + rng.choice(PADS)
        what = rng.choice(["point", "tail"])
        assert _outcome(_parse_int_list, body, what) == _outcome(parse_int_list_oracle, body, what)


LONG = ["9" * 4300, "9" * 4301, "0" * 4301, "-" + "1" * 4301]
WORDS = ["[1;]", "[1; 2,]", "[;2]", "[]", "[ ]", "[\x1c]", "", " ", "[1; -2]", "[-1; 2]",
         "[1; 2; 3]", "[1, 2]", "[1; 0]", "[1;;2]", "[1 2]", "[- 1]", "1; 2", "[1; 2", "1]",
         "[1]]", "[[1]", "[\u0663; \u0661\u0662]", "\x1c[\x1c-4\x1c;\x1c5\x1c]\x1c",
         "[1; 2]\n", "[1; 2] x", "[1; 2 ,\x1c5\x1f, 3]", f"[x; {LONG[1]}]",
         f"[1; {' ' * 4400}2]"] + [f"[{t}]" for t in LONG] + [f"[1; 2, {t}]" for t in LONG]


def test_words_match_the_oracle():
    rng = random.Random(9007)

    def pad():
        return rng.choice(PADS)

    good = ["0", "7", "42", "-3", "\u0663", "\uff11\uff12", "9" * 60]
    texts = list(WORDS)
    for _ in range(3000):
        tokens = good if rng.random() < 0.5 else TOKENS + (LONG if rng.random() < 0.02 else [])
        text = pad() + rng.choice(["[", "[", "[", "", "(", "[["]) + pad() + rng.choice(tokens)
        if rng.random() < 0.8:
            text += pad() + rng.choice([";", ";", ";", ",", ";;"]) + ",".join(
                pad() + rng.choice(tokens) + pad() for _ in range(rng.randint(0, 6)))
        texts.append(text + pad() + rng.choice(["]", "]", "]", "", ")", "]]", ",]"]) + pad())
    for text in texts:
        assert _outcome(parse_cf, text) == _outcome(parse_cf_oracle, text), text
    assert parse_cf("[1; 2 ,\x1c5\x1f, 3]") == (1, 2, 5, 3)


def _peak_bytes(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_reading_20000_entries_peaks_below_1_mb():
    """Reading a list of one-digit entries makes no string per entry: the peak is the
    text's copies and the result tuple.  (A whole-word regex with a repeated group
    keeps match state per token: 6.6 MB for this word.)"""
    rng = random.Random(9008)
    word = (rng.randint(-9, 9),) + tuple(rng.randint(1, 9) for _ in range(19_999))
    entries = tuple(rng.randint(0, 9) for _ in range(20_000))
    assert _peak_bytes(parse_cf, format_cf(word)) < 1_000_000
    for text in (format_point(BairePrefix(entries, (1, 2))), f"({', '.join(map(str, entries))})"):
        assert _peak_bytes(parse_point, text) < 1_000_000


def test_point_validation_matches_the_oracle():
    rng = random.Random(9002)
    for _ in range(4000):
        entries = [rng.choice(ENTRIES) for _ in range(rng.randint(0, 6))]
        tail = None if rng.random() < 0.3 else [rng.choice(ENTRIES)
                                                 for _ in range(rng.randint(0, 3))]
        for cls in (BairePrefix, Baire2Prefix):
            got = _point_outcome(cls, entries, tail)
            assert got == _oracle_point(cls, entries, tail), (cls, entries, tail)
            if got[0] == "ok":
                p = cls(entries, tail)
                assert format_point(p) == _old_format_point(p)


def _random_point(rng):
    entries = tuple(rng.randint(0, 2) for _ in range(rng.randint(0, 8)))
    tail = None if rng.random() < 0.4 else tuple(rng.randint(0, 2)
                                                 for _ in range(rng.randint(1, 3)))
    return BairePrefix(entries, tail)


def test_first_difference_and_prefix_match_the_oracle():
    rng = random.Random(9003)
    for _ in range(3000):
        f = _random_point(rng)
        if rng.random() < 0.5:
            g = _random_point(rng)
        else:  # share f's entries so the first difference is often late or absent
            tail = f.tail if rng.random() < 0.5 else (rng.randint(0, 2),)
            g = BairePrefix(f.entries + tuple(rng.randint(0, 2) for _ in range(rng.randint(0, 3))),
                            tail)
        bound = rng.randint(-1, 30)
        assert (_outcome(first_difference, f, g, bound)
                == _outcome(first_difference_oracle, f, g, bound)), (f, g, bound)
        n = rng.randint(-3, 30)
        assert _outcome(f.prefix, n) == _outcome(prefix_oracle, f, n), (f, n)
    assert BairePrefix((1, 2)).prefix(0) == ()
    assert BairePrefix((), (1,)).prefix(-5) == ()


def test_digit_sequences_match_the_oracle():
    rng = random.Random(9004)
    pool = [-2, -1, 0, 1, 1, 2, 2, 3, 7, True, False, 10**20, "1", 1.5, None]
    for _ in range(4000):
        digits = tuple(rng.choice(pool) for _ in range(rng.randint(0, 6)))
        what = rng.choice(["digit sequence", "word", "prefix"])
        got = _outcome(_as_digits, digits, what)
        assert got == _outcome(as_digits_oracle, digits, what), digits
        if got[0] == "ok":
            assert format_cf(digits) == _old_format_cf(digits)


def _random_z_point(rng):
    head = () if rng.random() < 0.2 else (rng.choice([-(10**30), -3, -1, 0, 1, 2, 10**30]),)
    rest = tuple(rng.choice([1, 2, 3, 10**30]) for _ in range(rng.randint(0, 5)))
    tail = None if rng.random() < 0.4 else tuple(rng.choice([1, 2, 10**30])
                                                 for _ in range(rng.randint(1, 3)))
    return Baire2Prefix(head + rest, tail)


def test_psi_matches_the_oracle():
    rng = random.Random(9006)
    for _ in range(3000):
        f = _random_point(rng)
        if rng.random() < 0.2:
            f = BairePrefix(f.entries + (10**30,), f.tail)
        assert psi_map(f) == psi_oracle(f), f
        z = _random_z_point(rng)
        assert psi_inverse(z) == psi_oracle(z, inverse=True), z
    # tail-only points take their head from the tail, in both directions
    for z in (Baire2Prefix((), (2, 1)), Baire2Prefix((), (1,)), Baire2Prefix((), (5, 1, 3))):
        assert psi_inverse(z) == psi_oracle(z, inverse=True)
        assert psi_map(psi_inverse(z)) == psi_oracle(psi_oracle(z, inverse=True))
    assert psi_inverse(Baire2Prefix((), (2, 1))) == BairePrefix((4,), (0, 1))
    assert psi_map(BairePrefix((), (1, 0))) == psi_oracle(BairePrefix((), (1, 0)))


def test_points_of_20000_entries():
    rng = random.Random(9005)
    n = 20_000
    values = [rng.randint(0, 9) for _ in range(n)]
    text = "(" + ", ".join(map(str, values)) + ")"
    f = parse_point(text)
    assert f.entries == parse_int_list_oracle(text[1:-1], "point")
    assert format_point(f) == _old_format_point(f)
    k = rng.randrange(n)
    g = BairePrefix(values[:k] + [values[k] + 1] + values[k + 1:])
    assert first_difference(f, g, n) == first_difference_oracle(f, g, n) == k
    assert first_difference(f, f, n) is None
    assert f.prefix(n) == prefix_oracle(f, n)
    assert psi_map(f) == psi_oracle(f)
    assert psi_inverse(psi_map(f)) == psi_oracle(psi_oracle(f), inverse=True) == f
    # one bad token, a Unicode digit, and a 0 after the head in the z space
    toks = list(map(str, values))
    toks[17_000] = "+5"
    toks[3] = "\u0663"
    body = ",".join(toks)
    got = _outcome(_parse_int_list, body, "point")
    assert got == _outcome(parse_int_list_oracle, body, "point")
    assert got[1] == "bad point entry: '+5'"
    z = [1 + v for v in values]
    z[15_000] = 0
    assert _point_outcome(Baire2Prefix, z, None) == _oracle_point(Baire2Prefix, z, None)
    assert _point_outcome(Baire2Prefix, z, None)[1] == "entry 15000 must be >= 1, got 0"
    tail = [True] * 5 + [-1]
    assert _point_outcome(BairePrefix, values, tail) == _oracle_point(BairePrefix, values, tail)
    word = tuple(v + 1 for v in values)
    assert _as_digits(word) == as_digits_oracle(word)
    bad = word[:19_999] + (0,)
    assert _outcome(_as_digits, bad) == _outcome(as_digits_oracle, bad)
    assert format_cf(word) == _old_format_cf(word)
    assert _outcome(first_difference, f, g, n + 1) == _outcome(first_difference_oracle, f, g, n + 1)
    assert _outcome(first_difference, f, g, n + 1)[0] == "InsufficientPrecisionError"
