import itertools
import random
from fractions import Fraction

import pytest

from bairecf import (
    IntervalQ,
    children,
    interval_of,
    locate,
    member_of,
    verify_cover_properties,
)

from _oracles import NAMED_SURDS, cover_slice_oracle, fold_value


def test_interval_examples():
    assert interval_of((3,)) == IntervalQ(Fraction(3), Fraction(4))
    assert interval_of((0, 1)) == IntervalQ(Fraction(1, 2), Fraction(1))
    assert interval_of((1, 2, 2)) == IntervalQ(Fraction(7, 5), Fraction(10, 7))
    assert interval_of((3, 1)) == IntervalQ(Fraction(7, 2), Fraction(4))
    assert interval_of((1, 2, 2, 2)) == IntervalQ(Fraction(24, 17), Fraction(17, 12))


def test_interval_endpoints_are_word_values():
    """Ends are the word's value and the value with last digit bumped, ordered
    by level parity: even levels keep the word value on the left."""
    rng = random.Random(2718)
    for _ in range(800):
        word = tuple(
            [rng.randint(-5, 5)] + [rng.randint(1, 6) for _ in range(rng.randint(0, 5))]
        )
        v = fold_value(word)
        bumped = fold_value(word[:-1] + (word[-1] + 1,))
        iv = interval_of(word)
        level = len(word) - 1
        if level % 2 == 0:
            assert (iv.lo, iv.hi) == (v, bumped)
        else:
            assert (iv.lo, iv.hi) == (bumped, v)


def test_interval_rejects_empty():
    with pytest.raises(ValueError):
        interval_of(())


def test_intervalq_validation_and_predicates():
    with pytest.raises(ValueError):
        IntervalQ(Fraction(1), Fraction(1))
    with pytest.raises(ValueError):
        IntervalQ(Fraction(2), Fraction(1))
    iv = IntervalQ(Fraction(0), Fraction(1))
    assert iv.length == 1
    assert iv.midpoint == Fraction(1, 2)
    assert iv.contains_value(Fraction(1, 3))
    assert not iv.contains_value(Fraction(0))
    assert not iv.contains_value(Fraction(1))
    inner = IntervalQ(Fraction(1, 4), Fraction(1, 2))
    assert iv.contains_interval(inner)
    assert iv.contains_closure_of(inner)
    edge = IntervalQ(Fraction(0), Fraction(1, 2))
    assert iv.contains_interval(edge)
    assert not iv.contains_closure_of(edge)
    assert iv.disjoint_from(IntervalQ(Fraction(1), Fraction(2)))
    assert not iv.disjoint_from(IntervalQ(Fraction(1, 2), Fraction(3, 2)))


def test_contains_surd():
    iv = interval_of((1, 2, 2))
    assert iv.contains_surd(NAMED_SURDS["sqrt2"])
    assert not iv.contains_surd(NAMED_SURDS["sqrt3"])
    assert not interval_of((3,)).contains_surd(NAMED_SURDS["sqrt2"])


def test_member_of_levels():
    m = member_of((1, 2))
    assert m.level == 1
    assert m.word == (1, 2)
    assert m.interval == interval_of((1, 2))


def test_children_nest_and_are_disjoint():
    words = [(0,), (3,), (-2, 4), (1, 2, 2), (2, 1, 3, 1)]
    for word in words:
        parent = interval_of(word)
        kids = children(word, 8)
        assert [k.word[-1] for k in kids] == list(range(1, 9))
        for k in kids:
            assert parent.contains_interval(k.interval)
        ordered = sorted(kids, key=lambda m: m.interval.lo)
        for a, b in zip(ordered, ordered[1:]):
            assert a.interval.disjoint_from(b.interval)


def test_child_intervals_tile_toward_parent_edge():
    # child k=1 shares exactly one endpoint with the parent
    parent = interval_of((0,))
    k1 = interval_of((0, 1))
    assert k1.hi == parent.hi
    assert k1.lo > parent.lo
    parent2 = interval_of((0, 1))
    k2 = interval_of((0, 1, 1))
    assert k2.lo == parent2.lo
    assert k2.hi < parent2.hi


def test_closure_containment_skips_one_level():
    # closure pokes out at the parent through the shared endpoint, but sits
    # strictly inside the grandparent
    grand = interval_of((0,))
    parent = interval_of((0, 1))
    child = interval_of((0, 1, 1))
    assert not parent.contains_closure_of(child)
    assert grand.contains_closure_of(child)
    child2 = interval_of((0, 1, 2))
    assert grand.contains_closure_of(child2)


def test_locate_examples():
    assert locate(NAMED_SURDS["sqrt2"], 3) == (1, 2, 2, 2)
    assert locate(NAMED_SURDS["sqrt3"], 3) == (1, 1, 2, 1)
    assert locate(NAMED_SURDS["golden"], 4) == (1, 1, 1, 1, 1)
    assert locate(NAMED_SURDS["minus_sqrt2"], 2) == (-2, 1, 1)


def test_locate_interval_contains_surd():
    for name, s in NAMED_SURDS.items():
        for level in range(0, 9):
            word = locate(s, level)
            assert len(word) == level + 1
            assert interval_of(word).contains_surd(s), (name, level)


def test_equal_length_words_have_disjoint_intervals():
    # exhaustive at short lengths: the level's members never overlap
    for length in (1, 2, 3):
        words = []
        for a0 in range(-2, 3):
            for rest in itertools.product(range(1, 5), repeat=length - 1):
                words.append((a0, *rest))
        ivs = sorted((interval_of(w) for w in words), key=lambda iv: iv.lo)
        for a, b in zip(ivs, ivs[1:]):
            assert a.disjoint_from(b)


def test_verify_cover_properties_passes():
    report = verify_cover_properties(3, (-2, 2), 6)
    assert report.all_passed
    assert report.disjoint.passed
    assert report.refinement.passed
    assert report.closure_refinement.passed
    assert report.mesh.passed
    assert report.words_checked == 5 + 5 * 6 + 5 * 36 + 5 * 216


def test_verify_cover_properties_matches_slice_oracle():
    shapes = [
        (level, heads, digit_max)
        for level in range(5)
        for heads in ((0, 0), (-3, -3), (-2, 1))
        for digit_max in range(1, 6)
        if (heads[1] - heads[0] + 1) * digit_max**level <= 1000
    ]
    for max_level, heads, digit_max in shapes:
        report = verify_cover_properties(max_level, heads, digit_max)
        assert report.all_passed, (max_level, heads, digit_max)
        words, max_length = cover_slice_oracle(max_level, heads, digit_max)
        assert report.words_checked == words
        assert dict(report.max_length_by_level) == max_length


def test_verify_cover_mesh_values():
    report = verify_cover_properties(1, (0, 0), 3)
    assert report.max_length_by_level[0] == 1
    assert report.max_length_by_level[1] == Fraction(1, 2)
    report0 = verify_cover_properties(0, (0, 0), 1)
    assert report0.max_length_by_level[0] == 1
    assert report0.mesh.passed


def test_verify_cover_properties_rejects_bad_arguments():
    with pytest.raises(ValueError):
        verify_cover_properties(-1, (0, 1), 3)
    with pytest.raises(ValueError):
        verify_cover_properties(2, (1, 0), 3)
    with pytest.raises(ValueError):
        verify_cover_properties(2, (0, 1), 0)


def test_report_json_shape():
    report = verify_cover_properties(1, (0, 1), 2)
    j = report.as_json()
    assert j["passed"] is True
    assert j["max_length_by_level"]["0"] == "1"
    assert set(j) == {
        "disjoint",
        "refinement",
        "closure_refinement",
        "mesh",
        "max_length_by_level",
        "words_checked",
        "passed",
    }
