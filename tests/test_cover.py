import dataclasses
import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest

import bairecf.cover as cover
from bairecf import (
    IntervalQ,
    children,
    interval_of,
    locate,
    member_of,
    verify_cover_properties,
)
from bairecf.cf import _fold
from bairecf.cli import run

from _oracles import (
    NAMED_SURDS,
    cover_levels_oracle,
    cover_slice_oracle,
    cover_walk_oracle,
    fold_value,
)


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


def test_member_of_and_children_validate_and_fold_once(monkeypatch):
    rng = random.Random(2718)
    words = [(rng.randint(-5, 5),) + tuple(rng.randint(1, 6) for _ in range(rng.randint(0, 6)))
             for _ in range(60)]
    expected = {w: (interval_of(w), [(w + (k,), interval_of(w + (k,))) for k in range(1, 6)])
                for w in words}
    checked = []
    as_digits = cover._as_digits
    monkeypatch.setattr(cover, "_as_digits",
                        lambda w, what: checked.append(w) or as_digits(w, what))
    for w in words:
        checked.clear()
        kids = children(list(w), 5)
        assert [(m.level, m.word, m.interval) for m in kids] == [
            (len(w), word, iv) for word, iv in expected[w][1]]
        assert len(checked) == 1
        checked.clear()
        m = member_of(list(w))
        assert (m.level, m.word, m.interval) == (len(w) - 1, w, expected[w][0])
        assert len(checked) == 1


def test_children_refuse_a_negative_count():
    with pytest.raises(ValueError, match=r"^k_max must be >= 0, got -1$"):
        children((1, 2), -1)
    assert children((1, 2), 0) == []


def test_members_past_the_digit_budget_are_refused():
    message = r"^result exceeds the 4300-digit budget; use a lower depth$"
    word = (0,) + (9,) * 4500  # q passes 10^4300 at 4483 digits
    for f in (interval_of, member_of, lambda w: children(w, 1)):
        assert f(word[:4000])
        with pytest.raises(ValueError, match=message):
            f(word)


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
    assert locate(NAMED_SURDS["sqrt2"], 3) == member_of((1, 2, 2, 2))
    assert locate(NAMED_SURDS["sqrt3"], 3).word == (1, 1, 2, 1)
    assert locate(NAMED_SURDS["golden"], 4).word == (1, 1, 1, 1, 1)
    assert locate(NAMED_SURDS["minus_sqrt2"], 2).word == (-2, 1, 1)
    with pytest.raises(ValueError, match=r"^level must be >= 0, got -1$"):
        locate(NAMED_SURDS["sqrt2"], -1)


def test_locate_interval_contains_surd():
    for name, s in NAMED_SURDS.items():
        for level in range(0, 9):
            m = locate(s, level)
            assert (m.level, len(m.word)) == (level, level + 1)
            assert m.interval == interval_of(m.word)
            assert m.interval.contains_surd(s), (name, level)


def test_locate_names_a_surd_outside_its_member_as_an_internal_error(monkeypatch):
    monkeypatch.setattr(IntervalQ, "contains_surd", lambda self, s: False)
    with pytest.raises(RuntimeError, match=r"^internal error: .* escaped its own interval"):
        locate(NAMED_SURDS["sqrt2"], 3)


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
    ] + [(8, (0, 0), 2), (4, (-2, 2), 4), (2, (-3, 1), 24)]  # the benchmark's shapes
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


def _shapes(rng, count, max_words):
    """Seeded slices: levels 0-5, digit_max 1-6, one or several heads, negative ones too."""
    shapes = []
    while len(shapes) < count:
        a0_lo = rng.randint(-4, 3)
        shape = (rng.randint(0, 5), (a0_lo, a0_lo + rng.choice((0, 0, 1, 2, 4))), rng.randint(1, 6))
        level, (lo, hi), digit_max = shape
        if (hi - lo + 1) * sum(digit_max**i for i in range(level + 1)) <= max_words:
            shapes.append(shape)
    return shapes


def _words(shape):
    """Every word of a slice."""
    max_level, (lo, hi), digit_max = shape
    return [
        (a0, *rest)
        for level in range(max_level + 1)
        for a0 in range(lo, hi + 1)
        for rest in itertools.product(range(1, digit_max + 1), repeat=level)
    ]


def test_verify_cover_properties_matches_levels_oracle():
    for shape in _shapes(random.Random(1729), 40, 1500):
        report = verify_cover_properties(*shape)
        assert report.all_passed, shape
        assert report == cover_levels_oracle(*shape), shape


def _corrupt(monkeypatch, faults):
    """Make the cover fold return faults[word] wherever it would return word's state.

    Children are pushed onto the corrupted state, so a fault moves the whole
    subtree below its word; both verifiers read states through this fold.
    """
    bad = {_fold(word): state for word, state in faults.items()}

    def fold(digits, *state):
        out = _fold(digits, *state)
        return bad.get(out, out)

    monkeypatch.setattr(cover, "_fold", fold)


def _state(value, bumped):
    """A state whose word value is value = (p, q) and whose bumped value is bumped."""
    (p, q), (pb, qb) = value, bumped
    return (p, q, pb - p, qb - q)


COVER_FAULTS = [
    # (0, 1, 1) stretched over its sibling (0, 1, 2)
    ((2, (-1, 1), 3), {(0, 1, 1): _state((1, 2), (7, 10))}, "disjoint",
     "level 2: (0, 1, 1) (1/2, 7/10) overlaps (0, 1, 2) (2/3, 3/4)"),
    # (-1, 1) moved into the free gap of the next head, with its subtree
    ((2, (-1, 1), 3), {(-1, 1): _fold((0, 4))}, "refinement",
     "(-1, 1) (1/5, 1/4) not inside parent (-1,) (-1, 0)"),
    # two children out of their parents: the walk meets (0, 2, 1) first, but
    # (0, 1, 2) comes first in parent-major order
    ((2, (-1, 1), 2), {(0, 2, 1): _state((3, 10), (1, 3)), (0, 1, 2): _state((3, 4), (11, 10))},
     "refinement", "(0, 1, 2) (3/4, 11/10) not inside parent (0, 1) (1/2, 1)"),
    # the last grandchild stretched to the grandparent's right end
    ((2, (-1, 1), 3), {(0, 1, 3): _state((1, 1), (3, 4))}, "closure_refinement",
     "closure of (0, 1, 3) (3/4, 1) not inside (0,) (0, 1)"),
    # a level-2 member with |p q' - p' q| = 4, one level above the bottom
    ((3, (-1, 1), 1), {(0, 1, 1): _state((1, 2), (5, 6))}, "mesh",
     "level-2 member (0, 1, 1) has length 1/3 >= 1/3"),
]


@pytest.mark.parametrize("shape, faults, check, message", COVER_FAULTS)
def test_cover_fault_is_reported(monkeypatch, shape, faults, check, message):
    _corrupt(monkeypatch, faults)
    report = verify_cover_properties(*shape)
    assert getattr(report, check).counterexample == message
    assert report == cover_levels_oracle(*shape)
    if check == "mesh":
        assert sorted(report.max_length_by_level) == [0, 1, 2]


def test_cover_fault_out_of_walk_order_fails_disjoint(monkeypatch):
    # (0, 1) moved, disjoint from every member, into the gap below (0, 3)
    # inside its parent: the level is disjoint but out of the walk's order
    _corrupt(monkeypatch, {(0, 1): _fold((0, 4))})
    report, oracle = verify_cover_properties(1, (0, 0), 3), cover_levels_oracle(1, (0, 0), 3)
    assert oracle.all_passed
    assert report.disjoint.counterexample == (
        "level 1: (0, 2) (1/3, 1/2) is walked before but lies above (0, 1) (1/5, 1/4)"
    )
    assert dataclasses.replace(report, disjoint=oracle.disjoint) == oracle


def test_cover_fault_parent_overlap_is_not_bracketed(monkeypatch):
    # (1,) stretched over (0,): the child (0, 1) used to be reported as
    # bracketed by (1,); containment in the parent is all refinement checks now
    _corrupt(monkeypatch, {(1,): _state((2, 1), (1, 2))})
    report, oracle = verify_cover_properties(1, (0, 1), 3), cover_levels_oracle(1, (0, 1), 3)
    assert oracle.refinement.counterexample == (
        "(0, 1) is bracketed by member (1,), not its parent word"
    )
    assert report.refinement.passed
    assert report.disjoint.counterexample == "level 0: (0,) (0, 1) overlaps (1,) (1/2, 2)"
    assert dataclasses.replace(report, refinement=oracle.refinement) == oracle
    res = run(["cover", "verify", "--max-level", "1", "--a0-lo", "0", "--a0-hi", "1",
               "--digit-max", "3"])
    assert res.exit_code == 3
    assert "overlaps" in res.out


def _random_state(rng):
    while True:
        p, p0, q = rng.randint(-30, 30), rng.randint(-30, 30), rng.randint(1, 10)
        q0 = rng.randint(1 - q, 10)
        if p * q0 != p0 * q:
            return (p, q, p0, q0)


def test_cover_random_faults_match_levels_oracle(monkeypatch):
    """Random states at random words: the reports differ only where the walk's
    order argument replaces the sort and the bisect."""
    rng = random.Random(31415)
    for shape in _shapes(rng, 60, 400):
        words = _words(shape)
        faults = {w: _random_state(rng) for w in rng.sample(words, min(len(words), 2))}
        _corrupt(monkeypatch, faults)
        report, oracle = verify_cover_properties(*shape), cover_levels_oracle(*shape)
        assert report.closure_refinement == oracle.closure_refinement, (shape, faults)
        assert report.mesh == oracle.mesh, (shape, faults)
        assert report.max_length_by_level == oracle.max_length_by_level, (shape, faults)
        assert report.words_checked == oracle.words_checked
        if "bracketed" in oracle.refinement.counterexample:
            assert not report.disjoint.passed
        else:
            assert report.refinement == oracle.refinement, (shape, faults)
        assert report.disjoint.passed <= oracle.disjoint.passed, (shape, faults)


def _ends_pool(words):
    """Both ends of every word's member, as (numerator, denominator) pairs."""
    states = map(_fold, words)
    return [end for p, q, p0, q0 in states for end in ((p, q), (p + p0, q + q0))]


def test_verify_cover_properties_matches_walk_oracle(monkeypatch):
    """The whole report, counterexamples included, equals the per-word walk's
    on random slices with up to three corrupted states.  Half the faults are
    built from the slice's own endpoints, so shared ends and exact ties with
    neighbours, parents and grandparents occur."""
    rng = random.Random(161803)
    shapes = _shapes(rng, 150, 400) + [(0, (2, 2), 1), (0, (-3, 1), 4), (3, (0, 0), 1),
                                       (4, (-1, -1), 1), (2, (1, 1), 5)]
    for shape in shapes:
        words = _words(shape)
        pool = _ends_pool(words)
        faults = {}
        for word in rng.sample(words, min(len(words), rng.randint(0, 3))):
            value, bumped = rng.choice(pool), rng.choice(pool)
            from_pool = value[0] * bumped[1] != bumped[0] * value[1] and rng.random() < 0.5
            faults[word] = _state(value, bumped) if from_pool else _random_state(rng)
        _corrupt(monkeypatch, faults)
        assert verify_cover_properties(*shape) == cover_walk_oracle(*shape), (shape, faults)


def test_verify_cover_properties_memory_is_flat():
    tracemalloc.start()
    try:
        report = verify_cover_properties(6, (-2, 2), 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.words_checked == 27305
    assert peak < 256 * 1024
