"""Tests for the finite-model partition/ultrametric laboratory."""

import json
import random
import re
import tracemalloc
from fractions import Fraction
from itertools import chain, combinations, count
from math import gcd

import pytest

import bairecf.ultra as ultra
from _oracles import (
    ball_properties_hold,
    ball_report_oracle,
    ball_system,
    balls_centered,
    base_equality_oracle,
    closed_ball,
    cover_sequence_oracle,
    midpoint_radii,
    open_ball,
    separation_oracle,
    table_from_json_oracle,
    table_oracle,
    triangle_failure,
    ultrametric_scan_oracle,
)
from bairecf import (
    CoverSequence,
    Distance,
    DistanceTable,
    FiniteSpace,
    UnseparatedPairError,
    baire_distance,
    build_cover_sequence,
    covers_from_json,
    disjointify,
    sierpinski_embed,
    table_from_json,
    ultrametric_from_covers,
    verify_ball_properties,
    verify_base_equality,
    verify_ultrametric,
)
from bairecf.cli import run
from bairecf.ultra import _ball_sweep, _balls, _first_failing_triples, _select


def _table(points, triples):
    return DistanceTable(points, {(x, y): v for x, y, v in triples})


def _space(points, triples):
    return FiniteSpace(points, {(x, y): v for x, y, v in triples})


THREE = _table(
    "abc",
    [("a", "b", Fraction(1, 8)), ("a", "c", Fraction(1)), ("b", "c", Fraction(1))],
)


def test_distance_table_basics():
    assert THREE.points == ("a", "b", "c")
    assert THREE.d("a", "a") == 0
    assert THREE.d("b", "a") == Fraction(1, 8)
    assert list(THREE.pairs()) == [("a", "b"), ("a", "c"), ("b", "c")]
    assert THREE.values() == [Fraction(1, 8), Fraction(1)]
    assert THREE.as_json() == {
        "points": ["a", "b", "c"],
        "dist": [["a", "b", "1/8"], ["a", "c", "1"], ["b", "c", "1"]],
    }


def test_distance_table_rejects_bad_input():
    with pytest.raises(ValueError, match="duplicate"):
        DistanceTable("aa", {})
    with pytest.raises(ValueError, match="unknown point"):
        DistanceTable("ab", {("a", "z"): 1})
    with pytest.raises(ValueError, match="diagonal"):
        DistanceTable("ab", {("a", "a"): 1, ("a", "b"): 1})
    with pytest.raises(ValueError, match="positive"):
        DistanceTable("ab", {("a", "b"): 0})
    with pytest.raises(ValueError, match="conflicting"):
        DistanceTable("ab", {("a", "b"): 1, ("b", "a"): 2})
    with pytest.raises(ValueError, match="missing distance"):
        DistanceTable("abc", {("a", "b"): 1, ("a", "c"): 1})
    with pytest.raises(ValueError, match="not a pair"):
        DistanceTable("ab", {("a", "b", "c"): 1})


def test_finite_space_requires_triangle_inequality():
    _space("abc", [("a", "b", 1), ("a", "c", 1), ("b", "c", 2)])
    with pytest.raises(ValueError) as exc:
        _space("abc", [("a", "b", 5), ("a", "c", 1), ("b", "c", 1)])
    assert str(exc.value) == (
        "triangle inequality fails: d('a', 'b') = 5 > d('a', 'c') + d('c', 'b') = 1 + 1"
    )


def _triangle_outcome(table):
    """The error ``FiniteSpace`` must raise on table's distances, from the oracle, or None."""
    bad = triangle_failure(table)
    if bad is None:
        return None
    x, y, z = bad
    return (ValueError, f"triangle inequality fails: d({x!r}, {y!r}) = {table.d(x, y)} > "
            f"d({x!r}, {z!r}) + d({z!r}, {y!r}) = {table.d(x, z)} + {table.d(z, y)}", None)


def test_finite_space_reports_first_failing_triple():
    rng = random.Random(3131)
    failures = 0
    for _ in range(300):
        table = _random_table(rng, rng.randint(1, 8))
        dist = {(x, y): table.d(x, y) for x, y in table.pairs()}
        want = _triangle_outcome(table)
        assert _outcome(lambda: FiniteSpace(table.points, dist).same_table(table)) == (
            True if want is None else want)
        failures += want is not None
    assert 0 < failures < 300


def test_disjointify_examples():
    g = {"a", "b", "c"}
    assert disjointify([{"a", "b"}, {"b", "c"}, {"c"}], g) == [
        frozenset({"a", "b"}),
        frozenset({"c"}),
    ]
    assert disjointify([{"a"}, {"b"}], {"a", "b"}) == [frozenset({"a"}), frozenset({"b"})]
    assert disjointify([{"a", "b", "c"}, {"a"}, {"b"}], g) == [frozenset({"a", "b", "c"})]


def test_disjointify_each_part_inside_its_source():
    rng = random.Random(4141)
    for _ in range(300):
        ground = frozenset(range(rng.randint(1, 30)))
        sets = [
            frozenset(x for x in ground if rng.random() < 0.4)
            for _ in range(rng.randint(1, 8))
        ]
        sets.append(ground)
        parts = disjointify(sets, ground)
        assert frozenset().union(*parts) == ground
        assert sum(len(p) for p in parts) == len(ground)
        # reconstruct which source each part was peeled from
        remaining = list(parts)
        for s in sets:
            if remaining and remaining[0] <= s:
                remaining.pop(0)
        assert not remaining


def test_disjointify_rejects_non_covers():
    with pytest.raises(ValueError, match="does not cover"):
        disjointify([{"a"}], {"a", "b"})
    with pytest.raises(ValueError, match="outside the ground set"):
        disjointify([{"a", "z"}], {"a"})


def test_cover_sequence_canonical_order_and_lookup():
    seq = CoverSequence([[{"c"}, {"a", "b"}], [{"b"}, {"c"}, {"a"}]])
    assert seq.levels[0] == (frozenset({"a", "b"}), frozenset({"c"}))
    assert seq.levels[1] == (frozenset({"a"}), frozenset({"b"}), frozenset({"c"}))
    assert seq.depth == 2
    assert seq.ground == frozenset({"a", "b", "c"})
    # the ground set in the table's id order, for mixed int and str ids
    ids = [10, "b", 2, "a", "10", -1]
    seq = CoverSequence([[ids], [[x] for x in ids]])
    table = DistanceTable(ids, dict.fromkeys(combinations(ids, 2), 1))
    assert seq.points == table.points == (-1, 2, 10, "10", "a", "b")


def test_cover_sequence_rejects_bad_levels():
    with pytest.raises(ValueError, match="at least one level"):
        CoverSequence([])
    with pytest.raises(ValueError, match="empty block"):
        CoverSequence([[set(), {"a"}]])
    with pytest.raises(ValueError, match="overlap"):
        CoverSequence([[{"a", "b"}, {"b"}]])
    with pytest.raises(ValueError, match="does not cover"):
        CoverSequence([[{"a", "b"}], [{"a"}]])
    with pytest.raises(ValueError, match="not inside a single"):
        CoverSequence([[{"a"}, {"b"}], [{"a", "b"}]])
    # the overlap named is the smallest id the first block meeting an earlier one shares
    with pytest.raises(ValueError, match="^level 0: blocks overlap at 2$"):
        CoverSequence([[{2, 3}, {0, 3}, {1, 2}]])
    with pytest.raises(ValueError, match="^level 0: blocks overlap at 'c'$"):
        CoverSequence([["abcd", "dc"]])


def test_build_cover_sequence_three_point_example():
    space = _space(
        "abc",
        [("a", "b", Fraction(1, 8)), ("a", "c", 1), ("b", "c", 1)],
    )
    seq = build_cover_sequence(space, 2)
    assert seq.levels[0] == (frozenset({"a", "b"}), frozenset({"c"}))
    # the level-1 radius 1/8 open ball already splits a from b
    assert seq.levels[1] == (frozenset({"a"}), frozenset({"b"}), frozenset({"c"}))


def test_build_cover_sequence_single_point_and_discrete():
    one = FiniteSpace(["a"], {})
    seq = build_cover_sequence(one, 3)
    assert all(blocks == (frozenset({"a"}),) for blocks in seq.levels)

    far = _space("abc", [("a", "b", 1), ("a", "c", 2), ("b", "c", 1)])
    seq = build_cover_sequence(far, 3)
    discrete = (frozenset({"a"}), frozenset({"b"}), frozenset({"c"}))
    assert all(blocks == discrete for blocks in seq.levels)


def test_build_cover_sequence_names_a_wide_block_as_an_internal_error(monkeypatch):
    monkeypatch.setattr(ultra, "_balls", lambda table, r: [(1 << len(table.points)) - 1] * 2)
    with pytest.raises(RuntimeError, match=r"^internal error: level 0 block exceeds diameter 1/2$"):
        build_cover_sequence(_space("ab", [("a", "b", 1)]), 1)
    # a block of diameter exactly 1/2 is within the bound
    seq = build_cover_sequence(_space("ab", [("a", "b", Fraction(1, 2))]), 1)
    assert seq.levels == ((frozenset("ab"),),)


def test_build_cover_sequence_rejects_bad_depth():
    with pytest.raises(ValueError):
        build_cover_sequence(FiniteSpace(["a"], {}), 0)


def _line_space(rng, n):
    coords = rng.sample(range(0, 17), n)
    pts = list(range(n))
    dist = {
        (i, j): Fraction(abs(coords[i] - coords[j]), 8)
        for i in pts
        for j in pts
        if i < j
    }
    return FiniteSpace(pts, dist)


def test_build_cover_sequence_invariants_randomized():
    rng = random.Random(5151)
    for _ in range(40):
        space = _line_space(rng, rng.randint(2, 8))
        seq = build_cover_sequence(space, 4)
        assert seq.depth == 4
        for li, blocks in enumerate(seq.levels):
            bound = Fraction(1, 2 ** (li + 1))
            for b in blocks:
                members = sorted(b)
                for i, x in enumerate(members):
                    for y in members[i + 1 :]:
                        assert space.d(x, y) <= bound


def test_ultrametric_from_covers_examples():
    seq = CoverSequence([[{"a", "b"}, {"c"}], [{"a"}, {"b"}, {"c"}]])
    t = ultrametric_from_covers(seq, {"a", "b", "c"})
    assert t.d("a", "b") == Fraction(1, 2)
    assert t.d("a", "c") == 1
    assert t.d("b", "c") == 1

    flat = CoverSequence([[{"a"}, {"b"}, {"c"}]])
    t = ultrametric_from_covers(flat, {"a", "b", "c"})
    assert {t.d(x, y) for x, y in t.pairs()} == {Fraction(1)}

    deep = CoverSequence(
        [[{"a", "b", "c"}], [{"a", "b"}, {"c"}], [{"a"}, {"b"}, {"c"}]]
    )
    t = ultrametric_from_covers(deep, {"a", "b", "c"})
    assert t.d("a", "b") == Fraction(1, 3)
    assert t.d("a", "c") == Fraction(1, 2)
    assert t.d("b", "c") == Fraction(1, 2)


def test_ultrametric_from_covers_errors():
    seq = CoverSequence([[{"a", "b"}, {"c"}]])
    with pytest.raises(UnseparatedPairError) as exc:
        ultrametric_from_covers(seq, {"a", "b", "c"})
    assert exc.value.pair == ("a", "b")
    with pytest.raises(ValueError, match="ground set"):
        ultrametric_from_covers(seq, {"a", "b"})


def test_verify_ultrametric_pass_and_fail():
    seq = CoverSequence([[{"a", "b"}, {"c"}], [{"a"}, {"b"}, {"c"}]])
    t = ultrametric_from_covers(seq, {"a", "b", "c"})
    rep = verify_ultrametric(t)
    assert rep.all_passed
    assert rep.as_json()["passed"] is True

    euclid = _table(
        "abc",
        [("a", "b", 1), ("a", "c", 2), ("b", "c", Fraction(5, 2))],
    )
    rep = verify_ultrametric(euclid)
    assert not rep.strong_triangle.passed
    assert "5/2" in rep.strong_triangle.counterexample
    assert not rep.isosceles.passed

    equilateral = _table("abc", [("a", "b", 3), ("a", "c", 3), ("b", "c", 3)])
    assert verify_ultrametric(equilateral).all_passed

    # two largest sides equal, third smaller: still an ultrametric
    iso = _table(
        "abc",
        [("a", "b", Fraction(1, 2)), ("a", "c", 1), ("b", "c", 1)],
    )
    assert verify_ultrametric(iso).all_passed


def test_verify_ball_properties_pass():
    seq = CoverSequence(
        [[{"a", "b", "c"}, {"d"}], [{"a", "b"}, {"c"}, {"d"}], [{"a"}, {"b"}, {"c"}, {"d"}]]
    )
    t = ultrametric_from_covers(seq, {"a", "b", "c", "d"})
    rep = verify_ball_properties(t)
    assert rep.all_passed
    payload = rep.as_json()
    assert payload["passed"] is True
    assert payload["every_point_centers"]["counterexample"] == ""


def test_verify_ball_properties_single_point_vacuous():
    rep = verify_ball_properties(DistanceTable(["a"], {}))
    assert rep.all_passed


def test_verify_ball_properties_reports_precondition():
    euclid = _table(
        "abc",
        [("a", "b", 1), ("a", "c", 2), ("b", "c", Fraction(5, 2))],
    )
    rep = verify_ball_properties(euclid)
    assert not rep.precondition_ultrametric.passed
    assert rep.precondition_ultrametric.counterexample == (
        rep.ultrametric.strong_triangle.counterexample
    )
    assert rep.ultrametric == verify_ultrametric(euclid)
    assert not rep.all_passed
    assert "not checked" in rep.nesting.counterexample


def test_base_equality_mismatch_is_an_internal_error(monkeypatch):
    # with a, b and c all at distance 1 the balls are the singletons and the whole
    # space, so the level-0 block {a, b} is no ball
    seq = CoverSequence([[{"a", "b"}, {"c"}], [{"a"}, {"b"}, {"c"}]])
    flat = _table("abc", [("a", "b", 1), ("a", "c", 1), ("b", "c", 1)])
    monkeypatch.setattr(ultra, "ultrametric_from_covers", lambda seq, ground: flat)
    with pytest.raises(RuntimeError, match=re.escape(
            "internal error: {a, b} is a ball or a block, not both")):
        verify_base_equality(seq)


def test_balls_centered_oracle_refuses_non_ultrametrics():
    # every ball of a is centered, but on the line b - c - d the ball of c at
    # radius 2 holds b and d, whose balls differ
    t = _table("abcd", [("a", "b", 3), ("a", "c", 3), ("a", "d", 3),
                        ("b", "c", 1), ("c", "d", 1), ("b", "d", 2)])
    assert not balls_centered(t)
    seq = CoverSequence([[{"a", "b"}, {"c"}], [{"a"}, {"b"}, {"c"}]])
    assert balls_centered(ultrametric_from_covers(seq, seq.ground))


def test_verify_base_equality_three_point():
    seq = CoverSequence([[{"a", "b"}, {"c"}], [{"a"}, {"b"}, {"c"}]])
    rep = verify_base_equality(seq)
    assert rep.all_passed
    assert rep.ball_system_size == 5
    assert rep.base_system_size == 5


def test_verify_base_equality_discrete_and_trivial():
    flat = CoverSequence([[{"a"}, {"b"}]])
    rep = verify_base_equality(flat)
    assert rep.all_passed
    assert rep.ball_system_size == 3

    one = CoverSequence([[{"a"}]])
    rep = verify_base_equality(one)
    assert rep.all_passed
    assert rep.ball_system_size == 1


def _random_table(rng, n):
    """Arbitrary positive distances from a small pool, so ties are common."""
    dist = {}
    for i in range(n):
        for j in range(i + 1, n):
            dist[(i, j)] = Fraction(rng.randint(1, 6), rng.randint(1, 3))
    return DistanceTable(range(n), dist)


def _tree_heights(rng, ids, height):
    """Ultrametric of a random merge tree over ids; ``height()`` gives increments."""
    clusters = [[x] for x in ids]
    dist = {}
    h = Fraction(0)
    while len(clusters) > 1:
        if h == 0 or rng.random() < 0.6:
            h += height()
        a, b = sorted(rng.sample(range(len(clusters)), 2))
        dist.update({(x, y): h for x in clusters[a] for y in clusters[b]})
        clusters[a] += clusters.pop(b)
    return dist


def _merge_tree_table(rng, n):
    """Ultrametric of a random merge tree: clusters join at non-decreasing heights."""
    dist = _tree_heights(rng, range(n), lambda: Fraction(rng.randint(1, 4), rng.randint(1, 4)))
    return DistanceTable(range(n), dist)


def _two_sided_tree(n):
    """Ultrametric over range(n), n >= 8, with the n - 1 distinct heights 1..n-1: 0 and 2
    join at 1; each side, 3..n//2-1 and then 1, n//2..n-1, gains one point per height;
    {0, 2} joins its side at n - 2, and the two sides join at n - 1."""
    left, right = list(range(3, n // 2)), [1, *range(n // 2, n)]
    dist, h = {(0, 2): 1}, 1
    for side in (left, right):
        for k in range(1, len(side)):
            h += 1
            dist.update({(x, side[k]): h for x in side[:k]})
    dist.update({(x, y): n - 2 for x in (0, 2) for y in left})
    dist.update({(x, y): n - 1 for x in (0, 2, *left) for y in right})
    return dist


def _random_covers(rng, n):
    """Random refining partitions of range(n), ending in singletons."""
    levels = []
    blocks = [list(range(n))]
    while len(blocks) < n or not levels:
        nxt = []
        for b in blocks:
            rng.shuffle(b)
            cut = rng.randint(1, len(b)) if len(b) > 1 and rng.random() < 0.5 else len(b)
            nxt += [part for part in (b[:cut], b[cut:]) if part]
        levels.append(nxt)
        blocks = nxt
    return CoverSequence(levels)


def _sweep_sets(table):
    """The sweep as (radius, balls) with Fraction radii and frozenset balls."""
    return [(Fraction(r, table.scale), [frozenset(_select(table.points, b)) for b in balls])
            for r, balls in _ball_sweep(table)]


def test_ball_sweep_matches_midpoint_oracle():
    rng = random.Random(8181)
    passed = 0
    for trial in range(300):
        n = rng.randint(1, 12)
        table = _merge_tree_table(rng, n) if trial % 2 else _random_table(rng, n)
        sweep = _sweep_sets(table)
        vals = table.values()
        assert [r for r, _ in sweep] == vals + [(vals[-1] if vals else 0) + 1]
        for r, balls in sweep:
            assert balls == [open_ball(table, x, r) for x in table.points]
        swept = {b for _, balls in sweep for b in balls}
        assert swept == ball_system(table, midpoint_radii(table))
        for (r, _), (_, nxt) in zip(sweep, sweep[1:]):
            for i, x in enumerate(table.points):
                assert closed_ball(table, x, r) == nxt[i]
        expected = ball_properties_hold(table)
        assert expected or trial % 2 == 0
        assert verify_ball_properties(table).all_passed == expected
        passed += expected
    assert 150 < passed < 300


def test_base_equality_ball_system_matches_oracle():
    rng = random.Random(9191)
    for _ in range(150):
        seq = _random_covers(rng, rng.randint(1, 12))
        table = ultrametric_from_covers(seq, seq.ground)
        rep = verify_base_equality(seq)
        assert rep.all_passed
        assert rep.ball_system_size == len(ball_system(table, midpoint_radii(table)))


def test_sierpinski_embed_examples():
    seq = CoverSequence([[{"a", "b"}, {"c"}], [{"a"}, {"b"}, {"c"}]])
    emb = sierpinski_embed(seq)
    assert emb["a"].entries == (0, 0)
    assert emb["b"].entries == (0, 1)
    assert emb["c"].entries == (1, 2)

    flat = sierpinski_embed(CoverSequence([[{"a"}, {"b"}]]))
    assert flat["a"].entries == (0,)
    assert flat["b"].entries == (1,)

    one = sierpinski_embed(CoverSequence([[{"a"}], [{"a"}], [{"a"}]]))
    assert one["a"].entries == (0, 0, 0)


def test_sierpinski_embed_is_isometric():
    rng = random.Random(6161)
    for _ in range(40):
        space = _line_space(rng, rng.randint(2, 8))
        seq = build_cover_sequence(space, 4)
        rho = ultrametric_from_covers(seq, seq.ground)
        emb = sierpinski_embed(seq)
        pts = sorted(seq.ground)
        for i, x in enumerate(pts):
            for y in pts[i + 1 :]:
                got = baire_distance(emb[x], emb[y], seq.depth)
                assert got == Distance.exact(rho.d(x, y))
        assert len({emb[x].entries for x in pts}) == len(pts)


def test_table_json_round_trip(monkeypatch):
    again = table_from_json(THREE.as_json())
    assert again.same_table(THREE)
    metric = table_from_json(THREE.as_json(), require_metric=True)
    assert isinstance(metric, FiniteSpace)
    # the loader's reduced integer pairs are taken as they are, with no Fraction
    obj = THREE.as_json()
    monkeypatch.setattr(ultra, "Fraction", None)
    assert table_from_json(obj, require_metric=True).same_table(THREE)


def test_table_from_json_rejects_bad_shapes():
    with pytest.raises(ValueError):
        table_from_json(["not", "a", "dict"])
    with pytest.raises(ValueError):
        table_from_json({"points": "ab"})
    with pytest.raises(ValueError):
        table_from_json({"points": [1.5], "dist": []})
    with pytest.raises(ValueError):
        table_from_json({"points": ["a", "b"], "dist": [["a", "b"]]})
    bad_metric = {
        "points": ["a", "b", "c"],
        "dist": [["a", "b", "5"], ["a", "c", "1"], ["b", "c", "1"]],
    }
    table_from_json(bad_metric)
    with pytest.raises(ValueError, match="triangle"):
        table_from_json(bad_metric, require_metric=True)


def test_covers_json_round_trip():
    seq = CoverSequence([[{"a", "b"}, {"c"}], [{"a"}, {"b"}, {"c"}]])
    payload = seq.as_json()
    assert payload == {"levels": [[["a", "b"], ["c"]], [["a"], ["b"], ["c"]]]}
    again = covers_from_json(payload)
    assert again.levels == seq.levels
    with pytest.raises(ValueError):
        covers_from_json({"nope": []})
    with pytest.raises(ValueError):
        covers_from_json([])


# --- differential checks against the Fraction oracles ---


def _mixed_ids(rng, n):
    """n distinct ids, integers and strings mixed."""
    return [x if rng.random() < 0.5 else f"p{x}" for x in rng.sample(range(40), n)]


def _table_kind(rng, kind, ids):
    pairs = [(x, y) for i, x in enumerate(ids) for y in ids[i + 1 :]]
    if kind == "tree":
        return _tree_heights(rng, ids, lambda: Fraction(rng.randint(1, 4), rng.randint(1, 4)))
    if kind == "perturbed":
        dist = _tree_heights(rng, ids, lambda: Fraction(rng.randint(1, 3)))
        if dist:
            key = rng.choice(sorted(dist, key=str))
            dist[key] = max(Fraction(1, 7), dist[key] + rng.choice([-1, 1]) * Fraction(1, 7))
        return dist
    if kind == "arbitrary":
        return {p: Fraction(rng.randint(1, 9), rng.randint(1, 4)) for p in pairs}
    if kind == "few":
        return {p: Fraction(rng.randint(1, 3), 2) for p in pairs}
    # coprime denominators: the common scale is their product
    return {p: Fraction(rng.randint(1, 40), rng.choice([3, 5, 7, 11, 13])) for p in pairs}


def test_reports_match_fraction_oracles():
    rng = random.Random(24680)
    kinds = ("tree", "perturbed", "arbitrary", "few", "coprime")
    verdicts = {kind: set() for kind in kinds}
    for trial in range(1000):
        kind = kinds[trial % len(kinds)]
        ids = _mixed_ids(rng, rng.randint(0, 12))
        dist = _table_kind(rng, kind, ids)
        table = DistanceTable(ids, dist)
        assert table._entries == sorted({v for row in _rows(table) for v in row})
        um = verify_ultrametric(table)
        assert um == ultrametric_scan_oracle(table), (kind, table.as_json())
        # the packed witness on every table, passing or not, the empty one too
        assert _first_failing_triples(table) == um, (kind, table.as_json())
        assert verify_ball_properties(table) == ball_report_oracle(table), (kind, table.as_json())
        # each ball is the ball of all its members, at every radius, exactly on ultrametrics
        centered = all(balls[j] == ball for _, balls in _ball_sweep(table)
                       for ball in balls for j in _select(range(len(balls)), ball))
        assert centered == um.all_passed, (kind, table.as_json())
        # a merge tree has one height per merge, the bound the verdict counts against
        assert not um.all_passed or len(table.values()) <= max(len(ids) - 1, 0)
        verdicts[kind].add(um.all_passed)
        want = _triangle_outcome(table)
        assert _outcome(lambda: FiniteSpace(ids, dist).same_table(table)) == (
            True if want is None else want), (kind, table.as_json())
    assert verdicts["tree"] == {True}
    assert verdicts["perturbed"] == verdicts["arbitrary"] == {True, False}


def test_ball_radius_boundaries():
    # a distance equal to the radius stays outside the open ball
    def ball(t, i, r):
        return set(_select(t.points, _balls(t, r)[i]))

    t = _table("abc", [("a", "b", Fraction(1, 4)), ("a", "c", Fraction(1, 3)), ("b", "c", 1)])
    assert ball(t, 0, Fraction(1, 4)) == {"a"}
    assert ball(t, 0, Fraction(1, 3)) == {"a", "b"}
    assert ball(t, 0, Fraction(1, 3) + Fraction(1, 10**30)) == {"a", "b", "c"}
    # denominators 3, 5 and 7 against the cover radii 1/2^(i+2): r times the
    # common denominator 105 is never an integer, and distances k/105 sit on
    # both sides of every radius
    pts = list(range(31))
    dist = {(0, k): Fraction(k, 105) for k in range(1, 31)}
    dist.update({(j, k): 1 for j in range(1, 31) for k in range(j + 1, 31)})
    t = DistanceTable(pts, dist)
    for level in range(6):
        r = Fraction(1, 2 ** (level + 2))
        for i, x in enumerate(t.points):
            assert ball(t, i, r) == open_ball(t, x, r)
        assert len(ball(t, 0, r)) == 1 + 105 // 2 ** (level + 2)


def test_verify_ultrametric_tied_and_tiny_tables():
    for n, dist in ((0, {}), (1, {}), (2, {(0, 1): 2})):
        tiny = DistanceTable(range(n), dist)
        assert verify_ultrametric(tiny).all_passed and _first_failing_triples(tiny).all_passed
        # past the largest entry every ball is the whole space, and the empty one is empty
        assert _balls(tiny, Fraction(3)) == [(1 << n) - 1] * n
    # every edge tied: any spanning tree is minimal
    equal = DistanceTable(range(5), {(i, j): 3 for i in range(5) for j in range(i + 1, 5)})
    assert verify_ultrametric(equal).all_passed
    # tied tree edges along a path, with the far pair too long
    path = _table("abc", [("a", "b", 1), ("b", "c", 1), ("a", "c", 2)])
    rep = verify_ultrametric(path)
    assert rep == ultrametric_scan_oracle(path)
    assert rep.strong_triangle.counterexample == "d(a, c) = 2 > max of the other two sides = 1"
    assert rep.isosceles.passed
    # two tied clusters joined at one height, then one pair lowered
    dist = {(x, y): (1 if (x < 2) == (y < 2) else 2) for x in range(4) for y in range(x + 1, 4)}
    assert verify_ultrametric(DistanceTable(range(4), dist)).all_passed
    dist[(1, 3)] = 1
    low = DistanceTable(range(4), dist)
    assert verify_ultrametric(low) == ultrametric_scan_oracle(low)
    assert not verify_ultrametric(low).all_passed
    # d(0, 2) raised to the top height: n - 2 distinct distances, and only the
    # top radius is not centered, so the sweep runs to it before the triple scan
    late = DistanceTable(range(30), {**_two_sided_tree(30), (0, 2): 29})
    centered = [ultra._centered(balls) for _, balls in _ball_sweep(late)]
    assert centered.index(False) == len(centered) - 2 and centered[-1]
    assert verify_ultrametric(late) == ultrametric_scan_oracle(late)
    assert verify_ball_properties(late) == ball_report_oracle(late)
    assert not verify_ultrametric(late).all_passed


def test_count_refuses_with_no_sweep_and_sweep_passes_with_no_scan(monkeypatch, tmp_path):
    # d(0, 1) raised above every height of a distinct-height merge tree: n distinct
    # distances, one more than a merge tree has, so no sweep is needed to refuse it
    def refuse(*args):
        raise AssertionError("not reached")

    class Reads(list):  # rank rows that record which rows are read by index
        def __getitem__(self, i):
            self.read.add(i)
            return super().__getitem__(i)

    for n in (8, 9, 30):
        tree = _two_sided_tree(n)
        raised = DistanceTable(range(n), {**tree, (0, 1): n})
        assert len(raised.values()) == n
        want = ultrametric_scan_oracle(raised)
        raised.ranks = Reads(raised.ranks)
        raised.ranks.read = set()
        with monkeypatch.context() as patch:
            patch.setattr(ultra, "_ball_sweep", refuse)
            assert verify_ultrametric(raised) == want
            assert not want.all_passed
        # both properties fail on (0, 1, 2), so the scan reads rank rows 0 and 1 alone
        assert raised.ranks.read == {0, 1}
        # the unraised tree is within the bound, and the sweep alone passes it: the
        # triple scan would mask a sweep that refuses an ultrametric
        # nor does a passing table read a rank row as one int (the witness, the balls),
        # through the library or the CLI
        passing = DistanceTable(range(n), tree)
        path = tmp_path / f"tree{n}.json"
        path.write_text(json.dumps(passing.as_json()), encoding="utf-8")
        with monkeypatch.context() as patch:
            patch.setattr(ultra, "_first_failing_triples", refuse)
            patch.setattr(ultra, "_balls", refuse)
            assert verify_ultrametric(passing).all_passed
            assert verify_ball_properties(passing).all_passed
            assert run(["ultra", "verify", str(path)]).exit_code == 0


def _primes_below(limit):
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\0\0"
    for k in range(2, int(limit**0.5) + 1):
        if sieve[k]:
            sieve[k * k :: k] = bytearray(len(sieve[k * k :: k]))
    return [k for k in range(limit) if sieve[k]]


def test_a_read_table_holds_one_narrow_matrix():
    # the 400-point line space, d(i, j) = |i - j| / 400, once its parsed JSON is freed:
    # 399 distinct entries, so each row is 400 ranks of two bytes
    n = 400
    text = json.dumps({"points": list(range(n)),
                       "dist": [[i, j, f"{j - i}/{n}"] for i, j in combinations(range(n), 2)]})
    tracemalloc.start()
    try:
        obj = json.loads(text)
        table = table_from_json(obj, require_metric=True)
        del obj
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert isinstance(table, FiniteSpace) and len(table.values()) == n - 1
    assert table.ranks[0].itemsize == 2
    assert held < 1 << 20, held


def test_json_budgets_refuse_before_any_table(monkeypatch):
    built = []
    monkeypatch.setattr(ultra.DistanceTable, "__init__", lambda self, *args: built.append(args))
    monkeypatch.setattr(ultra.CoverSequence, "__init__", lambda self, *args: built.append(args))
    assert (ultra.MAX_POINTS, ultra.MAX_MATRIX_BITS) == (800, 1 << 25)
    n = ultra.MAX_POINTS + 1
    with pytest.raises(ValueError, match="^801 points exceed the budget 800$"):
        table_from_json({"points": list(range(n)), "dist": []})
    with pytest.raises(ValueError, match="^801 points exceed the budget 800$"):
        covers_from_json({"levels": [[list(range(400)), list(range(400, n))], [[0]]]})
    assert not built
    # distinct prime denominators: the common scale is their product, and its
    # lcm stops at the first prime that takes the matrix past the budget
    pairs = [(i, j) for i in range(100) for j in range(i + 1, 100)]
    obj = {"points": list(range(100)),
           "dist": [[i, j, f"1/{p}"] for (i, j), p in zip(pairs, _primes_below(1 << 16))]}
    assert len(obj["dist"]) == len(pairs)
    with pytest.raises(ValueError) as exc:
        table_from_json(obj)
    size = re.fullmatch(r"matrix of at least (\d+) bits exceeds the budget 33554432",
                        str(exc.value))
    assert 0 < int(size.group(1)) - (1 << 25) <= 100 * 100 * 16
    assert not built
    # at the budgets the table is built
    table_from_json({"points": list(range(ultra.MAX_POINTS)), "dist": []})
    covers_from_json({"levels": [[list(range(ultra.MAX_POINTS))]]})
    assert len(built) == 2


# --- integer pairs and bitmasks against the Fraction and frozenset oracles ---


def _outcome(fn, *args, errors=ValueError):
    """What fn returns, or the type and text of the error it raises."""
    try:
        return fn(*args)
    except errors as e:
        return type(e), str(e), getattr(e, "pair", None)


def _rows(table):
    """The matrix of entries, in scale units: each rank row read through ``_entries``."""
    return [list(map(table._entries.__getitem__, row)) for row in table.ranks]


def _as_triple(table):
    return table.points, table.scale, _rows(table)


def _value_text(rng, v):
    """v as a JSON value: plain, unreduced, padded, or a bare int."""
    pick = rng.randrange(4)
    if pick == 0 and v.denominator == 1:
        return v.numerator
    if pick == 1:
        k = rng.randint(2, 5)
        return f"{v.numerator * k}/{v.denominator * k}"
    if pick == 2:
        return f" {v.numerator} / {v.denominator} "
    return str(v)


_BAD_VALUES = ("1/0", "abc", "1.5", "", "0", "-1/2", "0/7", "2/-3", "1" * 4301, 1.5, [1], None)


def _inject(rng, obj):
    """One fault somewhere in a JSON table object, in place."""
    ids, rows = obj["points"], obj["dist"]
    if not isinstance(rows, list):
        return
    fault = rng.randrange(11)
    spot = rng.randrange(len(rows) + 1)
    good = [r for r in rows if isinstance(r, list) and len(r) == 3]
    row = rng.choice(good) if good else None
    if fault == 0:
        rows.insert(spot, rng.choice([["a"], "x", [1, 2], {"a": 1}, None]))
    elif fault == 1 and row:
        row[2] = rng.choice(_BAD_VALUES)
    elif fault == 2 and ids:
        ids.append(rng.choice(ids))
    elif fault == 3:
        ids.append(rng.choice([1.5, None, ["a"], True]))
    elif fault == 4 and ids:
        rows.insert(spot, [rng.choice(ids), "zz", "1"])
    elif fault == 5 and ids:
        x = rng.choice(ids)
        rows.insert(spot, [x, x, "1"])
    elif fault == 6 and row:
        x, y, v = row
        again = [x, y] if rng.random() < 0.5 else [y, x]
        rows.insert(spot, again + [rng.choice([v, "7/3", "1"])])
    elif fault == 7 and row:
        rows.remove(row)
    elif fault == 8 and row:
        row[rng.randrange(2)] = rng.choice([[row[0]], {"x": 1}, True, 1.0])
    elif fault == 9 and row:
        row[2] = f"1/{rng.choice([2**61 - 1, 10**30 + 7])}"
    elif fault == 10:
        obj["dist"] = rng.choice(["ab", {}, None, 3])


def test_table_from_json_matches_fraction_oracle(monkeypatch):
    # a small matrix budget, so that small tables reach it too
    monkeypatch.setattr(ultra, "MAX_MATRIX_BITS", 1 << 11)
    rng = random.Random(13579)
    kinds = ("tree", "perturbed", "arbitrary", "few", "coprime")
    outcomes = set()
    for trial in range(2000):
        ids = _mixed_ids(rng, rng.randint(0, 12))
        dist = _table_kind(rng, kinds[trial % len(kinds)], ids)
        rows = [[x, y, _value_text(rng, v)] if rng.random() < 0.5 else [y, x, _value_text(rng, v)]
                for (x, y), v in dist.items()]
        rng.shuffle(rows)
        obj = {"points": list(ids), "dist": rows}
        for _ in range(rng.choice([0, 1, 1, 2])):
            _inject(rng, obj)
        metric = rng.random() < 0.5
        got = _outcome(lambda: _as_triple(table_from_json(obj, metric)))
        want = _outcome(table_from_json_oracle, obj, metric, 800, 1 << 11)
        assert got == want, obj
        outcomes.add(got[1].split(":")[0].split(" for")[0][:24] if got[0] is ValueError else "ok")
    assert len(outcomes) >= 14, outcomes


def _table_value(rng, v):
    """v as a Fraction, an int, a float, a reduced or unreduced int pair, or a pair
    that Fraction(*pair) reads: negated, or with a Fraction or a bool in it."""
    form = rng.randrange(8)
    value = (v.numerator, v.denominator) if form == 0 else v
    if form == 2 and v.denominator == 1:
        value = v.numerator
    if form == 3 and v == Fraction(float(v)):
        value = float(v)
    if form == 4:
        value = (-v.numerator, -v.denominator)
    if form == 5:
        value = (Fraction(v.numerator, 2), Fraction(v.denominator, 2))
    if form == 6 and v.numerator == 1:
        value = (True, v.denominator)
    if form == 7:
        c = rng.randint(2, 6)
        value = (v.numerator * c, v.denominator * c)
    return value


def test_distance_table_values_match_fraction_oracle():
    rng = random.Random(2468)
    for _ in range(300):
        ids = _mixed_ids(rng, rng.randint(0, 10))
        items = []
        for (x, y), v in _table_kind(rng, "coprime", ids).items():
            items.append(((x, y), _table_value(rng, v)))
            if rng.random() < 0.3:  # the same distance again, in either order and any form
                items.append((rng.choice([(x, y), (y, x)]), _table_value(rng, v)))
        rng.shuffle(items)
        table = DistanceTable(ids, items)
        assert _as_triple(table) == table_oracle(ids, items)
        # every form is reduced as it is read, so the matrix is in lowest terms
        assert gcd(table.scale, *chain.from_iterable(_rows(table))) == 1
        assert table._entries == sorted({v for row in _rows(table) for v in row})
    # unreduced int pairs: equal to their reduced form, repeated or alone
    half = DistanceTable("ab", [(("a", "b"), (1, 2))])
    assert DistanceTable("ab", [(("a", "b"), (2, 4)), (("b", "a"), (1, 2))]).same_table(half)
    assert DistanceTable("ab", [(("a", "b"), (2, 4))]).same_table(half)
    assert (half.scale, _rows(half)) == (2, [[0, 1], [1, 0]])
    got = _outcome(lambda: DistanceTable("ab", [(("a", "b"), (2, 4)), (("b", "a"), (2, 3))]))
    assert got == (ValueError, "conflicting distances for ('a', 'b')", None)
    # pairs no table holds: the same error as the oracle, never a table
    for value in [(1, -2), (-1, 2), (1, 0), (1.5, 2), (1, 2, 3)]:
        got = _outcome(lambda: DistanceTable("ab", {("a", "b"): value}), errors=Exception)
        assert got == _outcome(table_oracle, "ab", [(("a", "b"), value)], errors=Exception)
        assert isinstance(got, tuple), value


def test_cover_sequence_matches_peel_oracle():
    rng = random.Random(97531)
    for _ in range(300):
        n = rng.randint(0, 12)
        ids = _mixed_ids(rng, n)
        # taxicab distances between distinct grid points, cells of side 1/den
        den = rng.choice([1, 3, 8, 16, 35])
        cells = rng.sample([(a, b) for a in range(20) for b in range(4)], n)
        dist = {(ids[i], ids[j]): Fraction(abs(a - c) + abs(b - d), den)
                for i, (a, b) in enumerate(cells) for j, (c, d) in enumerate(cells) if i < j}
        space = FiniteSpace(ids, dist)
        depth = rng.randint(1, 7)
        if n == 0:  # the empty space is refused
            with pytest.raises(ValueError, match="^need at least one point$"):
                build_cover_sequence(space, depth)
            continue
        assert build_cover_sequence(space, depth).levels == cover_sequence_oracle(space, depth)


def test_separation_levels_match_pair_oracle():
    rng = random.Random(86420)
    unseparated = 0
    for _ in range(300):
        n = rng.randint(0, 12)
        if n == 0:  # the empty space is refused
            with pytest.raises(ValueError, match="^need at least one point$"):
                _random_covers(rng, n)
            continue
        full = _random_covers(rng, n)
        names = dict(zip(range(n), _mixed_ids(rng, n)))
        levels = [[[names[x] for x in b] for b in blocks] for blocks in full.levels]
        seq = CoverSequence(levels[: rng.randint(1, len(levels))])
        ids = list(names.values())
        assert seq.points == DistanceTable(ids, dict.fromkeys(combinations(ids, 2), 1)).points
        got = _outcome(lambda: ultrametric_from_covers(seq, seq.ground))
        want = _outcome(separation_oracle, seq, seq.ground)
        if isinstance(want, tuple):
            unseparated += 1
            assert got == want
            continue
        assert {pair: got.d(*pair) for pair in got.pairs()} == want
        # the rank rows built from the digits are the generic reader's: scale, entries, ranks
        assert got.same_table(DistanceTable(ids, want))
        assert verify_base_equality(seq) == base_equality_oracle(seq)
    assert 30 < unseparated < 270
    with pytest.raises(ValueError, match="^need at least one point$"):
        CoverSequence([[]])


def test_two_value_failure_scan_matches_oracle():
    rng = random.Random(1212)
    failed = 0
    for _ in range(400):
        ids = _mixed_ids(rng, rng.randint(0, 12))
        low = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        high = low + Fraction(rng.randint(1, 5), rng.randint(1, 3))
        values = rng.choice([(low,), (low, high), (low, high, high, high)])
        table = DistanceTable(ids, {(x, y): rng.choice(values)
                                    for i, x in enumerate(ids) for y in ids[i + 1 :]})
        rep = verify_ultrametric(table)
        assert rep == ultrametric_scan_oracle(table)
        assert rep.isosceles.passed
        failed += not rep.all_passed
    assert failed > 100


def test_repeated_pair_conflicts_in_either_order():
    for second in (["a", "b", "2"], ["b", "a", "2"]):
        obj = {"points": ["a", "b"], "dist": [["a", "b", "1"], second]}
        with pytest.raises(ValueError, match=r"^conflicting distances for \('a', 'b'\)$"):
            table_from_json(obj)
    for second in (["a", "b", "2/2"], ["b", "a", "1"]):
        table = table_from_json({"points": ["a", "b"], "dist": [["a", "b", "1"], second]})
        assert table.d("a", "b") == 1
    with pytest.raises(ValueError, match=r"^conflicting distances for \(1, 'a'\)$"):
        DistanceTable([1, "a"], [(("a", 1), 2), ((1, "a"), 3)])


def test_json_ids_are_exactly_strings_or_integers():
    def refused(x):
        return pytest.raises(ValueError, match=rf"^point id must be a string or integer: {x}$")

    with refused("True"):
        table_from_json({"points": [True, "a"], "dist": [[True, "a", "1"]]})
    for bad in (True, 1.0):
        with refused(repr(bad).replace(".", r"\.")):
            table_from_json({"points": [1, "a"], "dist": [[bad, "a", "1"]]})
        with refused(repr(bad).replace(".", r"\.")):
            table_from_json({"points": [1, "a"], "dist": [["a", bad, "1"]]}, require_metric=True)
    with refused(r"1\.0"):
        covers_from_json({"levels": [[[1.0, "a"]]]})
    with refused("True"):
        covers_from_json({"levels": [[[True, 1, "a"]]]})
    # library callers keep any hashable id
    table = DistanceTable([(0, 1), 2.5], {((0, 1), 2.5): 1})
    assert table.d(2.5, (0, 1)) == 1
    assert CoverSequence([[[1.5, "a"]], [[1.5], ["a"]]]).ground == {1.5, "a"}


def test_unhashable_ids_are_named():
    # JSON readers name their own rule; library callers are told about hashability
    message = r"^point id must be a string or integer: \['a'\]$"
    with pytest.raises(ValueError, match=message):
        table_from_json({"points": ["a", "b"], "dist": [[["a"], "b", "1"]]})
    with pytest.raises(ValueError, match=message):
        table_from_json({"points": ["a", "b"], "dist": [["a", ["a"], "1"]]})
    with pytest.raises(ValueError, match=message):
        table_from_json({"points": [["a"], "b"], "dist": []})
    with pytest.raises(ValueError, match=r"^point id must be a string or integer: \['x'\]$"):
        covers_from_json({"levels": [[["a", ["x"]]]]})
    message = r"^point id must be hashable: \['a'\]$"
    with pytest.raises(ValueError, match=r"^point id must be hashable: \{\}$"):
        CoverSequence([[["a"], [{}]]])
    with pytest.raises(ValueError, match=message):
        DistanceTable("ab", [((["a"], "b"), 1)])
    with pytest.raises(ValueError, match=message):
        DistanceTable([["a"], "b"], {})
    for levels in ([3], [[3]], ["ab"], [[["a"]], "b"]):
        with pytest.raises(ValueError, match="^expected"):
            covers_from_json({"levels": levels})
    for dist in ("ab", {}, None):
        with pytest.raises(ValueError, match="^dist must be a list of rows$"):
            table_from_json({"points": ["a", "b"], "dist": dist})


# --- packed rows: the metric check, the balls and the witness against the oracles ---


def _edge_tables(rng):
    """Integer tables at the edges of the field widths, 8, 16, 32 and 64 bits: the largest
    entry 2^k - 1 or 2^k, with entries near half of it, so two-entry sums cross a power of
    two, and with ties; and 127 to 129 or 255 to 257 distinct entries, 0 among them, so the
    largest rank is at the edge of a byte."""
    for k in (*range(1, 8), 14, 15, 30, 31, 62, 63, 64):
        for top in (2**k - 1, 2**k):
            pool = sorted({1, top // 2, top // 2 + 1, top - 1, top} - {0})
            # equilateral at the top, and two top sides over a short one: sums 2 * top
            yield DistanceTable("abc", dict.fromkeys(combinations("abc", 2), top))
            yield DistanceTable("abc", {("a", "b"): 1, ("a", "c"): top, ("b", "c"): top})
            for _ in range(30 if k < 8 else 10):
                n = rng.randint(0, 7)
                dist = {pair: rng.choice(pool) for pair in combinations(range(n), 2)}
                if dist:
                    dist[rng.choice(sorted(dist))] = top
                yield DistanceTable(range(n), dist)
    for distinct in (127, 128, 129, 255, 256, 257):
        pairs = list(combinations(range(24), 2))
        rng.shuffle(pairs)
        # every value 1 .. distinct - 1 once, then repeats of them
        values = list(range(1, distinct)) + [rng.randrange(1, distinct) for _ in pairs]
        table = DistanceTable(range(24), zip(pairs, values))
        assert len(table._entries) == distinct
        yield table


def test_packed_checks_match_oracles_at_the_field_width_edge():
    rng = random.Random(2718)
    verdicts, small = set(), 0
    for table in _edge_tables(rng):
        dist = {(x, y): table.d(x, y) for x, y in table.pairs()}
        want = _triangle_outcome(table)
        assert _outcome(lambda: FiniteSpace(table.points, dist).same_table(table)) == (
            True if want is None else want), table.as_json()
        verdicts.add(want is None)
        small += len(table.points) <= 3
        assert _first_failing_triples(table) == ultrametric_scan_oracle(table), table.as_json()
        # c = 0, at entries and one past them, and far past the largest
        cs = sorted({0, 2**70, *table._entries, *(v + 1 for v in table._entries)})
        for c in cs[::len(cs) // 24 + 1] + cs[-3:]:
            r = Fraction(c, table.scale)
            for x, ball in zip(table.points, _balls(table, r)):
                assert set(_select(table.points, ball)) == open_ball(table, x, r), (c, x)
    assert verdicts == {True, False} and small > 50


def test_metric_check_caps_wide_entries(monkeypatch):
    # fields of w bits, 8 to 64, set by the largest entry within _CAP_BITS: entries past
    # 2^(w-2) - 1 are capped, and a pair past the cap is read entry by entry
    rng = random.Random(1414)
    for table in _edge_tables(rng):
        dist = {(x, y): table.d(x, y) for x, y in table.pairs()}
        want = _triangle_outcome(table)
        for bits in (0, 14, 30):
            monkeypatch.setattr(ultra, "_CAP_BITS", bits)
            assert _outcome(lambda: FiniteSpace(table.points, dist).same_table(table)) == (
                True if want is None else want), (bits, table.as_json())
    monkeypatch.undo()
    # one point 10^4000 - 1 from the others, past the cap, while ranks keep the balls' and
    # the witness's fields a byte wide
    wide, n = 10**4000 - 1, 24
    assert wide.bit_length() > ultra._CAP_BITS
    near = {pair: 1 + (pair[1] - pair[0]) % 2 for pair in combinations(range(n), 2)}
    for dist, want in (
            ({**near, **{(0, j): wide for j in range(1, n)}}, None),
            ({**near, **{(j, n - 1): wide for j in range(n - 1)}}, None),
            ({**near, (0, 1): wide, **{(0, j): wide - 5 for j in range(2, n)}}, (0, 1, 2)),
            ({**near, (1, 2): 4, **{(0, j): wide for j in range(1, n)}}, (1, 2, 3))):
        table = DistanceTable(range(n), dist)
        if want is None:
            assert FiniteSpace(range(n), dist).same_table(table)
        else:
            assert triangle_failure(table) == want
            assert _outcome(lambda: FiniteSpace(range(n), dist)) == _triangle_outcome(table)
        assert table.ranks[0].itemsize == 1
    assert _triangle_outcome(table)[1] == (
        "triangle inequality fails: d(1, 2) = 4 > d(1, 3) + d(3, 2) = 1 + 2")


def _raised_tree(n):
    """Balanced merge tree over range(n), n a power of two, each merge one height above
    the last, with d(0, 1), the first merge, raised above every other distance: only
    the strong inequality fails, and no triple has three distinct sides."""
    dist, heights = {}, count(1)
    for size in (2**e for e in range(1, n.bit_length())):
        for lo in range(0, n, size):
            h, mid = next(heights), lo + size // 2
            dist.update({(x, y): h for x in range(lo, mid) for y in range(mid, lo + size)})
    return DistanceTable(range(n), {**dist, (0, 1): next(heights)})


def test_raised_merge_tree_witness_matches_the_scan_oracle():
    raised = _raised_tree(64)
    assert len(raised.values()) == 63
    rep = verify_ultrametric(raised)
    assert rep == ultrametric_scan_oracle(raised)
    assert rep.strong_triangle.counterexample == (
        "d(0, 1) = 64 > max of the other two sides = 33")
    assert rep.isosceles.passed
