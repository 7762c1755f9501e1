"""Finite-model laboratory: refining partitions, ultrametrics, verification.

A finite metric space is driven through the zero-dimensionality pipeline: shrink
open balls into a sequence of refining partitions (``build_cover_sequence``),
read an ultrametric back off the separation level of each pair
(``ultrametric_from_covers``), verify the strong triangle inequality and the
standard open-ball phenomena on the finite model, check that the ball system
equals the union of the partition levels plus the whole space, and embed the
points isometrically into the non-negative integer-sequence space
(``sierpinski_embed``).

Each table is one integer matrix over a common scale, the lcm of its
denominators, so decisions compare ints and ``Fraction``s are rebuilt only for
answers and messages: d < r exactly when d * scale < ceil(r * scale), and a
table is an ultrametric exactly when the Prim spanning tree's minimax
distances reproduce it (``verify_ultrametric``, O(n^2)).  JSON inputs past
``MAX_POINTS`` points, or ``MAX_MATRIX_BITS`` bits of matrix (points squared
times the bits of the scale, which can grow without bound), are refused
before any table is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, compress
from math import lcm
from operator import add
from typing import Iterable, Mapping, Sequence

from .baire import BairePrefix
from .rational import parse_rational
from .report import PropertyCheck

MAX_POINTS = 800
MAX_MATRIX_BITS = 1 << 25


class UnseparatedPairError(ValueError):
    """Two points shared a block at every level of the sequence."""

    def __init__(self, pair, message):
        super().__init__(message)
        self.pair = pair


def _id_key(v):
    return (0, v, "") if isinstance(v, int) else (1, 0, str(v))


def _fmt_set(s: Iterable) -> str:
    return "{" + ", ".join(str(x) for x in sorted(s, key=_id_key)) + "}"


class DistanceTable:
    """Symmetric table of exact positive distances over a finite id set.

    ``rows[i][j] / scale`` is the distance between ``points[i]`` and
    ``points[j]`` (zero on the diagonal), with ``scale`` the lcm of all the
    distances' denominators, so ``rows`` is one matrix of ints; ``index``
    maps each point to its position.
    """

    def __init__(self, points: Iterable, distances: Mapping):
        pts = list(points)
        if len(set(pts)) != len(pts):
            raise ValueError("duplicate point ids")
        self.points: tuple = tuple(sorted(pts, key=_id_key))
        self.index: dict = {x: i for i, x in enumerate(self.points)}
        n = len(self.points)
        m: list[list] = [[None] * n for _ in range(n)]
        for key, value in distances.items():
            pair = tuple(key)
            if len(pair) != 2:
                raise ValueError(f"distance key is not a pair: {key!r}")
            x, y = pair
            if x not in self.index or y not in self.index:
                raise ValueError(f"unknown point in pair {key!r}")
            if x == y:
                raise ValueError(f"diagonal entry for {x!r}; d(x, x) = 0 is implicit")
            v = Fraction(value)
            if v <= 0:
                raise ValueError(f"distance for ({x!r}, {y!r}) must be positive, got {v}")
            i, j = self.index[x], self.index[y]
            if m[i][j] is not None and m[i][j] != v:
                raise ValueError(f"conflicting distances for ({x!r}, {y!r})")
            m[i][j] = m[j][i] = v
        for i, row in enumerate(m):
            row[i] = Fraction(0)
            if any(v is None for v in row):
                j = row.index(None)
                raise ValueError(f"missing distance for ({self.points[i]!r}, {self.points[j]!r})")
        self.scale: int = lcm(*{v.denominator for row in m for v in row})
        self.rows = [[v.numerator * (self.scale // v.denominator) for v in row] for row in m]

    def _frac(self, v: int) -> Fraction:
        return Fraction(v, self.scale)

    def d(self, x, y) -> Fraction:
        return self._frac(self.rows[self.index[x]][self.index[y]])

    def pairs(self):
        return combinations(self.points, 2)

    def values(self) -> list[Fraction]:
        """Distinct positive distances, ascending."""
        distinct = {v for i, row in enumerate(self.rows) for v in row[i + 1 :]}
        return [self._frac(v) for v in sorted(distinct)]

    def same_table(self, other: "DistanceTable") -> bool:
        return (self.points, self.scale, self.rows) == (other.points, other.scale, other.rows)

    def as_json(self) -> dict:
        return {
            "points": list(self.points),
            "dist": [[x, y, str(self.d(x, y))] for x, y in self.pairs()],
        }


class FiniteSpace(DistanceTable):
    """Distance table satisfying the triangle inequality (a genuine metric)."""

    def __init__(self, points: Iterable, distances: Mapping):
        super().__init__(points, distances)
        pts, m, q = self.points, self.rows, self._frac
        for i, row_i in enumerate(m):
            for j in range(i + 1, len(pts)):
                row_j, dij = m[j], row_i[j]
                # k = i and k = j give the sum dij itself, so only a detour can be shorter
                if min(map(add, row_i, row_j)) < dij:
                    k = next(k for k in range(len(pts)) if row_i[k] + row_j[k] < dij)
                    x, y, z = pts[i], pts[j], pts[k]
                    raise ValueError(
                        f"triangle inequality fails: d({x!r}, {y!r}) = {q(dij)} > "
                        f"d({x!r}, {z!r}) + d({z!r}, {y!r}) = {q(row_i[k])} + {q(row_j[k])}"
                    )


def _check_points(n: int) -> None:
    if n > MAX_POINTS:
        raise ValueError(f"{n} points exceed the budget {MAX_POINTS}")


def table_from_json(obj, require_metric: bool = False) -> DistanceTable:
    if not isinstance(obj, dict) or "points" not in obj or "dist" not in obj:
        raise ValueError('expected {"points": [...], "dist": [[i, j, "p/q"], ...]}')
    points = obj["points"]
    if not isinstance(points, list):
        raise ValueError("points must be a list of ids")
    _check_points(len(points))
    for x in points:
        if not isinstance(x, (str, int)):
            raise ValueError(f"point id must be a string or integer: {x!r}")
    distances = {}
    for row in obj["dist"]:
        if not isinstance(row, list) or len(row) != 3:
            raise ValueError(f"bad dist row: {row!r}")
        x, y, v = row
        distances[(x, y)] = parse_rational(str(v))
    # the lcm stops growing as soon as the matrix it implies passes the budget
    scale, squared = 1, len(points) ** 2
    for den in {v.denominator for v in distances.values()}:
        scale = lcm(scale, den)
        size = squared * scale.bit_length()
        if size > MAX_MATRIX_BITS:
            raise ValueError(
                f"matrix of at least {size} bits exceeds the budget {MAX_MATRIX_BITS}")
    cls = FiniteSpace if require_metric else DistanceTable
    return cls(points, distances)


def disjointify(sets: Sequence[Iterable], ground: Iterable) -> list[frozenset]:
    """Peel each set down to its not-yet-covered part; drop empties.

    The inputs must all sit inside the ground set and jointly cover it; the
    output is a partition of the ground set, each part inside its source set.
    """
    ground = frozenset(ground)
    out: list[frozenset] = []
    seen: set = set()
    for b in sets:
        bs = frozenset(b)
        if not bs <= ground:
            raise ValueError(f"input set strays outside the ground set: {_fmt_set(bs - ground)}")
        fresh = bs - seen
        if fresh:
            out.append(frozenset(fresh))
        seen |= bs
    if seen != ground:
        raise ValueError(f"input does not cover the ground set; missing {_fmt_set(ground - seen)}")
    return out


class CoverSequence:
    """Refining sequence of partitions of a finite ground set.

    Blocks within a level are kept in a canonical order (by smallest member),
    which also fixes the digit each point gets in ``sierpinski_embed``.
    """

    def __init__(self, levels: Sequence[Sequence[Iterable]]):
        if not levels:
            raise ValueError("need at least one level")
        canon: list[tuple[frozenset, ...]] = []
        for level in levels:
            blocks = [frozenset(b) for b in level]
            if any(not b for b in blocks):
                raise ValueError("empty block")
            blocks.sort(key=lambda b: _id_key(min(b, key=_id_key)))
            canon.append(tuple(blocks))
        self.levels: tuple[tuple[frozenset, ...], ...] = tuple(canon)
        self.ground: frozenset = frozenset().union(*self.levels[0])
        self._index: list[dict] = []
        prev: dict | None = None
        for li, blocks in enumerate(self.levels):
            where: dict = {}
            for bi, b in enumerate(blocks):
                for x in b:
                    if x in where:
                        raise ValueError(f"level {li}: blocks overlap at {x!r}")
                    where[x] = bi
            if set(where) != self.ground:
                raise ValueError(f"level {li} does not cover the ground set")
            if prev is not None:
                for b in blocks:
                    if len({prev[x] for x in b}) != 1:
                        raise ValueError(
                            f"level {li}: block {_fmt_set(b)} not inside a single "
                            f"level-{li - 1} block"
                        )
            self._index.append(where)
            prev = where

    @property
    def depth(self) -> int:
        return len(self.levels)

    def block_index_of(self, level: int, x) -> int:
        return self._index[level][x]

    def block_of(self, level: int, x) -> frozenset:
        return self.levels[level][self._index[level][x]]

    def as_json(self) -> dict:
        return {
            "levels": [
                [sorted(b, key=_id_key) for b in blocks] for blocks in self.levels
            ]
        }


def covers_from_json(obj) -> CoverSequence:
    if not isinstance(obj, dict) or "levels" not in obj or not isinstance(obj["levels"], list):
        raise ValueError('expected {"levels": [[[id, ...], ...], ...]}')
    first = obj["levels"][0] if obj["levels"] else []
    if isinstance(first, list):
        _check_points(sum(len(b) for b in first if isinstance(b, list)))
    return CoverSequence(obj["levels"])


def _ball(table: DistanceTable, i: int, r: Fraction) -> frozenset:
    """Open ball of radius r around the point at position i.

    An int entry v lies below r * scale exactly when v < ceil(r * scale).
    """
    below = -(-r.numerator * table.scale // r.denominator)
    return frozenset(compress(table.points, map(below.__gt__, table.rows[i])))


def _radii(table: DistanceTable) -> list[Fraction]:
    """Occurring positive distances, ascending, then one radius past the largest.

    These radii realize every distinct open ball: a radius between two
    consecutive distances gives the balls of the larger one, and the radius
    past the maximum gives the whole space.
    """
    vals = table.values()
    return vals + [(vals[-1] if vals else Fraction(0)) + 1]


def build_cover_sequence(space: FiniteSpace, depth: int) -> CoverSequence:
    """Refining partitions from shrinking balls; level i uses radius 2^-(i+2).

    Blocks of level i then have diameter at most 2^-(i+1), and each level
    refines the previous one because new pieces are cut inside old blocks.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    pts = space.points
    ground = frozenset(pts)
    levels: list[list[frozenset]] = [[ground]]
    for i in range(depth):
        radius = Fraction(1, 2 ** (i + 2))
        balls = [_ball(space, k, radius) for k in range(len(pts))]
        levels.append(disjointify([nb & u for u in levels[-1] for nb in balls], ground))
    seq = CoverSequence(levels[1:])
    for li, blocks in enumerate(seq.levels):
        limit = space.scale >> (li + 1)  # an int v > scale / 2^(li+1) exactly when v > limit
        for b in blocks:
            members = [space.index[x] for x in b]
            if any(max(map(space.rows[a].__getitem__, members)) > limit for a in members):
                bound = Fraction(1, 2 ** (li + 1))
                raise RuntimeError(f"internal error: level {li} block exceeds diameter {bound}")
    return seq


def ultrametric_from_covers(seq: CoverSequence, ground: Iterable) -> DistanceTable:
    """Distance 1/(k+1) where k is the first level separating the pair."""
    ground = frozenset(ground)
    if ground != seq.ground:
        raise ValueError("ground set does not match the cover sequence")
    pts = sorted(ground, key=_id_key)
    distances: dict[tuple, Fraction] = {}
    for i, x in enumerate(pts):
        for y in pts[i + 1 :]:
            k = next((level for level in range(seq.depth)
                      if seq.block_index_of(level, x) != seq.block_index_of(level, y)), None)
            if k is None:
                raise UnseparatedPairError(
                    (x, y),
                    f"points {x!r} and {y!r} are never separated within depth {seq.depth}",
                )
            distances[(x, y)] = Fraction(1, k + 1)
    return DistanceTable(pts, distances)


@dataclass(frozen=True)
class UltrametricReport:
    strong_triangle: PropertyCheck
    isosceles: PropertyCheck

    @property
    def all_passed(self) -> bool:
        return self.strong_triangle.passed and self.isosceles.passed

    def as_json(self) -> dict:
        return {
            "strong_triangle": self.strong_triangle.as_json(),
            "isosceles": self.isosceles.as_json(),
            "passed": self.all_passed,
        }


def verify_ultrametric(table: DistanceTable) -> UltrametricReport:
    """Strong triangle inequality plus the two-largest-sides-equal property.

    A table is an ultrametric exactly when it equals its subdominant
    ultrametric, the minimax path distance, which a minimum spanning tree
    realizes (Gower & Ross 1969).  Prim's algorithm grows the tree; when v
    joins through p by an edge h, its minimax distance to every earlier tree
    vertex u is max(h, d(p, u)), as long as the table has matched so far.  If
    every value matches, the strong inequality holds on every triple, and so
    does the isosceles property: O(n^2) work.  Only on a mismatch are the
    triples scanned in order, to name the first failing ones.
    """
    m, n = table.rows, len(table.rows)
    best, parent = (list(m[0]) if n else []), [0] * n  # shortest edge into the tree
    tree, todo = [0], set(range(1, n))
    while todo:
        v = min(todo, key=best.__getitem__)
        row_v, row_p, h = m[v], m[parent[v]], best[v]
        if any(row_v[u] != max(h, row_p[u]) for u in tree):
            return _first_failing_triples(table)
        tree.append(v)
        todo.remove(v)
        for u in todo:
            if row_v[u] < best[u]:
                best[u], parent[u] = row_v[u], v
    return UltrametricReport(PropertyCheck.ok(), PropertyCheck.ok())


def _first_failing_triples(table: DistanceTable) -> UltrametricReport:
    """Scan i < j < k in order for the first failure of each property."""
    strong = isosceles = PropertyCheck.ok()
    pts, m, q, n = table.points, table.rows, table._frac, len(table.points)
    for i, row_i in enumerate(m):
        for j in range(i + 1, n):
            row_j, dij = m[j], row_i[j]
            for k in range(j + 1, n):
                dik, djk = row_i[k], row_j[k]
                sides = sorted([(dij, pts[i], pts[j]), (dik, pts[i], pts[k]),
                                (djk, pts[j], pts[k])], key=lambda t: t[0])
                if strong.passed and sides[2][0] > sides[1][0]:
                    v, x, y = sides[2]
                    strong = PropertyCheck.fail(
                        f"d({x}, {y}) = {q(v)} > max of the other two sides = {q(sides[1][0])}"
                    )
                if isosceles.passed and len({dij, dik, djk}) == 3:
                    isosceles = PropertyCheck.fail(
                        f"all three sides differ on ({pts[i]}, {pts[j]}, {pts[k]}): "
                        f"{q(dij)}, {q(dik)}, {q(djk)}"
                    )
                if not strong.passed and not isosceles.passed:
                    return UltrametricReport(strong, isosceles)
    return UltrametricReport(strong, isosceles)


_BALL_CHECKS = ("precondition_ultrametric", "nesting", "same_radius_coincide",
                "every_point_centers", "closed_ball_absorption", "equal_radius_partition")


@dataclass(frozen=True)
class BallPropertiesReport:
    ultrametric: UltrametricReport
    nesting: PropertyCheck
    same_radius_coincide: PropertyCheck
    every_point_centers: PropertyCheck
    closed_ball_absorption: PropertyCheck
    equal_radius_partition: PropertyCheck

    @property
    def precondition_ultrametric(self) -> PropertyCheck:
        um = self.ultrametric
        return PropertyCheck(
            um.all_passed, um.strong_triangle.counterexample or um.isosceles.counterexample
        )

    @property
    def all_passed(self) -> bool:
        return all(getattr(self, name).passed for name in _BALL_CHECKS)

    def as_json(self) -> dict:
        return {
            **{name: getattr(self, name).as_json() for name in _BALL_CHECKS},
            "passed": self.all_passed,
        }


def verify_ball_properties(table: DistanceTable) -> BallPropertiesReport:
    """Open-ball behaviour at every radius from ``_radii``.

    On a finite table the closed ball of radius v_k is the open ball at the
    next radius in the list, so absorption at one radius is checked against
    the open balls of the next, and only two radii's balls are alive at once.
    """
    um = verify_ultrametric(table)
    if not um.all_passed:
        skipped = PropertyCheck.fail("not checked: table is not an ultrametric")
        return BallPropertiesReport(um, skipped, skipped, skipped, skipped, skipped)

    pts = table.points
    all_points = frozenset(pts)
    nesting = coincide = centers = absorption = partition = PropertyCheck.ok()
    prev_ball_of, prev_distinct, prev_r = {}, [], None

    for r in _radii(table):
        ball_of = {x: _ball(table, i, r) for i, x in enumerate(pts)}
        owner: dict[frozenset, set] = {}
        for x in pts:
            owner.setdefault(ball_of[x], set()).add(x)
        distinct = sorted(owner, key=lambda b: _id_key(min(b, key=_id_key)))
        if coincide.passed and sum(len(b) for b in distinct) != len(pts):
            # every point lies in its own ball, so the balls overlap somewhere
            b1, b2 = next((b1, b2) for a_i, b1 in enumerate(distinct)
                          for b2 in distinct[a_i + 1 :] if b1 & b2)
            coincide = PropertyCheck.fail(
                f"radius {r}: distinct balls {_fmt_set(b1)} and {_fmt_set(b2)} meet"
            )
        if centers.passed:
            # ball around every member of B equals B, i.e. the points whose
            # ball is B are exactly the members of B
            b = next((b for b in distinct if owner[b] != set(b)), None)
            if b is not None:
                y = min((set(b) - owner[b]) or (owner[b] - set(b)), key=_id_key)
                centers = PropertyCheck.fail(
                    f"radius {r}: ball at {y} differs from the ball {_fmt_set(b)}"
                )
        if absorption.passed and prev_r is not None:
            # the closed balls at prev_r are the open balls at r; at the last
            # radius every ball is the whole space, so absorption is trivial there
            bad = next(((x, s) for s in distinct for x in s if not prev_ball_of[x] <= s), None)
            if bad is not None:
                absorption = PropertyCheck.fail(
                    f"radius {prev_r}: open ball at {bad[0]} leaves the closed ball "
                    f"{_fmt_set(bad[1])}"
                )
        if partition.passed:
            union = frozenset().union(*distinct) if distinct else frozenset()
            if union != all_points or sum(len(b) for b in distinct) != len(pts):
                partition = PropertyCheck.fail(
                    f"radius {r}: the distinct balls do not partition the space"
                )
        if nesting.passed and prev_distinct:
            # a ball at the smaller radius sits inside the ball at the larger
            # radius around any of its members; with same-radius disjointness
            # this pins down every intersecting pair across any radius gap
            b = next((b for b in prev_distinct if not b <= ball_of[next(iter(b))]), None)
            if b is not None:
                nesting = PropertyCheck.fail(
                    f"radii {prev_r} <= {r}: ball {_fmt_set(b)} is not inside "
                    f"{_fmt_set(ball_of[next(iter(b))])}"
                )
        prev_ball_of, prev_distinct, prev_r = ball_of, distinct, r

    return BallPropertiesReport(um, nesting, coincide, centers, absorption, partition)


@dataclass(frozen=True)
class BaseEqualityReport:
    equality: PropertyCheck
    ball_system_size: int
    base_system_size: int

    @property
    def all_passed(self) -> bool:
        return self.equality.passed

    def as_json(self) -> dict:
        return {
            "equality": self.equality.as_json(),
            "ball_system_size": self.ball_system_size,
            "base_system_size": self.base_system_size,
            "passed": self.all_passed,
        }


def verify_base_equality(seq: CoverSequence) -> BaseEqualityReport:
    """Ball system of the ultrametric read off seq == all blocks plus the whole space.

    The open balls at the radii from ``_radii`` are all the distinct open
    balls: the one at a distance 1/(k+1) is a level-k block, and the one past
    the largest distance is the whole space.
    """
    table = ultrametric_from_covers(seq, seq.ground)
    balls = {_ball(table, i, r) for r in _radii(table) for i in range(len(table.points))}
    base = {b for blocks in seq.levels for b in blocks} | {seq.ground}
    if balls == base:
        check = PropertyCheck.ok()
    elif balls - base:
        check = PropertyCheck.fail(
            f"ball {_fmt_set(next(iter(balls - base)))} is not a block or the whole space"
        )
    else:
        check = PropertyCheck.fail(
            f"block {_fmt_set(next(iter(base - balls)))} is not realized as a ball"
        )
    return BaseEqualityReport(check, len(balls), len(base))


def sierpinski_embed(seq: CoverSequence) -> dict:
    """Each point's stream of block indices, one digit per level.

    Two points share digit i exactly when level i keeps them together, so the
    first-difference distance of the images equals the separation ultrametric.
    """
    return {
        x: BairePrefix(tuple(seq.block_index_of(level, x) for level in range(seq.depth)))
        for x in sorted(seq.ground, key=_id_key)
    }
