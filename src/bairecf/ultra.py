"""Finite-model laboratory: refining partitions, ultrametrics, verification.

A finite metric space goes through the zero-dimensionality pipeline: shrink balls into
refining partitions (``build_cover_sequence``), read an ultrametric off each pair's
separation level (``ultrametric_from_covers``), verify the strong triangle inequality
and the open-ball phenomena, re-check that the balls are the blocks plus the whole
space, and embed the points isometrically into the integer-sequence space
(``sierpinski_embed``).  A table is an ultrametric exactly when, at each radius of
the ball sweep, every ball is centered at each of its members, and that one fact
gives all the ball phenomena, so one sweep decides both.  Base equality on separating
covers is a theorem, so its failure is an internal error.

Everything from the input to the verdict is an int.  ``table_from_json`` reads each
``"p/q"`` as a reduced (numerator, denominator) pair.  A table is its distinct entries over
the lcm of its denominators (d < r exactly when d * scale < ceil(r * scale)) and a row of
ranks among them per point, read as one int with a guard bit atop each field, so the balls,
the witness and the metric check (on capped entries packed from the ranks) compare rows.
A ball or a peeled piece is a mask with bit k for ``points[k]``, whose lowest set bit is
its smallest member; a cover sequence has frozenset blocks and one digit list per point.
``Fraction``s are made only for answers, messages and the JSON payloads.  JSON inputs past
``MAX_POINTS`` points, or ``MAX_MATRIX_BITS`` bits of matrix (points squared times the
bits of the scale, which can grow without bound), are refused before any table is built,
and so is an empty space.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections import defaultdict
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import cache, reduce
from itertools import accumulate, chain, combinations, compress, count, pairwise, repeat
from math import gcd, lcm
from operator import add, eq, or_, xor
from sys import byteorder

from .baire import BairePrefix
from .rational import parse_rational, rational_pairs
from .report import PropertyCheck

MAX_POINTS = 800
MAX_MATRIX_BITS = 1 << 25
_CAP_BITS = 62  # entries the metric check packs: two fit below a 64-bit field's guard
_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


class UnseparatedPairError(ValueError):
    """Two points shared a block at every level of the sequence."""

    def __init__(self, pair, message):
        super().__init__(message)
        self.pair = pair


def _id_key(v):
    return (0, v, "") if isinstance(v, int) else (1, 0, str(v))


def _fmt_set(s: Iterable) -> str:
    return "{" + ", ".join(str(x) for x in sorted(s, key=_id_key)) + "}"


def _unhashable(ids) -> ValueError:
    """The error naming the first id that cannot be hashed."""
    for x in ids:
        try:
            hash(x)
        except TypeError:
            return ValueError(f"point id must be hashable: {x!r}")


def _select(items: Sequence, mask: int) -> list:
    """The items at the set bits of mask, in order."""
    return list(compress(items, bin(mask)[:1:-1].encode().translate(_BIT_BYTES)))


def _low(mask: int) -> int:
    """Position of the lowest set bit: the smallest member of a point set."""
    return (mask & -mask).bit_length() - 1


def _fields(bits: int, n: int) -> tuple[str, int, int, int]:
    """(code, w, ONES, G) for n fields, each the narrowest array item of at least bits bits,
    row[k] in field k of int.from_bytes(array(code, row), byteorder): a 1 in each, its guard."""
    code = next(c for c in "BHILQ" if 8 * array(c).itemsize >= bits)
    w = 8 * array(code).itemsize
    ones = ((1 << w * n) - 1) // ((1 << w) - 1)
    return code, w, ones, ones << w - 1


class DistanceTable:
    """Symmetric table of exact positive distances over a finite id set.

    ``_entries`` holds the distinct distances times ``scale``, the lcm of the denominators,
    ascending from 0; ``ranks[i][j]`` is the rank among them of the distance from ``points[i]``
    to ``points[j]``, and ``index`` maps points to positions.  ``distances`` maps pairs, or is
    (pair, distance) items, to what ``Fraction`` reads.  An int pair over a positive
    denominator is reduced as it is read, and any other tuple is ``Fraction(*tuple)``.  A pair
    may repeat, in either order, only with the same distance.
    """

    def __init__(self, points: Iterable, distances):
        pts = list(points)
        try:
            if len(set(pts)) != len(pts):
                raise ValueError("duplicate point ids")
        except TypeError:
            raise _unhashable(pts) from None
        pts.sort(key=_id_key)
        index, n = {x: i for i, x in enumerate(pts)}, len(pts)
        m: list[list] = [[None] * n for _ in range(n)]  # each pair's distance, as its id in ids
        ids: dict = defaultdict(count().__next__)  # each distinct reduced pair, numbered
        for key, v in distances.items() if isinstance(distances, Mapping) else distances:
            try:
                x, y = key
            except (TypeError, ValueError):
                raise ValueError(f"distance key is not a pair: {key!r}") from None
            try:
                i, j = index[x], index[y]
            except KeyError:
                raise ValueError(f"unknown point in pair {key!r}") from None
            except TypeError:
                raise _unhashable(key) from None
            if i == j:
                raise ValueError(f"diagonal entry for {x!r}; d(x, x) = 0 is implicit")
            if (v.__class__ is not tuple or len(v) != 2 or v[0].__class__ is not int
                    or v[1].__class__ is not int or v[1] <= 0 or gcd(*v) != 1):
                v = (Fraction(*v) if isinstance(v, tuple) else Fraction(v)).as_integer_ratio()
            if v[0] <= 0:
                raise ValueError(
                    f"distance for ({x!r}, {y!r}) must be positive, got {Fraction(*v)}")
            row, v = m[i], ids[v]
            if row[j] is not None and row[j] != v:  # reduced pairs: equal exactly when values are
                x, y = pts[min(i, j)], pts[max(i, j)]  # named in table order
                raise ValueError(f"conflicting distances for ({x!r}, {y!r})")
            row[j] = m[j][i] = v
        for i, row in enumerate(m):
            row[i] = ids[(0, 1)]
            if None in row:
                raise ValueError(f"missing distance for ({pts[i]!r}, {pts[row.index(None)]!r})")
        # lowest terms: each prime's power in the lcm is whole in some reduced denominator
        scale = lcm(*{den for _, den in ids})
        value = [num * (scale // den) for num, den in ids]
        rank = {k: r for r, k in enumerate(sorted(range(len(ids)), key=value.__getitem__))}
        self._fill(pts, scale, sorted(value), (map(rank.__getitem__, row) for row in m))

    def _fill(self, points: Sequence, scale: int, entries: list[int], ranks: Iterable):
        self.points, self.scale, self._entries = tuple(points), scale, entries
        self.index: dict = {x: i for i, x in enumerate(self.points)}
        # the rank rows' fields: array items one bit wider than the largest rank
        self._rank_fields = _fields((len(entries) - 1).bit_length() + 1, len(self.points))
        self.ranks: list[array] = [array(self._rank_fields[0], list(row)) for row in ranks]
        return self

    def _value(self, rank: int) -> Fraction:
        return Fraction(self._entries[rank], self.scale)

    def d(self, x, y) -> Fraction:
        return self._value(self.ranks[self.index[x]][self.index[y]])

    def pairs(self):
        return combinations(self.points, 2)

    def values(self) -> list[Fraction]:
        """Distinct positive distances, ascending."""
        return list(map(self._value, range(1, len(self._entries))))

    def same_table(self, other: "DistanceTable") -> bool:
        return ((self.points, self.scale, self._entries, self.ranks)
                == (other.points, other.scale, other._entries, other.ranks))

    def as_json(self) -> dict:
        text, pts = list(map(str, map(self._value, range(len(self._entries))))), self.points
        return {"points": list(pts), "dist": [[x, y, text[r]] for i, (x, row) in enumerate(
            zip(pts, self.ranks)) for y, r in zip(pts[i + 1:], row[i + 1:])]}


class FiniteSpace(DistanceTable):
    """Distance table satisfying the triangle inequality (a genuine metric)."""

    def __init__(self, points: Iterable, distances):
        super().__init__(points, distances)
        pts, n, es = self.points, len(self.points), self._entries or [0]
        # fields hold entries capped at 2^(w-2) - 1, w set by the largest entry within _CAP_BITS:
        # a capped sum is exact for d_ij up to the cap, and a pair past it is read entry by entry
        code, w, ones, g = _fields(es[bisect_left(es, 1 << _CAP_BITS) - 1].bit_length() + 2, n)
        cap = (1 << w - 2) - 1
        exact = [list(map(es.__getitem__, row)) for row in self.ranks]  # dropped after the check
        packed = [int.from_bytes(array(code, row if es[-1] <= cap else [min(v, cap) for v in row]),
                                 byteorder) for row in exact]
        for i, row_i in enumerate(exact):
            for j, d in enumerate(row_i[i + 1:], i + 1):
                if d > cap:  # entry by entry, looking for k only when one fails
                    k = (next(compress(range(n), map(d.__gt__, map(add, exact[i], exact[j]))))
                         if min(map(add, exact[i], exact[j])) < d else -1)
                else:  # field k's guard clears when d_ik + d_jk < d, which needs k != i, j
                    k = _low(g ^ ((packed[i] + packed[j]) | g) - d * ones & g) // w
                if k >= 0:
                    x, y, z = pts[i], pts[j], pts[k]
                    raise ValueError(
                        f"triangle inequality fails: d({x!r}, {y!r}) = {self.d(x, y)} > "
                        f"d({x!r}, {z!r}) + d({z!r}, {y!r}) = {self.d(x, z)} + {self.d(z, y)}")


def _check_points(n: int) -> None:
    if n > MAX_POINTS:
        raise ValueError(f"{n} points exceed the budget {MAX_POINTS}")


def _check_ids(ids: list) -> None:
    """Ids read from JSON must be exactly strings or integers: no booleans or floats."""
    if not set(map(type, ids)) <= {str, int}:
        x = next(x for x in ids if type(x) not in (str, int))
        raise ValueError(f"point id must be a string or integer: {x!r}")


def table_from_json(obj, require_metric: bool = False) -> DistanceTable:
    if not isinstance(obj, dict) or "points" not in obj or "dist" not in obj:
        raise ValueError('expected {"points": [...], "dist": [[i, j, "p/q"], ...]}')
    points, rows = obj["points"], obj["dist"]
    if not isinstance(points, list):
        raise ValueError("points must be a list of ids")
    _check_points(len(points))
    if not points:
        raise ValueError("need at least one point")
    _check_ids(points)
    if not isinstance(rows, list):
        raise ValueError("dist must be a list of rows")
    if not (all(map(isinstance, rows, repeat(list))) and all(map((3).__eq__, map(len, rows)))):
        for row in rows:  # the first bad row, unless an earlier value does not parse
            if not isinstance(row, list) or len(row) != 3:
                raise ValueError(f"bad dist row: {row!r}")
            parse_rational(str(row[2]))
    xs, ys, values = zip(*rows) if rows else ((), (), ())
    pairs = rational_pairs(list(map(str, values)))
    # the lcm stops growing as soon as the matrix it implies passes the budget
    scale, squared = 1, len(points) ** 2
    for den in {den for _, den in pairs}:
        scale = lcm(scale, den)
        size = squared * scale.bit_length()
        if size > MAX_MATRIX_BITS:
            raise ValueError(
                f"matrix of at least {size} bits exceeds the budget {MAX_MATRIX_BITS}")
    _check_ids(list(chain.from_iterable(zip(xs, ys))))
    return (FiniteSpace if require_metric else DistanceTable)(points, zip(zip(xs, ys), pairs))


def disjointify(sets: Sequence[Iterable], ground: Iterable) -> list[frozenset]:
    """Peel each set down to its not-yet-covered part, dropping empties: a partition
    of the ground set, which the sets must cover and stay inside."""
    ground, out, seen = frozenset(ground), [], set()
    for b in map(frozenset, sets):
        if not b <= ground:
            raise ValueError(f"input set strays outside the ground set: {_fmt_set(b - ground)}")
        if b - seen:
            out.append(b - seen)
        seen |= b
    if seen != ground:
        raise ValueError(f"input does not cover the ground set; missing {_fmt_set(ground - seen)}")
    return out


class CoverSequence:
    """Refining sequence of partitions of a finite ground set: ``points`` in
    ``DistanceTable``'s id order, blocks ordered by smallest member.  Validation
    records each point's digits, its block index at every level; two points' first
    differing digit is the level that separates them, which the ultrametric reads."""

    def __init__(self, levels: Sequence[Sequence[Iterable]]):
        if not levels:
            raise ValueError("need at least one level")
        canon: list[list[frozenset]] = []
        for level in levels:
            try:
                canon.append([frozenset(b) for b in level])
            except TypeError:
                raise _unhashable(x for b in level for x in b) from None
            if not all(canon[-1]):
                raise ValueError("empty block")
        # the smallest key in a block is the key of its smallest member
        key = {x: _id_key(x) for x in frozenset().union(*chain.from_iterable(canon))}
        for blocks in canon:
            blocks.sort(key=lambda b: min(map(key.__getitem__, b)))
        self.levels: tuple[tuple[frozenset, ...], ...] = tuple(map(tuple, canon))
        self.ground: frozenset = frozenset().union(*self.levels[0])
        if not self.ground:
            raise ValueError("need at least one point")
        self.points: tuple = tuple(sorted(self.ground, key=key.__getitem__))
        columns: list[list[int]] = []  # per level, each point's block index
        for li, blocks in enumerate(self.levels):
            where = {x: bi for bi, b in enumerate(blocks) for x in b}
            if len(where) != sum(map(len, blocks)):
                earlier = accumulate(blocks, or_, initial=frozenset())
                shared = next(b & s for b, s in zip(blocks, earlier) if b & s)
                raise ValueError(f"level {li}: blocks overlap at {min(shared, key=_id_key)!r}")
            if where.keys() != self.ground:
                raise ValueError(f"level {li} does not cover the ground set")
            columns.append(list(map(where.__getitem__, self.points)))
            # each block lies in a single parent exactly when it makes one (block, parent) pair
            links = set(zip(columns[-1], columns[-2])) if li else ()
            if len(links) > len(blocks):
                bi = next(a for (a, _), (b, _) in pairwise(sorted(links)) if a == b)
                raise ValueError(f"level {li}: block {_fmt_set(blocks[bi])} not inside a single "
                                 f"level-{li - 1} block")
        self._digits: dict = dict(zip(self.points, zip(*columns)))

    @property
    def depth(self) -> int:
        return len(self.levels)

    def as_json(self) -> dict:
        return {"levels": [[sorted(b, key=_id_key) for b in blocks] for blocks in self.levels]}


def covers_from_json(obj) -> CoverSequence:
    levels = obj.get("levels") if isinstance(obj, dict) else None
    if isinstance(levels, list) and levels and isinstance(levels[0], list):
        _check_points(sum(len(b) for b in levels[0] if isinstance(b, list)))
    if not isinstance(levels, list) or not all(
            isinstance(level, list) and all(map(isinstance, level, repeat(list)))
            for level in levels):
        raise ValueError('expected {"levels": [[[id, ...], ...], ...]}')
    _check_ids(list(chain.from_iterable(chain.from_iterable(levels))))
    return CoverSequence(levels)


def _balls(table: DistanceTable, r: Fraction) -> list[int]:
    """Every point's open ball of radius r as a mask: the entries below ceil(r * scale), the
    t smallest distinct entries, whose rank guards clear in (row | G) - t * ONES."""
    _, w, ones, guards = table._rank_fields
    t = bisect_left(table._entries, -(-r.numerator * table.scale // r.denominator))
    return [int(bin((guards ^ ((int.from_bytes(row, byteorder) | guards) - t * ones & guards))
                    >> w - 1)[:1:-1][::w][::-1], 2) for row in table.ranks]


def build_cover_sequence(space: FiniteSpace, depth: int) -> CoverSequence:
    """Refining partitions from shrinking balls; level i uses radius 2^-(i+2).

    The balls peel each block of the previous level (the whole space first) in
    point order, ``ball & block & ~seen``; pieces of diameter > 2^-(i+1) are an error.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    pts, ranks, positions = space.points, space.ranks, range(len(space.points))
    levels, blocks, members = [], [(1 << len(pts)) - 1], [list(positions)]
    for i in range(depth):
        balls = _balls(space, Fraction(1, 2 ** (i + 2)))
        pieces = []
        for rest, ms in zip(blocks, members):
            near = reduce(or_, map(balls.__getitem__, ms), 0)  # the balls that meet the block
            while rest:
                center = _low(near)
                near ^= 1 << center
                if balls[center] & rest:
                    pieces.append(balls[center] & rest)
                    rest &= ~pieces[-1]
        blocks, members = pieces, [_select(positions, piece) for piece in pieces]
        top = bisect_right(space._entries, space.scale >> (i + 1))  # first rank past 2^-(i+1)
        if any(max(map(ranks[a].__getitem__, ms)) >= top for ms in members for a in ms):
            raise RuntimeError(f"internal error: level {i} block exceeds diameter 1/{2 << i}")
        levels.append([list(map(pts.__getitem__, ms)) for ms in members])
    return CoverSequence(levels)


def ultrametric_from_covers(seq: CoverSequence, ground: Iterable) -> DistanceTable:
    """Distance 1/(k+1) where k is the first level separating the pair: the first
    index at which the two points' digits differ, their sequence-space distance."""
    if frozenset(ground) != seq.ground:
        raise ValueError("ground set does not match the cover sequence")
    pts, b, depth, last = seq.points, len(seq.points).bit_length(), seq.depth, seq.levels[-1]
    if len(last) < len(pts):  # the first pair sharing a block at the last level
        x, y = sorted(next(block for block in last if len(block) > 1), key=_id_key)[:2]
        raise UnseparatedPairError(
            (x, y), f"points {x!r} and {y!r} are never separated within depth {depth}")
    # 1/(k+1) is an entry when level k splits a level-(k-1) block; rank it from the deepest
    used = [k for k, (a, c) in enumerate(pairwise([1, *map(len, seq.levels)]), 1) if c > a][::-1]
    scale, digits = lcm(*used), f"{{:0{b}b}}" * depth
    rank, entries = {k: r for r, k in enumerate(used, 1)}, [0, *(scale // k for k in used)]
    # each point's digits as b-bit fields, level 0 highest: an XOR's bit length names the split
    keys = [int(digits.format(*ds), 2) for ds in seq._digits.values()]
    by_high = [0, *(rank.get(depth - (h - 1) // b, 0) for h in range(1, b * depth + 1))]
    rows = (map(by_high.__getitem__, map(int.bit_length, map(xor, repeat(k), keys))) for k in keys)
    return DistanceTable.__new__(DistanceTable)._fill(pts, scale, entries, rows)


@dataclass(frozen=True)
class UltrametricReport:
    strong_triangle: PropertyCheck
    isosceles: PropertyCheck

    @property
    def all_passed(self) -> bool:
        return self.strong_triangle.passed and self.isosceles.passed

    def as_json(self) -> dict:
        return {**asdict(self), "passed": self.all_passed}


def verify_ultrametric(table: DistanceTable) -> UltrametricReport:
    """Strong triangle inequality plus the two-largest-sides-equal property.

    An ultrametric on n points is a merge tree, so its table holds at most n distinct
    entries, 0 and one height per merge (Johnson 1967).  Within that bound the table is an
    ultrametric exactly when every radius of the ball sweep is centered (see ``_centered``).
    Only a failure scans the triples, to name the first failures.
    """
    if (len(table._entries) <= len(table.points)
            and all(_centered(balls) for _, balls in _ball_sweep(table))):
        return UltrametricReport(PropertyCheck.ok(), PropertyCheck.ok())
    return _first_failing_triples(table)


def _first_failing_triples(table: DistanceTable) -> UltrametricReport:
    """Scan i < j < k in order for the first failure of each property: per pair, six packed
    compares over the fields k > j mark each failing k, and the lowest guard is the first."""
    strong = isosceles = PropertyCheck.ok()
    (_, w, ones, guards), pts, ranks = table._rank_fields, table.points, table.ranks
    packed, q, n = cache(lambda i: int.from_bytes(ranks[i], byteorder)), table._value, len(pts)
    # with at most two distances no side triple is all distinct: stop at the first strong failure
    few = len(table._entries) <= 3
    for i in range(n):
        row_i, o, g = ranks[i], ones >> (i + 1) * w, guards >> (i + 1) * w
        for j in range(i + 1, n - 1):
            s, o, g = (j + 1) * w, o >> w, g >> w  # the fields k > j, shifted down to field 0
            a, b, d = packed(i) >> s, packed(j) >> s, row_i[j] * o
            # field by field, the guards where x >= y
            a_d, d_a, b_d, d_b, a_b, b_a = (((x | g) - y) & g for x, y in (
                (a, d), (d, a), (b, d), (d, b), (a, b), (b, a)))
            # a unique largest side is above both others; three distinct sides tie nowhere
            tops = g ^ ((a_d | b_d) & (d_a | b_a) & (d_b | a_b))
            distinct = g ^ ((a_d & d_a) | (b_d & d_b) | (a_b & b_a))
            if strong.passed and tops:
                k = _low(tops) // w + j + 1
                sides = sorted([(row_i[j], pts[i], pts[j]), (row_i[k], pts[i], pts[k]),
                                (ranks[j][k], pts[j], pts[k])], key=lambda t: t[0])
                v, x, y = sides[2]
                strong = PropertyCheck.fail(
                    f"d({x}, {y}) = {q(v)} > max of the other two sides = {q(sides[1][0])}")
            if isosceles.passed and distinct:
                k = _low(distinct) // w + j + 1
                isosceles = PropertyCheck.fail(
                    f"all three sides differ on ({pts[i]}, {pts[j]}, {pts[k]}): "
                    f"{q(row_i[j])}, {q(row_i[k])}, {q(ranks[j][k])}")
            if not strong.passed and (few or not isosceles.passed):
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
        return PropertyCheck(um.all_passed, um.strong_triangle.counterexample or
                             um.isosceles.counterexample)

    @property
    def all_passed(self) -> bool:
        return all(getattr(self, name).passed for name in _BALL_CHECKS)

    def as_json(self) -> dict:
        return {**{name: getattr(self, name).as_json() for name in _BALL_CHECKS},
                "passed": self.all_passed}


def _ball_sweep(table: DistanceTable):
    """Each radius, in scale units, with every point's open ball as a mask.  The radii,
    the distances ascending and one past the largest, realize every distinct open ball;
    each ball grows by the points at the previous radius."""
    at, bits = [{} for _ in table.ranks], [1 << j for j in range(len(table.ranks))]
    for by_rank, row in zip(at, table.ranks):  # per point: rank -> mask of the points at it
        for v, bit in zip(row, bits):
            by_rank[v] = by_rank.get(v, 0) | bit
    values, balls = table._entries, [0] * len(at)
    for prev, r in enumerate(values[1:] + [v + table.scale for v in values[-1:]]):
        balls = [ball | by_rank.get(prev, 0) for ball, by_rank in zip(balls, at)]
        yield r, balls


def _centered(balls: list[int]) -> bool:
    """Each ball is the set of points whose ball it is.  True at every radius exactly
    on an ultrametric: if d(x, z) > max(d(x, y), d(y, z)), the ball of y at radius
    d(x, z) holds x and z, while the ball of x does not hold z."""
    owner: dict = {}  # ball -> the points whose ball it is
    for i, ball in enumerate(balls):
        owner[ball] = owner.get(ball, 0) | 1 << i
    return all(map(eq, owner, owner.values()))


def verify_ball_properties(table: DistanceTable) -> BallPropertiesReport:
    """Open-ball behaviour at every radius of the sweep, on an ultrametric table.

    In an ultrametric each open ball is centered at every member, so at each radius the
    distinct balls partition the space, two balls of one radius coincide or are disjoint, a
    closed ball (the open ball at the next radius) absorbs the open balls at its members, and
    balls nest as the radius grows.  ``verify_ultrametric`` decides centering, so its verdict
    gives all five.
    """
    um = verify_ultrametric(table)
    check = (PropertyCheck.ok() if um.all_passed
             else PropertyCheck.fail("not checked: table is not an ultrametric"))
    return BallPropertiesReport(um, *[check] * 5)


@dataclass(frozen=True)
class BaseEqualityReport:
    equality: PropertyCheck
    ball_system_size: int
    base_system_size: int

    @property
    def all_passed(self) -> bool:
        return self.equality.passed

    def as_json(self) -> dict:
        return {**asdict(self), "passed": self.all_passed}


def verify_base_equality(seq: CoverSequence) -> BaseEqualityReport:
    """Ball system of the ultrametric read off seq, from the table alone, == all blocks
    plus the whole space, as sets of masks.  A theorem for a separating seq: the open
    ball at a radius in (1/(j+1), 1/j] is the level-(j-1) block, past 1 the whole space."""
    table = ultrametric_from_covers(seq, seq.ground)
    balls = {ball for _, row in _ball_sweep(table) for ball in row}
    base = {sum(1 << table.index[x] for x in b) for b in chain(*seq.levels, [seq.ground])}
    if balls != base:
        odd = _fmt_set(_select(table.points, min(balls ^ base)))
        raise RuntimeError(f"internal error: {odd} is a ball or a block, not both")
    return BaseEqualityReport(PropertyCheck.ok(), len(balls), len(base))


def sierpinski_embed(seq: CoverSequence) -> dict:
    """Each point's digits, its block index at every level: two points share digit i
    exactly when level i keeps them together, so the embedding is isometric."""
    return {x: BairePrefix(digits) for x, digits in seq._digits.items()}
