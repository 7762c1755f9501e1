"""Independent oracles the tests check library answers against.

Nothing here calls the expansion or comparison code under test: periodic
words become surds by solving the period's fixed-point quadratic, order
against a rational is decided with integer square-root bounds at growing
precision, and finite words are valued by folding them back to front in
``Fraction`` arithmetic, never through the convergent recurrence.  Finite
distance tables are read only through ``points`` and ``d``; balls, radii and
the ball phenomena are rebuilt by brute force.  The exceptions are
``cover_levels_oracle``, the level-list cover verifier the streamed walk
replaced, and ``cover_walk_oracle``, that walk with a stack entry and pair
comparisons per word: both read states from the fold the walk also uses, so
the verifiers can be compared on the same, possibly corrupted, states.  The point
and word front end keeps its per-entry loops here (token parsing, point and
digit validation, ``value_at``-based first difference and prefix, and the
whole-word regex of ``parse_cf``), as the reference for the builtin scans
that replaced them, and the surd digit loop
(``QuadraticSurd.floor`` then ``recip_frac``, one surd per digit) is the
reference for the integer (P + sqrt(D))/Q recurrence of ``expand_surd``.
The two mirrored psi bodies are the reference for the one recoding, and the
ball check with a point and a ``phi_forward`` per sample the reference for
the one that pushes its samples onto the prefix's fold.
The finite-space lab keeps its ``Fraction`` and ``frozenset`` versions here as
the references for the integer pairs, bitmasks and digit lists that replaced
them: the per-entry table loader, the frozenset ball peel, the pair-by-pair
separation levels read from the blocks, the frozenset ball sweep and the
frozenset ball system.
"""

import re
from bisect import bisect_right
from fractions import Fraction
from itertools import product
from math import gcd, isqrt

import bairecf.cover as cover
from bairecf import Baire2Prefix, BairePrefix, InsufficientPrecisionError, QuadraticSurd
from bairecf.cf import _EMPTY
from bairecf.cover import _CHECKS, CoverMember, CoverReport, IntervalQ, _ends
from bairecf.homeo import BallImageCheck, phi_forward
from bairecf.rational import INT_DIGITS, check_digit_budget, parse_rational
from bairecf.report import PropertyCheck
from bairecf.ultra import (
    BallPropertiesReport,
    BaseEqualityReport,
    CoverSequence,
    UltrametricReport,
    UnseparatedPairError,
)


def mobius_surd(a, b, c, d, s: QuadraticSurd) -> QuadraticSurd:
    """(a*s + b) / (c*s + d), rationalized by the conjugate."""
    n1, nq = a * s.p + b * s.r, a * s.q
    d1, dq = c * s.p + d * s.r, c * s.q
    den = d1 * d1 - dq * dq * s.d
    return QuadraticSurd(n1 * d1 - nq * dq * s.d, nq * d1 - n1 * dq, s.d, den)


def periodic_surd(head: tuple, block: tuple) -> QuadraticSurd:
    """Exact value of the word head followed by block repeated forever.

    The pure-period value y is the positive root of c*y^2 + (d-a)*y - b = 0
    where [[a,b],[c,d]] is the product of the digit matrices [[digit,1],[1,0]];
    head digits are then folded on via x -> digit + 1/x.
    """
    a, b, c, d = 1, 0, 0, 1
    for digit in block:
        a, b, c, d = a * digit + b, a, c * digit + d, c
    disc = (d - a) ** 2 + 4 * b * c
    y = QuadraticSurd(a - d, 1, disc, 2 * c)
    for digit in reversed(head):
        y = mobius_surd(digit, 1, 1, 0, y)
    return y


def compare_oracle(s: QuadraticSurd, x) -> str:
    """"GT" or "LT" for s versus the rational x, by interval refinement."""
    x = Fraction(x)
    digits = 30
    while True:
        scale = 10 ** digits
        lo = isqrt(s.d * scale * scale)  # lo <= sqrt(d)*scale < lo + 1
        if s.q >= 0:
            num_lo, num_hi = s.q * lo, s.q * (lo + 1)
        else:
            num_lo, num_hi = s.q * (lo + 1), s.q * lo
        lhs_lo = (s.p * scale + num_lo) * x.denominator
        lhs_hi = (s.p * scale + num_hi) * x.denominator
        rhs = x.numerator * s.r * scale
        if lhs_lo > rhs:
            return "GT"
        if lhs_hi < rhs:
            return "LT"
        digits *= 2


def expand_surd_oracle(s: QuadraticSurd, depth: int) -> tuple:
    """First depth+1 digits of s: floor, then 1/(s - floor(s)) as a new surd."""
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    digits = [s.floor()]
    for _ in range(depth):
        s = s.recip_frac()
        digits.append(s.floor())
    return tuple(digits)


def fold_value(digits, tail=None) -> Fraction:
    """Value of the word digits + (tail,), folded back to front: a + 1/acc."""
    digits = tuple(digits)
    if tail is None:
        digits, tail = digits[:-1], digits[-1]
    acc = Fraction(tail)
    for a in reversed(digits):
        acc = a + 1 / acc
    return acc


def interval_oracle(word) -> tuple:
    """(lo, hi) of a word's interval: its value and the value with the last
    digit bumped, each folded on its own, in increasing order."""
    word = tuple(word)
    v = fold_value(word)
    bumped = fold_value(word[:-1] + (word[-1] + 1,))
    return (v, bumped) if v < bumped else (bumped, v)


def cover_slice_oracle(max_level, a0_range, digit_max) -> tuple:
    """(words, max interval length by level) of a cover slice, word by word."""
    lo, hi = a0_range
    words, max_length = 0, {}
    for level in range(max_level + 1):
        for head in range(lo, hi + 1):
            for rest in product(range(1, digit_max + 1), repeat=level):
                a, b = interval_oracle((head, *rest))
                max_length[level] = max(max_length.get(level, 0), b - a)
                words += 1
    return words, max_length


def cover_levels_oracle(max_level, a0_range, digit_max) -> CoverReport:
    """The cover verifier as four passes over whole levels of members.

    Every level is a list in parent-major order (member c's parent is member
    c // digit_max); disjointness sorts each level, refinement re-sorts the
    parent level and bisects it for the member bracketing each child, closure
    looks two levels up, and mesh subtracts ``Fraction`` endpoints.  States
    come from ``bairecf.cover._fold`` looked up at call time, so a test that
    patches it corrupts the states both verifiers read.
    """
    def _interval(state):
        lo, hi = _ends(state)
        return IntervalQ(Fraction(*lo), Fraction(*hi))

    heads, digits = range(a0_range[0], a0_range[1] + 1), range(1, digit_max + 1)
    states = [cover._fold((a0,)) for a0 in heads]
    levels = [[CoverMember(0, (a0,), _interval(st)) for a0, st in zip(heads, states)]]
    for level in range(1, max_level + 1):
        states = [cover._fold((k,), st) for st in states for k in digits]
        words = (m.word + (k,) for m in levels[-1] for k in digits)
        levels.append([CoverMember(level, w, _interval(st)) for w, st in zip(words, states)])

    def disjoint():
        for members in levels:
            ordered = sorted(members, key=lambda m: (m.interval.lo, m.interval.hi))
            for a, b in zip(ordered, ordered[1:]):
                if not a.interval.disjoint_from(b.interval):
                    return PropertyCheck.fail(
                        f"level {a.level}: {a.word} {a.interval} overlaps {b.word} {b.interval}"
                    )
        return PropertyCheck.ok()

    def refinement():
        for level in range(1, len(levels)):
            prev = levels[level - 1]
            parents = sorted(prev, key=lambda m: m.interval.lo)
            keys = [m.interval.lo for m in parents]
            for c, m in enumerate(levels[level]):
                parent = prev[c // digit_max]
                if not parent.interval.contains_interval(m.interval):
                    return PropertyCheck.fail(
                        f"{m.word} {m.interval} not inside parent {parent.word} {parent.interval}"
                    )
                i = bisect_right(keys, m.interval.lo) - 1
                if i < 0 or parents[i].word != parent.word:
                    witness = parents[i].word if i >= 0 else None
                    return PropertyCheck.fail(
                        f"{m.word} is bracketed by member {witness}, not its parent word"
                    )
        return PropertyCheck.ok()

    def closure():
        for level in range(2, len(levels)):
            grands = levels[level - 2]
            for c, m in enumerate(levels[level]):
                grand = grands[c // digit_max**2]
                if not grand.interval.contains_closure_of(m.interval):
                    return PropertyCheck.fail(
                        f"closure of {m.word} {m.interval} not inside {grand.word} {grand.interval}"
                    )
        return PropertyCheck.ok()

    def mesh():
        max_by_level = {}
        for level, members in enumerate(levels):
            max_by_level[level] = max(m.interval.length for m in members)
            bound = Fraction(1, level + 1)
            for m in members:
                length = m.interval.length
                if level == 0 and length != 1:
                    fail = f"level-0 member {m.word} has length {length} != 1"
                elif level == 1 and length > bound:
                    fail = f"level-1 member {m.word} has length {length} > 1/2"
                elif level >= 2 and length >= bound:
                    fail = f"level-{level} member {m.word} has length {length} >= {bound}"
                else:
                    continue
                return PropertyCheck.fail(fail), max_by_level
        return PropertyCheck.ok(), max_by_level

    mesh_check, max_by_level = mesh()
    return CoverReport(
        disjoint=disjoint(),
        refinement=refinement(),
        closure_refinement=closure(),
        mesh=mesh_check,
        max_length_by_level=max_by_level,
        words_checked=sum(map(len, levels)),
    )


def _cmp(a: tuple[int, int], b: tuple[int, int]) -> int:
    """A number with the sign of a - b, for (numerator, positive denominator) pairs."""
    return a[0] * b[1] - b[0] * a[1]


def _show(word: tuple[int, ...], lo: tuple[int, int], hi: tuple[int, int]) -> str:
    return f"{word} ({Fraction(*lo)}, {Fraction(*hi)})"


def cover_walk_oracle(max_level, a0_range, digit_max) -> CoverReport:
    """The streamed cover walk with one stack entry, one ``next()``, one
    ``_ends`` and pair comparisons per word, as it stood before its checks
    were inlined.  It reads states from ``bairecf.cover._fold`` at call time,
    so it sees the same corrupted states as the verifier, and must agree with
    it on the whole report, counterexamples included.
    """
    a0_lo, a0_hi = a0_range
    if max_level < 0:
        raise ValueError(f"max_level must be >= 0, got {max_level}")
    if a0_lo > a0_hi:
        raise ValueError(f"empty a0 range: [{a0_lo}, {a0_hi}]")
    if digit_max < 1:
        raise ValueError(f"digit_max must be >= 1, got {digit_max}")

    orders = (range(digit_max, 0, -1), range(1, digit_max + 1))
    last = [None] * (max_level + 1)  # per level, the member met last
    longest = [(0, 1)] * (max_level + 1)  # per level, the largest length
    fails: dict[str, tuple] = {}  # check -> (ordering key, counterexample)
    words = 0

    def fail(check, key, counterexample):
        if check not in fails or key < fails[check][0]:
            fails[check] = (key, counterexample)

    # Entries are (member, state, digits left to push); the root is the empty word.
    stack = [(((), None, None), _EMPTY, iter(range(a0_lo, a0_hi + 1)))]
    while stack:
        parent, state, todo = stack[-1]
        k = next(todo, None)
        if k is None:
            stack.pop()
            continue
        level, word, state = len(stack) - 1, parent[0] + (k,), cover._fold((k,), state)
        lo, hi = _ends(state)
        member, prev, words = (word, lo, hi), last[level], words + 1
        last[level] = member
        if prev is not None and _cmp(prev[2], lo) > 0:
            relation = "overlaps" if _cmp(hi, prev[1]) > 0 else "is walked before but lies above"
            fail("disjoint", level, f"level {level}: {_show(*prev)} {relation} {_show(*member)}")
        if level >= 1 and (_cmp(parent[1], lo) > 0 or _cmp(hi, parent[2]) > 0):
            fail("refinement", (level, word),
                 f"{_show(*member)} not inside parent {_show(*parent)}")
        # Closures poke out one level up through the shared endpoint of the k=1
        # child, but sit strictly inside the open interval two levels up.
        grand = stack[-2][0] if level >= 2 else None
        if grand and (_cmp(grand[1], lo) >= 0 or _cmp(hi, grand[2]) >= 0):
            fail("closure_refinement", (level, word),
                 f"closure of {_show(*member)} not inside {_show(*grand)}")
        # Lengths are exactly 1 at level 0; at level 1, 1/(k(k+1)) tops out at
        # 1/2, attained at k = 1; from level 2 on the strict bound 1/(level+1) holds.
        p, q, p0, q0 = state
        length = (abs(p * q0 - p0 * q), q * (q + q0))
        if _cmp(length, longest[level]) > 0:
            longest[level] = length
        excess = length[0] * (level + 1) - length[1]  # sign of length - 1/(level+1)
        if (excess != 0, excess > 0, excess >= 0)[min(level, 2)]:
            relation = ("!= 1", "> 1/2", f">= 1/{level + 1}")[min(level, 2)]
            fail("mesh", (level, word),
                 f"level-{level} member {word} has length {Fraction(*length)} {relation}")
        if level < max_level:
            stack.append((member, state, iter(orders[level % 2])))

    checks = (PropertyCheck.fail(fails[n][1]) if n in fails else PropertyCheck.ok()
              for n in _CHECKS)
    # A mesh failure ends the reported maxima at its level.
    levels = fails["mesh"][0][0] + 1 if "mesh" in fails else max_level + 1
    maxima = {level: Fraction(*longest[level]) for level in range(levels)}
    return CoverReport(*checks, maxima, words)


NON_SQUARES = tuple(n for n in range(2, 80) if isqrt(n) ** 2 != n)

NAMED_SURDS = {
    "sqrt2": QuadraticSurd(0, 1, 2),
    "sqrt3": QuadraticSurd(0, 1, 3),
    "sqrt5": QuadraticSurd(0, 1, 5),
    "sqrt7": QuadraticSurd(0, 1, 7),
    "golden": QuadraticSurd(1, 1, 5, 2),
    "minus_sqrt2": QuadraticSurd(0, -1, 2),
}


# --- finite tables: brute-force balls over the distance radii ---


def triangle_failure(table):
    """First (x, y, z) with d(x, y) > d(x, z) + d(z, y), scanning x before y, z ascending."""
    pts = table.points
    for i, x in enumerate(pts):
        for y in pts[i + 1 :]:
            for z in pts:
                if z not in (x, y) and table.d(x, y) > table.d(x, z) + table.d(z, y):
                    return x, y, z
    return None


def ultrametric_scan_oracle(table) -> UltrametricReport:
    """Every triple i < j < k in lexicographic order, on ``Fraction``s: the
    first triple whose unique largest side breaks the strong triangle
    inequality and the first with three distinct sides, stopping once both
    are found."""
    strong = PropertyCheck.ok()
    isosceles = PropertyCheck.ok()
    pts = table.points
    n = len(pts)
    m = [[table.d(x, y) for y in pts] for x in pts]
    for i, row_i in enumerate(m):
        for j in range(i + 1, n):
            row_j, dij = m[j], row_i[j]
            for k in range(j + 1, n):
                dik, djk = row_i[k], row_j[k]
                sides = sorted(
                    [(dij, pts[i], pts[j]), (dik, pts[i], pts[k]), (djk, pts[j], pts[k])],
                    key=lambda t: t[0],
                )
                if strong.passed and sides[2][0] > sides[1][0]:
                    v, x, y = sides[2]
                    strong = PropertyCheck.fail(
                        f"d({x}, {y}) = {v} > max of the other two sides = {sides[1][0]}"
                    )
                if isosceles.passed and len({dij, dik, djk}) == 3:
                    isosceles = PropertyCheck.fail(
                        f"all three sides differ on ({pts[i]}, {pts[j]}, {pts[k]}): "
                        f"{dij}, {dik}, {djk}"
                    )
                if not strong.passed and not isosceles.passed:
                    return UltrametricReport(strong, isosceles)
    return UltrametricReport(strong, isosceles)


def distance_radii(table) -> list:
    """Occurring distances and one radius past the largest.  A midpoint adds no
    ball: for consecutive distances a < b, d < (a + b)/2 and d <= (a + b)/2 both
    mean d <= a, the open ball at b and the closed ball at a."""
    vals = sorted({table.d(x, y) for x in table.points for y in table.points if x != y})
    return vals + [(vals[-1] if vals else Fraction(0)) + 1]


def midpoint_radii(table) -> list:
    """Occurring distances, the midpoints between consecutive ones (from zero)
    and one radius past the largest."""
    *vals, past = distance_radii(table)
    mids = [(a + b) / 2 for a, b in zip([Fraction(0)] + vals, vals)]
    return sorted(set(vals) | set(mids)) + [past]


def open_ball(table, x, r) -> frozenset:
    return frozenset(y for y in table.points if table.d(x, y) < r)


def closed_ball(table, x, r) -> frozenset:
    return frozenset(y for y in table.points if table.d(x, y) <= r)


def ball_system(table, radii) -> set:
    """Distinct open balls over the given radii."""
    return {open_ball(table, x, r) for r in radii for x in table.points}


def ball_properties_hold(table) -> bool:
    """Strong triangle inequality, then the open-ball phenomena at every
    distance radius: same-radius balls equal or disjoint, every member a
    center, closed balls absorb the open balls of their members, and balls
    nest across consecutive radii."""
    pts = table.points
    for x in pts:
        for y in pts:
            for z in pts:
                if table.d(x, y) > max(table.d(x, z), table.d(z, y)):
                    return False
    prev = None
    for r in distance_radii(table):
        ball = {x: open_ball(table, x, r) for x in pts}
        for x in pts:
            for y in pts:
                if ball[x] != ball[y] and ball[x] & ball[y]:
                    return False
            if any(ball[y] != ball[x] for y in ball[x]):
                return False
            closed = closed_ball(table, x, r)
            if any(not ball[y] <= closed for y in closed):
                return False
            if prev is not None and not prev[x] <= ball[x]:
                return False
        prev = ball
    return True


# --- the finite-space lab on Fractions and frozensets ---


def _order_key(v):
    return (0, v, "") if isinstance(v, int) else (1, 0, str(v))


def table_oracle(points, items, require_metric=False) -> tuple:
    """(points, scale, rows) of a table, or the error building it raises.

    One ``Fraction`` per entry, checked entry by entry in the order: duplicate
    ids, key pair, unknown point, diagonal, positive, conflict (a pair may
    repeat, in either order, only with the same value), then missing entries
    and, for a metric, the first failing triangle.
    """
    pts = list(points)
    if len(set(pts)) != len(pts):
        raise ValueError("duplicate point ids")
    pts.sort(key=_order_key)
    index = {x: i for i, x in enumerate(pts)}
    n = len(pts)
    m = [[None] * n for _ in range(n)]
    for key, value in items:
        pair = tuple(key)
        if len(pair) != 2:
            raise ValueError(f"distance key is not a pair: {key!r}")
        x, y = pair
        for z in pair:
            try:
                hash(z)
            except TypeError:
                raise ValueError(f"point id must be a string or integer: {z!r}") from None
            if z not in index:
                raise ValueError(f"unknown point in pair {key!r}")
        if x == y:
            raise ValueError(f"diagonal entry for {x!r}; d(x, x) = 0 is implicit")
        v = Fraction(*value) if isinstance(value, tuple) else Fraction(value)
        if v <= 0:
            raise ValueError(f"distance for ({x!r}, {y!r}) must be positive, got {v}")
        i, j = index[x], index[y]
        if m[i][j] is not None and m[i][j] != v:
            first, second = sorted(pair, key=index.__getitem__)
            raise ValueError(f"conflicting distances for ({first!r}, {second!r})")
        m[i][j] = m[j][i] = v
    for i, row in enumerate(m):
        row[i] = Fraction(0)
        if any(v is None for v in row):
            raise ValueError(f"missing distance for ({pts[i]!r}, {pts[row.index(None)]!r})")
    if require_metric:
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(n):
                    if m[i][k] + m[j][k] < m[i][j]:
                        x, y, z = pts[i], pts[j], pts[k]
                        raise ValueError(
                            f"triangle inequality fails: d({x!r}, {y!r}) = {m[i][j]} > "
                            f"d({x!r}, {z!r}) + d({z!r}, {y!r}) = {m[i][k]} + {m[j][k]}"
                        )
    scale = 1
    for row in m:
        for v in row:
            scale = scale * v.denominator // gcd(scale, v.denominator)
    return tuple(pts), scale, [[int(v * scale) for v in row] for row in m]


def table_from_json_oracle(obj, require_metric=False, max_points=800, max_bits=1 << 25) -> tuple:
    """(points, scale, rows) of a JSON table, or the first error, one row at a time."""
    if not isinstance(obj, dict) or "points" not in obj or "dist" not in obj:
        raise ValueError('expected {"points": [...], "dist": [[i, j, "p/q"], ...]}')
    points = obj["points"]
    if not isinstance(points, list):
        raise ValueError("points must be a list of ids")
    if len(points) > max_points:
        raise ValueError(f"{len(points)} points exceed the budget {max_points}")
    if not points:
        raise ValueError("need at least one point")
    for x in points:
        if type(x) not in (str, int):
            raise ValueError(f"point id must be a string or integer: {x!r}")
    if not isinstance(obj["dist"], list):
        raise ValueError("dist must be a list of rows")
    items = []
    for row in obj["dist"]:
        if not isinstance(row, list) or len(row) != 3:
            raise ValueError(f"bad dist row: {row!r}")
        x, y, v = row
        items.append(((x, y), parse_rational(str(v))))
    scale, squared = 1, len(points) ** 2
    for den in {v.denominator for _, v in items}:
        scale = scale * den // gcd(scale, den)
        size = squared * scale.bit_length()
        if size > max_bits:
            raise ValueError(f"matrix of at least {size} bits exceeds the budget {max_bits}")
    for (x, y), _ in items:
        for z in (x, y):
            if type(z) not in (str, int):
                raise ValueError(f"point id must be a string or integer: {z!r}")
    return table_oracle(points, items, require_metric)


def cover_sequence_oracle(space, depth: int) -> tuple:
    """Levels of the ball peel on frozensets: every block of the previous
    level (the whole space first) cut by the open balls of radius 2^-(i+2)
    around the points in order, each piece minus what earlier pieces took."""
    ground = frozenset(space.points)
    blocks = [ground]
    levels = []
    for i in range(depth):
        r = Fraction(1, 2 ** (i + 2))
        balls = [open_ball(space, x, r) for x in space.points]
        pieces, seen = [], set()
        for u in blocks:
            for ball in balls:
                piece = (ball & u) - seen
                if piece:
                    pieces.append(frozenset(piece))
                seen |= ball & u
        levels.append(pieces)
        blocks = pieces
    return CoverSequence(levels).levels


def separation_oracle(seq, ground) -> dict:
    """{(x, y): 1/(k+1)} over ordered pairs x < y, k the first level with no
    block holding both, or the error for the first pair never separated.
    Membership is read from ``seq.levels``, never from the digit lists."""
    ground = frozenset(ground)
    if ground != seq.ground:
        raise ValueError("ground set does not match the cover sequence")
    pts = sorted(ground, key=_order_key)
    out = {}
    for i, x in enumerate(pts):
        for y in pts[i + 1 :]:
            k = next((level for level, blocks in enumerate(seq.levels)
                      if not any(x in b and y in b for b in blocks)), None)
            if k is None:
                raise UnseparatedPairError(
                    (x, y), f"points {x!r} and {y!r} are never separated within depth {seq.depth}")
            out[(x, y)] = Fraction(1, k + 1)
    return out


def balls_centered(table) -> bool:
    """At every distance radius, each open ball is the ball of each of its members:
    true exactly on ultrametrics."""
    for r in distance_radii(table):
        ball = {x: open_ball(table, x, r) for x in table.points}
        if any(ball[y] != ball[x] for x in table.points for y in ball[x]):
            return False
    return True


def ball_report_oracle(table) -> BallPropertiesReport:
    """The ball report from the triple scan; on an ultrametric, the frozenset
    sweep asserts centering, which gives all five phenomena."""
    um = ultrametric_scan_oracle(table)
    if not um.all_passed:
        skipped = PropertyCheck.fail("not checked: table is not an ultrametric")
        return BallPropertiesReport(um, skipped, skipped, skipped, skipped, skipped)
    assert balls_centered(table), table.as_json()
    return BallPropertiesReport(um, *[PropertyCheck.ok()] * 5)


def base_equality_oracle(seq) -> BaseEqualityReport:
    """Frozenset ball system of the separation ultrametric, asserted equal to the
    blocks plus the whole space."""
    dist = separation_oracle(seq, seq.ground)
    pts = sorted(seq.ground, key=_order_key)

    def d(x, y):
        return Fraction(0) if x == y else dist[(x, y) if (x, y) in dist else (y, x)]

    vals = sorted(set(dist.values()))
    radii = vals + [(vals[-1] if vals else Fraction(0)) + 1]
    balls = {frozenset(y for y in pts if d(x, y) < r) for r in radii for x in pts}
    base = {b for blocks in seq.levels for b in blocks} | {seq.ground}
    assert balls == base, balls ^ base
    return BaseEqualityReport(PropertyCheck.ok(), len(balls), len(base))


def parse_int_list_oracle(body: str, what: str) -> tuple:
    """Comma-separated integers, one token at a time."""
    body = body.strip()
    if not body:
        return ()
    out = []
    for tok in body.split(","):
        tok = tok.strip()
        if not re.fullmatch(r"-?\d+", tok):
            raise ValueError(f"bad {what} entry: {tok!r}")
        out.append(int(tok))
    return tuple(out)


_CF_RE = re.compile(
    rf"\s*\[\s*(-?{INT_DIGITS})\s*(?:;\s*({INT_DIGITS}(?:\s*,\s*{INT_DIGITS})*)\s*)?\]\s*$"
)


def parse_cf_oracle(text: str) -> tuple:
    """A word "[a0; a1, ..., an]" read by one regex over the whole text.  Each
    later digit is stripped, since ``int`` refuses the \\x1c-\\x1f that ``\\s`` takes."""
    m = _CF_RE.match(text)
    if m is None:
        check_digit_budget(text, "word digit")
        raise ValueError(f"not a continued-fraction word: {text!r}")
    digits = [int(m.group(1))]
    if m.group(2):
        digits.extend(map(int, map(str.strip, m.group(2).split(","))))
    return as_digits_oracle(digits)


def point_check_oracle(entries: tuple, tail, z: bool) -> None:
    """Raise what building a point raises: entry types, tail types, entry
    ranges, tail ranges; ``z`` selects the integer-headed space."""
    if tail is not None and len(tail) == 0:
        raise ValueError("tail block must be non-empty")
    for i, e in enumerate(entries):
        if not isinstance(e, int):
            raise ValueError(f"entry {i} is not an integer: {e!r}")
    for i, e in enumerate(tail or ()):
        if not isinstance(e, int):
            raise ValueError(f"tail entry {i} is not an integer: {e!r}")
    lo = 1 if z else 0
    for i, e in enumerate(entries):
        if (i >= 1 or not z) and e < lo:
            raise ValueError(f"entry {i} must be >= {lo}, got {e}")
    for i, e in enumerate(tail or ()):
        if e < lo:
            raise ValueError(f"tail entry {i} must be >= {lo}, got {e}")


def first_difference_oracle(f, g, bound: int):
    """Least index < bound where the points disagree, one value_at at a time."""
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    for h in (f, g):
        if not h.defined_through(bound):
            raise InsufficientPrecisionError(f"{h} is not defined through index {bound - 1}")
    for n in range(bound):
        if f.value_at(n) != g.value_at(n):
            return n
    return None


def prefix_oracle(p, n: int) -> tuple:
    """Entries at indices 0..n-1, one value_at at a time."""
    if not p.defined_through(n):
        raise InsufficientPrecisionError(
            f"{p} has no entry at index {len(p.entries)} and no tail, need index {n - 1}"
        )
    return tuple(p.value_at(i) for i in range(n))


def as_digits_oracle(w, what: str = "digit sequence") -> tuple:
    """A digit sequence checked one digit at a time: type, then range."""
    digits = tuple(w)
    if not digits:
        raise ValueError(f"{what} must have at least one digit")
    for i, a in enumerate(digits):
        if not isinstance(a, int):
            raise ValueError(f"{what}: digit {i} is not an integer: {a!r}")
        if i >= 1 and a < 1:
            raise ValueError(f"{what}: digit {i} must be >= 1, got {a}")
    return digits


def _expose_head(entries: tuple, tail):
    # Index 0 is recoded differently from the rest, so it must sit in entries.
    if not entries and tail is not None:
        return (tail[0],), tail[1:] + tail[:1]
    return entries, tail


def psi_oracle(p, inverse: bool = False):
    """psi (zigzag at index 0, +1 after) or, with ``inverse``, its inverse:
    the two mirrored bodies, each with its own head code."""
    entries, tail = _expose_head(p.entries, p.tail)
    if inverse:
        head = tuple(2 * z if z >= 0 else -2 * z - 1 for z in entries[:1])
        rest = tuple(e - 1 for e in entries[1:])
        new_tail = tuple(t - 1 for t in tail) if tail is not None else None
        return BairePrefix(head + rest, new_tail)
    head = tuple(n // 2 if n % 2 == 0 else -(n + 1) // 2 for n in entries[:1])
    rest = tuple(e + 1 for e in entries[1:])
    new_tail = tuple(t + 1 for t in tail) if tail is not None else None
    return Baire2Prefix(head + rest, new_tail)


def ball_image_oracle(a, n: int) -> BallImageCheck:
    """The ball check with a point and a phi_forward per sampled extension:
    the 9 words that extend a's n-digit prefix by two digits from 1..3."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    prefix = a.prefix(n)
    iv = phi_forward(a, n - 1).interval
    samples, all_inside = 0, True
    for ext in product((1, 2, 3), repeat=2):
        ap = phi_forward(Baire2Prefix(prefix + ext), n + 1)
        all_inside &= iv.contains_interval(ap.interval)
        samples += 1
    return BallImageCheck(prefix, iv, samples, all_inside)
