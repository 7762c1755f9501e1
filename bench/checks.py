"""Independent answer checks for every benchmark operation.

Nothing here imports bairecf.  Each check either recomputes the answer with
its own arithmetic (Euclid steps, the p/q convergent recurrence, the textbook
(P + sqrt(D))/Q surd recurrence, first differences of eventually periodic
sequences) or tests a property the method must have (partitions that refine,
block diameters, ultrametric distances read off the separating level).  No
check compares against a stored copy of an earlier output.

``check_outputs`` is the entry point: it takes a plan's operations and the
distinct (exit code, stdout, stderr) results each produced, and returns the
number of executions that failed with one message per failing result.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction


class CheckError(Exception):
    """An operation's exit code or output disagrees with the check."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


# --- continued fractions, by the convergent recurrence ---


def euclid_digits(x: Fraction) -> list[int]:
    """Canonical digits of a rational: floor steps until the remainder is 0."""
    a, b = x.numerator, x.denominator
    out = []
    while True:
        q, r = divmod(a, b)
        out.append(q)
        if r == 0:
            return out
        a, b = b, r


def convergent_pairs(word) -> tuple[list[int], list[int]]:
    """Numerators and denominators p_n, q_n of every prefix of a word."""
    p, q = [word[0]], [1]
    p_prev, q_prev = 1, 0
    for a in word[1:]:
        p_new, q_new = a * p[-1] + p_prev, a * q[-1] + q_prev
        p_prev, q_prev = p[-1], q[-1]
        p.append(p_new)
        q.append(q_new)
    return p, q


def word_value(word) -> Fraction:
    p, q = convergent_pairs(word)
    return Fraction(p[-1], q[-1])


def word_interval(word) -> tuple[Fraction, Fraction]:
    """Open interval of a word: p_n/q_n and the mediant (p_n+p_{n-1})/(q_n+q_{n-1})."""
    p, q = convergent_pairs(word)
    p_prev, q_prev = (p[-2], q[-2]) if len(word) > 1 else (1, 0)
    a = Fraction(p[-1], q[-1])
    b = Fraction(p[-1] + p_prev, q[-1] + q_prev)
    return (a, b) if a < b else (b, a)


def _check_determinants(nums, dens) -> None:
    """p_n q_{n-1} - p_{n-1} q_n alternates between +1 and -1."""
    for n in range(1, len(nums)):
        if nums[n] * dens[n - 1] - nums[n - 1] * dens[n] != (-1) ** (n - 1):
            raise CheckError(f"determinant at step {n} is not {(-1) ** (n - 1)}")


def _check_canonical(word) -> None:
    _require(len(word) >= 1, "empty word")
    _require(all(isinstance(a, int) for a in word), "non-integer digit")
    _require(all(a >= 1 for a in word[1:]), "digit after the head is < 1")
    _require(len(word) == 1 or word[-1] >= 2, f"canonical word ends in {word[-1]}")


# --- quadratic surds, by the (P + sqrt(D))/Q recurrence ---


def surd_pqd(p: int, q: int, d: int, r: int) -> tuple[int, int, int]:
    """Rewrite (p + q*sqrt(d))/r as (P + sqrt(D))/Q with Q dividing D - P^2."""
    s = 1 if q > 0 else -1
    return s * p * abs(r), d * q * q * r * r, s * r * abs(r)


def surd_digits(p: int, q: int, d: int, r: int, count: int) -> list[int]:
    """First ``count`` continued-fraction digits of (p + q*sqrt(d))/r."""
    P, D, Q = surd_pqd(p, q, d, r)
    s = math.isqrt(D)
    out = []
    for _ in range(count):
        # floor((P + sqrt(D))/Q) = floor((P + s)/Q) when Q > 0, and
        # floor((P + s + 1)/Q) when Q < 0, because sqrt(D) is not an integer.
        a = (P + s) // Q if Q > 0 else (P + s + 1) // Q
        out.append(a)
        P = a * Q - P
        Q = (D - P * P) // Q
    return out


def _sign_plus_root(u: int, v: int, D: int) -> int:
    """Sign of u + v*sqrt(D) for a non-square D, by squaring integers."""
    if u >= 0 and v >= 0:
        return 1 if (u or v) else 0
    if u <= 0 and v <= 0:
        return -1
    if u > 0:  # v < 0
        return 1 if u * u > v * v * D else -1
    return 1 if v * v * D > u * u else -1


def surd_above(p: int, q: int, d: int, r: int, x: Fraction) -> bool:
    """(p + q*sqrt(d))/r > x, decided on integers."""
    P, D, Q = surd_pqd(p, q, d, r)
    a, b = x.numerator, x.denominator
    # (P + sqrt(D))/Q - a/b has the sign of (bP - aQ + b*sqrt(D)) * Q
    s = _sign_plus_root(b * P - a * Q, b, D) * (1 if Q > 0 else -1)
    return s > 0


def _check_surd_in(spec, lo: Fraction, hi: Fraction) -> None:
    args = spec["p"], spec["q"], spec["d"], spec["r"]
    # Endpoints can exceed the 4300-digit limit of int -> str, so the
    # messages do not print them.
    _require(surd_above(*args, lo), "surd is not above the interval's left end")
    _require(not surd_above(*args, hi), "surd is not below the interval's right end")


# --- sequence points ---


def parse_point(text: str) -> tuple[tuple[int, ...], tuple[int, ...] | None]:
    """'(a,b)' or '(a,b)~(c,d)' into (entries, tail)."""
    head, sep, tail = text.partition("~")

    def ints(group: str) -> tuple[int, ...]:
        group = group.strip()
        _require(group.startswith("(") and group.endswith(")"), f"bad point {text!r}")
        body = group[1:-1].strip()
        return tuple(int(t) for t in body.split(",")) if body else ()

    return ints(head), (ints(tail) if sep else None)


def format_point(entries, tail=None) -> str:
    body = "(" + ",".join(map(str, entries)) + ")"
    return body if tail is None else body + "~(" + ",".join(map(str, tail)) + ")"


def point_at(pt, i: int) -> int:
    entries, tail = pt
    if i < len(entries):
        return entries[i]
    return tail[(i - len(entries)) % len(tail)]


def point_prefix(pt, n: int) -> list[int]:
    return [point_at(pt, i) for i in range(n)]


def true_first_difference(f, g) -> int | None:
    """Least index where two points differ; None when they are equal.

    For total points any difference lies below max(pre-period) +
    lcm(periods); for partial points only the common known part is searched.
    """
    if f[1] is not None and g[1] is not None:
        limit = max(len(f[0]), len(g[0])) + math.lcm(len(f[1]), len(g[1]))
    else:
        limit = min(len(h[0]) for h in (f, g) if h[1] is None)
    for i in range(limit):
        if point_at(f, i) != point_at(g, i):
            return i
    return None


def same_sequence(f, g) -> bool:
    if (f[1] is None) != (g[1] is None):
        return False
    if f[1] is None:
        return f[0] == g[0]
    return true_first_difference(f, g) is None


def _zigzag(n: int) -> int:
    return n // 2 if n % 2 == 0 else -(n + 1) // 2


def _unzigzag(z: int) -> int:
    return 2 * z if z >= 0 else -2 * z - 1


def _recode(pt, head_map, shift: int):
    """Apply head_map at index 0 and add shift at every later index."""
    entries, tail = pt
    if not entries and tail is not None:
        entries, tail = tail[:1], tail[1:] + tail[:1]
    new_entries = tuple([head_map(entries[0])] + [e + shift for e in entries[1:]])
    return new_entries, (None if tail is None else tuple(t + shift for t in tail))


def psi_forward(pt):
    return _recode(pt, _zigzag, 1)


def psi_backward(pt):
    return _recode(pt, _unzigzag, -1)


# --- per-command checks; each takes (spec, exit_code, payload, ctx) ---


def _fr(text) -> Fraction:
    return Fraction(str(text))


def _ok(exit_code: int, payload: dict) -> None:
    _require(exit_code == 0, f"exit code {exit_code}, expected 0")
    _require(payload.get("status") == "ok", f"status {payload.get('status')!r}")


def _cf_expand(spec, exit_code, payload, ctx):
    _ok(exit_code, payload)
    x = _fr(spec["value"])
    word = payload["word"]
    _check_canonical(word)
    _require(_fr(payload["value"]) == x, "echoed value differs")
    _require(word == euclid_digits(x), "word differs from the Euclid digits")
    p, q = convergent_pairs(word)
    _check_determinants(p, q)
    _require(Fraction(p[-1], q[-1]) == x, "word does not evaluate to the input")


def _cf_eval(spec, exit_code, payload, ctx):
    _ok(exit_code, payload)
    word = spec["word"]
    _require(payload["word"] == word, "echoed word differs")
    p, q = convergent_pairs(word)
    _check_determinants(p, q)
    _require(_fr(payload["value"]) == Fraction(p[-1], q[-1]), "value differs from p_n/q_n")


def _cf_convergents(spec, exit_code, payload, ctx):
    _ok(exit_code, payload)
    x = _fr(spec["value"])
    word = payload["word"]
    _check_canonical(word)
    _require(word == euclid_digits(x), "word differs from the Euclid digits")
    got = [_fr(c) for c in payload["convergents"]]
    p, q = convergent_pairs(word)
    _require(got == [Fraction(a, b) for a, b in zip(p, q)], "convergents differ from p_n/q_n")
    _check_determinants([c.numerator for c in got], [c.denominator for c in got])
    _require(got[-1] == x, "last convergent is not the input")


def _surd_word(spec, word) -> None:
    expected = surd_digits(spec["p"], spec["q"], spec["d"], spec["r"], len(word))
    _require(list(word) == expected, "digits differ from the (P + sqrt(D))/Q recurrence")
    _check_surd_in(spec, *word_interval(word))


def _surd_expand(spec, exit_code, payload, ctx):
    _ok(exit_code, payload)
    word = payload["word"]
    _require(len(word) == spec["depth"] + 1, f"{len(word)} digits for depth {spec['depth']}")
    _surd_word(spec, word)


def _homeo_inv(spec, exit_code, payload, ctx):
    _ok(exit_code, payload)
    pt = parse_point(payload["point"])
    _require(pt[1] is not None or len(pt[0]) == spec["depth"] + 1, "point is not depth + 1 long")
    _surd_word(spec, point_prefix(pt, spec["depth"] + 1))


def _cover_locate(spec, exit_code, payload, ctx):
    _ok(exit_code, payload)
    word = payload["word"]
    _require(payload["level"] == spec["level"] == len(word) - 1, "wrong level")
    _surd_word(spec, word)
    lo, hi = word_interval(word)
    _require((_fr(payload["lo"]), _fr(payload["hi"])) == (lo, hi), "interval differs")


def _cover_show(spec, exit_code, payload, ctx):
    _ok(exit_code, payload)
    word = spec["word"]
    _require(payload["word"] == word and payload["level"] == len(word) - 1, "wrong word/level")
    lo, hi = word_interval(word)
    _require((_fr(payload["lo"]), _fr(payload["hi"])) == (lo, hi), "interval differs")


def fibonacci_bound(level: int) -> Fraction:
    """1/(F_{n+1} F_{n+2}): the interval length of the all-ones word."""
    f1, f2 = 1, 1  # F_1, F_2
    for _ in range(level):
        f1, f2 = f2, f1 + f2
    return Fraction(1, f1 * f2)


def _cover_verify(spec, exit_code, payload, ctx):
    _ok(exit_code, payload)
    for name in ("disjoint", "refinement", "closure_refinement", "mesh"):
        _require(payload[name]["passed"] is True, f"{name} did not pass")
    _require(payload["passed"] is True, "report did not pass")
    level, m = spec["max_level"], spec["digit_max"]
    heads = spec["a0_hi"] - spec["a0_lo"] + 1
    words = heads * sum(m**i for i in range(level + 1))
    _require(payload["words_checked"] == words, f"words_checked {payload['words_checked']} != {words}")
    lengths = payload["max_length_by_level"]
    _require(sorted(lengths, key=int) == [str(i) for i in range(level + 1)], "wrong levels")
    for n in range(level + 1):
        _require(_fr(lengths[str(n)]) == fibonacci_bound(n), f"max_length level {n} is off")


def _homeo_fwd(spec, exit_code, payload, ctx):
    _ok(exit_code, payload)
    word = point_prefix(parse_point(spec["point"]), spec["depth"] + 1)
    lo, hi = word_interval(word)
    _require((_fr(payload["lo"]), _fr(payload["hi"])) == (lo, hi), "interval differs")
    _require(_fr(payload["midpoint"]) == (lo + hi) / 2, "midpoint differs")
    _require(_fr(payload["width"]) == hi - lo, "width differs")


def _homeo_ball(spec, exit_code, payload, ctx):
    _ok(exit_code, payload)
    cyl = point_prefix(parse_point(spec["point"]), spec["n"])
    _require(payload["cylinder"] == cyl, "cylinder is not the first n entries")
    lo, hi = word_interval(cyl)
    _require((_fr(payload["lo"]), _fr(payload["hi"])) == (lo, hi), "interval differs")
    _require(payload["all_inside"] is True and payload["samples_checked"] > 0, "samples escaped")


def _baire_dist(spec, exit_code, payload, ctx):
    _ok(exit_code, payload)
    f, g = parse_point(spec["p"]), parse_point(spec["q"])
    bound = spec["bound"]
    k = true_first_difference(f, g)
    value = _fr(payload["value"])
    if payload["kind"] == "EXACT":
        if k is None:
            _require(value == 0 and f[1] is not None and g[1] is not None, "equal points, not 0")
        else:
            _require(value == Fraction(1, k + 1), f"EXACT {value}, first difference is at {k}")
    else:
        _require(payload["kind"] == "AT_MOST", f"unknown kind {payload['kind']!r}")
        _require(value == Fraction(1, bound + 1), "AT_MOST value is not 1/(bound+1)")
        _require(k is None or k >= bound, f"a difference at {k} lies below the bound")


def _baire_psi(spec, exit_code, payload, ctx):
    _ok(exit_code, payload)
    inp = parse_point(spec["point"])
    out = parse_point(payload["output"])
    if spec["inverse"]:
        _require(all(e >= 0 for e in out[0] + (out[1] or ())), "negative entry")
        back = psi_forward(out)
    else:
        _require(all(e >= 1 for e in out[0][1:] + (out[1] or ())), "entry < 1 after index 0")
        back = psi_backward(out)
    _require(same_sequence(back, inp), "round trip is not the identity")


# --- finite spaces ---


def load_table(path: str) -> tuple[list, dict]:
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    dist = {}
    for x, y, v in obj["dist"]:
        dist[frozenset((x, y))] = Fraction(v)
    return obj["points"], dist


def _levels(payload_levels) -> list[list[frozenset]]:
    return [[frozenset(b) for b in level] for level in payload_levels]


def _ultra_build(spec, exit_code, payload, ctx):
    _ok(exit_code, payload)
    points, dist = load_table(spec["space"])
    ground = frozenset(points)
    levels = _levels(payload["covers"])
    _require(len(levels) == spec["depth"] == payload["depth"], "wrong number of levels")
    where_prev = None
    for i, blocks in enumerate(levels):
        where = {}
        for bi, b in enumerate(blocks):
            for x in b:
                _require(x not in where, f"level {i}: {x!r} in two blocks")
                where[x] = bi
        _require(set(where) == ground, f"level {i} does not cover the points")
        if where_prev is not None:
            for b in blocks:
                _require(len({where_prev[x] for x in b}) == 1, f"level {i} does not refine")
        bound = Fraction(1, 2 ** (i + 1))
        for b in blocks:
            bl = list(b)
            diameter = max((dist[frozenset((x, y))] for a, x in enumerate(bl) for y in bl[a + 1:]),
                           default=Fraction(0))
            _require(diameter <= bound, f"level {i}: block diameter {diameter} > {bound}")
        where_prev = where
    ultra = {}
    for x, y, v in payload["table"]["dist"]:
        k = next((i for i, bl in enumerate(levels) if not any(x in b and y in b for b in bl)), None)
        _require(k is not None, f"{x!r}, {y!r} never separated")
        _require(_fr(v) == Fraction(1, k + 1), f"d({x}, {y}) = {v}, separated at level {k}")
        ultra[frozenset((x, y))] = Fraction(1, k + 1)
    _require(len(ultra) == len(dist), "table does not cover every pair")
    ctx[("build", spec["space"], spec["depth"])] = (levels, ultra, ground)


def _built(spec, ctx):
    built = ctx.get(("build", spec["space"], spec["depth"]))
    _require(built is not None, "no checked ultra build of the same space and depth")
    return built


def _embed(spec, exit_code, payload, ctx):
    _ok(exit_code, payload)
    _, ultra, ground = _built(spec, ctx)
    emb = {x: digits for x, digits in payload["embedding"]}
    _require(set(emb) == ground and payload["depth"] == spec["depth"], "wrong points or depth")
    for digits in emb.values():
        _require(len(digits) == spec["depth"] and min(digits) >= 0, "bad digit stream")
    for pair, expected in ultra.items():
        x, y = tuple(pair)
        k = next(i for i, (a, b) in enumerate(zip(emb[x], emb[y])) if a != b) if emb[x] != emb[y] else None
        _require(k is not None and Fraction(1, k + 1) == expected, f"embedded d({x}, {y}) differs")


def _ultra_base_eq(spec, exit_code, payload, ctx):
    _ok(exit_code, payload)
    levels, _, ground = _built(spec, ctx)
    expected = len({b for blocks in levels for b in blocks} | {ground})
    _require(payload["equality"]["passed"] is True, "equality did not pass")
    _require(payload["ball_system_size"] == expected, "ball system size differs")
    _require(payload["base_system_size"] == expected, "base system size differs")
    _require(payload["depth"] == spec["depth"], "wrong depth")


def _ultra_verify(spec, exit_code, payload, ctx):
    checks = [payload["ultrametric"][k] for k in ("strong_triangle", "isosceles")]
    checks += [v for k, v in payload["balls"].items() if k != "passed"]
    if spec["planted"] == "ultrametric":
        _ok(exit_code, payload)
        _require(all(c["passed"] for c in checks), "a check failed on an ultrametric")
    else:
        _require(exit_code == 3, f"exit code {exit_code} on a planted violation, expected 3")
        _require(payload.get("status") == "error", "status is not error")
        st = payload["ultrametric"]["strong_triangle"]
        _require(st["passed"] is False and st["counterexample"], "violation not reported")


CHECKERS = {
    "cf expand": _cf_expand,
    "cf eval": _cf_eval,
    "cf convergents": _cf_convergents,
    "surd expand": _surd_expand,
    "homeo inv": _homeo_inv,
    "cover locate": _cover_locate,
    "cover show": _cover_show,
    "cover verify": _cover_verify,
    "homeo fwd": _homeo_fwd,
    "homeo ball": _homeo_ball,
    "baire dist": _baire_dist,
    "baire psi": _baire_psi,
    "ultra build": _ultra_build,
    "embed": _embed,
    "ultra base-eq": _ultra_base_eq,
    "ultra verify": _ultra_verify,
}


def check_one(op: dict, exit_code: int, out: str, err: str, ctx: dict) -> None:
    """Raise CheckError unless (exit_code, out) is a right answer for op."""
    _require(err == "", f"stderr: {err.strip()[:200]}")
    try:
        payload = json.loads(out)
    except json.JSONDecodeError:
        raise CheckError(f"stdout is not JSON: {out[:200]!r}") from None
    try:
        CHECKERS[op["kind"]](op["spec"], exit_code, payload, ctx)
    except (KeyError, TypeError, ValueError, IndexError) as e:
        raise CheckError(f"malformed payload: {type(e).__name__}: {e}") from None


def check_order(ops: list[dict]) -> list[int]:
    """Op indices with builds first: embed and base-eq checks need the checked build."""
    return sorted(range(len(ops)), key=lambda i: ops[i]["kind"] != "ultra build")


def check_outputs(ops: list[dict], results: list[list[dict]]) -> tuple[int, list[str]]:
    """Failed executions and messages, checking each distinct result once.

    ``results[i]`` lists the distinct results of ops[i] as dicts with keys
    exit, out, err and count.
    """
    ctx: dict = {}
    failed, messages = 0, []
    for i in check_order(ops):
        for res in results[i]:
            try:
                check_one(ops[i], res["exit"], res["out"], res["err"], ctx)
            except CheckError as e:
                failed += res["count"]
                messages.append(f"op {i} {ops[i]['kind']} {ops[i]['argv'][2:4]}: {e}")
    return failed, messages
