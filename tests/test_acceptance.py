"""Acceptance gate: the eleven advertised guarantees at full scale.

Every test prints exactly one ACCEPTANCE line on the real stdout, so the
verdicts stay visible even under pytest's capture, then asserts.  All
arithmetic is exact; there are no tolerances anywhere.
"""

import math
import random
from fractions import Fraction

import pytest

from bairecf import (
    Baire2Prefix,
    BairePrefix,
    CFWord,
    Distance,
    FiniteSpace,
    baire_distance,
    build_cover_sequence,
    convergents,
    disjointify,
    evaluate,
    evaluate_with_tail,
    expand_rational,
    expand_surd,
    interval_of,
    phi_forward,
    phi_inverse,
    psi_inverse,
    psi_map,
    sierpinski_embed,
    ultrametric_from_covers,
    verify_ball_properties,
    verify_base_equality,
    verify_cover_properties,
    verify_ultrametric,
)
from bairecf.cli import run
from _commands import COMMANDS, GOLDEN_DIR, blob
from _oracles import NAMED_SURDS


_CAPSYS = None


@pytest.fixture(autouse=True)
def _gate_output(capsys):
    # pytest captures at the fd level, so the verdict lines are printed
    # through capsys.disabled() to stay visible in every run
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def _report(n: int, label: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {n:02d} {label}: {verdict}"
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    assert ok, f"criterion {n}: {label}" + (f" ({detail})" if detail else "")


# --- 1 ---


def test_acceptance_01_cf_round_trip():
    cases = 0
    bad = ""
    for q in range(1, 201):
        for p in range(-200, 201):
            if math.gcd(p, q) != 1:
                continue
            x = Fraction(p, q)
            word = expand_rational(x)
            cases += 1
            digits = word.digits
            canonical = all(d >= 1 for d in digits[1:]) and (
                len(digits) == 1 or digits[-1] >= 2
            )
            if evaluate(word) != x or not canonical:
                bad = f"{x} -> {digits}"
                break
        if bad:
            break
    _report(1, f"cf round trip on {cases} reduced rationals", not bad, bad)


# --- 2 ---


def _random_prefix(rng, max_extra=6, digit_max=5):
    return tuple(
        [rng.randint(-5, 5)]
        + [rng.randint(1, digit_max) for _ in range(rng.randint(0, max_extra))]
    )


def _random_pair(rng):
    while True:
        x = Fraction(rng.randint(1, 100), rng.randint(1, 10))
        y = Fraction(rng.randint(1, 100), rng.randint(1, 10))
        if 1 <= x < y <= 10:
            return x, y


def test_acceptance_02_monotonicity_and_corollary():
    rng = random.Random(20260201)
    bad = ""
    for _ in range(10000):
        prefix = _random_prefix(rng)
        n = len(prefix) - 1
        x, y = _random_pair(rng)
        vx = evaluate_with_tail(prefix, x)
        vy = evaluate_with_tail(prefix, y)
        k = rng.randint(1, 30)
        vk = evaluate_with_tail(prefix, Fraction(k))
        vk1 = evaluate_with_tail(prefix, Fraction(k + 1))
        if n % 2 == 0:
            good = vx > vy and vk > vk1
        else:
            good = vx < vy and vk < vk1
        if not good:
            bad = f"prefix {prefix}, x {x}, y {y}, k {k}"
            break
    _report(2, "substitution-slot ordering on 10000 randomized cases", not bad, bad)


# --- 3 ---


def test_acceptance_03_distance_estimate():
    rng = random.Random(20260202)
    bad = ""
    for _ in range(10000):
        n = rng.randint(1, 6)
        prefix = tuple([rng.randint(-5, 5)] + [rng.randint(1, 5) for _ in range(n)])
        x, y = _random_pair(rng)
        gap = abs(evaluate_with_tail(prefix, x) - evaluate_with_tail(prefix, y))
        if not gap < (y - x) / (x * y + n):
            bad = f"prefix {prefix}, x {x}, y {y}"
            break
    if not bad:
        for _ in range(1000):
            a0 = rng.randint(-5, 5)
            x, y = _random_pair(rng)
            lhs = evaluate_with_tail((a0,), x) - evaluate_with_tail((a0,), y)
            if lhs != (y - x) / (x * y):
                bad = f"a0 {a0}, x {x}, y {y}"
                break
    _report(3, "distance estimate on 10000 cases plus 1000 base identities", not bad, bad)


# --- 4 & 5 share one exhaustive enumeration ---


@pytest.fixture(scope="module")
def cover_report():
    return verify_cover_properties(4, (-3, 3), 8)


def test_acceptance_04_mesh_bounds(cover_report):
    rep = cover_report
    lengths = rep.max_length_by_level
    ok = (
        rep.mesh.passed
        and lengths[0] == 1
        and lengths[1] == Fraction(1, 2)
        and all(lengths[n] < Fraction(1, n + 1) for n in range(2, 5))
    )
    _report(
        4,
        f"mesh bounds on {rep.words_checked} words through level 4",
        ok,
        rep.mesh.counterexample,
    )


def test_acceptance_05_cover_properties(cover_report):
    rep = cover_report
    ok = (
        rep.disjoint.passed
        and rep.refinement.passed
        and rep.closure_refinement.passed
        and rep.words_checked == 7 + 7 * 8 + 7 * 64 + 7 * 512 + 7 * 4096
    )
    detail = (
        rep.disjoint.counterexample
        or rep.refinement.counterexample
        or rep.closure_refinement.counterexample
    )
    _report(5, f"cover properties on {rep.words_checked} words", ok, detail)


# --- 6 ---


def test_acceptance_06_baire_metric_and_recoding():
    rng = random.Random(20260203)
    bad = ""
    for _ in range(10000):
        f, g, h = (
            BairePrefix(tuple(rng.randint(0, 9) for _ in range(8))) for _ in range(3)
        )
        dfh = baire_distance(f, h, 8).value
        dfg = baire_distance(f, g, 8).value
        dgh = baire_distance(g, h, 8).value
        if not dfh <= max(dfg, dgh):
            bad = f"triangle: {f}, {g}, {h}"
            break
    if not bad:
        for _ in range(10000):
            f, g = (
                BairePrefix(
                    tuple(rng.randint(0, 9) for _ in range(rng.randint(0, 6))),
                    tuple(rng.randint(0, 9) for _ in range(rng.randint(1, 3))),
                )
                for _ in range(2)
            )
            if baire_distance(psi_map(f), psi_map(g), 24) != baire_distance(f, g, 24):
                bad = f"isometry: {f}, {g}"
                break
    if not bad:
        count = 0
        for length in range(1, 5):
            for n in range(4 ** length):
                entries = tuple((n // 4 ** i) % 4 for i in range(length))
                p = BairePrefix(entries)
                count += 1
                if psi_inverse(psi_map(p)) != p:
                    bad = f"round trip: {p}"
                    break
            if bad:
                break
        assert count == 4 + 16 + 64 + 256
    _report(6, "sequence-space triangle, recoding isometry, round trip", not bad, bad)


# --- 7 ---


def test_acceptance_07_surd_intervals():
    bad = ""
    for name, x in NAMED_SURDS.items():
        for depth in range(13):
            ap = phi_forward(phi_inverse(x, depth), depth)
            if not ap.interval.contains_surd(x):
                bad = f"{name} depth {depth}: {ap.interval} misses the point"
                break
            if depth == 0:
                width_ok = ap.width == 1
            elif depth == 1:
                width_ok = ap.width <= Fraction(1, 2)
            else:
                width_ok = ap.width < Fraction(1, depth + 1)
            if not width_ok:
                bad = f"{name} depth {depth}: width {ap.width}"
                break
        if bad:
            break
    checked = 0
    if not bad:
        words = [(a0,) for a0 in range(-2, 3)]
        for _ in range(6):
            ivs = sorted(
                ((interval_of(w), w) for w in words),
                key=lambda t: (t[0].lo, t[0].hi),
            )
            checked += len(ivs)
            for (a, wa), (b, wb) in zip(ivs, ivs[1:]):
                if not (a.hi <= b.lo or b.hi <= a.lo):
                    bad = f"{wa} {a} overlaps {wb} {b}"
                    break
            if bad:
                break
            words = [w + (k,) for w in words for k in range(1, 6)]
    _report(
        7,
        f"surd interval containment, widths, disjointness of {checked} words",
        not bad,
        bad,
    )


# --- 8 ---


def test_acceptance_08_periodic_ground_truth():
    sqrt2 = NAMED_SURDS["sqrt2"]
    golden = NAMED_SURDS["golden"]
    ok = (
        expand_surd(sqrt2, 20) == (1,) + (2,) * 20
        and expand_surd(golden, 20) == (1,) * 21
        and convergents(expand_surd(sqrt2, 4))
        == [
            Fraction(1),
            Fraction(3, 2),
            Fraction(7, 5),
            Fraction(17, 12),
            Fraction(41, 29),
        ]
    )
    _report(8, "periodic expansions and convergent prefixes", ok)


# --- 9 ---


def _line_space(rng, n):
    coords = rng.sample(range(0, 400), n)
    return FiniteSpace(
        range(n),
        {
            (i, j): Fraction(abs(coords[i] - coords[j]), 16)
            for i in range(n)
            for j in range(i + 1, n)
        },
    )


def _boxed_space(rng, n):
    return FiniteSpace(
        range(n),
        {
            (i, j): 1 + Fraction(rng.randint(0, 16), 16)
            for i in range(n)
            for j in range(i + 1, n)
        },
    )


def _cluster_space(rng, n):
    dist = {}

    def split(pts, level):
        if len(pts) == 1:
            return
        if level == 3:
            for a in range(len(pts)):
                for b in range(a + 1, len(pts)):
                    dist[(pts[a], pts[b])] = Fraction(1, 2 ** level)
            return
        k = rng.randint(2, min(3, len(pts)))
        groups = [[] for _ in range(k)]
        for idx, p in enumerate(pts):
            groups[idx % k].append(p)
        for gi in range(k):
            for gj in range(gi + 1, k):
                for a in groups[gi]:
                    for b in groups[gj]:
                        dist[(a, b)] = Fraction(1, 2 ** level)
        for g in groups:
            split(g, level + 1)

    pts = list(range(n))
    rng.shuffle(pts)
    split(pts, 0)
    return FiniteSpace(range(n), dist)


def test_acceptance_09_finite_space_pipeline():
    rng = random.Random(20260204)
    sizes = (
        [rng.randint(1, 12) for _ in range(440)]
        + [rng.randint(13, 28) for _ in range(50)]
        + [rng.randint(29, 50) for _ in range(10)]
    )
    rng.shuffle(sizes)
    makers = [_line_space, _boxed_space, _cluster_space]
    bad = ""
    for n in sizes:
        space = rng.choice(makers)(rng, n)
        depth = rng.randint(3, 6)
        seq = build_cover_sequence(space, depth)
        for li, blocks in enumerate(seq.levels):
            bound = Fraction(1, 2 ** (li + 1))
            for b in blocks:
                members = sorted(b)
                for ai, x in enumerate(members):
                    for y in members[ai + 1 :]:
                        if space.d(x, y) > bound:
                            bad = f"n={n}: level {li} diameter exceeds {bound}"
        if bad:
            break
        table = ultrametric_from_covers(seq, seq.ground)
        if not verify_ultrametric(table).all_passed:
            bad = f"n={n}: derived table is not an ultrametric"
            break
        if not verify_ball_properties(table).all_passed:
            bad = f"n={n}: ball properties fail"
            break
        if not verify_base_equality(seq).all_passed:
            bad = f"n={n}: ball system differs from the blocks"
            break
        emb = sierpinski_embed(seq)
        for x, y in table.pairs():
            if baire_distance(emb[x], emb[y], depth) != Distance.exact(table.d(x, y)):
                bad = f"n={n}: embedding not isometric at ({x}, {y})"
                break
        if bad:
            break
    _report(9, f"finite-space pipeline on {len(sizes)} random spaces", not bad, bad)


# --- 10 ---


def test_acceptance_10_disjointify():
    rng = random.Random(20260205)
    bad = ""
    for _ in range(1000):
        ground = frozenset(range(rng.randint(1, 100)))
        density = rng.uniform(0.05, 0.9)
        sets = [
            frozenset(x for x in ground if rng.random() < density)
            for _ in range(rng.randint(1, 12))
        ]
        sets.insert(rng.randint(0, len(sets)), frozenset(ground))
        out = disjointify(sets, ground)
        seen: set = set()
        expected = []
        for b in sets:
            fresh = b - seen
            if fresh:
                expected.append(frozenset(fresh))
            seen |= b
        union = frozenset().union(*out) if out else frozenset()
        if (
            out != expected
            or union != ground
            or sum(len(p) for p in out) != len(ground)
        ):
            bad = f"ground size {len(ground)}, {len(sets)} sets"
            break
    _report(10, "disjointify partitions on 1000 covering families", not bad, bad)


# --- 11 ---


def test_acceptance_11_cli_goldens(monkeypatch):
    monkeypatch.delenv("BAIRECF_MAX_DEPTH", raising=False)
    bad = ""
    for name, argv in COMMANDS:
        first = blob(run(argv))
        second = blob(run(argv))
        frozen = (GOLDEN_DIR / f"{name}.txt").read_text(encoding="utf-8")
        if first != second:
            bad = f"{name}: two runs differ"
            break
        if first != frozen:
            bad = f"{name}: output differs from the golden file"
            break
    _report(11, f"{len(COMMANDS)} documented commands match goldens", not bad, bad)
