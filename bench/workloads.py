"""Seeded inputs for the benchmark's three workloads.

A workload is one *round*: a list of operations, each an argv for
``bairecf.cli.run`` with the facts its check needs (``spec``).  The runner
repeats the round, in the same shuffled order, until the run's time is up, so
every kind of command is spread over the whole run and the mix of kinds is the
same in every run.  All inputs come from ``random.Random(seed)``; input files
are written into the directory the caller names.

Sizes are chosen so that the median and the 90th percentile of a run's
latencies each fall inside a band of several operations of one size class,
never on the edge between two classes: an edge would turn a small shift in
the mix into a large jump of the percentile.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from pathlib import Path

from checks import format_point, word_value

WORKLOADS = ("cover-slice", "finite-lab", "digits")

# Deep digit commands run far above the CLI's default depth cap of 64.
DEEP_ENV = {"BAIRECF_MAX_DEPTH": "100000"}


def _op(kind: str, argv: list, **spec) -> dict:
    """--json goes before a "--", which argv needs ahead of a negative rational."""
    argv = [str(a) for a in argv]
    at = argv.index("--") if "--" in argv else len(argv)
    return {"kind": kind, "argv": argv[:at] + ["--json"] + argv[at:], "spec": spec}


# --- cover-slice ---


def cover_slice(rng: random.Random, tiny: bool, _dir: Path) -> list[dict]:
    """cover verify over deep-narrow, default and shallow-wide slices, plus cover show.

    Shapes are fixed and the seed moves the head-digit window, so every seed
    enumerates the same number of words at the same depths.
    """
    # (max_level, head digits, digit_max, copies per round).  Latency bands:
    # 3 shows, 4 deep, 2 default, 2 wide; the median falls inside the deep
    # band and the 90th percentile inside the wide one, each band well apart
    # from its neighbours.
    shapes = [(3, 2, 2, 2), (2, 3, 3, 1), (1, 2, 6, 1)] if tiny else [
        (8, 1, 2, 4),  # deep and narrow: 511 words, 8 levels
        (4, 5, 4, 2),  # the default shape one level past the documented example: 1705 words
        (2, 5, 24, 2),  # shallow and wide: 3005 words
    ]
    ops = []
    for level, heads, digit_max, copies in shapes:
        for _ in range(copies):
            lo = rng.randint(-3, 3)
            hi = lo + heads - 1
            argv = ["cover", "verify", "--max-level", level, "--a0-lo", lo, "--a0-hi", hi,
                    "--digit-max", digit_max]
            ops.append(_op("cover verify", argv, max_level=level, a0_lo=lo, a0_hi=hi,
                           digit_max=digit_max))
    for _ in range(2 if tiny else 3):
        word = _random_word(rng, rng.randint(1, 6), 9)
        ops.append(_op("cover show", ["cover", "show", _fmt_word(word)], word=word))
    return ops


# --- finite-lab ---


def _taxicab_space(rng: random.Random, levels: int) -> tuple[dict, int]:
    """3**levels points in the plane under the taxicab metric, and a depth.

    The points are the leaves of a full ternary tree of clusters: the three
    children of a cluster at scale 8**-l sit in three distinct random cells
    of a 3 x 3 grid of that scale.  Every seed gives the same tree in another
    layout, so the cover sequences, and the work on them, barely change with
    the seed.  Distinct points lie at least 8**-(levels-1) apart, and level i
    of the cover sequence has blocks of diameter <= 2**-(i+1), so the
    returned depth separates every pair.
    """
    cells = [(i, j) for i in range(3) for j in range(3)]
    pts = [(Fraction(0), Fraction(0))]
    for level in range(levels):
        scale = Fraction(1, 8**level)
        pts = [(x + scale * i, y + scale * j) for x, y in pts for i, j in rng.sample(cells, 3)]
    rng.shuffle(pts)
    n = len(pts)
    ids = [f"p{i:02d}" for i in range(n)]
    dist = [
        [ids[i], ids[j], str(abs(pts[i][0] - pts[j][0]) + abs(pts[i][1] - pts[j][1]))]
        for i in range(n) for j in range(i + 1, n)
    ]
    return {"points": ids, "dist": dist}, 3 * (levels - 1) + 1


def _merge_tree_table(rng: random.Random, n: int, kind: str) -> dict:
    """Distance table of a balanced merge tree over n shuffled points.

    d(x, y) is the height of the node where x and y join, and every node is
    higher than its children, so the table is an ultrametric.  ``kind``:
    "distinct" gives all n - 1 nodes distinct heights; "few" gives two
    heights per tree level below the top two and one each above, 8 in all
    for 17..32 points; "violation" is a distinct table with d(0, 1) raised
    above every other distance.  There 0 and 2 join below 1, so the very
    first triple (0, 1, 2) breaks both the strong triangle inequality and
    the isosceles property, and the verifier can stop at once.
    """
    labels = list(range(3, n))
    rng.shuffle(labels)
    labels = [0, 2] + labels + [1]
    nodes = []  # (tree level, left members, right members)

    def build(members):
        if len(members) == 1:
            return 0
        mid = len(members) // 2
        level = 1 + max(build(members[:mid]), build(members[mid:]))
        nodes.append((level, members[:mid], members[mid:]))
        return level

    top = build(labels)
    ranks = rng.sample(range(1, n), n - 1)
    seen_at: dict = {}
    d = {}
    for (level, left, right), rank in zip(nodes, ranks):
        if kind == "few":
            # the first two nodes of a low level take both values, later ones either
            seen = seen_at.setdefault(level, 0)
            seen_at[level] += 1
            choice = seen if seen < 2 else rng.randrange(2)
            h = Fraction(2 * level + (choice if level < top - 1 else 0), 3)
        else:
            h = level + Fraction(rank, n)
        for x in left:
            for y in right:
                d[(min(x, y), max(x, y))] = h
    if kind == "violation":
        d[(0, 1)] = max(d.values()) + 1
    return {"points": list(range(n)), "dist": [[x, y, str(v)] for (x, y), v in sorted(d.items())]}


def finite_lab(rng: random.Random, tiny: bool, dirpath: Path) -> list[dict]:
    """ultra build, base-eq and embed on space files; ultra verify on three kinds of table."""
    space_levels, n_table = (2, 6) if tiny else (3, 32)
    ops = []
    for s in range(2):
        space, depth = _taxicab_space(rng, space_levels)
        path = _write(dirpath / f"space{s}.json", space)
        for kind, argv in (("ultra build", ["ultra", "build"]),
                           ("ultra base-eq", ["ultra", "base-eq"]),
                           ("embed", ["embed"])):
            ops.append(_op(kind, argv + [path, "--depth", depth], space=path, depth=depth))
    # Latency bands, fastest first: 2 violating tables, 6 space commands,
    # 3 few-height and 3 distinct-height tables.  The median falls among the
    # space commands, just below the few-height band; the 90th percentile in
    # the middle of the distinct-height band.
    for copy, kind in enumerate(["distinct"] * 3 + ["few"] * 3 + ["violation"] * 2):
        path = _write(dirpath / f"table{copy}-{kind}.json", _merge_tree_table(rng, n_table, kind))
        planted = "violation" if kind == "violation" else "ultrametric"
        ops.append(_op("ultra verify", ["ultra", "verify", path], table=path, planted=planted))
    return ops


# --- digits ---


def _random_word(rng: random.Random, length: int, digit_max: int) -> list[int]:
    return [rng.randint(-9, 9)] + [rng.randint(1, digit_max) for _ in range(length - 1)]


def _fmt_word(word) -> str:
    if len(word) == 1:
        return f"[{word[0]}]"
    return f"[{word[0]}; " + ", ".join(map(str, word[1:])) + "]"


def _random_surd(rng: random.Random, d_range: tuple[int, int]) -> dict:
    while True:
        d = rng.randint(*d_range)
        if math.isqrt(d) ** 2 != d:
            break
    r = rng.choice((1, 1, 2, 3, 5, -2, -3))
    return {"p": rng.randint(-20, 20), "q": rng.choice((1, 1, 2, 3, -1, -2)), "d": d, "r": r}


def _fmt_surd(s: dict) -> str:
    sign = "+" if s["q"] >= 0 else "-"
    return f"({s['p']}{sign}{abs(s['q'])}*sqrt({s['d']}))/{s['r']}"


def _random_point(rng, z_space: bool, pre: int, period: int, digit_max: int = 9):
    head = [rng.randint(-9, 9) if z_space else rng.randint(0, 9)]
    lo = 1 if z_space else 0
    entries = head + [rng.randint(lo, digit_max) for _ in range(pre)]
    tail = [rng.randint(lo, digit_max) for _ in range(period)]
    return entries, tail


def _dist_pair(rng, z_space: bool, agree: int):
    """Two total points whose first difference is at index ``agree``.

    The second point spells out the first one's sequence up to ``agree``,
    changes the next entry and then repeats the first one's tail.
    """
    entries, tail = _random_point(rng, z_space, rng.randint(0, 3), rng.randint(1, 3))
    f = (entries, tail)
    seq = [entries[i] if i < len(entries) else tail[(i - len(entries)) % len(tail)]
           for i in range(agree + len(tail))]
    nxt = seq[agree] + 1 if seq[agree] < 9 else seq[agree] - 1
    return format_point(*f), format_point(seq[:agree] + [nxt], tail)


def digits(rng: random.Random, tiny: bool, _dir: Path) -> list[dict]:
    """Short arithmetic commands: two at documented sizes for each deep one."""
    deep = {
        # Word lengths keep every number below the 4300-digit limit of
        # Python's int <-> str conversion.
        "expand": 6 if tiny else 3500,
        "eval": 6 if tiny else 3000,
        "convergents": 6 if tiny else 700,
        "depth": 12 if tiny else 9000,
        "inv": 12 if tiny else 3000,
        "locate": 12 if tiny else 2200,
        "fwd": 12 if tiny else 4000,
        "ball": 4 if tiny else 450,
        "dist": 20 if tiny else 20000,
        "psi": 20 if tiny else 20000,
    }
    ops = []
    for size in ("small", "small", "deep"):
        big = size == "deep"
        # cf expand / convergents take a rational; deep ones have long words.
        for kind, key in (("cf expand", "expand"), ("cf convergents", "convergents")):
            length = deep[key] if big else rng.randint(2, 6)
            x = word_value(_random_word(rng, length, 9 if big else 30))
            ops.append(_op(kind, kind.split() + ["--", str(x)], value=str(x)))
        word = _random_word(rng, deep["eval"] if big else rng.randint(2, 6), 9 if big else 30)
        ops.append(_op("cf eval", ["cf", "eval", _fmt_word(word)], word=word))
        d_range = (10**5, 10**6) if big else (2, 200)
        for kind, flag, key, small in (("surd expand", "--depth", "depth", 10),
                                       ("homeo inv", "--depth", "inv", 8),
                                       ("cover locate", "--level", "locate", 3)):
            s = _random_surd(rng, d_range)
            n = deep[key] if big else small
            ops.append(_op(kind, kind.split() + [_fmt_surd(s), flag, n],
                           depth=n, level=n, **s))
        pt = format_point(*_random_point(rng, True, rng.randint(0, 3), rng.randint(1, 3),
                                         3 if big else 9))
        n = deep["fwd"] if big else 8
        ops.append(_op("homeo fwd", ["homeo", "fwd", pt, "--depth", n], point=pt, depth=n))
        pt = format_point(*_random_point(rng, True, rng.randint(0, 3), rng.randint(1, 3), 3))
        n = deep["ball"] if big else 3
        ops.append(_op("homeo ball", ["homeo", "ball", pt, "--n", n], point=pt, n=n))
        bound = deep["dist"] if big else 16
        # one pair differs below the bound (EXACT), one only past it (AT_MOST)
        for agree in (bound * 3 // 4, bound + 2):
            z_space = rng.random() < 0.5
            p, q = _dist_pair(rng, z_space, agree)
            argv = ["baire", "dist", p, q, "--bound", bound] + (["--space", "z"] if z_space else [])
            ops.append(_op("baire dist", argv, p=p, q=q, bound=bound))
        for inverse in (False, True):
            length = deep["psi"] if big else rng.randint(1, 5)
            pt = format_point(*_random_point(rng, inverse, length, rng.randint(1, 3)))
            argv = ["baire", "psi", pt] + (["--inverse"] if inverse else [])
            ops.append(_op("baire psi", argv, point=pt, inverse=inverse))
    return ops


def _write(path: Path, obj) -> str:
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    return str(path)


def make_round(workload: str, seed: int, dirpath: Path, tiny: bool = False) -> dict:
    """The shuffled round of operations for one workload and seed.

    Input files, and the operations themselves as ops.json, go to
    ``dirpath``; the returned dict has the operations and the environment
    the workload's process runs with.
    """
    dirpath.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}/{seed}")
    build = {"cover-slice": cover_slice, "finite-lab": finite_lab, "digits": digits}[workload]
    ops = build(rng, tiny, dirpath)
    rng.shuffle(ops)
    for op in ops:
        op["workload"] = workload
    _write(dirpath / "ops.json", ops)
    return {"ops": ops, "env": DEEP_ENV if workload == "digits" else {}}
