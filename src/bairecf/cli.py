"""Command line front end.

Every leaf command takes --json for a single-line machine-readable payload;
without it a short human-readable text form is printed.  Exit codes: 0 on
success, 1 for bad input or unreadable files, 2 for usage errors, 3 when
``cover verify`` or ``ultra verify`` ran and found a violation.

Depth-like arguments (--depth, --bound, --max-level), the cylinder length of
``baire ball`` and the level count of a covers file are capped by the
BAIRECF_MAX_DEPTH environment variable (default 64); ``cover verify`` slices
are capped at MAX_COVER_WORDS words before anything is built, and ``ultra``
and ``embed`` inputs at ``ultra.MAX_POINTS`` points and
``ultra.MAX_MATRIX_BITS`` bits of matrix when their JSON is read.

Each ``_cmd_*`` handler returns only the command's JSON payload, a dict; a
verification that finds a violation says so with ``"status": "error"``.  The
text form is a view of that payload, and ``run`` renders it only without
--json, inside the same error handling as the handler.

Each leaf is one row of ``_COMMANDS``: group, name, help, arguments, handler
and view.  ``build_parser`` builds the argparse tree from that table, and
``run`` reuses one tree per process, built on first use (parsing reads no
environment; the cap is read as each command runs).  ``run`` parses the words
after a leaf's name with that leaf's parser, and the whole tree parses only
what names no leaf or what the leaf leaves over.  The table binds the
handlers and views into the tree, so patch the library names the handlers
call on this module, such as ``verify_cover_properties``, not ``_cmd_*``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from dataclasses import dataclass
from operator import itemgetter

from . import __version__
from .baire import (
    WHOLE_SPACE,
    Baire2Prefix,
    BairePrefix,
    baire_distance,
    cylinder_of_ball,
    format_point,
    parse_point,
    psi_inverse,
    psi_map,
)
from .cf import _convergent_pairs, evaluate, expand_rational, expand_surd, format_cf, parse_cf
from .cover import locate, member_of, verify_cover_properties
from .homeo import check_ball_image, phi_forward, phi_inverse
from .rational import (_DIGITS_CAP, MAX_DIGITS, _format_ratio, check_digit_budget,
                       format_rational, parse_rational)
from .surd import format_surd, parse_surd
from .ultra import (
    _fmt_set,
    build_cover_sequence,
    covers_from_json,
    sierpinski_embed,
    table_from_json,
    ultrametric_from_covers,
    verify_ball_properties,
    verify_base_equality,
)

MAX_DEPTH_ENV = "BAIRECF_MAX_DEPTH"
DEFAULT_MAX_DEPTH = 64
MAX_COVER_WORDS = 131_072  # the default cover slice through level 7 is 109 225 words


class UsageError(Exception):
    """Command line was not understood."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


# argparse's negative-number pattern plus p/q, so that "-3/2" is read as a value
_NEGATIVE_RATIONAL = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")


@dataclass(frozen=True)
class CommandResult:
    exit_code: int
    out: str = ""
    err: str = ""


def _max_depth() -> int:
    raw = os.environ.get(MAX_DEPTH_ENV)
    if raw is None:
        return DEFAULT_MAX_DEPTH
    try:
        v = int(raw)
    except ValueError:
        raise UsageError(f"{MAX_DEPTH_ENV} must be an integer, got {raw!r}") from None
    if v < 1:
        raise UsageError(f"{MAX_DEPTH_ENV} must be >= 1, got {v}")
    return v


def _capped(n: int, what: str) -> int:
    cap = _max_depth()
    if n > cap:
        raise ValueError(f"{what} {n} exceeds the configured maximum {cap} ({MAX_DEPTH_ENV})")
    return n


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError(f"{path}: invalid JSON: {e}") from None
    except ValueError:  # an integer past the interpreter's digit limit
        check_digit_budget(text, f"{path}: JSON integer")
        raise


def _check_lines(report: dict) -> list[str]:
    """One "name: pass" or "name: FAIL (counterexample)" line per check of a report payload."""
    return [f"{name}: pass" if c["passed"] else f"{name}: FAIL ({c['counterexample']})"
            for name, c in report.items() if isinstance(c, dict) and "counterexample" in c]


def _status(passed: bool) -> str:
    return "ok" if passed else "error"


def _ends(interval) -> dict:
    return {"lo": format_rational(interval.lo), "hi": format_rational(interval.hi)}


def _interval(p: dict) -> str:
    """An interval payload's ends in IntervalQ's notation."""
    return f"({p['lo']}, {p['hi']})"


def _point_class(args) -> type:
    return Baire2Prefix if args.space == "z" else BairePrefix


# --- cf ---


def _cmd_cf_expand(args) -> dict:
    x = parse_rational(args.value)
    word = expand_rational(x)
    return {"value": format_rational(x), "word": list(word.digits)}


def _cmd_cf_eval(args) -> dict:
    digits = parse_cf(args.word)
    return {"word": list(digits), "value": format_rational(evaluate(digits))}


def _cmd_cf_convergents(args) -> dict:
    x = parse_rational(args.value)
    word = expand_rational(x)
    cs = [_format_ratio(p, q) for p, q in _convergent_pairs(word.digits)]
    return {"value": format_rational(x), "word": list(word.digits), "convergents": cs}


# --- surd ---


def _cmd_surd_expand(args) -> dict:
    s = parse_surd(args.surd)
    depth = _capped(args.depth, "depth")
    word = expand_surd(s, depth)
    return {"surd": format_surd(s), "depth": depth, "word": list(word)}


# --- baire ---


def _cmd_baire_dist(args) -> dict:
    cls = _point_class(args)
    f = parse_point(args.p, cls)
    g = parse_point(args.q, cls)
    bound = _capped(args.bound, "bound")
    d = baire_distance(f, g, bound)
    return {"p": format_point(f), "q": format_point(g), "bound": bound, "kind": d.kind,
            "value": format_rational(d.value)}


def _cmd_baire_ball(args) -> dict:
    f = parse_point(args.point, _point_class(args))
    r = parse_rational(args.radius)
    if 0 < r <= 1:
        _capped(r.denominator // r.numerator, "cylinder length")
    cyl = cylinder_of_ball(f, r)
    whole = cyl is WHOLE_SPACE
    return {"point": format_point(f), "radius": format_rational(r), "whole_space": whole,
            "cylinder": None if whole else list(cyl)}


def _text_baire_ball(p: dict) -> str:
    if p["whole_space"]:
        return "whole space"
    # A cylinder prints alike in both spaces, and only the z space has negative entries.
    cyl = p["cylinder"]
    return format_point((Baire2Prefix if min(cyl) < 0 else BairePrefix)(cyl))


def _cmd_baire_psi(args) -> dict:
    if args.inverse:
        p = parse_point(args.point, Baire2Prefix)
        out = psi_inverse(p)
        direction = "inverse"
    else:
        p = parse_point(args.point, BairePrefix)
        out = psi_map(p)
        direction = "forward"
    return {"direction": direction, "input": format_point(p), "output": format_point(out)}


# --- cover ---


def _cmd_cover_show(args) -> dict:
    word = parse_cf(args.word)
    m = member_of(word)
    return {"word": list(m.word), "level": m.level, **_ends(m.interval)}


def _cmd_cover_locate(args) -> dict:
    s = parse_surd(args.surd)
    m = locate(s, _capped(args.level, "level"))
    return {"surd": format_surd(s), "level": m.level, "word": list(m.word), **_ends(m.interval)}


def _cmd_cover_verify(args) -> dict:
    max_level = _capped(args.max_level, "max level")
    # Count words until they pass the budget; bad ranges are left to the verifier.
    words, per_level = 0, args.a0_hi - args.a0_lo + 1
    for _ in range(max_level + 1):
        words += per_level
        if words > MAX_COVER_WORDS:
            shown = words if words < _DIGITS_CAP else f"10^{MAX_DIGITS}"  # a count that prints
            raise ValueError(
                f"slice of at least {shown} words exceeds the budget {MAX_COVER_WORDS}"
            )
        per_level *= max(args.digit_max, 0)
    if args.a0_lo <= args.a0_hi and args.digit_max >= 1:
        # The deepest level's longest member has its later digits all 1 and length
        # 1/(F(L+1) F(L+2)): refuse it before the walk if it cannot print.  Once
        # F(L+2) alone is past the budget the product is too, so the sum stops.
        f, g, level = 1, 1, 0
        while level < max_level and g < _DIGITS_CAP:
            f, g, level = g, f + g, level + 1
        _format_ratio(1, f * g)
    report = verify_cover_properties(max_level, (args.a0_lo, args.a0_hi), args.digit_max)
    return {"status": _status(report.all_passed), **report.as_json()}


def _text_cover_verify(p: dict) -> str:
    lengths = [f"max_length level {k}: {v}" for k, v in p["max_length_by_level"].items()]
    return "\n".join([*_check_lines(p), *lengths, f"words_checked: {p['words_checked']}"])


# --- homeo ---


def _cmd_homeo_fwd(args) -> dict:
    p = parse_point(args.point, Baire2Prefix)
    depth = _capped(args.depth, "depth")
    ap = phi_forward(p, depth)
    return {"point": format_point(p), "depth": depth, **_ends(ap.interval),
            "midpoint": format_rational(ap.midpoint), "width": format_rational(ap.width)}


def _cmd_homeo_inv(args) -> dict:
    s = parse_surd(args.surd)
    depth = _capped(args.depth, "depth")
    return {"surd": format_surd(s), "depth": depth, "point": format_point(phi_inverse(s, depth))}


def _cmd_homeo_ball(args) -> dict:
    p = parse_point(args.point, Baire2Prefix)
    n = _capped(args.n, "ball index")
    chk = check_ball_image(p, n)
    return {"point": format_point(p), "n": n, "cylinder": list(chk.cylinder), **_ends(chk.interval),
            "samples_checked": chk.samples_checked, "all_inside": chk.all_inside}


# --- ultra ---


def _space_covers(path: str, depth: int):
    """The cover sequence of a space file: its metric table, the capped depth, the peel."""
    space = table_from_json(_load_json(path), require_metric=True)
    return build_cover_sequence(space, _capped(depth, "depth"))


def _cmd_ultra_build(args) -> dict:
    seq = _space_covers(args.space, args.depth)
    table = ultrametric_from_covers(seq, seq.ground)
    return {"depth": seq.depth, "covers": seq.as_json()["levels"], "table": table.as_json()}


def _text_ultra_build(p: dict) -> str:
    levels = [f"level {i}: " + " | ".join(map(_fmt_set, b)) for i, b in enumerate(p["covers"])]
    return "\n".join([*levels, *(f"d({x}, {y}) = {d}" for x, y, d in p["table"]["dist"])])


def _cmd_ultra_verify(args) -> dict:
    bp = verify_ball_properties(table_from_json(_load_json(args.table)))
    return {"status": _status(bp.all_passed), "ultrametric": bp.ultrametric.as_json(),
            "balls": bp.as_json()}


def _text_ultra_verify(p: dict) -> str:
    balls = dict(p["balls"])
    del balls["precondition_ultrametric"]  # the two ultrametric lines already say it
    return "\n".join(_check_lines(p["ultrametric"]) + _check_lines(balls))


def _cmd_ultra_base_eq(args) -> dict:
    if args.covers:
        seq = covers_from_json(_load_json(args.source))
        _capped(seq.depth, "covers depth")
    elif args.depth is None:
        raise UsageError("--depth is required when reading a space file")
    else:
        seq = _space_covers(args.source, args.depth)
    return {**verify_base_equality(seq).as_json(), "depth": seq.depth}


def _text_ultra_base_eq(p: dict) -> str:
    return "\n".join([*_check_lines(p), f"ball_system_size: {p['ball_system_size']}",
                      f"base_system_size: {p['base_system_size']}"])


def _cmd_embed(args) -> dict:
    seq = _space_covers(args.space, args.depth)
    emb = sierpinski_embed(seq)
    return {"depth": seq.depth, "embedding": [[x, list(p.entries)] for x, p in emb.items()]}


def _text_embed(p: dict) -> str:
    return "\n".join(f"{x} -> {format_point(BairePrefix(e))}" for x, e in p["embedding"])


# Arguments shared by several leaves, as (name, add_argument keywords).  Leaves that
# take _RATIONAL also read a leading minus followed by digits as a value.
_RATIONAL = ("value", {"help": 'rational, like "355/113"'})
_SPACE = ("--space", {"choices": ("n", "z"), "default": "n",
                      "help": "point space: n = non-negative entries, z = integer head then >= 1"})
_SPACE_FILE = (("space", {"help": "JSON file with points and distances"}),
               ("--depth", {"type": int, "default": 4, "help": "number of cover levels"}))

# Top-level groups in help order; a leaf whose group is None sits at the top level.
_GROUPS = {"cf": "finite continued-fraction words", "surd": "quadratic surds",
           "baire": "integer sequence space", "cover": "rational interval family",
           "homeo": "sequences <-> irrationals dictionary",
           "ultra": "finite metric space laboratory"}

# One row per leaf: group, name, help, arguments, payload handler, text view.
_COMMANDS = (
    ("cf", "expand", "canonical word of a rational", (_RATIONAL,), _cmd_cf_expand,
     lambda p: format_cf(p["word"])),
    ("cf", "eval", "exact value of a word", (("word", {"help": 'word, like "[3; 7, 16]"'}),),
     _cmd_cf_eval, itemgetter("value")),
    ("cf", "convergents", "prefix values of a rational's word", (_RATIONAL,),
     _cmd_cf_convergents, lambda p: "\n".join(p["convergents"])),
    ("surd", "expand", "digit expansion of a surd", (
        ("surd", {"help": 'surd, like "(0+1*sqrt(2))/1"'}),
        ("--depth", {"type": int, "default": 10, "help": "digits after the integer part"}),
    ), _cmd_surd_expand, lambda p: format_cf(p["word"])),
    ("baire", "dist", "first-difference distance of two points", (
        ("p", {"help": 'point, like "(1,2,3)" or "(0)~(2,1)"'}), ("q", {"help": "point"}),
        ("--bound", {"type": int, "default": 32, "help": "indices to scan"}), _SPACE,
    ), _cmd_baire_dist, lambda p: f"{p['kind']} {p['value']}"),
    ("baire", "ball", "cylinder equal to an open ball", (
        ("point", {"help": "ball center"}), ("radius", {"help": 'rational radius, like "1/3"'}),
        _SPACE,
    ), _cmd_baire_ball, _text_baire_ball),
    ("baire", "psi", "recode between the two sequence spaces", (
        ("point", {"help": "point to recode"}),
        ("--inverse", {"action": "store_true", "help": "map back to non-negative entries"}),
    ), _cmd_baire_psi, itemgetter("output")),
    ("cover", "show", "interval named by a word", (("word", {"help": 'word, like "[1; 2]"'}),),
     _cmd_cover_show, lambda p: f"level {p['level']}: {_interval(p)}"),
    ("cover", "locate", "level member holding a surd", (
        ("surd", {"help": 'surd, like "(0+1*sqrt(2))/1"'}),
        ("--level", {"type": int, "default": 3, "help": "level to search"}),
    ), _cmd_cover_locate, lambda p: f"{format_cf(p['word'])} {_interval(p)}"),
    ("cover", "verify", "check the family's properties on a finite slice", (
        ("--max-level", {"type": int, "default": 3, "help": "deepest level to enumerate"}),
        ("--a0-lo", {"type": int, "default": -2, "help": "smallest head digit"}),
        ("--a0-hi", {"type": int, "default": 2, "help": "largest head digit"}),
        ("--digit-max", {"type": int, "default": 4, "help": "largest later digit"}),
    ), _cmd_cover_verify, _text_cover_verify),
    ("homeo", "fwd", "interval approximation of a point's value", (
        ("point", {"help": 'point, like "(1,2,2)~(2)"'}),
        ("--depth", {"type": int, "default": 8, "help": "digits to use, minus one"}),
    ), _cmd_homeo_fwd, lambda p: f"{_interval(p)} midpoint {p['midpoint']}"),
    ("homeo", "inv", "sequence prefix of a surd", (
        ("surd", {"help": 'surd, like "(0+1*sqrt(3))/1"'}),
        ("--depth", {"type": int, "default": 8, "help": "digits to recover, minus one"}),
    ), _cmd_homeo_inv, itemgetter("point")),
    ("homeo", "ball", "match a ball around a point with an interval", (
        ("point", {"help": "ball center"}),
        ("--n", {"type": int, "default": 3, "help": "ball radius is 1/n"}),
    ), _cmd_homeo_ball, lambda p: f"{format_cf(p['cylinder'])} {_interval(p)} "
                                  f"({p['samples_checked']} samples inside)"),
    ("ultra", "build", "covers and ultrametric from a space file", _SPACE_FILE,
     _cmd_ultra_build, _text_ultra_build),
    ("ultra", "verify", "ultrametric and ball checks on a table file",
     (("table", {"help": "JSON file with points and distances"}),),
     _cmd_ultra_verify, _text_ultra_verify),
    ("ultra", "base-eq", "balls equal blocks plus the whole space", (
        ("source", {"help": "JSON space file (or covers file with --covers)"}),
        ("--depth", {"type": int, "default": None, "help": "cover levels for a space file"}),
        ("--covers", {"action": "store_true", "help": "read a covers file instead"}),
    ), _cmd_ultra_base_eq, _text_ultra_base_eq),
    (None, "embed", "isometric digit streams for a space file", _SPACE_FILE,
     _cmd_embed, _text_embed),
)


def build_parser() -> _Parser:
    p = _Parser(prog="bairecf", description="Exact continued-fraction and sequence-space tools.")
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True, metavar="command")
    groups = {None: sub}
    for group, help_ in _GROUPS.items():
        groups[group] = sub.add_parser(group, help=help_).add_subparsers(
            dest="subcommand", required=True, metavar="subcommand")
    p.leaves = {}  # a leaf's words, such as ("cf", "expand") or ("embed",) -> its parser
    for group, name, help_, args, handler, view in _COMMANDS:
        sp = groups[group].add_parser(name, help=help_)
        p.leaves[(group, name) if group else (name,)] = sp
        for arg, kwargs in args:
            sp.add_argument(arg, **kwargs)
        if _RATIONAL in args:
            sp._negative_number_matcher = _NEGATIVE_RATIONAL
        sp.add_argument("--json", action="store_true", help="print a single-line JSON payload")
        sp.set_defaults(handler=handler, view=view)
    return p


_parser = functools.cache(build_parser)


def _parse_args(argv) -> argparse.Namespace:
    """The namespace of argv, parsed by its leaf's parser when its first words name one.

    The tree hands the words after a leaf's name to that same leaf parser, and
    its upper levels only classify words, so it is needed only for what names
    no leaf (--help, --version, an unknown command) and to report words the
    leaf leaves over, as the top-level parser's "unrecognized arguments".
    """
    parser = _parser()
    for key in (tuple(argv[:2]), tuple(argv[:1])):
        leaf = parser.leaves.get(key)
        if leaf is not None:
            args, rest = leaf.parse_known_args(argv[len(key):])
            if not rest:
                return args
    return parser.parse_args(argv)


def run(argv=None) -> CommandResult:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse_args(argv)
    except UsageError as e:
        return CommandResult(2, err=f"usage error: {e}")
    except SystemExit as e:  # --help and --version print on their own
        return CommandResult(int(e.code or 0))
    try:
        payload = args.handler(args)
        # Rendering stays in here: a number too long to print is an input error.
        if args.json:
            out = json.dumps({"status": "ok", **payload}, sort_keys=True)
        else:
            out = args.view(payload)
    except UsageError as e:
        return CommandResult(2, err=f"usage error: {e}")
    except (ValueError, OSError) as e:
        return CommandResult(1, err=f"error: {e}")
    return CommandResult(3 if payload.get("status") == "error" else 0, out=out)


def main(argv=None) -> int:
    res = run(argv)
    if res.out:
        print(res.out)
    if res.err:
        print(res.err, file=sys.stderr)
    return res.exit_code
