"""Spans around the calls into bairecf's layers, recorded from outside the package.

``install`` wraps each callable in ``TRACED`` where it is defined and in every
bairecf module that imported it by name (the CLI, and modules such as
``cover`` that call ``cf.evaluate``); methods are wrapped on their class.
Each call records a span: operation index, name, parent span, start and end.
Spans stay in memory, in flat integer arrays, and ``Recorder.write`` puts them
in a file at the end of the run.  ``layer_metrics`` reads that file back and
derives the per-layer metrics; a span's self time is its duration minus the
durations of its direct children, which never overlap because the process is
single-threaded.

A few counters are taken from arguments and results after the span closes
(words checked, digits produced, radii, surd state size); they are work
counts, not times.
"""

from __future__ import annotations

import array
import functools
import importlib
import json
import sys
import time
import tracemalloc
from pathlib import Path


def _count_words(rec, args, result):
    rec.counters["words"] += result.words_checked


def _count_digits(rec, args, result):
    rec.counters["digits"] += len(result)


def _surd_bits(rec, args, result):
    s = args[0]
    bits = max(abs(s.p), abs(s.q), s.r).bit_length()
    if bits > rec.counters["state_bits_max"]:
        rec.counters["state_bits_max"] = bits


def _count_exact(rec, args, result):
    f, g = args[0], args[1]
    if f.is_total() and g.is_total():
        rec.counters["total_queries"] += 1
        rec.counters["exact_answers"] += result.kind == "EXACT"


def _count_triples(rec, args, result):
    n = len(args[0].points)
    rec.counters["triples"] += n * (n - 1) // 2 * max(n - 2, 0)


def _count_radii(rec, args, result):
    # The radius loop runs only on tables that pass the ultrametric check;
    # it visits each distinct distance and the midpoint below it.
    if result.precondition_ultrametric.passed:
        rec.counters["radii"] += 2 * len(args[0].values())


# (module, attribute, span name, counter hook)
TRACED = [
    ("cli", "run", "cli.run", None),
    ("cli", "build_parser", "cli.build_parser", None),
    ("rational", "parse_rational", "rational.parse_rational", None),
    ("cf", "evaluate", "cf.evaluate", None),
    ("cf", "expand_surd", "cf.expand_surd", _count_digits),
    ("cf", "expand_rational", "cf.expand_rational", None),
    ("cf", "convergents", "cf.convergents", None),
    ("surd", "QuadraticSurd.floor", "surd.floor", _surd_bits),
    ("surd", "QuadraticSurd.recip_frac", "surd.recip_frac", None),
    ("cover", "interval_of", "cover.interval_of", None),
    ("cover", "verify_cover_properties", "cover.verify_cover_properties", _count_words),
    ("baire", "baire_distance", "baire.baire_distance", _count_exact),
    ("baire", "psi_map", "baire.psi_map", None),
    ("homeo", "phi_inverse", "homeo.phi_inverse", None),
    ("homeo", "phi_forward", "homeo.phi_forward", None),
    ("homeo", "check_ball_image", "homeo.check_ball_image", None),
    ("ultra", "table_from_json", "ultra.table_from_json", None),
    ("ultra", "FiniteSpace.__init__", "ultra.FiniteSpace", _count_triples),
    ("ultra", "build_cover_sequence", "ultra.build_cover_sequence", None),
    ("ultra", "ultrametric_from_covers", "ultra.ultrametric_from_covers", None),
    ("ultra", "verify_ultrametric", "ultra.verify_ultrametric", None),
    ("ultra", "verify_ball_properties", "ultra.verify_ball_properties", _count_radii),
    ("ultra", "verify_base_equality", "ultra.verify_base_equality", None),
    ("ultra", "sierpinski_embed", "ultra.sierpinski_embed", None),
]
NAMES = [span for _, _, span, _ in TRACED]
_COLUMNS = ("op", "name", "parent", "start", "end")


class Recorder:
    """Spans in five parallel int64 arrays, plus work counters."""

    def __init__(self):
        for col in _COLUMNS:
            setattr(self, col, array.array("q"))
        self.stack: list[int] = []
        self.current_op = -1
        self.counters = dict.fromkeys(
            ("words", "digits", "state_bits_max", "total_queries", "exact_answers",
             "triples", "radii"), 0)

    def write(self, path: Path, header: dict) -> None:
        """Header JSON on the first line, then the columns as raw int64."""
        head = dict(header, names=NAMES, counters=self.counters, spans=len(self.end))
        with open(path, "wb") as fh:
            fh.write(json.dumps(head).encode() + b"\n")
            for col in _COLUMNS:
                getattr(self, col).tofile(fh)


def _wrap(rec: Recorder, nid: int, fn, hook):
    clock = time.perf_counter_ns
    ops, names, parents, starts, ends, stack = (
        rec.op, rec.name, rec.parent, rec.start, rec.end, rec.stack)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        i = len(ends)
        ops.append(rec.current_op)
        names.append(nid)
        parents.append(stack[-1] if stack else -1)
        ends.append(0)
        stack.append(i)
        starts.append(clock())
        try:
            result = fn(*args, **kwargs)
        finally:
            ends[i] = clock()
            stack.pop()
        if hook is not None:
            hook(rec, args, result)
        return result

    return traced


def install(rec: Recorder) -> None:
    """Wrap every TRACED callable in place; bairecf must already be imported."""
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "bairecf"]
    for nid, (modname, attr, _span, hook) in enumerate(TRACED):
        module = importlib.import_module(f"bairecf.{modname}")
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, method, _wrap(rec, nid, cls.__dict__[method], hook))
            continue
        orig = getattr(module, attr)
        wrapped = _wrap(rec, nid, orig, hook)
        for m in modules:
            if getattr(m, attr, None) is orig:
                setattr(m, attr, wrapped)


def peak_alloc_mb(cli, argvs) -> float:
    """Largest tracemalloc peak inside verify_cover_properties over the commands.

    Runs before spans are recorded, because tracemalloc slows every
    allocation and would distort the timed spans.
    """
    orig = cli.verify_cover_properties
    peaks = []

    def measured(*args, **kwargs):
        tracemalloc.start()
        try:
            return orig(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    cli.verify_cover_properties = measured
    try:
        for argv in argvs:
            cli.run(argv)
    finally:
        cli.verify_cover_properties = orig
    return max(peaks, default=0) / 2**20


def read_spans(path: Path) -> tuple[dict, dict]:
    with open(path, "rb") as fh:
        head = json.loads(fh.readline())
        cols = {}
        for col in _COLUMNS:
            cols[col] = array.array("q")
            cols[col].fromfile(fh, head["spans"])
    return head, cols


def _div(a, b) -> float:
    return a / b if b else 0.0


def layer_metrics(path: Path, ops: list[dict], rounds: int, peak_mb: float) -> dict:
    """Per-layer metrics from a spans file.

    ``ops`` is the traced round (each op has ``workload`` and ``kind``) and
    ``rounds`` how many times it ran.  Per-op figures are taken over the
    workload or command kind the layer serves, as listed in the README.
    """
    head, c = read_spans(path)
    names = head["names"]
    nid = {n: i for i, n in enumerate(names)}
    n = head["spans"]
    op_col, name_col, parent_col = c["op"], c["name"], c["parent"]
    dur = [e - s for s, e in zip(c["start"], c["end"])]
    child = [0] * n
    for i in range(n):
        p = parent_col[i]
        if p >= 0:
            child[p] += dur[i]

    calls = [0] * len(names)
    total = [0] * len(names)
    self_ns = [0] * len(names)
    by_workload: dict = {}  # (name id, workload) -> [total ns, self ns]
    by_kind: dict = {}  # (name id, kind) -> calls
    eval_in_interval = 0
    ev, iv = nid["cf.evaluate"], nid["cover.interval_of"]
    for i in range(n):
        k = name_col[i]
        op = ops[op_col[i]]
        calls[k] += 1
        total[k] += dur[i]
        self_ns[k] += dur[i] - child[i]
        acc = by_workload.setdefault((k, op["workload"]), [0, 0])
        acc[0] += dur[i]
        acc[1] += dur[i] - child[i]
        by_kind[(k, op["kind"])] = by_kind.get((k, op["kind"]), 0) + 1
        if k == ev and parent_col[i] >= 0 and name_col[parent_col[i]] == iv:
            eval_in_interval += 1

    ops_in = {}
    for op in ops:
        for key in (op["workload"], op["kind"]):
            ops_in[key] = ops_in.get(key, 0) + rounds
    cnt = head["counters"]

    def per_call(name, scale):
        return _div(total[nid[name]], calls[nid[name]]) / scale

    def ms_per_op(name, workload, self_time=False):
        ns = by_workload.get((nid[name], workload), [0, 0])[1 if self_time else 0]
        return _div(ns, ops_in.get(workload, 0)) / 1e6

    def calls_per_op(name, kind):
        return _div(by_kind.get((nid[name], kind), 0), ops_in.get(kind, 0))

    return {
        "cli.build_parser.ms_per_op": ms_per_op("cli.build_parser", "digits"),
        "cli.build_parser.calls_per_op": _div(calls[nid["cli.build_parser"]], len(ops) * rounds),
        "cli.run.self_ms_per_op": ms_per_op("cli.run", "digits", self_time=True),
        "rational.parse_rational.ms_per_op": ms_per_op("rational.parse_rational", "finite-lab"),
        "cf.evaluate.calls_per_word": _div(eval_in_interval, calls[iv]),
        "cf.evaluate.us_per_call": per_call("cf.evaluate", 1e3),
        "cf.expand_surd.us_per_digit": _div(total[nid["cf.expand_surd"]], cnt["digits"]) / 1e3,
        "cf.expand_rational.us_per_call": per_call("cf.expand_rational", 1e3),
        "cf.convergents.us_per_call": per_call("cf.convergents", 1e3),
        "surd.floor.calls_per_digit": _div(calls[nid["surd.floor"]], cnt["digits"]),
        "surd.floor.us_per_call": per_call("surd.floor", 1e3),
        "surd.recip_frac.us_per_call": per_call("surd.recip_frac", 1e3),
        "surd.state_bits_max": cnt["state_bits_max"],
        "cover.interval_of.us_per_call": per_call("cover.interval_of", 1e3),
        "cover.verify_cover_properties.words_per_s":
            _div(cnt["words"], total[nid["cover.verify_cover_properties"]] / 1e9),
        "cover.verify_cover_properties.peak_alloc_mb": peak_mb,
        "baire.baire_distance.us_per_call": per_call("baire.baire_distance", 1e3),
        "baire.baire_distance.exact_ratio": _div(cnt["exact_answers"], cnt["total_queries"]),
        "baire.psi_map.us_per_call": per_call("baire.psi_map", 1e3),
        "homeo.phi_inverse.us_per_call": per_call("homeo.phi_inverse", 1e3),
        "homeo.phi_forward.us_per_call": per_call("homeo.phi_forward", 1e3),
        "homeo.check_ball_image.us_per_call": per_call("homeo.check_ball_image", 1e3),
        "ultra.table_from_json.ms_per_call": per_call("ultra.table_from_json", 1e6),
        "ultra.FiniteSpace.ms_per_call": per_call("ultra.FiniteSpace", 1e6),
        "ultra.FiniteSpace.triples_per_s":
            _div(cnt["triples"], total[nid["ultra.FiniteSpace"]] / 1e9),
        "ultra.build_cover_sequence.ms_per_call": per_call("ultra.build_cover_sequence", 1e6),
        "ultra.ultrametric_from_covers.ms_per_call": per_call("ultra.ultrametric_from_covers", 1e6),
        "ultra.ultrametric_from_covers.calls_per_op":
            calls_per_op("ultra.ultrametric_from_covers", "ultra base-eq"),
        "ultra.verify_ultrametric.ms_per_call": per_call("ultra.verify_ultrametric", 1e6),
        "ultra.verify_ultrametric.calls_per_op": calls_per_op("ultra.verify_ultrametric", "ultra verify"),
        "ultra.verify_ball_properties.ms_per_radius":
            _div(self_ns[nid["ultra.verify_ball_properties"]], cnt["radii"]) / 1e6,
        "ultra.verify_base_equality.ms_per_call": per_call("ultra.verify_base_equality", 1e6),
        "ultra.sierpinski_embed.ms_per_call": per_call("ultra.sierpinski_embed", 1e6),
    }
