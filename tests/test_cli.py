"""Command line behaviour: wiring, exit codes, JSON payloads."""

import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path
from fractions import Fraction
from types import SimpleNamespace

import bairecf
import bairecf.cf as cf
import bairecf.cli as cli
import bairecf.ultra as ultra
from bairecf import convergents, evaluate, expand_rational, format_rational, parse_rational
from bairecf.cf import _fold
from bairecf.cli import main, run
from bairecf.cover import CoverReport
from bairecf.report import PropertyCheck

from _commands import COMMANDS, GOLDEN_DIR, blob

DATA = Path(__file__).parent / "data"
SPACE3 = str(DATA / "space3.json")
EUCLID3 = str(DATA / "euclid3.json")
COVERS3 = str(DATA / "covers3.json")
ROOT = Path(__file__).resolve().parent.parent
SRC = Path(bairecf.__file__).resolve().parent.parent  # where the package under test lives


def _golden(name: str) -> str:
    return (GOLDEN_DIR / f"{name}.txt").read_text(encoding="utf-8")


def _child_env(**extra) -> dict:
    """A child process's environment: the package this test imported, the default depth cap."""
    env = {k: v for k, v in os.environ.items() if k != "BAIRECF_MAX_DEPTH"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return {**env, **extra}


def _bairecf(argv, env):
    return subprocess.run([sys.executable, "-m", "bairecf", *argv], capture_output=True,
                          encoding="utf-8", env=env, timeout=60)


def test_cf_commands():
    res = run(["cf", "expand", "355/113"])
    assert (res.exit_code, res.out, res.err) == (0, "[3; 7, 16]", "")
    res = run(["cf", "eval", "[3; 7, 16]"])
    assert (res.exit_code, res.out) == (0, "355/113")
    # non-canonical words are accepted for evaluation
    res = run(["cf", "eval", "[3; 7, 15, 1]"])
    assert (res.exit_code, res.out) == (0, "355/113")
    res = run(["cf", "convergents", "17/12"])
    assert res.out.splitlines() == ["1", "3/2", "7/5", "17/12"]


def test_cf_negative_rational_needs_no_separator():
    for value in (["-3/2"], ["--", "-3/2"]):
        res = run(["cf", "expand", *value])
        assert (res.exit_code, res.out, res.err) == (0, "[-2; 2]", "")
        res = run(["cf", "convergents", *value])
        assert (res.exit_code, res.out.splitlines(), res.err) == (0, ["-2", "-3/2"], "")
    res = run(["cf", "convergents", "-3/2", "--json"])
    assert json.loads(res.out)["convergents"] == ["-2", "-3/2"]
    # other arguments still read a leading minus as an option
    res = run(["baire", "ball", "(1)", "-1/2"])
    assert res.exit_code == 2


def _convergents_outcome(value: str):
    """What `cf convergents --json` should print, from the library's Fractions."""
    try:
        x = parse_rational(value)
        cs = [format_rational(c) for c in convergents(expand_rational(x))]
    except ValueError as e:
        return 1, f"error: {e}"
    return 0, cs


def test_cf_convergents_payload_matches_the_library():
    rng = random.Random(7002)
    edge = "9" * 4300
    values = [edge, "-" + edge, f"{edge}/{'9' * 4299}8", f"-1/{edge}", f"{edge}/2",
              f"-{edge}/{edge[:-1]}7", "1" * 4301, f"1/1{'0' * 4300}", "0", "-1", "1/2", "-1/2"]
    for i in range(2000):
        length = 700 if i % 200 == 0 else rng.choice([1, 1, 2, 3, 5, 12])
        word = [rng.randint(-30, 30)] + [rng.randint(1, 9 if length > 12 else 40)
                                         for _ in range(length - 1)]
        values.append(str(evaluate(word)))
    for value in values:
        res = run(["cf", "convergents", "--json", "--", value])
        code, want = _convergents_outcome(value)
        if code == 0:
            payload = json.loads(res.out)
            assert (res.exit_code, payload["convergents"], payload["value"]) == (0, want, want[-1])
        else:
            assert (res.exit_code, res.out, res.err) == (1, "", want), value[:40]


def test_cf_expand_json_payload():
    res = run(["cf", "expand", "355/113", "--json"])
    assert res.exit_code == 0
    assert "\n" not in res.out
    assert json.loads(res.out) == {"status": "ok", "value": "355/113", "word": [3, 7, 16]}


def test_surd_expand():
    res = run(["surd", "expand", "(0+1*sqrt(2))/1", "--depth", "5"])
    assert (res.exit_code, res.out) == (0, "[1; 2, 2, 2, 2, 2]")
    res = run(["surd", "expand", "(1+1*sqrt(5))/2", "--depth", "4", "--json"])
    payload = json.loads(res.out)
    assert payload["word"] == [1, 1, 1, 1, 1]
    assert payload["surd"] == "(1+1*sqrt(5))/2"


def test_baire_dist():
    res = run(["baire", "dist", "(0,1,2)", "(0,1,5)", "--bound", "3"])
    assert (res.exit_code, res.out) == (0, "EXACT 1/3")
    # the default bound of 32 outruns a three-entry tailless point
    res = run(["baire", "dist", "(0,1,2)", "(0,1,5)"])
    assert res.exit_code == 1
    res = run(["baire", "dist", "(1,1)", "(1,1)", "--bound", "2"])
    assert res.out == "AT_MOST 1/3"
    res = run(["baire", "dist", "(-2,1,1)", "(-2,1,2)", "--space", "z", "--bound", "3"])
    assert (res.exit_code, res.out) == (0, "EXACT 1/3")
    # negative entries need the z space
    res = run(["baire", "dist", "(-2,1,1)", "(-2,1,2)", "--bound", "3"])
    assert res.exit_code == 1
    assert res.err.startswith("error:")


def test_baire_ball():
    res = run(["baire", "ball", "(3,1,4,1,5)", "1/3"])
    assert (res.exit_code, res.out) == (0, "(3,1,4)")
    res = run(["baire", "ball", "(1)~(2)", "1/3", "--space", "z"])
    assert (res.exit_code, res.out) == (0, "(1,2,2)")
    res = run(["baire", "ball", "(1)", "2", "--json"])
    payload = json.loads(res.out)
    assert payload["whole_space"] is True
    assert payload["cylinder"] is None
    assert run(["baire", "ball", "(1)", "2"]) == cli.CommandResult(0, "whole space")
    res = run(["baire", "ball", "(1,2)", "1/9"])
    assert res.exit_code == 1
    # the cylinder has floor(1/r) entries, capped like every other depth
    res = run(["baire", "ball", "(1)~(2)", "1/64"])
    assert (res.exit_code, res.out) == (0, "(1" + ",2" * 63 + ")")
    res = run(["baire", "ball", "(1)~(2)", "1/65"])
    assert (res.exit_code, res.out) == (1, "")
    assert res.err == (
        "error: cylinder length 65 exceeds the configured maximum 64 (BAIRECF_MAX_DEPTH)")
    assert run(["baire", "ball", "(1)~(2)", "0"]).err == "error: radius must be positive, got 0"


def test_baire_psi_both_ways():
    res = run(["baire", "psi", "(0,1,2)~(3)"])
    assert (res.exit_code, res.out) == (0, "(0,2,3)~(4)")
    res = run(["baire", "psi", "(0,2,3)~(4)", "--inverse"])
    assert (res.exit_code, res.out) == (0, "(0,1,2)~(3)")


def test_cover_show_and_locate():
    res = run(["cover", "show", "[1; 2, 2]"])
    assert (res.exit_code, res.out) == (0, "level 2: (7/5, 10/7)")
    res = run(["cover", "locate", "(0+1*sqrt(2))/1", "--level", "3"])
    assert (res.exit_code, res.out) == (0, "[1; 2, 2, 2] (24/17, 17/12)")
    # each command names its own argument
    res = run(["cover", "locate", "(0+1*sqrt(2))/1", "--level", "-1"])
    assert (res.exit_code, res.err) == (1, "error: level must be >= 0, got -1")
    res = run(["homeo", "inv", "(0+1*sqrt(2))/1", "--depth", "-1"])
    assert (res.exit_code, res.err) == (1, "error: depth must be >= 0, got -1")


def test_cover_verify_passes():
    res = run(["cover", "verify", "--max-level", "2"])
    assert res.exit_code == 0
    lines = res.out.splitlines()
    assert "disjoint: pass" in lines
    assert "refinement: pass" in lines
    assert "closure_refinement: pass" in lines
    assert "mesh: pass" in lines
    assert any(line.startswith("words_checked:") for line in lines)


def test_cover_verify_word_budget(monkeypatch):
    def reached(max_level, a0_range, digit_max):
        raise ValueError("verifier reached")

    monkeypatch.setattr(cli, "verify_cover_properties", reached)
    assert cli.MAX_COVER_WORDS == 131072
    # the default shape through level 7 is 109225 words, through level 8 436905
    assert "verifier reached" in run(["cover", "verify", "--max-level", "7"]).err
    over = [
        ["--max-level", "8"],
        ["--max-level", "64"],
        ["--max-level", "1", "--digit-max", str(10**40)],
        ["--max-level", "0", "--a0-lo", str(-(10**40)), "--a0-hi", str(10**40)],
        # counts past 4300 digits are named by a power of ten, not printed
        ["--a0-lo", "0", "--a0-hi", "9" * 4300],
        ["--max-level", "1", "--a0-lo", "0", "--a0-hi", "0", "--digit-max", "9" * 4300],
    ]
    for extra in over:
        res = run(["cover", "verify", *extra])
        assert res.exit_code == 1, extra
        assert "words exceeds the budget 131072" in res.err, extra
        assert "set_int_max_str_digits" not in res.err, extra
    assert "slice of at least 10^4300 words" in run(["cover", "verify", *over[-1]]).err
    assert "slice of at least 436905 words" in run(["cover", "verify", "--max-level", "64"]).err
    # bad ranges count low and reach the verifier's own checks
    assert "verifier reached" in run(["cover", "verify", "--digit-max", str(-(10**40))]).err


def test_cover_verify_refuses_unprintable_maxima_before_the_walk(monkeypatch):
    # the longest member at level L has length 1/(F(L+1) F(L+2)), which first
    # reaches 4301 digits at level 10288
    calls = []

    def reached(*args):
        calls.append(args)
        raise ValueError("verifier reached")

    monkeypatch.setattr(cli, "verify_cover_properties", reached)
    monkeypatch.setenv("BAIRECF_MAX_DEPTH", "100000")
    narrow = ["cover", "verify", "--a0-lo", "0", "--a0-hi", "0", "--digit-max", "1"]
    for mode in ([], ["--json"]):
        res = run([*narrow, "--max-level", "10288", *mode])
        assert (res.exit_code, res.out, res.err) == (1, "", BUDGET_ERROR), mode
    assert calls == []
    assert run([*narrow, "--max-level", "10287"]).err == "error: verifier reached"
    assert calls == [(10287, (0, 0), 1)]
    # a slice the verifier refuses still reaches its range checks
    assert run([*narrow, "--max-level", "10288", "--a0-lo", "1"]).err == "error: verifier reached"


def test_ultra_point_budget(tmp_path):
    table = tmp_path / "table.json"
    table.write_text(json.dumps({"points": list(range(801)), "dist": []}))
    covers = tmp_path / "covers.json"
    covers.write_text(json.dumps({"levels": [[list(range(801))]]}))
    for argv in (["ultra", "verify", str(table)], ["ultra", "build", str(table), "--depth", "2"],
                 ["ultra", "base-eq", str(table), "--depth", "2"], ["embed", str(table)],
                 ["ultra", "base-eq", str(covers), "--covers"]):
        res = run(argv)
        assert (res.exit_code, res.out) == (1, ""), argv
        assert "801 points exceed the budget 800" in res.err, argv


def test_empty_space_exits_one_in_every_file_command(tmp_path):
    space = tmp_path / "empty.json"
    space.write_text(json.dumps({"points": [], "dist": []}))
    argvs = [["ultra", "verify", str(space)], ["ultra", "build", str(space), "--depth", "2"],
             ["ultra", "base-eq", str(space), "--depth", "2"], ["embed", str(space)]]
    for k, levels in enumerate(([[]], [[], []])):
        covers = tmp_path / f"covers{k}.json"
        covers.write_text(json.dumps({"levels": levels}))
        argvs.append(["ultra", "base-eq", str(covers), "--covers"])
    for argv in argvs:
        for extra in ([], ["--json"]):
            res = run(argv + extra)
            assert (res.exit_code, res.out, res.err) == (
                1, "", "error: need at least one point"), argv + extra


def test_ultra_bad_tables_exit_one_with_a_message(tmp_path):
    cases = [
        ({"points": ["a", "b"], "dist": [["a", "b", "1"], ["a", "b", "2"]]},
         "error: conflicting distances for ('a', 'b')"),
        ({"points": ["a", "b"], "dist": [["a", "b", "1"], ["b", "a", "2"]]},
         "error: conflicting distances for ('a', 'b')"),
        ({"points": ["a", "b"], "dist": [[["a"], "b", "1"]]},
         "error: point id must be a string or integer: ['a']"),
        ({"points": ["a", "b"], "dist": "ab"}, "error: dist must be a list of rows"),
        ({"points": "ab", "dist": []}, "error: points must be a list of ids"),
    ]
    for obj, err in cases:
        path = tmp_path / "table.json"
        path.write_text(json.dumps(obj))
        res = run(["ultra", "verify", str(path)])
        assert (res.exit_code, res.out, res.err) == (1, "", err), obj
    path = tmp_path / "covers.json"
    path.write_text(json.dumps({"levels": [[["a", ["x"]]]]}))
    res = run(["ultra", "base-eq", str(path), "--covers"])
    assert (res.exit_code, res.out, res.err) == (
        1, "", "error: point id must be a string or integer: ['x']")


def test_homeo_commands():
    res = run(["homeo", "fwd", "(1)~(2)", "--depth", "3"])
    assert (res.exit_code, res.out) == (0, "(24/17, 17/12) midpoint 577/408")
    res = run(["homeo", "inv", "(0+1*sqrt(3))/1", "--depth", "3"])
    assert (res.exit_code, res.out) == (0, "(1,1,2,1)")
    res = run(["homeo", "ball", "(1)~(2)", "--n", "3", "--json"])
    payload = json.loads(res.out)
    assert payload["status"] == "ok"
    assert payload["cylinder"] == [1, 2, 2]
    assert payload["all_inside"] is True


def test_ultra_build():
    res = run(["ultra", "build", SPACE3, "--depth", "2"])
    assert res.exit_code == 0
    lines = res.out.splitlines()
    assert lines[0] == "level 0: {a, b} | {c}"
    assert lines[1] == "level 1: {a} | {b} | {c}"
    assert "d(a, b) = 1/2" in lines
    assert "d(a, c) = 1" in lines


def test_ultra_verify_exit_codes():
    res = run(["ultra", "verify", SPACE3])
    assert res.exit_code == 0
    assert "strong_triangle: pass" in res.out
    res = run(["ultra", "verify", EUCLID3])
    assert res.exit_code == 3
    assert "strong_triangle: FAIL" in res.out
    payload = json.loads(run(["ultra", "verify", EUCLID3, "--json"]).out)
    assert payload["status"] == "error"
    assert payload["ultrametric"]["strong_triangle"]["passed"] is False


def test_ultra_base_eq():
    res = run(["ultra", "base-eq", SPACE3, "--depth", "2"])
    assert res.exit_code == 0
    assert "equality: pass" in res.out
    res = run(["ultra", "base-eq", COVERS3, "--covers"])
    assert res.exit_code == 0
    assert "ball_system_size: 5" in res.out
    assert "base_system_size: 5" in res.out
    res = run(["ultra", "base-eq", SPACE3])
    assert res.exit_code == 2
    assert "--depth is required" in res.err


def test_embed():
    res = run(["embed", SPACE3, "--depth", "2"])
    assert res.exit_code == 0
    assert res.out.splitlines() == ["a -> (0,0)", "b -> (0,1)", "c -> (1,2)"]
    payload = json.loads(run(["embed", SPACE3, "--depth", "2", "--json"]).out)
    assert payload["embedding"] == [["a", [0, 0]], ["b", [0, 1]], ["c", [1, 2]]]


def test_bad_input_exit_code_one():
    res = run(["cf", "expand", "abc"])
    assert res.exit_code == 1
    assert res.err.startswith("error:")
    assert res.out == ""
    res = run(["cf", "eval", "[3; 0]"])
    assert res.exit_code == 1
    res = run(["ultra", "build", str(DATA / "missing.json")])
    assert res.exit_code == 1
    res = run(["ultra", "verify", EUCLID3.replace("euclid3.json", "")])
    assert res.exit_code == 1


def test_malformed_json_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    res = run(["ultra", "verify", str(bad)])
    assert res.exit_code == 1
    assert "invalid JSON" in res.err


def test_usage_errors_exit_code_two():
    assert run([]).exit_code == 2
    assert run(["nope"]).exit_code == 2
    assert run(["cf"]).exit_code == 2
    res = run(["surd", "expand"])
    assert res.exit_code == 2
    assert res.err.startswith("usage error:")
    # the top-level parser reports what a leaf leaves over
    for argv in (["cf", "expand", "1/2", "--bogus"], ["embed", "x.json", "y"]):
        expected = f"usage error: bairecf: unrecognized arguments: {argv[-1]}"
        assert run(argv) == cli.CommandResult(2, err=expected), argv


def test_max_depth_env(monkeypatch):
    monkeypatch.setenv("BAIRECF_MAX_DEPTH", "8")
    ok = run(["surd", "expand", "(0+1*sqrt(2))/1", "--depth", "8"])
    assert ok.exit_code == 0
    over = run(["surd", "expand", "(0+1*sqrt(2))/1", "--depth", "9"])
    assert over.exit_code == 1
    assert "exceeds the configured maximum 8" in over.err
    monkeypatch.setenv("BAIRECF_MAX_DEPTH", "abc")
    res = run(["surd", "expand", "(0+1*sqrt(2))/1"])
    assert res.exit_code == 2
    monkeypatch.setenv("BAIRECF_MAX_DEPTH", "0")
    res = run(["baire", "dist", "(1)", "(2)", "--bound", "1"])
    assert res.exit_code == 2


BUDGET_ERROR = "error: result exceeds the 4300-digit budget; use a lower depth"


def test_results_past_the_digit_budget_exit_one(monkeypatch):
    limit = sys.get_int_max_str_digits()
    monkeypatch.setenv("BAIRECF_MAX_DEPTH", "100000")
    for argv in (["homeo", "fwd", "(9)~(9)", "--depth", "5000"],
                 ["homeo", "fwd", "(9)~(9)", "--depth", "5000", "--json"],
                 ["cf", "eval", "[1; " + ", ".join(["9"] * 5000) + "]"],
                 ["cf", "expand", "1/" + "3" * 4400]):
        res = run(argv)
        assert (res.exit_code, res.out) == (1, "")
        assert "exceeds the 4300-digit budget" in res.err
        assert ("use a lower depth" in res.err) == (argv[1] != "expand")
        assert "set_int_max_str_digits" not in res.err
    assert run(["homeo", "fwd", "(9)~(9)", "--depth", "2000"]).exit_code == 0
    assert sys.get_int_max_str_digits() == limit


def test_cf_eval_stops_folding_once_past_the_budget(monkeypatch):
    pushed = []

    def fold(digits, state):
        pushed.append(len(digits))
        return _fold(digits, state)

    monkeypatch.setattr(cf, "_fold", fold)
    res = run(["cf", "eval", "[1; " + ", ".join(["9"] * 65000) + "]"])
    assert (res.exit_code, res.err) == (1, BUDGET_ERROR)
    # q passes 10^4300 within the ninth chunk of 512 digits
    assert pushed == [512] * 9


def test_deep_commands_stop_folding_once_past_the_budget(monkeypatch):
    monkeypatch.setenv("BAIRECF_MAX_DEPTH", "100000")
    pushed = []

    def fold(digits, state=cf._EMPTY):
        pushed.append(len(digits))
        return _fold(digits, state)

    # All three fold the word [1; 2, 2, ...] of sqrt(2), whose q first reaches
    # 10^4300 at the digit counted here, with one push per digit.
    state, first, cap = _fold((1,)), 1, 10**4300
    while state[1] < cap:
        state, first = _fold((2,), state), first + 1
    assert (first - 1) // 512 + 1 == 22
    monkeypatch.setattr(cf, "_fold", fold)
    for argv in (["cover", "locate", "(0+1*sqrt(2))/1", "--level", "100000"],
                 ["homeo", "fwd", "(1)~(2)", "--depth", "100000"],
                 ["homeo", "ball", "(1)~(2)", "--n", "100000"]):
        for mode in ([], ["--json"]):
            pushed.clear()
            res = run(argv + mode)
            assert (res.exit_code, res.out, res.err) == (1, "", BUDGET_ERROR)
            assert pushed == [512] * 22, argv


def test_homeo_inv_reads_deep_digits_with_no_fold(monkeypatch):
    monkeypatch.setenv("BAIRECF_MAX_DEPTH", "100000")
    monkeypatch.setattr(cf, "_fold", None)  # a fold would raise TypeError
    argv = ["homeo", "inv", "(0+1*sqrt(2))/1", "--depth", "100000"]
    text, as_json = run(argv), run(argv + ["--json"])
    assert (text.exit_code, text.err, as_json.exit_code, as_json.err) == (0, "", 0, "")
    assert text.out == json.loads(as_json.out)["point"] == "(1" + ",2" * 100000 + ")"


def test_default_depth_cap_is_64():
    assert run(["surd", "expand", "(0+1*sqrt(2))/1", "--depth", "64"]).exit_code == 0
    assert run(["surd", "expand", "(0+1*sqrt(2))/1", "--depth", "65"]).exit_code == 1


def test_version_and_main(monkeypatch, capsys):
    assert run(["--version"]).exit_code == 0
    capsys.readouterr()
    monkeypatch.setattr(sys, "argv", ["bairecf", "cf", "expand", "7/3"])
    assert run(None) == cli.CommandResult(0, out="[2; 3]")
    code = main(["cf", "expand", "7/3"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == "[2; 3]\n"
    assert captured.err == ""
    code = main(["cf", "expand", "x"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_covers_depth_cap(tmp_path, monkeypatch):
    monkeypatch.delenv("BAIRECF_MAX_DEPTH", raising=False)
    derived = []
    orig = ultra.ultrametric_from_covers

    def counted(seq, ground):
        derived.append(seq.depth)
        return orig(seq, ground)

    monkeypatch.setattr(ultra, "ultrametric_from_covers", counted)
    for levels in (65, 64):
        path = tmp_path / f"covers{levels}.json"
        path.write_text(json.dumps({"levels": [[["a", "b"]]] * (levels - 1) + [[["a"], ["b"]]]}))
        res = run(["ultra", "base-eq", str(path), "--covers"])
        if levels == 65:
            assert (res.exit_code, res.out, derived) == (1, "", [])
            assert res.err == ("error: covers depth 65 exceeds the configured maximum 64 "
                               "(BAIRECF_MAX_DEPTH)")
        else:
            assert (res.exit_code, derived) == (0, [64])
            assert "equality: pass" in res.out


def _set_cap(monkeypatch, cap):
    if cap is None:
        monkeypatch.delenv("BAIRECF_MAX_DEPTH", raising=False)
    else:
        monkeypatch.setenv("BAIRECF_MAX_DEPTH", cap)


def test_one_parser_serves_every_call(monkeypatch, capsys):
    """All goldens twice, in a seeded shuffle with usage errors, an unknown
    command, --version and changes to the depth cap, on one reused parser."""
    extras = [
        (None, ["surd", "expand"]),
        (None, ["baire", "dist", "(1)", "--bound", "x"]),
        (None, ["nope"]),
        (None, ["--version"]),
        ("8", ["surd", "expand", "(0+1*sqrt(2))/1", "--depth", "9"]),
        ("8", ["surd", "expand", "(0+1*sqrt(2))/1", "--depth", "8"]),
        ("abc", ["baire", "dist", "(1)", "(2)", "--bound", "1"]),
        ("0", ["surd", "expand", "(0+1*sqrt(2))/1"]),
    ]
    calls = [(None, argv, _golden(name)) for name, argv in COMMANDS]
    for cap, argv in extras:  # expected from a parser built for this call alone
        _set_cap(monkeypatch, cap)
        cli._parser.cache_clear()
        calls.append((cap, argv, blob(run(argv))))
    assert "exceeds the configured maximum 8" in calls[len(COMMANDS) + 4][2]
    assert calls[len(COMMANDS) + 5][2].startswith("exit: 0")
    calls *= 2
    random.Random(9).shuffle(calls)
    capsys.readouterr()
    cli._parser.cache_clear()
    for cap, argv, expected in calls:
        _set_cap(monkeypatch, cap)
        assert blob(run(argv)) == expected, argv
        if argv == ["--version"]:
            assert capsys.readouterr().out == f"bairecf {cli.__version__}\n"
    assert cli._parser.cache_info().misses == 1


def test_parser_built_once_per_process(monkeypatch):
    monkeypatch.delenv("BAIRECF_MAX_DEPTH", raising=False)
    inits = []
    orig = cli._Parser.__init__

    def counted(self, *args, **kwargs):
        inits.append(self)
        orig(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counted)
    first, second = cli.build_parser(), cli.build_parser()
    assert first is not second
    per_tree = len(inits) // 2
    inits.clear()
    cli._parser.cache_clear()
    for i in range(50):
        run(COMMANDS[i % len(COMMANDS)][1])
    assert len(inits) == per_tree > 1
    assert cli._parser() is cli._parser()


def test_one_shot_process_matches_goldens():
    env = _child_env()
    argvs = dict(COMMANDS)
    usage = ["surd", "expand"]
    cases = [
        (argvs["cf-expand"], _golden("cf-expand")),
        (argvs["surd-expand-golden-json"], _golden("surd-expand-golden-json")),
        (usage, blob(run(usage))),
    ]
    for argv, expected in cases:
        proc = _bairecf(argv, env)
        got = SimpleNamespace(exit_code=proc.returncode, out=proc.stdout.removesuffix("\n"),
                              err=proc.stderr.removesuffix("\n"))
        assert blob(got) == expected, argv
    assert proc.returncode == 2 and proc.stderr.startswith("usage error:")


def test_no_output_depends_on_the_hash_seed(tmp_path):
    env = _child_env()
    overlap = tmp_path / "overlap.json"
    overlap.write_text(json.dumps({"levels": [[["a", "b", "c", "d"], ["c", "d"]]]}))
    errs = set()
    for seed in ("1", "2"):
        env["PYTHONHASHSEED"] = seed
        goldens = subprocess.run([sys.executable, str(ROOT / "tools" / "check_goldens.py")],
                                 capture_output=True, encoding="utf-8", env=env, timeout=120)
        assert goldens.returncode == 0, goldens.stdout
        proc = _bairecf(["ultra", "base-eq", str(overlap), "--covers"], env)
        errs.add((proc.returncode, proc.stderr))
    assert errs == {(1, "error: level 0: blocks overlap at 'c'\n")}


def test_a_rendering_error_exits_one_in_both_modes():
    # the first digit of this surd has about 6450 digits: too long to print
    nines = "9" * 4300
    argv = ["surd", "expand", f"(0+{nines}*sqrt({nines}))/1", "--depth", "0"]
    for extra in ([], ["--json"]):
        res = run(argv + extra)
        assert (res.exit_code, res.out) == (1, ""), extra
        assert res.err.startswith("error: ") and "\n" not in res.err, extra
        assert "Traceback" not in res.err


def _both_modes(argv):
    text, as_json = run(argv), run(argv + ["--json"])
    assert (text.exit_code, text.err, as_json.exit_code, as_json.err) == (3, "", 3, "")
    payload = json.loads(as_json.out)
    assert payload["status"] == "error"
    return text.out.splitlines(), payload


def test_cover_verify_failure_exits_three_in_both_modes(monkeypatch):
    report = CoverReport(PropertyCheck.fail("two words overlap"), PropertyCheck.ok(),
                         PropertyCheck.fail("a child leaves its parent"), PropertyCheck.ok(),
                         {0: Fraction(1), 1: Fraction(1, 2)}, 10)
    monkeypatch.setattr(cli, "verify_cover_properties", lambda *args: report)
    lines, payload = _both_modes(["cover", "verify", "--max-level", "1"])
    assert lines == [
        "disjoint: FAIL (two words overlap)",
        "refinement: pass",
        "closure_refinement: FAIL (a child leaves its parent)",
        "mesh: pass",
        "max_length level 0: 1",
        "max_length level 1: 1/2",
        "words_checked: 10",
    ]
    assert payload == {"status": "error", **report.as_json()}


def test_cover_verify_maxima_past_the_digit_budget_exit_one(monkeypatch):
    ok = PropertyCheck.ok()
    report = CoverReport(ok, ok, ok, ok, {0: Fraction(1), 1: Fraction(1, 10**4300)}, 2)
    monkeypatch.setattr(cli, "verify_cover_properties", lambda *args: report)
    for mode in ([], ["--json"]):
        res = run(["cover", "verify", "--max-level", "1", *mode])
        assert (res.exit_code, res.out, res.err) == (1, "", BUDGET_ERROR)


def test_ultra_verify_failure_exits_three_in_both_modes():
    lines, payload = _both_modes(["ultra", "verify", EUCLID3])
    not_checked = "FAIL (not checked: table is not an ultrametric)"
    assert lines == [
        "strong_triangle: FAIL (d(x, z) = 5/2 > max of the other two sides = 2)",
        "isosceles: FAIL (all three sides differ on (x, y, z): 1, 5/2, 2)",
        f"nesting: {not_checked}",
        f"same_radius_coincide: {not_checked}",
        f"every_point_centers: {not_checked}",
        f"closed_ball_absorption: {not_checked}",
        f"equal_radius_partition: {not_checked}",
    ]
    assert payload["ultrametric"]["passed"] is False
    assert payload["balls"]["passed"] is False


# One valid argv per leaf command, keyed by the leaf's path in the command table.
LEAF_SAMPLES = {
    ("cf", "expand"): ["-3/2"],
    ("cf", "eval"): ["[3; 7, 15, 1]"],
    ("cf", "convergents"): ["17/12"],
    ("surd", "expand"): ["(1+1*sqrt(5))/2", "--depth", "3"],
    ("baire", "dist"): ["(-2,1,1)", "(-2,1,2)", "--space", "z", "--bound", "3"],
    ("baire", "ball"): ["(-2)~(1)", "1/3", "--space", "z"],
    ("baire", "psi"): ["(0,2,3)~(4)", "--inverse"],
    ("cover", "show"): ["[1; 2, 2]"],
    ("cover", "locate"): ["(0+1*sqrt(3))/1", "--level", "2"],
    ("cover", "verify"): ["--max-level", "1"],
    ("homeo", "fwd"): ["(1)~(2)", "--depth", "2"],
    ("homeo", "inv"): ["(0+1*sqrt(3))/1", "--depth", "2"],
    ("homeo", "ball"): ["(1)~(2)", "--n", "2"],
    ("ultra", "build"): [SPACE3, "--depth", "2"],
    ("ultra", "verify"): [EUCLID3],
    ("ultra", "base-eq"): [COVERS3, "--covers"],
    ("embed",): [SPACE3, "--depth", "3"],
}


def _leaf(argv) -> tuple:
    """The leaf command an argv names: a group and a name, or a top-level name."""
    return tuple(argv[:2] if argv[0] in cli._GROUPS else argv[:1])


LEAVES = [(group, name) if group else (name,) for group, name, *_ in cli._COMMANDS]


def test_the_leaf_parser_agrees_with_the_whole_tree(monkeypatch, capsys):
    """Seeded argvs give the same result, output and printing when run() parses the
    words after a leaf's name with that leaf's parser as when the tree parses them all."""
    monkeypatch.delenv("BAIRECF_MAX_DEPTH", raising=False)
    monkeypatch.setenv("COLUMNS", "80")
    words = sorted({w for path in LEAVES for w in path}
                   | {w for sample in LEAF_SAMPLES.values() for w in sample}
                   | {"-h", "--help", "--version", "--", "-3/2", "--dep", "--js", "--json",
                      "--bogus", "--json=1", "x", "1/2"})
    parser = cli._parser()
    leaves, parse_args, tree = parser.leaves, parser.parse_args, []
    monkeypatch.setattr(parser, "leaves", leaves)
    monkeypatch.setattr(parser, "parse_args", lambda argv: tree.append(argv) or parse_args(argv))

    def outcome(argv):
        res = run(argv)
        printed = capsys.readouterr()
        return res, printed.out, printed.err

    rng = random.Random(28)
    codes = set()
    for _ in range(2000):
        path = rng.choice([*LEAVES, ("cf",), ()])
        sample = LEAF_SAMPLES.get(path, []) if rng.random() < 0.5 else []
        argv = [*path, *sample, *rng.choices(words, k=rng.randrange(4))]
        parser.leaves, before = leaves, len(tree)
        via_leaf = outcome(argv)
        codes.add((via_leaf[0].exit_code, len(tree) > before))
        parser.leaves = {}
        assert outcome(argv) == via_leaf, argv
    # each exit code, through the leaf alone and through the tree too
    assert codes == {(0, False), (0, True), (1, False), (2, False), (2, True), (3, False)}


def test_every_leaf_command_renders_in_both_modes():
    assert len(LEAVES) == 17
    assert sorted(LEAVES) == sorted(LEAF_SAMPLES)
    for path in LEAVES:
        argv = [*path, *LEAF_SAMPLES[path]]
        for extra in ([], ["--json"]):
            res = run(argv + extra)
            assert res.exit_code in (0, 3), (argv, extra, res.err)
            assert res.out and not res.err, (argv, extra)


def test_every_leaf_has_a_golden_and_a_readme_example():
    assert {_leaf(argv) for _, argv in COMMANDS} == set(LEAVES)
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n")[1].split("\n## ")[0]
    examples = [line.split()[1:] for line in section.splitlines() if line.startswith("bairecf ")]
    assert {_leaf(argv) for argv in examples} == set(LEAVES)


def test_every_leaf_help_names_each_argument_with_its_help(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    for path, (_, _, _, args, _, _) in zip(LEAVES, cli._COMMANDS):
        assert run([*path, "--help"]).exit_code == 0
        text = " ".join(capsys.readouterr().out.split())
        for name, kwargs in [*args, ("--json", {"help": "print a single-line JSON payload"})]:
            # the name, its metavar if it takes a value, then its help
            pattern = rf"(^| ){re.escape(name)}( \S+)? {re.escape(kwargs['help'])}"
            assert re.search(pattern, text), (path, name)


def test_surd_digits_and_psi_entries_past_the_digit_budget_exit_one():
    nines = "9" * 4300
    surd = f"(0+{nines}*sqrt({nines}))/1"  # its first digit has about 6450 digits
    cases = [
        (["surd", "expand", surd, "--depth", "0"], "surd digit"),
        (["homeo", "inv", surd, "--depth", "0"], "surd digit"),
        (["cover", "locate", surd, "--level", "0"], "surd digit"),
        (["baire", "psi", f"(0,{nines})"], "psi entry"),  # +1 makes 10^4300
        (["baire", "psi", f"(1)~({nines})"], "psi entry"),
        (["baire", "psi", f"({nines})", "--inverse"], "psi entry"),
        (["baire", "psi", f"(-{nines})", "--inverse"], "psi entry"),
        (["baire", "psi", f"()~({nines})", "--inverse"], "psi entry"),
    ]
    for argv, what in cases:
        for extra in ([], ["--json"]):
            res = run(argv + extra)
            assert (res.exit_code, res.out) == (1, ""), argv
            assert res.err == f"error: {what} exceeds the 4300-digit budget", argv
    # the largest results within the budget still print, in both modes
    top, half = nines, "4" + "9" * 4299  # 2 * half + 1 = 10^4300 - 1
    cases = [
        (["surd", "expand", f"({nines[:-1]}8+1*sqrt(2))/1", "--depth", "0"], f"[{top}]"),
        (["homeo", "inv", f"({nines[:-1]}8+1*sqrt(2))/1", "--depth", "0"], f"({top})"),
        (["baire", "psi", f"(0,{nines[:-1]}8)"], f"(0,{top})"),
        (["baire", "psi", f"(-{half})", "--inverse"], f"({nines[:-1]}7)"),
        (["baire", "psi", f"(-5{'0' * 4299})", "--inverse"], f"({top})"),
        (["baire", "psi", f"({half})", "--inverse"], f"({nines[:-1]}8)"),
    ]
    for argv, shown in cases:
        for extra in ([], ["--json"]):
            res = run(argv + extra)
            assert (res.exit_code, res.err) == (0, ""), argv
            assert shown in res.out, argv


def test_input_integers_past_the_digit_budget_exit_one(tmp_path):
    ones = "1" * 4301
    files = {  # a bare JSON integer in points, as a distance and in a covers block
        "id": '{"points": [%s, "a"], "dist": [[%s, "a", "1"]]}',
        "dist": '{"points": ["a", "b"], "dist": [["a", "b", %s]]}',
        "covers": '{"levels": [[[%s, "a"]], [[%s], ["a"]]]}',
    }
    argvs = {}
    for name, text in files.items():
        for digits in (ones, ones[1:]):
            path = tmp_path / f"{name}{len(digits)}.json"
            path.write_text(text.replace("%s", digits))
            argvs[path] = ["ultra", "verify", str(path)] if name != "covers" else [
                "ultra", "base-eq", str(path), "--covers"]
    cases = [
        *((argv, f"{path}: JSON integer") for path, argv in argvs.items() if "4301" in path.name),
        (["cf", "eval", f"[{ones}]"], "word digit"),
        (["cf", "eval", f"[1; 2, {ones}]"], "word digit"),
        (["baire", "dist", f"({ones})", "(1)"], "point entry"),
        (["surd", "expand", f"({ones}+1*sqrt(2))/1"], "surd parameter"),
        (["surd", "expand", f"(0+1*sqrt({ones}))/1"], "surd parameter"),
        (["homeo", "fwd", f"(1)~({ones})"], "tail entry"),
    ]
    for argv, what in cases:
        for extra in ([], ["--json"]):
            res = run(argv + extra)
            assert (res.exit_code, res.out) == (1, ""), argv
            assert res.err == f"error: {what} exceeds the 4300-digit budget", argv
    # one digit fewer is within the budget
    ones = ones[1:]
    for argv in (["cf", "eval", f"[{ones}]"], ["baire", "dist", f"({ones})", "(1)", "--bound", "1"],
                 ["surd", "expand", f"({ones}+1*sqrt(2))/1", "--depth", "0"],
                 ["homeo", "fwd", f"(1)~({ones})", "--depth", "0"],
                 *(argv for path, argv in argvs.items() if "4300" in path.name)):
        res = run(argv)
        assert (res.exit_code, res.err) == (0, ""), argv


def test_a_lower_interpreter_digit_limit_is_the_budget(tmp_path):
    """Under PYTHONINTMAXSTRDIGITS=640 the package names its own 640-digit budget."""
    env = _child_env(PYTHONINTMAXSTRDIGITS="640")
    for digits, refused in (("1" * 1000, True), ("1" * 640, False)):
        table = tmp_path / f"big{len(digits)}.json"
        table.write_text('{"points": [%s, "a"], "dist": [[%s, "a", "1"]]}' % (digits, digits))
        cases = [
            (["ultra", "verify", str(table)], f"{table}: JSON integer"),
            (["cf", "expand", f"1/{digits}"], "rational"),
            (["baire", "dist", f"({digits})", "(1)", "--bound", "1"], "point entry"),
        ]
        for argv, what in cases:
            proc = _bairecf(argv, env)
            if refused:
                assert (proc.returncode, proc.stdout) == (1, ""), argv
                assert proc.stderr == f"error: {what} exceeds the 640-digit budget\n", argv
            else:
                assert (proc.returncode, proc.stderr) == (0, ""), argv
