"""Self-test of the answer checks: every checker must reject a corrupted output.

    python3 bench/run.py --selftest

Runs one round of every workload at tiny size, requires every genuine output
to pass its check, then hands each command kind's checker one corrupted copy
of a genuine output (a changed digit, a Fibonacci step off, swapped embedding
digits, a wrong exit code, ...) and requires a CheckError.  Exits 0 only if
every corruption is rejected.
"""

from __future__ import annotations

import json
from fractions import Fraction

import checks
import workloads


def _bump_last(seq: list) -> None:
    seq[-1] += 1


def _bump_point(text: str) -> str:
    entries, tail = checks.parse_point(text)
    if tail:
        return checks.format_point(entries, tail[:-1] + (tail[-1] + 1,))
    return checks.format_point(entries[:-1] + (entries[-1] + 1,))


def _swap_embedding_digits(p: dict) -> None:
    """In a stream whose first digit another point shares, swap that digit
    with the stream's first different one.

    The point then leaves the level-0 block it shares, so that pair's
    embedded distance becomes 1 while the ultrametric is smaller.
    """
    streams = [digits for _x, digits in p["embedding"]]
    for digits in streams:
        j = next((j for j, a in enumerate(digits) if a != digits[0]), None)
        if j is not None and sum(other[0] == digits[0] for other in streams) > 1:
            digits[0], digits[j] = digits[j], digits[0]
            return


def _fibonacci_step_off(p: dict) -> None:
    top = max(p["max_length_by_level"], key=int)
    p["max_length_by_level"][top] = str(checks.fibonacci_bound(int(top) - 1))


def _halve_first_distance(p: dict) -> None:
    row = p["table"]["dist"][0]
    row[2] = str(Fraction(row[2]) / 2)


def _next_distance(p: dict) -> None:
    v = Fraction(p["value"])
    p["value"] = str(1 / (1 / v + 1)) if v else "1"


# kind -> (what is corrupted, payload edit); None edits the exit code instead
CORRUPTIONS = {
    "cf expand": ("last digit +1", lambda p: _bump_last(p["word"])),
    "cf eval": ("value +1", lambda p: p.update(value=str(Fraction(p["value"]) + 1))),
    "cf convergents": ("last convergent +1",
                       lambda p: p["convergents"].__setitem__(-1, str(Fraction(p["convergents"][-1]) + 1))),
    "surd expand": ("last digit +1", lambda p: _bump_last(p["word"])),
    "homeo inv": ("last digit +1", lambda p: p.update(point=_bump_point(p["point"]))),
    "cover locate": ("last digit +1", lambda p: _bump_last(p["word"])),
    "cover show": ("left end +1", lambda p: p.update(lo=str(Fraction(p["lo"]) + 1))),
    "cover verify": ("max_length one Fibonacci step off", _fibonacci_step_off),
    "homeo fwd": ("width doubled", lambda p: p.update(width=str(2 * Fraction(p["width"])))),
    "homeo ball": ("cylinder digit +1", lambda p: _bump_last(p["cylinder"])),
    "baire dist": ("distance one index later", _next_distance),
    "baire psi": ("output digit +1", lambda p: p.update(output=_bump_point(p["output"]))),
    "ultra build": ("one distance halved", _halve_first_distance),
    "embed": ("swapped embedding digits", _swap_embedding_digits),
    "ultra base-eq": ("ball system size +1",
                      lambda p: p.update(ball_system_size=p["ball_system_size"] + 1)),
    "ultra verify": ("wrong exit code", None),
}


def main(execute) -> int:
    """``execute`` is run.execute; with 0 seconds it runs one round in a worker."""
    ops, res, _setups = execute(list(workloads.WORKLOADS), seed=0, seconds=0, trace=False,
                                tiny=True, probes=0)
    results = res["results"]
    failed, messages = checks.check_outputs(ops, results)
    if failed:
        print("genuine outputs fail their checks:\n  " + "\n  ".join(messages))
        return 1

    ctx: dict = {}
    for i in checks.check_order(ops):  # fills ctx with the checked builds
        res = results[i][0]
        checks.check_one(ops[i], res["exit"], res["out"], res["err"], ctx)
    ok = True
    for kind, (what, edit) in CORRUPTIONS.items():
        # the first output of this kind that the edit changes
        for i in (j for j in range(len(ops)) if ops[j]["kind"] == kind):
            res = results[i][0]
            exit_code, payload = res["exit"], json.loads(res["out"])
            if edit is None:
                exit_code = 0 if exit_code == 3 else 3
                break
            edit(payload)
            if payload != json.loads(res["out"]):
                break
        else:
            ok = False
            print(f"NOT MADE  {kind:15s} {what}: no output of this kind could be corrupted")
            continue
        try:
            checks.check_one(ops[i], exit_code, json.dumps(payload), res["err"], dict(ctx))
        except checks.CheckError as e:
            print(f"rejected  {kind:15s} {what}: {e}")
        else:
            ok = False
            print(f"ACCEPTED  {kind:15s} {what}")
    missing = set(checks.CHECKERS) - set(CORRUPTIONS)
    if missing:
        ok = False
        print(f"no corruption for: {sorted(missing)}")
    print("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1
