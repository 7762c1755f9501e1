"""bairecf benchmark: CLI workloads with checked answers, end to end and per layer.

    python3 bench/run.py --workload cover-slice --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload digits --seed 1 --seconds 30 --trace 1
    python3 bench/run.py --workload finite-lab --seed 1 --inputs-only
    python3 bench/run.py --smoke
    python3 bench/run.py --selftest

Run from the root of a checkout; the package is imported from its ``src``
directory.  A run generates the workload's inputs from the seed, starts fresh
worker processes one after another (set-up probes, then the measured run),
checks every distinct output with ``checks.py`` and prints one JSON line:
correct, attempted, failed and the metrics named in BENCHMARK.json, the
end-to-end ones untraced (``--trace 0``) and the per-layer ones traced
(``--trace 1``).  A traced run interleaves the rounds of all three
workloads, so that every layer is measured in one run, whatever workload
is named.  Details of each run go to bench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
INPUTS = BENCH / "inputs"
RESULTS = BENCH / "results"

# Fresh processes timed from start to "ready"; the first one warms the file
# cache and is not counted.
SETUP_PROBES = 7
WORKER_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark could not run to its end."""


def _worker_env(extra: dict) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    env["PYTHONHASHSEED"] = "0"
    # Every worker compiles bairecf from source, whatever bytecode cache the
    # caller's environment would keep, so set-up times compare across hosts.
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.update(extra)
    return env


def _start(plan_path: Path, env: dict, probe: bool) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its ready line; returns it and its set-up time."""
    cmd = [sys.executable, str(BENCH / "worker.py"), str(plan_path)] + (["--probe"] if probe else [])
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker did not start (exit {proc.returncode})")
    return proc, setup


def _finish(proc: subprocess.Popen) -> str:
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker did not finish within {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    return out


def make_plan(names: list[str], seed: int, tiny: bool) -> tuple[list[dict], dict]:
    """Operations and environment for one run; several workloads are interleaved."""
    ops, env = [], {}
    for name in names:
        tag = f"{name}-s{seed}" + ("-tiny" if tiny else "")
        rnd = workloads.make_round(name, seed, INPUTS / tag, tiny)
        ops += rnd["ops"]
        env.update(rnd["env"])
    if len(names) > 1:
        random.Random(f"interleave/{seed}").shuffle(ops)
    return ops, env


def execute(names: list[str], seed: int, seconds: float, trace: bool, tiny: bool = False,
            probes: int = SETUP_PROBES) -> tuple[list[dict], dict, list[float]]:
    """Run one plan in fresh worker processes: its ops, the worker's result, set-up times."""
    ops, env = make_plan(names, seed, tiny)
    tag = ("traced" if trace else names[0]) + f"-s{seed}" + ("-tiny" if tiny else "")
    RESULTS.mkdir(parents=True, exist_ok=True)
    spans_path = RESULTS / f"spans-{tag}.bin"
    plan_path = INPUTS / f"plan-{tag}.json"
    plan_path.write_text(json.dumps({
        "src": str(SRC), "ops": ops, "seconds": seconds, "trace": trace,
        "spans_path": str(spans_path)}), encoding="utf-8")
    env = _worker_env(env)

    setups = []
    for i in range(probes + 1):
        proc, setup = _start(plan_path, env, probe=True)
        _finish(proc)
        if i:
            setups.append(setup)
    proc, setup = _start(plan_path, env, probe=False)
    setups.append(setup)
    res = json.loads(_finish(proc).splitlines()[-1])
    return ops, res, setups


def measure(names: list[str], seed: int, seconds: float, trace: bool, tiny: bool = False,
            probes: int = SETUP_PROBES) -> dict:
    """Run one plan, check its outputs and compute its metrics."""
    ops, res, setups = execute(names, seed, seconds, trace, tiny, probes)
    failed, messages = checks.check_outputs(ops, res["results"])
    for m in messages[:20]:
        print(f"check failed: {m}", file=sys.stderr)
    lat_ms = [ns / 1e6 for ns in res["latencies_ns"]]
    attempted = len(lat_ms)
    out = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "rounds": res["rounds"],
        "ops_per_round": len(ops),
        "end_to_end": {
            "setup_s": statistics.median(setups),
            "ops_per_s": (attempted - failed) / (res["wall_ns"] / 1e9),
            "op_p50_ms": statistics.median(lat_ms),
            "op_p90_ms": statistics.quantiles(lat_ms, n=10, method="inclusive")[8],
            "peak_rss_mb": res["maxrss_kb"] / 1024,
        },
        "setup_samples_s": setups,
    }
    by_workload: dict = {}
    for j, ms in enumerate(lat_ms):
        by_workload.setdefault(ops[j % len(ops)]["workload"], []).append(ms)
    out["op_p50_ms_by_workload"] = {w: statistics.median(v) for w, v in by_workload.items()}
    if trace:
        out["per_layer"] = spans.layer_metrics(
            Path(res["spans_path"]), ops, res["rounds"], res["peak_alloc_mb"])
    return out


def result_line(run: dict, trace: bool) -> dict:
    """The last output line: the metrics BENCHMARK.json names, with their units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if trace else "end_to_end"]
    values = run["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    return {
        "correct": run["correct"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }


def smoke() -> int:
    """All three workloads at tiny sizes, untraced and traced, in a few seconds."""
    ok = True
    runs = [([w], False) for w in workloads.WORKLOADS] + [(list(workloads.WORKLOADS), True)]
    for names, trace in runs:
        line = result_line(measure(names, seed=0, seconds=0.5, trace=trace, tiny=True, probes=1), trace)
        label = "traced" if trace else names[0]
        print(f"smoke {label}: correct={line['correct']} attempted={line['attempted']} "
              f"failed={line['failed']} metrics={len(line['metrics'])}")
        ok &= line["correct"] and line["failed"] == 0
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inputs-only", action="store_true", help="write the inputs and stop")
    ap.add_argument("--smoke", action="store_true", help="tiny run of every workload")
    ap.add_argument("--selftest", action="store_true", help="check that the checkers reject corrupted outputs")
    args = ap.parse_args(argv)

    if not (SRC / "bairecf" / "cli.py").is_file():
        print(f"error: no bairecf package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    try:
        if args.selftest:
            import selftest

            return selftest.main(execute)
        if args.smoke:
            return smoke()
        if args.workload is None:
            ap.error("--workload is required")
        if args.inputs_only:
            ops, _env = make_plan([args.workload], args.seed, tiny=False)
            print(f"{len(ops)} operations; files under {INPUTS}")
            return 0
        trace = bool(args.trace)
        names = list(workloads.WORKLOADS) if trace else [args.workload]
        run = measure(names, args.seed, args.seconds, trace)
        line = result_line(run, trace)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    tag = f"{args.workload}-s{args.seed}-trace{args.trace}"
    (RESULTS / f"run-{tag}.json").write_text(json.dumps(run, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
