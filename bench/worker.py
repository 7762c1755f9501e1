"""The measured process: one fresh interpreter per workload run.

Usage (run.py starts it; PYTHONPATH must name the checkout's src directory):

    python3 bench/worker.py PLAN.json          # run the plan, print a result
    python3 bench/worker.py PLAN.json --probe  # set up, report ready, exit

It imports ``bairecf.cli``, makes one warm-up call and prints ``ready``; the
time until that line is the set-up time run.py measures.  It then runs the
plan's round of CLI commands in order, over and over, until the plan's
seconds are up, finishing the round in progress, so every run executes whole
rounds.  Each command is timed from the call to ``cli.run`` to its captured
result.  The last stdout line is a JSON object with the latencies, the
distinct results of each operation and the peak resident memory.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

WARM_UP = ["cf", "expand", "355/113", "--json"]


def main(argv: list[str]) -> int:
    plan = json.loads(Path(argv[0]).read_text(encoding="utf-8"))
    src = Path(plan["src"]).resolve()
    import bairecf.cli as cli

    if src not in Path(cli.__file__).resolve().parents:
        print(f"bairecf imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 1
    cli.run(WARM_UP)
    print("ready", flush=True)
    if argv[1:] == ["--probe"]:
        return 0

    argvs = [op["argv"] for op in plan["ops"]]
    recorder = None
    peak_mb = 0.0
    if plan["trace"]:
        import spans

        verify = [a for a in argvs if a[:2] == ["cover", "verify"]]
        peak_mb = spans.peak_alloc_mb(cli, verify)
        recorder = spans.Recorder()
        spans.install(recorder)

    run = cli.run
    clock = time.perf_counter_ns
    latencies: list[int] = []
    seen: list[dict] = [{} for _ in argvs]
    rounds = 0
    start = clock()
    deadline = start + int(plan["seconds"] * 1e9)
    while True:
        for i, a in enumerate(argvs):
            if recorder is not None:
                recorder.current_op = i
            t0 = clock()
            res = run(a)
            latencies.append(clock() - t0)
            key = (res.exit_code, res.out, res.err)
            seen[i][key] = seen[i].get(key, 0) + 1
        rounds += 1
        if clock() >= deadline:
            break
    wall = clock() - start

    if recorder is not None:
        recorder.write(Path(plan["spans_path"]), {"rounds": rounds})
    result = {
        "latencies_ns": latencies,
        "wall_ns": wall,
        "rounds": rounds,
        "peak_alloc_mb": peak_mb,
        "spans_path": plan["spans_path"],
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "results": [
            [{"exit": e, "out": o, "err": r, "count": n} for (e, o, r), n in s.items()]
            for s in seen
        ],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
