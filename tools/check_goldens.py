"""Replay the documented example commands and diff them against tests/goldens/.

Stdlib only, so it runs on any interpreter the package supports, with or
without pytest:

    python tools/check_goldens.py

Each command in ``tests/_commands.py`` runs through ``bairecf.cli.run`` in
this process, with the depth cap at its default.  A unified diff is printed
for every result that differs from its golden file, and the exit code is 1
if any does, else 0.
"""

from __future__ import annotations

import difflib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The checkout's src serves a plain run; a PYTHONPATH entry, such as a mutated copy, wins.
sys.path[:0] = [*filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep)),
                str(ROOT / "src"), str(ROOT / "tests")]

from _commands import COMMANDS, GOLDEN_DIR, blob  # noqa: E402
from bairecf.cli import run  # noqa: E402


def main() -> int:
    os.environ.pop("BAIRECF_MAX_DEPTH", None)
    failed = 0
    for name, argv in COMMANDS:
        path = GOLDEN_DIR / f"{name}.txt"
        want = path.read_text(encoding="utf-8") if path.exists() else ""
        got = blob(run(argv))
        if got != want:
            failed += 1
            sys.stdout.writelines(difflib.unified_diff(
                want.splitlines(keepends=True), got.splitlines(keepends=True),
                f"goldens/{name}.txt", f"{name} (this run)"))
    version = ".".join(map(str, sys.version_info[:3]))
    print(f"{len(COMMANDS) - failed} of {len(COMMANDS)} goldens match (Python {version})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
