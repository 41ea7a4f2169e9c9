#!/usr/bin/env python3
"""Compare the exact outputs of this checkout with those of another one.

Runs ``scripts/run_corpus.py --json`` (the analysis report of every corpus
entry and criterion-7 member, singular points included, and the branch
records of every corpus line map and of the generic maps) and
``scripts/run_decks.py --json`` (every deck report) from this checkout, once
with this checkout's ``src`` and once with ``OTHER/src`` first on
``PYTHONPATH``, both with ``PYTHONHASHSEED=0``, and compares the outputs
byte for byte.  Prints each line that differs and exits 1 on any
difference, or when a run fails; exits 0 when every output is identical.

Usage: python scripts/diff_outputs.py OTHER_CHECKOUT
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SCRIPTS = ("run_corpus.py", "run_decks.py")


def _start(script: str, src: Path) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0")
    return subprocess.Popen(
        [sys.executable, str(HERE / script), "--json"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("other", type=Path, help="root of the checkout to compare against")
    args = parser.parse_args()
    sources = {"this": HERE.parent / "src", "other": args.other.resolve() / "src"}
    if not (sources["other"] / "folgal").is_dir():
        parser.error(f"no src/folgal under {args.other}")

    differ = False
    for script in SCRIPTS:
        # the two checkouts run side by side, one process each
        runs = {side: _start(script, src) for side, src in sources.items()}
        out = {}
        for side, proc in runs.items():
            stdout, stderr = proc.communicate()
            if proc.returncode:
                sys.stderr.write(stderr.decode(errors="replace"))
                print(f"{script} exited {proc.returncode} under the {side} checkout")
                return 1
            out[side] = stdout.splitlines()
        mine, theirs = out["this"], out["other"]
        changed = [i for i in range(max(len(mine), len(theirs)))
                   if i >= len(mine) or i >= len(theirs) or mine[i] != theirs[i]]
        for i in changed:
            for side, lines in (("this", mine), ("other", theirs)):
                line = lines[i].decode(errors="replace") if i < len(lines) else "<missing>"
                print(f"{script}:{i + 1} {side}: {line}")
        print(f"{script}: {len(mine)} lines, {len(changed)} differ")
        differ = differ or bool(changed)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
