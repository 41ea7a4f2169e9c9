#!/usr/bin/env python3
"""Check that the benchmark counts failures: a wrong expected answer and a
call over the limit must each register as a failed operation, and the call
after a timeout must still run and succeed.

    python3 perfbench/selfcheck.py

Exits 0 when every check holds.  Takes about 10 seconds.
"""

from __future__ import annotations

import sys

import run
import specs


def _classify(name, **override):
    field, text = specs.LINE_MAPS[name]
    expect = dict(specs.CLASSIFY_ANSWERS[name], **override)
    return {"kind": "classify", "name": f"map:{name}", "field": field, "map": text,
            "expect": expect}


def main() -> int:
    field, a, b = specs.FOLIATIONS["fermat_5"]
    inputs = [
        _classify("power_3", klein="Cyclic(4)"),  # deliberately wrong answer
        {"kind": "analyze", "name": "fermat_5", "field": field, "A": a, "B": b,
         "expect": specs.ANALYZE_ANSWERS["fermat_5"]},  # takes ~1 s: over the limit
        _classify("power_5"),
    ]
    # seed 1 orders the calls fermat_5, power_5, power_3
    result, records = run.run("selfcheck", seed=1, seconds=0, trace=False,
                              inputs=inputs, limit=0.2)
    outcome = {r["name"]: r["outcome"] for r in records}
    checks = {
        "wrong answer counts as failed": outcome["map:power_3"] == "wrong",
        "over-limit call counts as failed": outcome["fermat_5"] == "timeout",
        "the call after a timeout still runs": outcome["map:power_5"] == "ok",
        "attempted 3, failed 2": (result["attempted"], result["failed"]) == (3, 2),
        "a wrong answer makes the run incorrect": result["correct"] is False,
        "the timeout is charged at the limit": result["metrics"]["pass_s"]["value"] >= 0.2,
    }
    for label, ok in checks.items():
        print(f"{'PASS' if ok else 'FAIL'}  {label}")
    return 0 if all(checks.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
