#!/usr/bin/env python3
"""Run the acceptance suite with per-criterion PASS/FAIL lines visible.

Usage: python scripts/run_acceptance.py
"""

import subprocess
import sys


def main() -> int:
    cmd = [sys.executable, "-m", "pytest", "-s", "-q", "tests/test_acceptance.py"]
    return subprocess.call(cmd)


if __name__ == "__main__":
    sys.exit(main())
