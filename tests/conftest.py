import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture
def run_python():
    """Run a Python snippet in a fresh interpreter that imports this
    checkout's ``folgal``; return its stripped standard output."""

    def run(code: str) -> str:
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p
        ))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            timeout=300, check=True,
        )
        return out.stdout.strip()

    return run
