"""Smoke test: every example script runs to completion.

The examples drive the public API end to end; nothing else exercises
them, so an API change that breaks one would otherwise go unnoticed.
Each script runs in its own interpreter with ``src`` on the path and
must exit 0.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((REPO / "examples").glob("*.py"))


def test_examples_found():
    assert EXAMPLES


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
def test_example_exits_cleanly(script):
    env = dict(os.environ)
    src = str(REPO / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    completed = subprocess.run(
        [sys.executable, str(script)],
        cwd=REPO,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, (
        f"{script.name} exited {completed.returncode}\n"
        f"--- stderr ---\n{completed.stderr[-2000:]}"
    )
