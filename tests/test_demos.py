"""Every demo script, and the README quick start, runs to completion against the current public API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))


def _source(demo):
    """argv for a demo script, or for the one python block of README.md."""
    if demo != "README.md":
        return [str(ROOT / "demos" / demo)]
    return ["-c", (ROOT / demo).read_text().split("```python\n", 1)[1].split("```", 1)[0]]


@pytest.mark.parametrize("demo", [*DEMOS, "README.md"])
def test_demo_runs(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *_source(demo)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
