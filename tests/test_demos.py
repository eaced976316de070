"""The demo scripts run end to end against the library's public API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((REPO_ROOT / "demos").glob("*.py"))


def assert_runs_and_prints(*args):
    """Run Python with `args` from the repository root against `src`: it must exit 0 and
    print something."""
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    done = subprocess.run([sys.executable, *args], cwd=REPO_ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()


@pytest.mark.parametrize("demo", DEMOS, ids=[path.name for path in DEMOS])
def test_demo_runs_and_prints(demo):
    assert_runs_and_prints(str(demo))


def test_readme_quick_tour_runs_and_prints():
    # the fenced block under README's "## Library quick tour"; its scenario path is
    # relative to the repository root
    text = (REPO_ROOT / "README.md").read_text()
    block = text.split("## Library quick tour\n\n```python\n", 1)[1].split("```", 1)[0]
    assert "run_episode" in block
    assert_runs_and_prints("-c", block)
