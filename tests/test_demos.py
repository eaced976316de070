"""The demo scripts run end to end against the library's public API."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from riskrl import cli, core, reward, risk, sim

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


def test_readme_names_code_that_exists():
    # each backticked `module.name` of the five modules resolves in `riskrl.module`, and each
    # backticked bare private name is in one of them; `risk.py` is a file, not a name
    spans = re.findall(r"`([^`\n]+)`", (REPO_ROOT / "README.md").read_text())
    dotted = {s for s in spans if re.fullmatch(r"(core|risk|reward|sim|cli)(\.\w+)+", s)
              and not s.endswith(".py")}
    private = {s for s in spans if re.fullmatch(r"_\w+", s) and not s.startswith("__")}
    assert dotted and private
    modules = {"cli": cli, "core": core, "reward": reward, "risk": risk, "sim": sim}
    for name in sorted(dotted):
        head, *parts = name.split(".")
        value = modules[head]
        for part in parts:
            assert hasattr(value, part), name
            value = getattr(value, part)
    assert [n for n in sorted(private) if not any(hasattr(m, n) for m in modules.values())] == []
