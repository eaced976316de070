import importlib.util
from pathlib import Path

import pytest

from riskrl import RewardConfig

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def config() -> RewardConfig:
    return RewardConfig()


@pytest.fixture
def scenarios_dir() -> Path:
    return REPO_ROOT / "scenarios"


@pytest.fixture
def configs_dir() -> Path:
    return REPO_ROOT / "configs"


@pytest.fixture
def waypoint_documents(tmp_path) -> list[Path]:
    """The six seed-7 documents of perfbench's `run_waypoints` workload, in order, as files.

    perfbench/waypoints.py generates them; it is loaded by path, as perfbench is no package.
    """
    spec = importlib.util.spec_from_file_location(
        "perfbench_waypoints", REPO_ROOT / "perfbench" / "waypoints.py")
    waypoints = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(waypoints)
    return waypoints.write_documents(waypoints.generate_documents(7), tmp_path / "waypoints")
