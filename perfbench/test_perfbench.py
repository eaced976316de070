"""Self-tests of the benchmark: tiny workloads, output checks and tracer hygiene.

Run from the repository root: python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from tracer import Tracer, targets, traced  # noqa: E402
from waypoints import generate_documents  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED,
    WORKLOADS,
    FieldGrid,
    RunWaypoints,
    SweepIntersection,
    differing_ops,
    run_pass,
)

TINY = {
    "sweep_intersection": lambda: SweepIntersection(ROOT, seed=3, episodes=2, densities=(0.5, 1.0)),
    "field_grid": lambda: FieldGrid(ROOT, seed=3, grid=(-4.0, 4.0, -2.0, 2.0, 1.0)),
    "run_waypoints": lambda: RunWaypoints(ROOT, seed=3, count=2, route_length=40.0, goal_station=30.0),
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_runs_checks_and_repeats(name, tmp_path):
    workload = TINY[name]()
    workload.prepare(tmp_path / "inputs")
    first = run_pass(workload, tmp_path / "first")
    second = run_pass(workload, tmp_path / "second", Tracer())
    assert first.failed == set() and second.failed == set()
    assert workload.work(first) > 0
    assert workload.load_reference() is None  # tiny inputs never match a frozen reference
    assert workload.check(tmp_path / "first", first, None) == set()
    assert differing_ops(workload, first, second) == set()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_frozen_reference_matches_at_default_seed(name, tmp_path):
    workload = WORKLOADS[name](ROOT, DEFAULT_SEED)
    workload.prepare(tmp_path / "inputs")
    reference = workload.load_reference()
    assert reference is not None
    result = run_pass(workload, tmp_path / "pass")
    assert result.failed == set()
    assert workload.check(tmp_path / "pass", result, reference) == set()


def test_check_flags_only_the_operation_that_differs(tmp_path):
    workload = FieldGrid(ROOT, seed=0, grid=(-4.0, 4.0, -2.0, 2.0, 1.0))
    result = run_pass(workload, tmp_path)
    reference = workload.make_reference(tmp_path, result)
    assert workload.check(tmp_path, result, reference) == set()
    reference["modes"]["intersecting"][3][0] += 10_000  # 1e-8, beyond the 1e-9 tolerance
    assert workload.check(tmp_path, result, reference) == {2}


def test_run_check_flags_a_changed_total(tmp_path):
    workload = TINY["run_waypoints"]()
    workload.prepare(tmp_path / "inputs")
    result = run_pass(workload, tmp_path / "pass")
    reference = workload.make_reference(tmp_path / "pass", result)
    reference["runs"][1]["total"][5] += 1e-8
    assert workload.check(tmp_path / "pass", result, reference) == {1}


def test_differing_outputs_between_passes_are_failures(tmp_path):
    workload = TINY["sweep_intersection"]()
    first = run_pass(workload, tmp_path)
    changed = list(first.episodes)
    changed[1] = dataclasses.replace(changed[1], cumulative_reward=changed[1].cumulative_reward + 1e-12)
    assert differing_ops(workload, first, dataclasses.replace(first, episodes=changed)) == {1}
    other_bytes = dataclasses.replace(first, digests={"sweep.csv": "0" * 64})
    assert differing_ops(workload, first, other_bytes) == set(range(workload.op_count()))


def test_generator_depends_only_on_the_seed():
    assert generate_documents(5, count=2) == generate_documents(5, count=2)
    assert generate_documents(5, count=2) != generate_documents(6, count=2)


def test_tracing_restores_every_attribute(tmp_path):
    from riskrl import cli

    originals = [(module, attribute, getattr(module, attribute)) for module, attribute, _, _ in targets()]
    run_episode = cli.run_episode
    workload = TINY["sweep_intersection"]()
    tracer = Tracer()
    run_pass(workload, tmp_path, tracer)
    assert {name for name, *_ in tracer.spans} >= {"cli.main", "sim.run_episode", "sim.detect_collision"}
    assert 0 <= tracer.far_pairs <= tracer.collision_pairs and tracer.collision_pairs > 0
    with pytest.raises(RuntimeError), traced(Tracer()):
        raise RuntimeError("leaves the block early")
    assert all(getattr(module, attribute) is original for module, attribute, original in originals)
    assert cli.run_episode is run_episode


def test_self_time_excludes_direct_children():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20_000)))
    outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    times = tracer.self_times()
    (_, start, end, _) = tracer.spans[0]
    assert times["inner"][0] == 3 and times["outer"][0] == 1
    assert times["inner"][1] + times["outer"][1] == pytest.approx(end - start, abs=1e-12)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    if (ROOT / "BENCHMARK.json").exists():
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "field_grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    for line in done.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
