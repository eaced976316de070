"""The benchmark workloads, each driven through ``riskrl.cli.main`` in-process.

A workload turns its seed into a list of CLI invocations. ``run_pass`` runs
them once, single-threaded, one after the other, and records what they wrote;
``Workload.check`` then compares the outputs with a frozen reference (when one
exists for these exact inputs) or with the seed-independent invariants.

Operations are the unit of failure accounting: one episode for ``sweep``, one
``field`` call, one ``run`` call. An operation fails when its invocation
raises or exits non-zero, or when its output fails a check.
"""

from __future__ import annotations

import csv
import gzip
import hashlib
import io
import json
import math
import shutil
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tracer import Tracer, patched, traced
from waypoints import generate_documents, write_documents

DEFAULT_SEED = 7
TOLERANCE = 1e-9  # absolute, on every compared float output
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
FIELD_SCALE = 1e12  # field reference values are stored as integer multiples of 1e-12


@dataclass(frozen=True)
class Invocation:
    argv: list[str]
    ops: range          # operation indices this invocation covers
    outputs: list[str]  # files it writes, relative to the pass directory


@dataclass(frozen=True)
class Episode:
    """What one ``run_episode`` call returned, reduced to what the checks need."""

    outcome: str
    steps: int
    cumulative_reward: float
    within_bounds: bool  # every per-step total finite and inside the normalisation bound


@dataclass
class PassResult:
    wall_s: float
    cpu_s: float
    failed: set[int]                 # operations that raised or exited non-zero
    episodes: list[Episode]          # one per run_episode call, in call order
    digests: dict[str, str | None]   # output file -> sha256 (None if missing)
    bytes_written: int
    lines: dict[str, int]            # output file -> line count


class Workload:
    """Base class: subclasses set ``name`` and implement the hooks below."""

    name = ""
    policy: str | None = "lane_follower"
    work_unit = "steps"  # what ``work`` counts: simulated steps or grid cells

    def __init__(self, root: Path, seed: int) -> None:
        self.root = root
        self.seed = seed
        self.config_path = root / "configs" / "default.json"
        from riskrl import load_config

        config = load_config(self.config_path)
        # criterion 6: |total| <= 2 + beta + beta^2 on every non-terminal step;
        # a terminal step is the terminal reward, at most w_terminal in size
        self.step_bound = 2.0 + config.beta + config.beta ** 2 + 1e-12
        self.terminal_bound = config.w_terminal + 1e-12

    # -- hooks ------------------------------------------------------------
    def prepare(self, input_dir: Path) -> None:
        """Write generated inputs; not part of set-up."""

    def scenario_paths(self) -> list[Path]:
        return []

    def invocations(self, out_dir: Path) -> list[Invocation]:
        raise NotImplementedError

    def op_count(self) -> int:
        raise NotImplementedError

    def work(self, result: PassResult) -> int:
        """Simulated steps or grid cells completed, counted from the outputs."""
        return sum(e.steps for e in result.episodes)

    def reference_key(self) -> dict:
        raise NotImplementedError

    def make_reference(self, out_dir: Path, result: PassResult) -> dict:
        raise NotImplementedError

    def check(self, out_dir: Path, result: PassResult, reference: dict | None) -> set[int]:
        """Operations whose outputs are wrong."""
        raise NotImplementedError

    # -- shared -----------------------------------------------------------
    def common_args(self) -> list[str]:
        return ["--config", str(self.config_path)]

    def reference_path(self) -> Path:
        return REFERENCE_DIR / f"{self.name}.json.gz"

    def load_reference(self) -> dict | None:
        """The frozen reference, if it was made from exactly these inputs."""
        path = self.reference_path()
        if not path.exists():
            return None
        reference = json.loads(gzip.decompress(path.read_bytes()))
        return reference if reference["key"] == self.reference_key() else None

    def episode_summary(self, trace) -> Episode:
        totals = [record.breakdown.total for record in trace.records]
        within = (
            all(math.isfinite(t) for t in totals)
            and all(abs(t) <= self.step_bound for t in totals[:-1])
            and abs(totals[-1]) <= self.terminal_bound
        )
        return Episode(trace.outcome.value, len(totals), trace.cumulative_reward, within)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOLERANCE


def _read_csv(path: Path) -> list[list[str]]:
    with path.open(newline="") as handle:
        return list(csv.reader(handle))[1:]


def _totals(path: Path) -> list[float]:
    """The ``total`` column of a ``trace.csv``."""
    with path.open(newline="") as handle:
        return [float(row["total"]) for row in csv.DictReader(handle)]


class SweepIntersection(Workload):
    """``riskrl sweep`` on the intersection scenario: many short episodes with 1-8 actors."""

    name = "sweep_intersection"

    def __init__(self, root: Path, seed: int, episodes: int = 20,
                 densities: tuple[float, ...] = (0.5, 0.75, 1.0)) -> None:
        super().__init__(root, seed)
        self.episodes = episodes
        self.densities = densities
        self.scenario = root / "scenarios" / "intersection.json"

    def scenario_paths(self) -> list[Path]:
        return [self.scenario]

    def op_count(self) -> int:
        return self.episodes * len(self.densities)

    def invocations(self, out_dir: Path) -> list[Invocation]:
        argv = [
            "sweep", "--scenario", str(self.scenario), *self.common_args(),
            "--policy", self.policy,
            "--densities", ",".join(repr(d) for d in self.densities),
            "--episodes", str(self.episodes), "--seed", str(self.seed),
            "--out", str(out_dir / "sweep.csv"),
        ]
        return [Invocation(argv, range(self.op_count()), ["sweep.csv"])]

    def reference_key(self) -> dict:
        return {"seed": self.seed, "episodes": self.episodes, "densities": list(self.densities)}

    def make_reference(self, out_dir: Path, result: PassResult) -> dict:
        return {
            "episodes": [[e.outcome, e.steps, e.cumulative_reward] for e in result.episodes],
            "rows": [[float(v) for v in row] for row in _read_csv(out_dir / "sweep.csv")],
        }

    def check(self, out_dir: Path, result: PassResult, reference: dict | None) -> set[int]:
        failed = set(range(len(result.episodes), self.op_count()))  # episodes never run
        failed |= {i for i, e in enumerate(result.episodes) if not e.within_bounds}
        try:
            rows = [[float(v) for v in row] for row in _read_csv(out_dir / "sweep.csv")]
        except (OSError, ValueError):
            return set(range(self.op_count()))
        if len(rows) != len(self.densities):
            return set(range(self.op_count()))
        for d, row in enumerate(rows):
            block = range(d * self.episodes, (d + 1) * self.episodes)
            if not all(math.isfinite(v) for v in row) or row[:2] != [self.densities[d], self.episodes]:
                failed.update(block)
            elif reference is not None and not all(map(_close, row, reference["rows"][d])):
                failed.update(block)
        if reference is not None:
            for i, (e, (outcome, steps, cumulative)) in enumerate(
                zip(result.episodes, reference["episodes"])
            ):
                if e.outcome != outcome or e.steps != steps or not _close(e.cumulative_reward, cumulative):
                    failed.add(i)
        return failed


FIELD_MODES = ("same_direction", "opposite_direction", "intersecting", "static_obstacle")


class FieldGrid(Workload):
    """``riskrl field`` once per interaction mode; only ``risk`` and ``cli`` do work.

    The inputs do not depend on the seed, so every seed is checked against the
    frozen reference.
    """

    name = "field_grid"
    policy = None
    work_unit = "cells"

    def __init__(self, root: Path, seed: int, grid: tuple[float, ...] = (-30.0, 30.0, -10.0, 10.0, 0.25),
                 ego_speed: float = 6.0, other_speed: float = 3.0) -> None:
        super().__init__(root, seed)
        self.grid = grid
        self.ego_speed = ego_speed
        self.other_speed = other_speed

    def op_count(self) -> int:
        return len(FIELD_MODES)

    def invocations(self, out_dir: Path) -> list[Invocation]:
        return [
            Invocation(
                [
                    "field", *self.common_args(), "--mode", mode,
                    "--ego-speed", repr(self.ego_speed), "--other-speed", repr(self.other_speed),
                    "--grid=" + ",".join(repr(v) for v in self.grid),
                    "--out", str(out_dir / f"field_{mode}.csv"),
                ],
                range(i, i + 1),
                [f"field_{mode}.csv"],
            )
            for i, mode in enumerate(FIELD_MODES)
        ]

    def work(self, result: PassResult) -> int:
        return sum(count - 1 for count in result.lines.values())  # minus the header

    def grid_cells(self) -> list[tuple[float, float]]:
        """Cell centres in the order ``riskrl field`` writes them."""
        x_min, x_max, y_min, y_max, resolution = self.grid
        xs = np.arange(x_min, x_max + resolution / 2.0, resolution)
        ys = np.arange(y_min, y_max + resolution / 2.0, resolution)
        return [(float(x), float(y)) for y in ys for x in xs]

    def reference_key(self) -> dict:
        return {"grid": list(self.grid), "ego_speed": self.ego_speed, "other_speed": self.other_speed}

    def make_reference(self, out_dir: Path, result: PassResult) -> dict:
        modes = {}
        for mode in FIELD_MODES:
            rows = _read_csv(out_dir / f"field_{mode}.csv")
            modes[mode] = [[round(float(v) * FIELD_SCALE) for v in row[2:]] for row in rows]
        return {"scale": FIELD_SCALE, "modes": modes}

    def check(self, out_dir: Path, result: PassResult, reference: dict | None) -> set[int]:
        failed = set()
        cells = self.grid_cells()
        for i, mode in enumerate(FIELD_MODES):
            try:
                rows = [[float(v) for v in row] for row in _read_csv(out_dir / f"field_{mode}.csv")]
            except (OSError, ValueError):
                failed.add(i)
                continue
            if len(rows) != len(cells) or any(
                (row[0], row[1]) != cell or not all(math.isfinite(v) for v in row[2:])
                for row, cell in zip(rows, cells)
            ):
                failed.add(i)
            elif reference is not None:
                scale = reference["scale"]
                expected = reference["modes"][mode]
                if not all(
                    _close(value, stored / scale)
                    for row, ref_row in zip(rows, expected)
                    for value, stored in zip(row[2:], ref_row)
                ):
                    failed.add(i)
        return failed


class RunWaypoints(Workload):
    """``riskrl run`` once per generated curved-road document with waypoint-following traffic."""

    name = "run_waypoints"

    def __init__(self, root: Path, seed: int, count: int = 6, **shape: float) -> None:
        super().__init__(root, seed)
        self.count = count
        self.shape = shape  # route_length / goal_station overrides, for small test documents
        self.documents: list[Path] = []

    def prepare(self, input_dir: Path) -> None:
        self.documents = write_documents(
            generate_documents(self.seed, self.count, **self.shape), input_dir
        )

    def scenario_paths(self) -> list[Path]:
        return self.documents

    def op_count(self) -> int:
        return self.count

    def invocations(self, out_dir: Path) -> list[Invocation]:
        return [
            Invocation(
                [
                    "run", "--scenario", str(path), *self.common_args(), "--policy", self.policy,
                    "--seed=-1", "--out", str(out_dir / f"run_{i}"),
                ],
                range(i, i + 1),
                [f"run_{i}/trace.csv", f"run_{i}/summary.json"],
            )
            for i, path in enumerate(self.documents)
        ]

    def reference_key(self) -> dict:
        return {"seed": self.seed, "count": self.count, **self.shape}

    def make_reference(self, out_dir: Path, result: PassResult) -> dict:
        runs = []
        for i in range(self.count):
            summary = json.loads((out_dir / f"run_{i}" / "summary.json").read_text())
            totals = _totals(out_dir / f"run_{i}" / "trace.csv")
            runs.append({"outcome": summary["outcome"], "steps": summary["steps"], "total": totals})
        return {"runs": runs}

    def check(self, out_dir: Path, result: PassResult, reference: dict | None) -> set[int]:
        failed = set()
        for i in range(self.count):
            try:
                summary = json.loads((out_dir / f"run_{i}" / "summary.json").read_text())
                totals = _totals(out_dir / f"run_{i}" / "trace.csv")
            except (OSError, ValueError, KeyError):
                failed.add(i)
                continue
            episode = result.episodes[i] if i < len(result.episodes) else None
            ok = (
                episode is not None and episode.within_bounds and bool(totals)
                and summary.get("steps") == len(totals) == episode.steps
                and summary.get("outcome") == episode.outcome
                and all(math.isfinite(t) for t in totals)
                and all(abs(t) <= self.step_bound for t in totals[:-1])
                and abs(totals[-1]) <= self.terminal_bound
            )
            if ok and reference is not None:
                expected = reference["runs"][i]
                ok = (
                    summary["outcome"] == expected["outcome"]
                    and summary["steps"] == expected["steps"]
                    and all(map(_close, totals, expected["total"]))
                )
            if not ok:
                failed.add(i)
        return failed


WORKLOADS = {cls.name: cls for cls in (SweepIntersection, FieldGrid, RunWaypoints)}


def run_pass(workload: Workload, out_dir: Path, tracer: Tracer | None = None) -> PassResult:
    """Run every invocation of the workload once, timed, and record its outputs.

    A pass-through wrapper on ``riskrl.cli.run_episode`` keeps each episode's
    outcome, step count and reward checks; it runs inside the recorded span
    when tracing, so its small cost lands on ``sim.run_episode``.
    """
    from riskrl import cli

    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    invocations = workload.invocations(out_dir)
    episodes: list[Episode] = []
    original = cli.run_episode

    def capture(*args, **kwargs):
        trace = original(*args, **kwargs)
        episodes.append(workload.episode_summary(trace))
        return trace

    failed: set[int] = set()
    console = io.StringIO()
    with patched(cli, "run_episode", capture), (traced(tracer) if tracer else nullcontext()):
        start_wall, start_cpu = time.perf_counter(), time.process_time()
        for invocation in invocations:
            try:
                with redirect_stdout(console), redirect_stderr(console):
                    code = cli.main(invocation.argv)
            except Exception:  # an operation that raised is a failed operation, not a crash
                traceback.print_exc(file=sys.stderr)
                code = None
            if code != 0:
                print(f"{workload.name}: {invocation.argv[0]} exited with {code}: "
                      f"{console.getvalue()[-2000:]}", file=sys.stderr)
                failed.update(invocation.ops)
        wall_s = time.perf_counter() - start_wall
        cpu_s = time.process_time() - start_cpu

    digests: dict[str, str | None] = {}
    lines: dict[str, int] = {}
    written = 0
    for invocation in invocations:
        for name in invocation.outputs:
            try:
                data = (out_dir / name).read_bytes()
            except OSError:
                digests[name] = None
                failed.update(invocation.ops)
                continue
            digests[name] = hashlib.sha256(data).hexdigest()
            lines[name] = data.count(b"\n")
            written += len(data)
    return PassResult(wall_s, cpu_s, failed, episodes, digests, written, lines)


def differing_ops(workload: Workload, first: PassResult, other: PassResult) -> set[int]:
    """Operations whose outputs differ between two passes of the same inputs."""
    failed = set()
    for invocation in workload.invocations(Path(".")):
        if any(first.digests.get(name) != other.digests.get(name) for name in invocation.outputs):
            failed.update(invocation.ops)
    for i in range(max(len(first.episodes), len(other.episodes))):
        mine = first.episodes[i] if i < len(first.episodes) else None
        theirs = other.episodes[i] if i < len(other.episodes) else None
        if mine != theirs:
            failed.add(i)
    return failed
