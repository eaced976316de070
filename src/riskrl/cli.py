"""Command-line surface: run episodes, sweep traffic densities, dump risk-field
grids for heatmaps, and validate scenario/config documents.

Outputs are plain CSV plus JSON summaries so plotting stays in external tools.
Most flags can also be supplied through an environment variable named
RISKRL_<FLAG> (for example RISKRL_SEED, RISKRL_CONFIG); `--mode`,
`--ego-speed` and `--other-speed` have none.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from pathlib import Path
from typing import Iterable

import numpy as np

from .core import (
    ActorKind,
    ActorState,
    ConfigError,
    RewardConfig,
    ScenarioError,
    _is_number,
    _read_json,
    load_config,
    validate_config_data,
)
from .risk import InteractionMode, risk_field
# perfbench's tracer patches these two names on this module, so they stay importable here
from .risk import dynamic_risk, geometric_risk  # noqa: F401
from .sim import (
    BUILTIN_POLICIES,
    EpisodeTrace,
    aggregate_metrics,
    build_policy,
    load_scenario,
    run_episode,
    validate_scenario_data,
)

ENV_PREFIX = "RISKRL_"

TRACE_COLUMNS = (
    "step", "time", "ego_x", "ego_y", "ego_heading", "ego_speed",
    "station", "lateral_offset",
    "terminal", "l0_rules", "l1_progress", "l1_risk", "l2_style", "l3_comfort", "total",
    "max_risk_actor", "geom_penalty", "dyn_penalty", "ttc",
)

SWEEP_COLUMNS = (
    "density", "episodes",
    "success_pct", "offroad_pct", "collision_pct", "timeout_pct",
    "reward_mean", "reward_std",
    "progress_mean", "progress_std",
    "velocity_mean", "velocity_std",
)

FIELD_COLUMNS = ("x", "y", "geom_penalty", "dyn_penalty", "combined")
MAX_FIELD_CELLS = 10_000_000  # about 512 times the 0.25 m grid over 60 x 20 m
_FIELD_BLOCK_CELLS = 65_536  # most cells `field` evaluates and writes at a time, in whole rows

# The virtual actor `field` places in each cell; vehicles keep ActorState's
# default footprint, and the 1 x 1 m obstacle stands still.
_FIELD_ACTORS = {
    InteractionMode.SAME_DIRECTION: {"heading": 0.0},
    InteractionMode.OPPOSITE_DIRECTION: {"heading": math.pi},
    InteractionMode.INTERSECTING: {"heading": math.pi / 2.0},
    InteractionMode.STATIC_OBSTACLE: {"heading": 0.0, "speed_long": 0.0, "length": 1.0,
                                      "width": 1.0, "kind": ActorKind.STATIC_OBSTACLE},
}


def _env(name: str, fallback: str | None = None) -> str | None:
    return os.environ.get(ENV_PREFIX + name, fallback)


def _fmt(value: float) -> str:
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return repr(float(value))


def _load_config_arg(path: str | None) -> RewardConfig:
    return load_config(path) if path else RewardConfig()


def trace_rows(trace: EpisodeTrace) -> list[list[str]]:
    """Fixed-format trace table; one row per simulation step."""
    rows = []
    for record in trace.records:
        assessments = record.breakdown.risk_assessments
        if assessments:
            worst_idx = max(range(len(assessments)), key=lambda i: assessments[i].combined)
            worst = assessments[worst_idx]
            risk_cols = [
                str(worst_idx), _fmt(worst.geom_penalty), _fmt(worst.dyn_penalty), _fmt(worst.ttc),
            ]
        else:
            risk_cols = ["", "", "", ""]
        b = record.breakdown
        rows.append(
            [
                str(record.step), _fmt(record.time),
                _fmt(record.ego.position[0]), _fmt(record.ego.position[1]),
                _fmt(record.ego.heading), _fmt(record.ego.speed),
                _fmt(record.pose.station), _fmt(record.pose.lateral_offset),
                _fmt(b.terminal), _fmt(b.l0_rules), _fmt(b.l1_progress), _fmt(b.l1_risk),
                _fmt(b.l2_style), _fmt(b.l3_comfort), _fmt(b.total),
            ]
            + risk_cols
        )
    return rows


def _write_csv(path: Path, header: tuple[str, ...], rows: Iterable[Iterable[object]]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def cmd_run(args: argparse.Namespace) -> int:
    config = _load_config_arg(args.config)
    scenario = load_scenario(args.scenario)
    policy = build_policy(args.policy, config)
    seed = args.seed if args.seed is not None and args.seed >= 0 else None
    trace = run_episode(scenario, policy, config, seed=seed)

    out_dir = Path(args.out)
    _write_csv(out_dir / "trace.csv", TRACE_COLUMNS, trace_rows(trace))
    summary = {
        "outcome": trace.outcome.value,
        "steps": len(trace.records),
        "cumulative_reward": trace.cumulative_reward,
        "route_progress": trace.route_progress,
        "average_velocity": trace.average_velocity,
    }
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(
        f"outcome={trace.outcome.value} steps={len(trace.records)} "
        f"reward={trace.cumulative_reward:.4f} progress={trace.route_progress:.3f}"
    )
    return 0


def _episode_seed(base_seed: int, density_index: int, episode: int) -> int:
    seq = np.random.SeedSequence([base_seed, density_index, episode])
    return int(seq.generate_state(1)[0])


def cmd_sweep(args: argparse.Namespace) -> int:
    """One aggregate row per density; rows ordered by (density, episode) index.

    Episodes are mutually independent, so they could run in parallel; the
    output ordering and content depend only on the seed and inputs either way.
    """
    config = _load_config_arg(args.config)
    scenario_path = Path(args.scenario)
    if scenario_path.is_dir():
        files = sorted(scenario_path.glob("*.json"))
        if not files:
            raise ScenarioError(f"no scenario files found in {scenario_path}")
    else:
        files = [scenario_path]
    scenarios = [load_scenario(f) for f in files]
    try:
        densities = [float(d) for d in args.densities.split(",") if d.strip() != ""]
    except ValueError:
        densities = []
    if not densities or any(not 0.0 <= d <= 1.0 for d in densities):
        raise ScenarioError(f"--densities must be numbers in [0, 1] (got {args.densities!r})")
    if args.episodes < 1:
        raise ScenarioError(f"--episodes must be >= 1 (got {args.episodes})")
    policy = build_policy(args.policy, config)

    rows = []
    for d_idx, density in enumerate(densities):
        traces = []
        for episode in range(args.episodes):
            scenario = scenarios[episode % len(scenarios)]
            seed = _episode_seed(args.seed, d_idx, episode)
            traces.append(run_episode(scenario, policy, config, density=density, seed=seed))
        m = aggregate_metrics(traces)
        rows.append(
            [
                _fmt(density), str(m.episodes),
                _fmt(m.success_pct), _fmt(m.offroad_pct), _fmt(m.collision_pct), _fmt(m.timeout_pct),
                _fmt(m.reward_mean), _fmt(m.reward_std),
                _fmt(m.progress_mean), _fmt(m.progress_std),
                _fmt(m.velocity_mean), _fmt(m.velocity_std),
            ]
        )
        print(
            f"density={density:g}: success={m.success_pct:.1f}% collision={m.collision_pct:.1f}% "
            f"offroad={m.offroad_pct:.1f}% timeout={m.timeout_pct:.1f}% "
            f"reward={m.reward_mean:.3f}+-{m.reward_std:.3f}"
        )
    _write_csv(Path(args.out), SWEEP_COLUMNS, rows)
    return 0


def _parse_grid(spec: str) -> tuple[float, float, float, float, float]:
    try:
        values = [float(p) for p in spec.split(",") if p.strip() != ""]
    except ValueError:
        values = []
    if len(values) != 5 or not all(math.isfinite(v) for v in values):
        raise ConfigError(f"--grid needs finite x_min,x_max,y_min,y_max,resolution (got {spec!r})")
    x_min, x_max, y_min, y_max, resolution = values
    if resolution <= 0.0:
        raise ConfigError(f"--grid resolution must be positive (got {resolution})")
    if x_max < x_min or y_max < y_min:
        raise ConfigError("--grid bounds must satisfy x_min <= x_max and y_min <= y_max")
    nx, ny = _axis_count(x_min, x_max, resolution), _axis_count(y_min, y_max, resolution)
    if max(nx, ny, nx * ny) > MAX_FIELD_CELLS:  # an axis alone counts when the other is empty
        raise ConfigError(f"--grid gives {nx:,} x {ny:,} cells, more than {MAX_FIELD_CELLS:,}")
    return x_min, x_max, y_min, y_max, resolution


def _axis_count(low: float, high: float, resolution: float) -> float:
    """len(np.arange(low, high + resolution / 2, resolution)), without building it."""
    count = (high + resolution / 2.0 - low) / resolution
    return math.ceil(count) if math.isfinite(count) else math.inf


def cmd_field(args: argparse.Namespace) -> int:
    config = _load_config_arg(args.config)
    mode = InteractionMode(args.mode)
    x_min, x_max, y_min, y_max, resolution = _parse_grid(args.grid)
    for flag, speed in (("--ego-speed", args.ego_speed), ("--other-speed", args.other_speed)):
        if not _is_number(speed):
            raise ConfigError(f"{flag} must be a number in [-1e6, 1e6] (got {speed})")

    ego = ActorState(
        position=(0.0, 0.0), heading=0.0, speed_long=args.ego_speed, kind=ActorKind.EGO_VEHICLE
    )
    other = ActorState(position=(0.0, 0.0),
                       **({"speed_long": args.other_speed} | _FIELD_ACTORS[mode]))
    xs = np.arange(x_min, x_max + resolution / 2.0, resolution)
    ys = np.arange(y_min, y_max + resolution / 2.0, resolution)
    rows = max(1, _FIELD_BLOCK_CELLS // max(xs.size, 1))  # whole rows; a longer row goes alone

    def cells():  # one block of rows at a time, so memory stays bounded
        for j in range(0, ys.size, rows):
            by = ys[j:j + rows]
            geom, dyn = risk_field(ego, other, xs, by, mode, config)
            combined = config.w_geom * geom + config.w_dyn * dyn
            # csv writes a Python float as its repr and infinity as inf, as _fmt does
            yield from zip(np.tile(xs, by.size).tolist(), np.repeat(by, xs.size).tolist(),
                           geom.tolist(), dyn.tolist(), combined.tolist())

    _write_csv(Path(args.out), FIELD_COLUMNS, cells())
    print(f"wrote {xs.size * ys.size} cells to {args.out}")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    data = _read_json(args.path, ConfigError, "document")
    looks_like_scenario = isinstance(data, dict) and (
        "schema_version" in data or "route" in data or "ego" in data
    )
    if looks_like_scenario:
        problems = validate_scenario_data(data)
        label = "scenario"
    else:
        problems = validate_config_data(data)
        label = "config"
    if problems:
        for problem in problems:
            print(f"{args.path}: {problem}", file=sys.stderr)
        return 2
    print(f"{args.path}: valid {label}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riskrl",
        description="Risk-aware driving reward toolkit: simulate, sweep, and inspect.",
        epilog=(
            "Environment overrides: RISKRL_SCENARIO, RISKRL_CONFIG, RISKRL_POLICY, "
            "RISKRL_OUT, RISKRL_SEED, RISKRL_DENSITIES, RISKRL_EPISODES, RISKRL_GRID "
            "set the flag of the same name; --mode, --ego-speed and --other-speed have none."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one episode and write trace.csv + summary.json")
    run.add_argument("--scenario", default=_env("SCENARIO"), required=_env("SCENARIO") is None,
                     help="scenario JSON file")
    run.add_argument("--config", default=_env("CONFIG"), help="reward config JSON file")
    run.add_argument("--policy", default=_env("POLICY", "lane_follower"),
                     choices=BUILTIN_POLICIES, help="built-in driving policy")
    run.add_argument("--out", default=_env("OUT", "out"), help="output directory")
    run.add_argument("--seed", type=int,
                     default=_env("SEED", "-1"), help="override the scenario seed")
    run.set_defaults(func=cmd_run)

    sweep = sub.add_parser("sweep", help="aggregate metrics over densities and episodes")
    sweep.add_argument("--scenario", default=_env("SCENARIO"), required=_env("SCENARIO") is None,
                       help="scenario JSON file or directory of scenarios")
    sweep.add_argument("--config", default=_env("CONFIG"), help="reward config JSON file")
    sweep.add_argument("--policy", default=_env("POLICY", "lane_follower"),
                       choices=BUILTIN_POLICIES)
    sweep.add_argument("--densities", default=_env("DENSITIES", "0.5,0.75,1.0"),
                       help="comma-separated traffic densities in [0, 1]")
    sweep.add_argument("--episodes", type=int, default=_env("EPISODES", "20"),
                       help="episodes per density")
    sweep.add_argument("--seed", type=int, default=_env("SEED", "0"),
                       help="base seed for the whole sweep")
    sweep.add_argument("--out", default=_env("OUT", "sweep.csv"), help="output CSV path")
    sweep.set_defaults(func=cmd_sweep)

    field = sub.add_parser("field", help="dump the combined risk field over a grid")
    field.add_argument("--config", default=_env("CONFIG"), help="reward config JSON file")
    field.add_argument("--mode", default="same_direction",
                       choices=[m.value for m in InteractionMode])
    field.add_argument("--ego-speed", type=float, default=4.0, help="m/s")
    field.add_argument("--other-speed", type=float, default=0.0, help="m/s")
    field.add_argument("--grid", default=_env("GRID", "-30,30,-10,10,0.5"),
                       help="x_min,x_max,y_min,y_max,resolution, at most 10,000,000 cells "
                            "(use --grid=-30,30,... for negative bounds)")
    field.add_argument("--out", default=_env("OUT", "field.csv"), help="output CSV path")
    field.set_defaults(func=cmd_field)

    validate = sub.add_parser("validate", help="validate a scenario or config document")
    validate.add_argument("path", help="JSON document to validate")
    validate.set_defaults(func=cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ScenarioError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
