"""Command-line surface: run episodes, sweep traffic densities, dump risk-field
grids for heatmaps, and validate scenario/config documents.

Outputs are plain CSV plus JSON summaries so plotting stays in external tools.
Most flags can also be supplied through an environment variable named
RISKRL_<FLAG> (for example RISKRL_SEED, RISKRL_CONFIG); `--mode`,
`--ego-speed` and `--other-speed` have none.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import fields
from itertools import chain
from pathlib import Path
from typing import Callable, Iterable

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
from .risk import InteractionMode, _worst, risk_field
# perfbench's tracer patches these two names on this module, so they stay importable here
from .risk import dynamic_risk, geometric_risk  # noqa: F401
from .sim import (
    _EPISODE_STATS,
    _EgoTrack,
    BUILTIN_POLICIES,
    EpisodeTrace,
    MetricsSummary,
    aggregate_metrics,
    build_policy,
    load_scenario,
    run_episode,
    validate_scenario_data,
)

ENV_PREFIX = "RISKRL_"

# trace.csv's level cells are RewardBreakdown fields and its risk cells the worst
# actor's RiskAssessment fields, each under its field name
LEVEL_COLUMNS = ("terminal", "l0_rules", "l1_progress", "l1_risk", "l2_style", "l3_comfort", "total")
RISK_COLUMNS = ("geom_penalty", "dyn_penalty", "ttc")
TRACE_COLUMNS = (
    "step", "time", "ego_x", "ego_y", "ego_heading", "ego_speed",
    "station", "lateral_offset",
    *LEVEL_COLUMNS,
    "max_risk_actor", *RISK_COLUMNS,
)

# sweep.csv's columns: each density's MetricsSummary fields, in their order
SWEEP_COLUMNS = ("density", *(f.name for f in fields(MetricsSummary)))

FIELD_COLUMNS = ("x", "y", "geom_penalty", "dyn_penalty", "combined")
MAX_FIELD_CELLS = 10_000_000  # about 512 times the 0.25 m grid over 60 x 20 m
_FIELD_BLOCK_CELLS = 65_536  # most cells `field` evaluates and writes at a time

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
    return repr(float(value))  # a float's cell text, inf and nan included


def _load_config_arg(path: str | None) -> RewardConfig:
    return load_config(path) if path else RewardConfig()


def trace_rows(trace: EpisodeTrace) -> list[list[str]]:
    """Fixed-format trace table; one row per simulation step, built column by column.

    The risk cells come from the episode's risk table, not from `RiskAssessment`s: each
    step's worst actor is the first with the largest `combined`.
    """
    records = trace.records
    egos, poses = [r.ego for r in records], [r.pose for r in records]
    values = [[r.time for r in records], [e.position[0] for e in egos],
              [e.position[1] for e in egos], [e.heading for e in egos], [e.speed for e in egos],
              [p.station for p in poses], [p.lateral_offset for p in poses],
              *([getattr(r.breakdown, column) for r in records] for column in LEVEL_COLUMNS)]
    worst = _worst(trace._risk_table, len(records))  # None at a step without pairs
    columns = [map(str, [r.step for r in records]), *(map(_fmt, v) for v in values),
               *(["" if v is None else text(v) for v in column]
                 for text, column in zip((str, _fmt, _fmt, _fmt), worst))]
    return list(map(list, zip(*columns)))


def _write_csv(path: Path, header: Iterable[str], rows: Iterable[Iterable[str]]) -> None:
    # a cell is an int's str, a float's repr or empty: none holds , " \r or \n and no row is
    # one empty cell, so joining the cells writes the bytes csv.writer would
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as handle:
        handle.write(",".join(header) + "\n")
        write = handle.write
        for row in rows:
            write(",".join(row))
            write("\n")


def cmd_run(args: argparse.Namespace) -> int:
    config = _load_config_arg(args.config)
    scenario = load_scenario(args.scenario)
    policy = build_policy(args.policy, config)
    seed = args.seed if args.seed is not None and args.seed >= 0 else None
    trace = run_episode(scenario, policy, config, seed=seed)

    out_dir = Path(args.out)
    _write_csv(out_dir / "trace.csv", TRACE_COLUMNS, trace_rows(trace))
    summary = {"outcome": trace.outcome.value, "steps": len(trace.records),
               **{field: getattr(trace, field) for _, field in _EPISODE_STATS}}
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

    Each density's episodes reach `aggregate_metrics` as a generator, so each
    episode is summarised and dropped before the next one runs, and memory
    does not grow with `--episodes`. No built-in policy reads `obs.others` and
    every NPC script is open loop, so the ego's steps depend on its scenario
    alone: the episodes of a scenario share one ego track, which this call
    builds and drops, and each runs the rows it holds as array passes over its
    own traffic. The output ordering and content depend only on the seed and inputs.
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
    if args.seed < 0:
        raise ScenarioError(f"--seed must be >= 0 (got {args.seed})")
    policy = build_policy(args.policy, config)
    ego_tracks = [_EgoTrack(scenario, policy, config) for scenario in scenarios]

    rows = []
    for d_idx, density in enumerate(densities):
        m = aggregate_metrics(
            run_episode(scenarios[episode % len(scenarios)], ego_tracks[episode % len(scenarios)],
                        config, density=density, seed=_episode_seed(args.seed, d_idx, episode))
            for episode in range(args.episodes))
        rows.append([_fmt(density), str(m.episodes)]
                    + [_fmt(getattr(m, column)) for column in SWEEP_COLUMNS[2:]])
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
    if min(nx, ny) == 0:  # half a resolution step can vanish next to bounds as large as 1e16
        raise ConfigError(f"--grid gives {nx:,} x {ny:,} cells: an axis has none")
    return x_min, x_max, y_min, y_max, resolution


def _axis_count(low: float, high: float, resolution: float) -> float:
    """len(np.arange(low, high + resolution / 2, resolution)), without building it."""
    count = (high + resolution / 2.0 - low) / resolution
    return math.ceil(count) if math.isfinite(count) else math.inf


def _per_distinct(func: Callable[[float], object], values: np.ndarray,
                  dtype: type) -> np.ndarray:
    """`func` of each element of the float array `values`, called once per distinct value.

    Values are keyed by their bits, so -0.0 and 0.0 (and NaN payloads) stay apart.
    """
    keys, inverse = np.unique(np.asarray(values, dtype=float).view(np.int64), return_inverse=True)
    return np.array([func(v) for v in keys.view(float).tolist()], dtype=dtype)[inverse]


def _field_rows(ego: ActorState, other: ActorState, xs: np.ndarray, ys: np.ndarray,
                mode: InteractionMode, config: RewardConfig) -> Iterable[tuple[str, ...]]:
    """The rows of one block of field cells: each coordinate formatted once per axis value,
    each distinct value of the other columns once."""
    geom, dyn = risk_field(ego, other, xs, ys, mode, config)
    combined = config.w_geom * geom + config.w_dyn * dyn
    x_texts = [_fmt(x) for x in xs.tolist()]
    y_texts = chain.from_iterable([_fmt(y)] * xs.size for y in ys.tolist())
    return zip(x_texts * ys.size, y_texts,
               *(_per_distinct(_fmt, column, object).tolist() for column in (geom, dyn, combined)))


def cmd_field(args: argparse.Namespace) -> int:
    config = _load_config_arg(args.config)
    mode = InteractionMode(args.mode)
    x_min, x_max, y_min, y_max, resolution = _parse_grid(args.grid)
    for flag, speed in (("--ego-speed", args.ego_speed), ("--other-speed", args.other_speed)):
        if not _is_number(speed):
            raise ConfigError(f"{flag} must be a number in [-1e6, 1e6] (got {speed})")

    ego = ActorState(position=(0.0, 0.0), heading=0.0, speed_long=args.ego_speed,
                     kind=ActorKind.EGO_VEHICLE)
    other = ActorState(position=(0.0, 0.0),
                       **({"speed_long": args.other_speed} | _FIELD_ACTORS[mode]))
    xs = np.arange(x_min, x_max + resolution / 2.0, resolution)
    ys = np.arange(y_min, y_max + resolution / 2.0, resolution)
    # blocks of whole rows, or of parts of one row longer than a block, so memory stays bounded
    width = max(1, min(xs.size, _FIELD_BLOCK_CELLS))
    height = _FIELD_BLOCK_CELLS // width
    blocks = (_field_rows(ego, other, xs[i:i + width], ys[j:j + height], mode, config)
              for j in range(0, ys.size, height) for i in range(0, xs.size, width))
    _write_csv(Path(args.out), FIELD_COLUMNS, chain.from_iterable(blocks))
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
    run.add_argument("--seed", type=int, default=_env("SEED", "-1"),
                     help="override the scenario seed; a negative one keeps the scenario's")
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
