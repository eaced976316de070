"""Seeded scenario documents for the ``run_waypoints`` workload.

Each document is a curved three-lane road with a ``lane_follower``
ego in the middle lane and 4-6 ``waypoint_follower`` NPCs in the lanes on
either side: the right-hand ones drive with the ego, the left-hand ones come
towards it. The documents depend only on the seed, and every one is checked
with ``riskrl.sim.validate_scenario_data`` before it is used.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

LANE_WIDTH_M = 3.5
VERTEX_SPACING_M = 0.3
ROUTE_LENGTH_M = 110.0
GOAL_STATION_M = 100.0
WAYPOINT_STRIDE = 2  # every 2nd centerline vertex becomes a follower waypoint
MAX_STEPS = 600


def _heading_profile(rng: np.random.Generator, stations: np.ndarray) -> np.ndarray:
    """Sum of two sinusoids in heading; peak curvature stays below 0.05 1/m."""
    heading = np.full_like(stations, rng.uniform(-math.pi, math.pi))
    for _ in range(2):
        wavelength = rng.uniform(40.0, 90.0)
        peak_curvature = rng.uniform(0.01, 0.025)
        amplitude = peak_curvature * wavelength / (2.0 * math.pi)
        heading += amplitude * np.sin(2.0 * math.pi * stations / wavelength + rng.uniform(0.0, 2.0 * math.pi))
    return heading


def _document(rng: np.random.Generator, index: int, npc_count: int, route_length: float,
              goal_station: float) -> dict:
    count = int(round(route_length / VERTEX_SPACING_M))
    stations = np.arange(count + 1) * VERTEX_SPACING_M
    heading = _heading_profile(rng, stations)
    steps = VERTEX_SPACING_M * np.column_stack([np.cos(heading[:-1]), np.sin(heading[:-1])])
    centerline = np.vstack([np.zeros((1, 2)), np.cumsum(steps, axis=0)])
    normals = np.column_stack([-np.sin(heading), np.cos(heading)])

    def lane(offset: float, reverse: bool) -> list[list[float]]:
        points = (centerline + offset * normals)[::WAYPOINT_STRIDE]
        return [[float(x), float(y)] for x, y in (points[::-1] if reverse else points)]

    oncoming = int(rng.integers(1, npc_count))
    npcs = []
    for k in range(npc_count):
        is_oncoming = k < oncoming
        speed = float(rng.uniform(2.0, 5.0))
        npcs.append({
            "station": float(rng.uniform(0.3, 0.95) * route_length),
            "lateral_offset": LANE_WIDTH_M if is_oncoming else -LANE_WIDTH_M,
            "heading_offset_deg": 180.0 if is_oncoming else 0.0,
            "speed": speed,
            "script": {
                "kind": "waypoint_follower",
                "waypoints": lane(LANE_WIDTH_M if is_oncoming else -LANE_WIDTH_M, is_oncoming),
                "speed": speed,
            },
        })
    return {
        "schema_version": 1,
        "seed": index,
        "max_steps": MAX_STEPS,
        "route": {
            "centerline": [[float(x), float(y)] for x, y in centerline],
            "lane_width": LANE_WIDTH_M,
            "goal_station": goal_station,
        },
        "ego": {"station": 4.0, "lateral_offset": 0.0, "speed": 0.0},
        "npcs": npcs,
    }


def generate_documents(
    seed: int,
    count: int = 6,
    route_length: float = ROUTE_LENGTH_M,
    goal_station: float = GOAL_STATION_M,
) -> list[dict]:
    """``count`` scenario documents drawn from ``seed`` alone; all validated."""
    from riskrl.sim import validate_scenario_data

    rng = np.random.default_rng(seed)
    # 4, 5 and 6 NPCs in turn, shuffled: the seed moves traffic between
    # documents but keeps the total, so per-step cost barely depends on it
    npc_counts = rng.permutation([4 + i % 3 for i in range(count)])
    documents = [
        _document(rng, i, int(n), route_length, goal_station) for i, n in enumerate(npc_counts)
    ]
    for i, document in enumerate(documents):
        problems = validate_scenario_data(document)
        if problems:
            raise ValueError(f"generated document {i} (seed {seed}) is invalid: {'; '.join(problems)}")
    return documents


def write_documents(documents: list[dict], directory: Path) -> list[Path]:
    """Write one JSON file per document; returns the paths in order."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, document in enumerate(documents):
        path = directory / f"waypoints_{i}.json"
        path.write_text(json.dumps(document))
        paths.append(path)
    return paths
