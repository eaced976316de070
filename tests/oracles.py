"""Test oracles: numpy and brute-force forms of what the library computes in plain floats."""

import math

import numpy as np

from riskrl import ActorState, ContractError, Route


def rotation(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


def numpy_velocity(actor):
    """World-frame velocity vector, m/s."""
    return rotation(actor.heading) @ np.array([actor.speed_long, actor.speed_lat])


def point_at(route: Route, station: float) -> np.ndarray:
    """Centerline point at the given (clamped) station."""
    return np.array(route._pose_at(station)[:2])


def brute_force_ttc(
    a: ActorState, b: ActorState, dt_fine: float = 1e-4, horizon: float = 60.0
) -> float:
    """First circumcircle-overlap time by linear sweep; the TTC oracle.

    Propagates both actors at constant world velocity and scans the gap on a
    fine time grid; +inf if no overlap occurs within the horizon.
    """
    if not 0.0 < dt_fine <= 1e-3:
        raise ContractError(f"dt_fine must lie in (0, 1e-3] (got {dt_fine})")
    if not 0.0 <= horizon < math.inf:
        raise ContractError(f"horizon must be finite and >= 0 (got {horizon})")
    dp = np.subtract(b.position, a.position)
    dv = numpy_velocity(b) - numpy_velocity(a)
    radius = a.circumradius + b.circumradius
    times = np.arange(0.0, horizon + dt_fine, dt_fine)
    px = dp[0] + times * dv[0]
    py = dp[1] + times * dv[1]
    hit = px * px + py * py <= radius * radius
    idx = int(np.argmax(hit))
    if not hit[idx]:
        return math.inf
    return float(times[idx])
