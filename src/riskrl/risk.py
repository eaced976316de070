"""Risk-awareness objective: interaction modes, the ellipsoid risk field,
worst-case safety clearances, time-to-collision, and the combined risk reward.

All functions are pure over immutable inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Literal, Sequence

import numpy as np

from .core import (
    ActorKind, ActorState, ContractError, RewardConfig, _rotate, relative_displacement, wrap_angle,
)

Axis = Literal["long", "lat"]

# Heading-difference partition between the vehicle-vehicle interaction modes.
SAME_DIRECTION_MAX = math.pi / 4.0       # 45 deg
OPPOSITE_DIRECTION_MIN = 3.0 * math.pi / 4.0  # 135 deg


class InteractionMode(Enum):
    SAME_DIRECTION = "same_direction"
    OPPOSITE_DIRECTION = "opposite_direction"
    INTERSECTING = "intersecting"
    STATIC_OBSTACLE = "static_obstacle"


@dataclass(frozen=True)
class EllipseParams:
    """Shape of one risk field evaluation: centers, radii, and exponents."""

    c_x: float  # m, minimum longitudinal clearance (ellipse center)
    c_y: float  # m, minimum lateral clearance
    r_x: float  # m, desired longitudinal clearance (radius)
    r_y: float  # m, desired lateral clearance
    p_x: int
    p_y: int
    p_outer: int

    def __post_init__(self) -> None:
        _check_shape(self.c_x, self.c_y, self.r_x, self.r_y)
        for p in (self.p_x, self.p_y, self.p_outer):
            if not (isinstance(p, int) and p >= 2 and p % 2 == 0):
                raise ContractError(f"ellipse exponents must be even integers >= 2 (got {p})")


@dataclass(frozen=True)
class RiskAssessment:
    """Per-interaction risk summary for one other actor."""

    mode: InteractionMode
    geom_penalty: float   # in [0, 1]
    dyn_penalty: float    # in [0, 1]
    combined: float       # w_geom * geom + w_dyn * dyn
    ttc: float            # s; +inf unless the interaction is intersecting


def classify_interaction(ego: ActorState, other: ActorState) -> InteractionMode:
    """Pick the interaction mode from the other actor's kind and relative heading."""
    if other.kind is ActorKind.STATIC_OBSTACLE:
        return InteractionMode.STATIC_OBSTACLE
    dpsi = abs(wrap_angle(other.heading - ego.heading))
    if dpsi <= SAME_DIRECTION_MAX:
        return InteractionMode.SAME_DIRECTION
    if dpsi >= OPPOSITE_DIRECTION_MIN:
        return InteractionMode.OPPOSITE_DIRECTION
    return InteractionMode.INTERSECTING


def clearance_center(
    ego: ActorState, other: ActorState, mode: InteractionMode
) -> tuple[float, float]:
    """Minimum clearance pair (c_x, c_y) below which a collision is unavoidable.

    Directional modes add the half-dimensions per axis; the intersecting mode
    uses the sum of both circumradii on both axes.
    """
    if mode is InteractionMode.INTERSECTING:
        c = ego.circumradius + other.circumradius
        return c, c
    return 0.5 * (ego.length + other.length), 0.5 * (ego.width + other.width)


def ellipsoid_penalty(d_x: float, d_y: float, params: EllipseParams) -> float:
    """Evaluate the risk field at a displacement; result in (0, 1].

    The numerators are clamped at zero so the penalty saturates at 1 anywhere
    inside the minimum-clearance box, not just on its boundary.
    """
    return _ellipse(d_x, d_y, params.c_x, params.c_y, params.r_x, params.r_y,
                    params.p_x, params.p_y, params.p_outer)


def _check_shape(c_x: float, c_y: float, r_x: float, r_y: float) -> None:
    """`EllipseParams`' radius and centre checks, over plain numbers."""
    if r_x <= 0.0 or r_y <= 0.0:
        raise ContractError("ellipse radii must be positive")
    if c_x < 0.0 or c_y < 0.0:
        raise ContractError("ellipse centers must be non-negative")


def _ellipse(d_x: float, d_y: float, c_x: float, c_y: float, r_x: float, r_y: float,
             p_x: int, p_y: int, p_outer: int) -> float:
    """The risk field over plain numbers, with `EllipseParams`' radius and centre checks.

    Callers pass exponents that are already even integers >= 2.
    """
    _check_shape(c_x, c_y, r_x, r_y)
    tx = max(abs(d_x) - c_x, 0.0) / r_x
    ty = max(abs(d_y) - c_y, 0.0) / r_y
    return _ellipse_power(tx, ty, p_x, p_y, p_outer)


def _ellipse_power(tx: float, ty: float, p_x: int, p_y: int, p_outer: int) -> float:
    """The field from the normalised excesses over the clearance box, in Python floats.

    numpy's `power` can differ from `**` in the last bit, so the array field
    calls this per element too.
    """
    try:
        return (tx ** p_x + ty ** p_y + 1.0) ** (-p_outer)
    except OverflowError:  # so far out that the field is at its limit, 0
        return 0.0


def accel_distance(v: float, rho: float, a_acc: float) -> float:
    """Distance covered while accelerating at a_acc for the reaction time rho."""
    return v * rho + 0.5 * a_acc * rho * rho


def stop_distance(v: float, rho: float, a_acc: float, a_brk_min: float) -> float:
    """Braking distance after the reaction phase, using the minimum braking rate."""
    v_rho = v + rho * a_acc
    return v_rho * v_rho / (2.0 * a_brk_min)


def _axis_params(axis: Axis, config: RewardConfig) -> tuple[float, float, float, float]:
    """(a_acc_max, a_brk_min, a_brk_max, geometric radius) for one axis."""
    if axis == "long":
        return config.a_acc_max_x, config.a_brk_min_x, config.a_brk_max_x, config.r_x_geom
    if axis == "lat":
        return config.a_acc_max_y, config.a_brk_min_y, config.a_brk_max_y, config.r_y_geom
    raise ContractError(f"axis must be 'long' or 'lat' (got {axis!r})")


def leading_clearance(v_ego: float, v_other: float, axis: Axis, config: RewardConfig) -> float:
    """Worst-case clearance behind a leader that may brake at its maximum rate.

    Ego worst case: accelerate through the reaction time, then brake at the
    minimum rate; the leader's own stopping distance is credited back. The
    result is floored at the geometric radius for the axis so the field never
    demands less than the typical driver clearance.
    """
    a_acc, a_brk_min, a_brk_max, r_geom = _axis_params(axis, config)
    r = (
        accel_distance(v_ego, config.rho, a_acc)
        + stop_distance(v_ego, config.rho, a_acc, a_brk_min)
        - v_other * v_other / (2.0 * a_brk_max)
    )
    return max(r, r_geom)


def approach_clearance(v_ego: float, v_other: float, axis: Axis, config: RewardConfig) -> float:
    """Worst-case clearance when both agents close in on each other.

    Both agents accelerate through the reaction time and then brake at the
    minimum rate; the clearance is the sum of both stopping envelopes, floored
    at the geometric radius for the axis.
    """
    a_acc, a_brk_min, _, r_geom = _axis_params(axis, config)
    r = (
        accel_distance(v_ego, config.rho, a_acc)
        + stop_distance(v_ego, config.rho, a_acc, a_brk_min)
        + accel_distance(v_other, config.rho, a_acc)
        + stop_distance(v_other, config.rho, a_acc, a_brk_min)
    )
    return max(r, r_geom)


def away_clearance(v_ego_away: float, v_other_toward: float, config: RewardConfig) -> float:
    """Lateral clearance for an ego retreating from an approaching actor.

    Required only while the other actor could out-accelerate the retreat within
    the reaction time; otherwise no dynamic clearance is needed. Lateral axis
    parameters apply. Floored at zero; the geometric floor is applied at the
    point of use.
    """
    v_other_rho = v_other_toward + config.rho * config.a_acc_max_y
    if v_ego_away <= v_other_rho:
        r = accel_distance(v_other_toward, config.rho, config.a_acc_max_y) - v_ego_away * config.rho
        return max(r, 0.0)
    return 0.0


def ttc_circle(a: ActorState, b: ActorState) -> float:
    """Time until the two circumcircles first touch under constant velocities.

    Returns the smallest non-negative root of the gap quadratic, 0.0 when the
    circles already overlap, and +inf when they never meet.
    """
    (ax, ay), (bx, by) = a.position, b.position
    avx, avy = _rotate(a.speed_long, a.speed_lat, a.heading)
    bvx, bvy = _rotate(b.speed_long, b.speed_lat, b.heading)
    dpx, dpy, dvx, dvy = bx - ax, by - ay, bvx - avx, bvy - avy
    radius = a.circumradius + b.circumradius
    c = dpx * dpx + dpy * dpy - radius * radius
    if c <= 0.0:
        return 0.0
    aa = dvx * dvx + dvy * dvy
    if aa == 0.0:
        return math.inf
    bb = dpx * dvx + dpy * dvy
    disc = bb * bb - aa * c
    if disc < 0.0:
        return math.inf
    t_first = (-bb - math.sqrt(disc)) / aa
    # c > 0 means both roots share a sign, so a negative first root is a miss
    return t_first if t_first >= 0.0 else math.inf


def ttc_penalty(ttc: float, config: RewardConfig) -> float:
    """Map a TTC onto a [0, 1] penalty on a log10 scale.

    The 0.1 ratio floor together with the base-10 logarithm pins the output
    range exactly to [0, 1]; anything at or beyond ttc_max is risk-free.
    """
    ratio = max(0.1, min(ttc / config.ttc_max, 1.0))
    return -math.log10(ratio) + 0.0  # normalise -0.0 at the risk-free end


def _mode_exponents(mode: InteractionMode, config: RewardConfig) -> tuple[int, int]:
    """(p_x, p_y) for the ellipse, prioritising the critical axis per mode."""
    if mode is InteractionMode.SAME_DIRECTION:
        return config.p_max, config.p_min
    if mode is InteractionMode.INTERSECTING:
        return config.p_max, config.p_max
    # opposite direction and static obstacles: lateral clearance dominates
    return config.p_min, config.p_max


def geometric_risk(
    ego: ActorState, other: ActorState, mode: InteractionMode, config: RewardConfig
) -> float:
    """Risk field with fixed, speed-independent clearances (pays for dynamic_risk's too)."""
    return _pair_risk(ego, other, mode, config)[0]


def _lateral_dynamic_radius(
    ego: ActorState, other: ActorState, d_y: float, config: RewardConfig
) -> float:
    """Pick the lateral clearance case from the signed lateral velocities.

    Velocities are expressed in the ego frame; `side` is the side the other
    actor occupies. Four cases: both closing, ego chasing a retreating actor,
    ego retreating from a closing actor, and both opening (no clearance).
    """
    side = 0.0 if d_y == 0.0 else math.copysign(1.0, d_y)
    v_ego_lat = ego.speed_lat
    world_vx, world_vy = _rotate(other.speed_long, other.speed_lat, other.heading)
    v_other_lat = _rotate(world_vx, world_vy, -ego.heading)[1]
    ego_toward = side * v_ego_lat > 0.0
    other_toward = side * v_other_lat < 0.0
    if ego_toward and other_toward:
        return approach_clearance(abs(v_ego_lat), abs(v_other_lat), "lat", config)
    if ego_toward:
        return leading_clearance(abs(v_ego_lat), abs(v_other_lat), "lat", config)
    if other_toward:
        v_away = max(-side * v_ego_lat, 0.0)
        return away_clearance(v_away, abs(v_other_lat), config)
    return 0.0


def _longitudinal_dynamic_radius(
    ego: ActorState, other: ActorState, mode: InteractionMode, config: RewardConfig
) -> float:
    """The directional modes' longitudinal clearance, floored at the geometric radius."""
    v_ego = abs(ego.speed_long)
    v_other = abs(other.speed_long)
    if mode is InteractionMode.OPPOSITE_DIRECTION:
        r_x = approach_clearance(v_ego, v_other, "long", config)
    elif mode is InteractionMode.STATIC_OBSTACLE:
        r_x = leading_clearance(v_ego, 0.0, "long", config)
    else:
        r_x = leading_clearance(v_ego, v_other, "long", config)
    return max(r_x, config.r_x_geom)


def dynamic_risk(
    ego: ActorState, other: ActorState, mode: InteractionMode, config: RewardConfig
) -> tuple[float, float]:
    """Risk under worst-case dynamics; returns (penalty, ttc).

    Directional modes evaluate the ellipsoid with clearances grown from the
    reaction-time stopping envelopes; the intersecting mode scores the
    circumcircle time-to-collision instead. The TTC is only meaningful (finite)
    for the intersecting mode. Both scalar risks work out both penalties, so a
    caller that wants the two calls assess_interaction, which does that once.
    """
    return _pair_risk(ego, other, mode, config)[1:]


def _pair_risk(
    ego: ActorState, other: ActorState, mode: InteractionMode, config: RewardConfig
) -> tuple[float, float, float]:
    """(geometric penalty, dynamic penalty, ttc) of one pair, its geometry worked out once."""
    d_x, d_y = relative_displacement(ego, other)
    c_x, c_y = clearance_center(ego, other, mode)
    p_x, p_y = _mode_exponents(mode, config)
    geom = _ellipse(d_x, d_y, c_x, c_y, config.r_x_geom, config.r_y_geom, p_x, p_y, config.p_outer)
    if mode is InteractionMode.INTERSECTING:
        ttc = ttc_circle(ego, other)
        return geom, ttc_penalty(ttc, config), ttc
    r_x = _longitudinal_dynamic_radius(ego, other, mode, config)
    r_y = max(_lateral_dynamic_radius(ego, other, d_y, config), config.r_y_geom)
    return geom, _ellipse(d_x, d_y, c_x, c_y, r_x, r_y, p_x, p_y, config.p_outer), math.inf


def _grid_axis(values: Sequence[float], name: str) -> np.ndarray:
    axis = np.asarray(values)
    if axis.ndim != 1 or axis.dtype.kind not in "iuf" or not np.all(np.isfinite(axis)):
        raise ContractError(f"risk_field {name} must be a 1-D sequence of finite numbers")
    return axis.astype(float)


def _ellipse_powers(tx: np.ndarray, ty: np.ndarray, p_x: int, p_y: int, p_outer: int) -> np.ndarray:
    return np.array([_ellipse_power(a, b, p_x, p_y, p_outer)
                     for a, b in zip(tx.tolist(), ty.tolist())])


def risk_field(
    ego: ActorState, other: ActorState, xs: Sequence[float], ys: Sequence[float],
    mode: InteractionMode, config: RewardConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """`geometric_risk` and the `dynamic_risk` penalty with `other` at every grid cell.

    Returns (geom, dyn), one value per cell in row order: `ys` outer, `xs`
    inner. `other`'s own position is ignored. Each value equals the scalar
    function's for that cell bit for bit: the arrays take only correctly
    rounded steps, and the power and log10 steps run per element through the
    scalar code. The pair set-up is done once per field.
    """
    xs, ys = _grid_axis(xs, "xs"), _grid_axis(ys, "ys")
    px = np.tile(xs, ys.size) - ego.position[0]
    py = np.repeat(ys, xs.size) - ego.position[1]
    c_x, c_y = clearance_center(ego, other, mode)
    p_x, p_y = _mode_exponents(mode, config)
    _check_shape(c_x, c_y, config.r_x_geom, config.r_y_geom)
    # Python float arithmetic overflows to inf silently; numpy would warn
    with np.errstate(over="ignore", invalid="ignore"):
        d_x, d_y = _rotate(px, py, -ego.heading)
        excess_x = np.maximum(np.abs(d_x) - c_x, 0.0)
        excess_y = np.maximum(np.abs(d_y) - c_y, 0.0)
        geom = _ellipse_powers(excess_x / config.r_x_geom, excess_y / config.r_y_geom,
                               p_x, p_y, config.p_outer)
        if mode is InteractionMode.INTERSECTING:
            ttc = _ttc_field(ego, other, px, py)
            return geom, np.array([ttc_penalty(t, config) for t in ttc.tolist()])
        r_x = _longitudinal_dynamic_radius(ego, other, mode, config)
        # the lateral case depends on d_y only through its sign
        r_right, r_level, r_left = (
            max(_lateral_dynamic_radius(ego, other, side, config), config.r_y_geom)
            for side in (-1.0, 0.0, 1.0)
        )
        _check_shape(c_x, c_y, r_x, min(r_right, r_level, r_left))
        r_y = np.where(d_y > 0.0, r_left, np.where(d_y < 0.0, r_right, r_level))
        dyn = _ellipse_powers(excess_x / r_x, excess_y / r_y, p_x, p_y, config.p_outer)
    return geom, dyn


def _ttc_field(ego: ActorState, other: ActorState, px: np.ndarray, py: np.ndarray) -> np.ndarray:
    """`ttc_circle` with `other` displaced by (px, py) from the ego, in its branch order."""
    avx, avy = _rotate(ego.speed_long, ego.speed_lat, ego.heading)
    bvx, bvy = _rotate(other.speed_long, other.speed_lat, other.heading)
    dvx, dvy = bvx - avx, bvy - avy
    radius = ego.circumradius + other.circumradius
    c = px * px + py * py - radius * radius
    aa = dvx * dvx + dvy * dvy
    if aa == 0.0:
        return np.where(c <= 0.0, 0.0, math.inf)
    bb = px * dvx + py * dvy
    disc = bb * bb - aa * c
    # a negative disc gives a NaN root, which fails `>= 0` and so is a miss too
    t_first = (-bb - np.sqrt(disc)) / aa
    return np.where(c <= 0.0, 0.0, np.where(t_first >= 0.0, t_first, math.inf))


def assess_interaction(
    ego: ActorState, other: ActorState, config: RewardConfig
) -> RiskAssessment:
    """Classify one ego-other pair and score both risk penalties."""
    mode = classify_interaction(ego, other)
    geom, dyn, ttc = _pair_risk(ego, other, mode, config)
    combined = config.w_geom * geom + config.w_dyn * dyn
    return RiskAssessment(mode=mode, geom_penalty=geom, dyn_penalty=dyn, combined=combined, ttc=ttc)


def risk_reward(
    ego: ActorState, others: Iterable[ActorState], config: RewardConfig
) -> tuple[float, tuple[RiskAssessment, ...]]:
    """Negative of the highest combined risk over all other actors.

    Returns 0 with no assessments when there is nothing to interact with; all
    per-actor assessments are returned for tracing.
    """
    assessments = tuple(assess_interaction(ego, other, config) for other in others)
    if not assessments:
        return 0.0, assessments
    worst = max(a.combined for a in assessments)
    return -worst + 0.0, assessments
