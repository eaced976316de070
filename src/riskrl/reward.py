"""Per-step driving objectives and their hierarchical combination.

Level layout (priority order): terminal conditions override everything; rule
conformance (level 0) enters unweighted; progress and risk share the level-1
weight; driving style sits at level 2 and comfort at level 3. Level weights
decay geometrically with the level index.

Each objective is one plain-float function; `total_reward` and each ego-track row score a
step's ego-only levels with them through `_ego_levels`, and `_totals` alone weights levels.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .core import (
    ActorState, ContractError, RewardConfig, RouteFramePose, _finite, _is_count, _maker,
)
from .risk import RiskAssessment, risk_reward

# Steering-rate normalisation needs a velocity floor to stay finite at rest.
STEER_SPEED_FLOOR = 0.1  # m/s


class Outcome(Enum):
    NONE = "none"
    SUCCESS = "success"
    COLLISION = "collision"
    OFFROAD = "offroad"
    TIMEOUT = "timeout"


@dataclass(frozen=True)
class StepContext:
    """Everything one reward evaluation needs to know about a step."""

    ego: ActorState
    pose: RouteFramePose
    prev_pose: RouteFramePose
    others: tuple[ActorState, ...]
    lane_width: float          # m
    steering_rate: float = 0.0  # rad/s
    jerk: float = 0.0           # m/s^3
    violations: frozenset[str] = frozenset()
    outcome: Outcome = Outcome.NONE

    def __post_init__(self) -> None:
        if not (_finite(self.steering_rate) and _finite(self.jerk)):
            raise ContractError("steering_rate and jerk must be finite numbers")
        if not (_finite(self.lane_width) and self.lane_width > 0.0):
            raise ContractError(f"lane_width must be positive (got {self.lane_width})")
        object.__setattr__(self, "others", tuple(self.others))
        object.__setattr__(self, "violations", frozenset(self.violations))


@dataclass(frozen=True, slots=True)
class RewardBreakdown:
    """Per-step value of each level plus the combined scalar.

    On a terminal step the level values are still reported for tracing but the
    total equals the terminal value alone; a timeout contributes exactly zero.
    """

    terminal: float
    l0_rules: float
    l1_progress: float
    l1_risk: float
    l2_style: float
    l3_comfort: float
    total: float
    risk_assessments: tuple[RiskAssessment, ...] = ()


_make_breakdown = _maker(RewardBreakdown, "risk_assessments")  # built when read


def level_weight(i: int, beta: float) -> float:
    """Weight of hierarchy level i, an integer >= 1: beta^(i-1)."""
    if not _is_count(i, 1):
        raise ContractError(f"level index must be an integer >= 1 (got {i!r})")
    if not 0.0 < beta < 1.0:
        raise ContractError(f"beta must lie in (0, 1) (got {beta})")
    return beta ** (i - 1)


def _level_weights(config: RewardConfig) -> tuple[float, float, float]:
    """The weights of levels 1, 2 and 3."""
    return tuple(level_weight(i, config.beta) for i in (1, 2, 3))


def collision_penalty(v: float, v_max: float) -> float:
    """Severity-scaled collision penalty in [-1, -0.5]; harder at higher speed."""
    vv = min(max(v, 0.0), v_max)
    return -(0.5 + 0.5 * vv / v_max)


def success_reward(offset: float, threshold: float) -> float:
    """1.0 when the goal is reached within the lateral threshold, else 0.5."""
    return 1.0 if abs(offset) < threshold else 0.5


def terminal_reward(outcome: Outcome, speed: float, offset: float, config: RewardConfig) -> float:
    """Terminal value for a finished episode; timeouts end without penalty."""
    if not isinstance(outcome, Outcome):
        raise ContractError(f"terminal_reward outcome must be an Outcome (got {outcome!r})")
    if outcome is Outcome.NONE:
        raise ContractError("terminal_reward requires a terminal outcome")
    if outcome is Outcome.TIMEOUT:
        return 0.0
    if outcome is Outcome.SUCCESS:
        return config.w_terminal * success_reward(offset, config.offset_threshold)
    if outcome is Outcome.COLLISION:
        return config.w_terminal * collision_penalty(speed, config.v_max)
    return -config.w_terminal  # off-road


def traffic_rule_reward(violations: frozenset[str] | set[str]) -> float:
    """-1 if any rule is violated this step, 0 otherwise; violations never stack."""
    return -1.0 if violations else 0.0


def progress_reward(station: float, prev_station: float, config: RewardConfig) -> float:
    """Station gain normalised by the largest possible per-step advance.

    Negative when reversing; clamped to [-1, 1] so numerical projection
    overshoot cannot break the normalisation contract.
    """
    value = (station - prev_station) / (config.v_max * config.dt)
    return 1.0 if 1.0 < value else -1.0 if -1.0 > value else value  # min(max(value, -1.0), 1.0)


def driving_style_reward(v: float, offset: float, lane_width: float, config: RewardConfig) -> float:
    """Penalty for straying from the desired speed and the lane center.

    Each ratio is clamped at 1, keeping the value in [-1, 0].
    """
    if not lane_width > 0.0:
        raise ContractError(f"lane_width must be positive (got {lane_width})")
    vel_term = abs(v - config.v_desired) / config.v_desired
    lane_term = abs(offset) / lane_width
    return (-config.w_vel * (1.0 if 1.0 < vel_term else vel_term)  # min(vel_term, 1.0)
            - config.w_lane * (1.0 if 1.0 < lane_term else lane_term))


def comfort_reward(
    accel: float, steering_rate: float, jerk: float, v: float, config: RewardConfig
) -> float:
    """Penalty for harsh acceleration, steering, and jerk; value in [-1, 0].

    Magnitudes are used throughout and each ratio is clamped at 1. The maximum
    steering rate scales with speed (speed times maximum curvature), with a
    small velocity floor so a standing vehicle is well-defined.
    """
    accel_term = abs(accel) / config.a_comfort_max
    steer_max = (STEER_SPEED_FLOOR if STEER_SPEED_FLOOR > v else v) * config.kappa_max
    steer_term = abs(steering_rate) / steer_max
    jerk_term = abs(jerk) / (config.a_comfort_max / config.dt)
    return -((1.0 if 1.0 < accel_term else accel_term) + (1.0 if 1.0 < steer_term else steer_term)
             + (1.0 if 1.0 < jerk_term else jerk_term)) / 3.0  # min(term, 1.0) of each term


def total_reward(ctx: StepContext, config: RewardConfig) -> RewardBreakdown:
    """Evaluate every level for one step and combine them.

    Terminal outcomes replace the weighted sum with the terminal value; a
    timeout ends the episode contributing zero. Progress and risk both carry
    the level-1 weight.
    """
    return _combine(ctx.ego, ctx.pose, ctx.prev_pose, ctx.lane_width, ctx.steering_rate, ctx.jerk,
                    ctx.violations, ctx.outcome, *risk_reward(ctx.ego, ctx.others, config), config)


def _combine(ego: ActorState, pose: RouteFramePose, prev_pose: RouteFramePose, lane_width: float,
             steering_rate: float, jerk: float, violations: frozenset[str], outcome: Outcome,
             l1_risk: float, assessments: tuple[RiskAssessment, ...],
             config: RewardConfig) -> RewardBreakdown:
    """`total_reward` of one step's values (`StepContext`'s fields but `others`, then the risk
    term and its assessments, built or to build): `_ego_levels`, then `_totals` of one step."""
    l0, l1_progress, l2, l3 = _ego_levels(ego, pose, prev_pose, lane_width, steering_rate, jerk,
                                          violations, config)
    (terminal,), (total,) = _totals((l0,), (l1_progress,), (l2,), (l3,), (l1_risk,), outcome,
                                    ego.speed, pose.lateral_offset, config)
    return _make_breakdown(terminal, l0, l1_progress, l1_risk, l2, l3, total, assessments)


def _ego_levels(ego: ActorState, pose: RouteFramePose, prev_pose: RouteFramePose,
                lane_width: float, steering_rate: float, jerk: float, violations: frozenset[str],
                config: RewardConfig) -> tuple[float, float, float, float]:
    """The levels of a step that read the ego alone: (l0, l1_progress, l2, l3)."""
    speed = ego.speed
    return (traffic_rule_reward(violations),
            progress_reward(pose.station, prev_pose.station, config),
            driving_style_reward(speed, pose.lateral_offset, lane_width, config),
            comfort_reward(ego.accel_long, steering_rate, jerk, speed, config))


def _totals(l0, l1_progress, l2, l3, l1_risk, outcome: Outcome, speed: float, offset: float,
            config: RewardConfig) -> tuple[list[float], list[float]]:
    """(terminal, total) of each step of an episode from its columns of `_ego_levels` and of
    risk, only the last step ending it (with `outcome`, at its `speed` and `offset`): the one
    place the levels are weighted."""
    w1, w2, w3 = _level_weights(config)
    total = [a + w1 * (b + r) + w2 * c + w3 * d for a, b, c, d, r in zip(l0, l1_progress, l2, l3,
                                                                         l1_risk)]
    terminal = [0.0] * len(total)
    if outcome is not Outcome.NONE:
        terminal[-1] = total[-1] = terminal_reward(outcome, speed, offset, config)
    return terminal, total
