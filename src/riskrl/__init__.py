"""Hierarchical, risk-aware driving reward library with a deterministic
2D kinematic scenario simulator.

The public surface mirrors the module layout:

- :mod:`riskrl.core` — domain types, route geometry, configuration
- :mod:`riskrl.risk` — risk field, safety clearances, time-to-collision
- :mod:`riskrl.reward` — per-step objectives and the hierarchical total
- :mod:`riskrl.sim` — scenarios, world stepping, episode runner, metrics
- :mod:`riskrl.cli` — the `riskrl` command-line tool
"""

from types import ModuleType as _ModuleType

from .core import (
    ActorKind,
    ActorState,
    ConfigError,
    ContractError,
    RewardConfig,
    Route,
    RouteFramePose,
    ScenarioError,
    load_config,
    project_to_route,
    relative_displacement,
    wrap_angle,
)
from .reward import (
    Outcome,
    RewardBreakdown,
    StepContext,
    collision_penalty,
    comfort_reward,
    driving_style_reward,
    level_weight,
    progress_reward,
    success_reward,
    terminal_reward,
    total_reward,
    traffic_rule_reward,
)
from .risk import (
    EllipseParams,
    InteractionMode,
    RiskAssessment,
    accel_distance,
    approach_clearance,
    assess_interaction,
    away_clearance,
    classify_interaction,
    clearance_center,
    dynamic_risk,
    ellipsoid_penalty,
    geometric_risk,
    leading_clearance,
    risk_field,
    risk_reward,
    stop_distance,
    ttc_circle,
    ttc_penalty,
)
from .sim import (
    Braking,
    ConstantVelocity,
    EpisodeTrace,
    MetricsSummary,
    Observation,
    Scenario,
    StepRecord,
    WaypointFollower,
    World,
    aggregate_metrics,
    build_policy,
    check_offroad,
    detect_collision,
    full_throttle_policy,
    idle_policy,
    lane_follower_policy,
    load_scenario,
    realize_traffic,
    run_episode,
    scripted_replay_policy,
    step_world,
)

__version__ = "0.1.0"

__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
