"""Render the combined risk field around the ego as an ASCII heatmap.

The same grids can be exported as CSV for real plots with
`riskrl field --mode ... --out field.csv`; this script keeps everything
in-terminal to show the field shapes per interaction mode.
"""

import numpy as np

from riskrl import (
    ActorKind,
    ActorState,
    InteractionMode,
    RewardConfig,
    risk_field,
)

cfg = RewardConfig()
SHADES = " .:-=+*#%@"

MODES = {
    InteractionMode.SAME_DIRECTION: dict(heading=0.0, speed=2.0, kind=ActorKind.NPC_VEHICLE),
    InteractionMode.OPPOSITE_DIRECTION: dict(heading=np.pi, speed=4.0, kind=ActorKind.NPC_VEHICLE),
    InteractionMode.INTERSECTING: dict(heading=np.pi / 2, speed=4.0, kind=ActorKind.NPC_VEHICLE),
    InteractionMode.STATIC_OBSTACLE: dict(heading=0.0, speed=0.0, kind=ActorKind.STATIC_OBSTACLE),
}


def render(mode: InteractionMode, ego_speed=4.0) -> None:
    spec = MODES[mode]
    ego = ActorState(position=[0.0, 0.0], heading=0.0, speed_long=ego_speed,
                     kind=ActorKind.EGO_VEHICLE)
    dims = (1.0, 1.0) if spec["kind"] is ActorKind.STATIC_OBSTACLE else (4.5, 1.8)
    other = ActorState(position=[0.0, 0.0], heading=spec["heading"], speed_long=spec["speed"],
                       length=dims[0], width=dims[1], kind=spec["kind"])
    print(f"\n{mode.value} (ego {ego_speed} m/s, other {spec['speed']} m/s)")
    print("  x: -30..30 m ahead/behind, y: -8..8 m left/right, value = combined risk")
    xs = np.arange(-30.0, 30.0 + 0.1, 1.5)
    ys = np.arange(8.0, -8.0 - 0.1, -2.0)
    geom, dyn = risk_field(ego, other, xs, ys, mode, cfg)
    combined = (cfg.w_geom * geom + cfg.w_dyn * dyn).tolist()
    for start in range(0, len(combined), xs.size):
        row = combined[start:start + xs.size]
        print("  " + "".join(SHADES[min(int(c * (len(SHADES) - 1) + 0.5), len(SHADES) - 1)]
                             for c in row))


for mode in MODES:
    render(mode)

print("\nDirectional fields stretch longitudinally with the stopping envelope")
print("(compare opposite-direction against a static obstacle); intersecting")
print("actors are scored by circumcircle time-to-collision instead, so their")
print("field follows closing speed rather than distance alone.")
