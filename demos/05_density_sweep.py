"""Episode statistics across traffic densities, via the library API.

Runs the shipped intersection scenario at three densities with the built-in
lane follower and prints the aggregate table: outcome rates plus cumulative
reward, route progress, and average velocity (mean +- std). The `riskrl
sweep` command runs the same shape of sweep and writes it as CSV, but it
derives each episode's seed from its `--seed`, so its numbers differ from
these.
"""

from pathlib import Path

from riskrl import RewardConfig, aggregate_metrics, build_policy, load_scenario, run_episode

cfg = RewardConfig()
scenario = load_scenario(Path(__file__).resolve().parent.parent / "scenarios" / "intersection.json")
policy = build_policy("lane_follower", cfg)

EPISODES = 20
print(f"{EPISODES} episodes per density, lane-follower policy, seed-derived traffic\n")
header = (f"{'density':>7} | {'succ%':>6} {'coll%':>6} {'offrd%':>6} {'time%':>6} | "
          f"{'reward':>16} | {'progress':>13} | {'avg vel':>12}")
print(header)
print("-" * len(header))
for d_idx, density in enumerate((0.5, 0.75, 1.0)):
    # a generator: each episode is summarised and dropped before the next one runs
    m = aggregate_metrics(
        run_episode(scenario, policy, cfg, density=density, seed=10_000 * d_idx + ep)
        for ep in range(EPISODES)
    )
    print(f"{density:>7.2f} | {m.success_pct:>6.1f} {m.collision_pct:>6.1f} "
          f"{m.offroad_pct:>6.1f} {m.timeout_pct:>6.1f} | "
          f"{m.reward_mean:>7.2f} +- {m.reward_std:<5.2f} | "
          f"{m.progress_mean:>5.2f} +- {m.progress_std:<4.2f} | "
          f"{m.velocity_mean:>4.2f} +- {m.velocity_std:<4.2f}")

print("\nDenser traffic: fewer successes, more collisions, lower reward and")
print("progress. The blind lane follower never yields, so these are floor")
print("numbers; a policy trained against this reward is meant to beat them.")
