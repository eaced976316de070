"""Time one fresh-process set-up of a workload and print it as JSON.

Usage: python3 setup_probe.py SRC_DIR CONFIG POLICY|- [SCENARIO ...]

Set-up is everything before the first step or grid cell: importing
``riskrl``, loading and validating the config and the scenario documents,
and building the policy. The clock starts before the import, after the
interpreter itself has started.
"""

import json
import sys
import time


def main() -> None:
    start = time.perf_counter()
    src, config_path, policy, *scenario_paths = sys.argv[1:]
    sys.path.insert(0, src)
    import riskrl.cli  # noqa: F401  (the entry point the workloads go through)
    from riskrl import build_policy, load_config, load_scenario

    config = load_config(config_path)
    for path in scenario_paths:
        load_scenario(path)
    if policy != "-":
        build_policy(policy, config)
    print(json.dumps({"setup_s": time.perf_counter() - start}))


if __name__ == "__main__":
    main()
