"""riskrl benchmark: run one workload for a fixed time and print its metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: sweep_intersection, field_grid, run_waypoints (see README.md).
The package is imported from ``src/`` of this checkout, in-process; one
closed-loop caller runs the workload's CLI invocations back to back on one
thread, pass after pass, until ``--seconds`` have gone by (at least two
passes). Every pass is checked: outputs must match the frozen reference where
one exists and be byte-identical across passes.

``--trace 0`` reports the end-to-end metrics; set-up time is measured in
fresh processes started between passes, and pass times are divided by the
time of a fixed calibration kernel run around each pass (see
``calibration.py``). ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics. Human-readable lines and one detail JSON
line come first; the last line of standard output is the result object. The
exit code is 0 only if no operation failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

from calibration import calibration_s
from tracer import Tracer
from workloads import WORKLOADS, differing_ops, run_pass

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"  # generated inputs and pass outputs; removed on exit
SPANS_DIR = ROOT / ".perfbench_out"  # spans of the last traced pass
SETUP_SAMPLES = 12  # fresh-process set-up probes per --trace 0 run
MIN_PASSES = 2
REQUIRED = (
    "BENCHMARK.json", "src/riskrl/__init__.py", "configs/default.json", "scenarios/intersection.json",
)


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        return subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30, check=True
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return None


def metadata(args: argparse.Namespace) -> dict:
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": sha.strip() if sha else None,
        "git_dirty": bool(status.strip()) if status is not None else None,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_1m": os.getloadavg()[0],
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def setup_probe(workload) -> float:
    """One fresh-process set-up time; the workload's own inputs already exist."""
    command = [
        sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC), str(workload.config_path),
        workload.policy or "-", *map(str, workload.scenario_paths()),
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def layer_metrics(workload, result, tracer) -> dict[str, float]:
    """Per-layer numbers of one traced pass (self times from the span tree)."""
    self_times = tracer.self_times()
    steps = workload.work(result) if workload.work_unit == "steps" else 0
    cells = workload.work(result) if workload.work_unit == "cells" else 0
    episodes = len(result.episodes)

    def calls(name: str) -> int:
        return self_times.get(name, (0, 0.0))[0]

    rows = steps if calls("cli.trace_rows") else 0  # trace.csv has one row per step

    def busy(name: str, scale: float, per: int) -> float:
        return self_times.get(name, (0, 0.0))[1] * scale / per if per else 0.0

    pairs = tracer.collision_pairs
    return {
        "core.project_to_route.self_us_per_step": busy("core.project_to_route", 1e6, steps),
        "core.project_to_route.calls_per_step": calls("core.project_to_route") / steps if steps else 0.0,
        "core.load_config.self_ms": busy("core.load_config", 1e3, calls("core.load_config")),
        "sim.load_scenario.self_ms": busy("sim.load_scenario", 1e3, calls("sim.load_scenario")),
        "sim.step_world.self_us_per_step": busy("sim.step_world", 1e6, steps),
        "sim.detect_collision.self_us_per_step": busy("sim.detect_collision", 1e6, steps),
        "sim.detect_collision.pairs_per_step": pairs / steps if steps else 0.0,
        "sim.detect_collision.far_pair_frac": tracer.far_pairs / pairs if pairs else 0.0,
        "sim.realize_traffic.self_ms_per_episode": busy("sim.realize_traffic", 1e3, episodes),
        "sim.run_episode.self_us_per_step": busy("sim.run_episode", 1e6, steps),
        "reward.total_reward.self_us_per_step": busy("reward.total_reward", 1e6, steps),
        "risk.risk_reward.self_us_per_step": busy("risk.risk_reward", 1e6, steps),
        "risk.risk_reward.pairs_per_step": tracer.risk_pairs / steps if steps else 0.0,
        "risk.geometric_risk.self_us_per_cell": busy("risk.geometric_risk", 1e6, cells),
        "risk.dynamic_risk.self_us_per_cell": busy("risk.dynamic_risk", 1e6, cells),
        "cli.main.self_us_per_step": busy("cli.main", 1e6, steps),
        "cli.main.self_us_per_cell": busy("cli.main", 1e6, cells),
        "cli.trace_rows.self_us_per_row": busy("cli.trace_rows", 1e6, rows),
        "cli.bytes_written": float(result.bytes_written),
        "sim.steps": float(steps),
    }


def write_spans(workload_name: str, tracer) -> Path:
    SPANS_DIR.mkdir(exist_ok=True)
    path = SPANS_DIR / f"{workload_name}.spans.jsonl"
    with path.open("w") as handle:
        for span in tracer.spans:
            handle.write(json.dumps(span) + "\n")
    return path


def measure(args: argparse.Namespace, work: Path) -> tuple[dict, dict[str, float], int, int]:
    workload = WORKLOADS[args.workload](ROOT, args.seed)
    workload.prepare(work / "inputs")
    setup_due = 0 if args.trace else SETUP_SAMPLES
    setup = []

    plain, plain_cal, traced_layers, traced_cal = [], [], [], []
    results = []
    last_tracer = None
    start = time.perf_counter()
    deadline = start + args.seconds
    while True:
        # set-up probes are spread over the run, so that a slow spell of the host covers few of them
        elapsed = (time.perf_counter() - start) / args.seconds
        while len(setup) < min(setup_due, 1 + int(elapsed * setup_due)):
            setup.append(setup_probe(workload))
        index = len(results)
        out_dir = work / f"pass_{index}"
        tracer = Tracer() if args.trace and index % 2 == 1 else None
        before = calibration_s()
        result = run_pass(workload, out_dir, tracer)
        calibration = statistics.median(before + calibration_s())
        results.append(result)
        if tracer is None:
            plain.append(result)
            plain_cal.append(calibration)
        else:
            traced_cal.append(result.wall_s / calibration)
            traced_layers.append(layer_metrics(workload, result, tracer))
            last_tracer = tracer
        if index > 0:  # pass 0 stays on disk for the output check
            shutil.rmtree(out_dir)
        enough = len(plain) >= MIN_PASSES and (not args.trace or len(traced_cal) >= MIN_PASSES)
        if enough and time.perf_counter() >= deadline:
            break
    while len(setup) < setup_due:
        setup.append(setup_probe(workload))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    first = results[0]
    reference = workload.load_reference()
    wrong = workload.check(work / "pass_0", first, reference)
    failed = sum(
        len(r.failed | wrong | (differing_ops(workload, first, r) if r is not first else set()))
        for r in results
    )
    attempted = workload.op_count() * len(results)

    walls = [r.wall_s for r in plain]
    wall_cal = [r.wall_s / c for r, c in zip(plain, plain_cal)]
    rate_cal = [workload.work(r) / w for r, w in zip(plain, wall_cal)]
    detail = {
        "wall_s": quartiles(walls),
        "cpu_s": quartiles([r.cpu_s for r in plain]),
        f"{workload.work_unit}_per_s": quartiles([workload.work(r) / r.wall_s for r in plain]),
        "calibration_s": quartiles(plain_cal),
        "wall_cal": quartiles(wall_cal),
        "work_per_pass": workload.work(first),
        "peak_rss_mb": peak_rss_mb,
        "failed_ops_frac": failed / attempted,
        "reference_checked": reference is not None,
    }
    if args.trace:
        values = {name: statistics.median(m[name] for m in traced_layers) for name in traced_layers[0]}
        values["trace.overhead_frac"] = statistics.median(traced_cal) / statistics.median(wall_cal) - 1.0
        detail["traced_wall_cal"] = quartiles(traced_cal)
        detail["spans_file"] = str(write_spans(workload.name, last_tracer).relative_to(ROOT))
    else:
        detail["setup_s"] = quartiles(setup)
        values = {
            "setup_s": statistics.median(setup),
            "wall_cal": statistics.median(wall_cal),
            "throughput_per_cal": statistics.median(rate_cal),
            "peak_rss_mb": peak_rss_mb,
        }
    return detail, values, attempted, failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [name for name in REQUIRED if not (ROOT / name).is_file()]
    if missing:
        print(f"error: not a riskrl checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import riskrl

    if Path(riskrl.__file__).resolve().parent != SRC / "riskrl":
        print(f"error: riskrl imported from {riskrl.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    meta = metadata(args)
    work = WORK_DIR / f"{args.workload}-{os.getpid()}"
    try:
        detail, values, attempted, failed = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass  # another run still uses it
    if set(values) != {m["name"] for m in declared}:
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={attempted} failed={failed} failed_ops_frac={detail['failed_ops_frac']:.6g}")
    for name, value in detail.items():
        if isinstance(value, dict):
            print(f"  {name}: median={value['median']:.6g} q1={value['q1']:.6g} "
                  f"q3={value['q3']:.6g} n={value['n']}")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print("detail " + json.dumps({"meta": meta, **detail}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
