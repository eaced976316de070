"""Freeze the output reference of each workload at its default seed.

Usage (from the repository root): python3 perfbench/freeze.py [WORKLOAD ...]

Runs one pass of each named workload (all by default) and writes
``perfbench/reference/<workload>.json.gz``. The benchmark then requires
outputs within 1e-9 of it, and identical outcomes and step counts, whenever
it runs the same inputs. Freeze only on a commit whose outputs are known good.
"""

from __future__ import annotations

import gzip
import json
import os
import shutil
import sys

from run import ROOT, SRC, WORK_DIR
from workloads import DEFAULT_SEED, REFERENCE_DIR, WORKLOADS, run_pass


def main() -> int:
    sys.path.insert(0, str(SRC))
    REFERENCE_DIR.mkdir(exist_ok=True)
    work = WORK_DIR / f"freeze-{os.getpid()}"
    try:
        for name in sys.argv[1:] or list(WORKLOADS):
            workload = WORKLOADS[name](ROOT, DEFAULT_SEED)
            workload.prepare(work / "inputs")
            result = run_pass(workload, work / "pass")
            if result.failed:
                print(f"{name}: operations {sorted(result.failed)} failed; nothing written", file=sys.stderr)
                return 1
            reference = {"key": workload.reference_key(), **workload.make_reference(work / "pass", result)}
            data = json.dumps(reference, sort_keys=True, separators=(",", ":")).encode()
            workload.reference_path().write_bytes(gzip.compress(data, 9, mtime=0))
            print(f"{name}: wrote {workload.reference_path().relative_to(ROOT)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
