#!/usr/bin/env python3
"""Check that the traced benchmark repeats its own counts.

    python3 perfbench/selftest.py

Runs every workload twice with ``--trace 1`` and fails (exit 1) if a run
reports a failed output check, leaves out a per-layer metric, or reports a
count (iterations, calls per iteration, QP iterations, SafeTrack calls, ...)
that differs between the two runs. Timings are expected to differ and are
not compared.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from run import COUNT_METRICS, PER_LAYER, WORKLOADS  # noqa: E402

SEED = 1
SECONDS = 1.0  # rounds are whole, so the counts do not depend on the run length


def traced_run(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SECONDS), "--trace", "1"],
        cwd=BENCH_DIR.parent, capture_output=True, text=True, timeout=600, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: run.py exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    problems = []
    for workload in WORKLOADS:
        first, second = (traced_run(workload) for _ in range(2))
        for label, run in (("first", first), ("second", second)):
            if not run["correct"] or run["failed"]:
                problems.append(f"{workload} {label} run: {run['failed']} of {run['attempted']} operations failed")
            missing = sorted(set(PER_LAYER) - set(run["metrics"]))
            if missing:
                problems.append(f"{workload} {label} run: no value for {', '.join(missing)}")
        for name in COUNT_METRICS:
            a = first["metrics"].get(name, {}).get("value")
            b = second["metrics"].get(name, {}).get("value")
            if a != b:
                problems.append(f"{workload}: {name} differs between runs ({a!r} vs {b!r})")
        print(f"{workload}: {len(COUNT_METRICS)} counts compared", flush=True)
    for line in problems:
        print(f"FAILED: {line}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
