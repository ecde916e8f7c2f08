"""Record the expected exit code and stdout digest of every benchmark task.

Usage: python3 perfbench/record.py

Runs each task of every workload once, untimed, and rewrites expected.json.
Run it only on a commit whose outputs are known to be right: the benchmark
then treats any other output as a failure.  Every product-one marking of
C2xC2 at n = 6 has the same class, so one recorded digest covers the seeded
``--marking`` task for every seed.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys

from run import EXPECTED, TASK_TIMEOUT_S, WORKLOADS, group_task, make_tasks, run_child


def main() -> int:
    tasks = {}
    for workload in WORKLOADS.values():
        for task in [*map(group_task, workload.groups), *make_tasks(workload, random.Random(0))]:
            tasks[task.key] = task
    expected = {}
    for key, task in sorted(tasks.items()):
        code, out, err, wall, _ = run_child(
            [sys.executable, "-m", "covermotive.cli", *task.args], TASK_TIMEOUT_S
        )
        if code is None:
            print(f"error: {key} timed out", file=sys.stderr)
            return 1
        expected[key] = {"exit": code, "sha256": hashlib.sha256(out).hexdigest(), "bytes": len(out)}
        print(f"{wall:6.2f} s  exit {code}  {key}", file=sys.stderr)
    EXPECTED.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
