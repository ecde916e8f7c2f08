"""Benchmark of the covermotive command line.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program is taken from ``src/`` beside this directory.
Each task of a workload is a fresh ``python -m covermotive.cli ...`` process,
which is what a user pays for, and which keeps the program's module-level
caches from carrying over between repetitions.  Tasks run one at a time from
this process (a closed loop with one client).

Every task is checked: its exit code and the sha256 of its stdout must match
``expected.json``, recorded at the commit that added the benchmark; a
``verify`` task must print EQUAL; the seeded ``--marking`` result must equal
that marking's entry in the same pass's ``--per-marking`` output.  A
timeout or mismatch is a failed task; nothing is dropped.

With ``--trace 0`` the run sets up (one ``group`` process per group of the
workload, three times, median) and then times whole passes over the
workload's tasks until ``--seconds`` have passed.  With ``--trace 1`` it runs
one untraced pass and one pass under ``trace_child.py``, which wraps each layer's public functions from outside
the program, and reports per-layer self times and work counters.  The traced
pass must print the same stdout bytes as the untraced one.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; progress goes to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"
TRACE_MARKER = "PERFBENCH-TRACE "

RUN_LIMIT_S = 170.0  # the whole run, so that it always exits within 180 s
TASK_TIMEOUT_S = 90.0
SETUP_REPEATS = 3
MARKING_TASK = "<marking>"  # stands for the seeded marking in a task's key


@dataclass(frozen=True)
class Workload:
    groups: tuple[str, ...]  # what set-up builds
    tasks: tuple[str, ...]  # covermotive arguments, one task each


WORKLOADS = {
    # calculator.sweep is nearly all of the compute; smodules never runs.
    "strata": Workload(
        groups=("cyclic:2", "cyclic:3", "product_cyclic:2,2", "cyclic:6"),
        tasks=(
            "class --group cyclic:2 --n 7",
            "class --group cyclic:3 --n 6 --format text",
            "class --group product_cyclic:2,2 --n 6 --per-marking",
            f"class --group product_cyclic:2,2 --n 6 --marking {MARKING_TASK}",
            "class --group cyclic:6 --n 5",
        ),
    ),
    # smodules.compose dominates C2 n=7 (shuffle-bound); C2xC2 is atom-bound.
    "recursion": Workload(
        groups=("cyclic:2", "product_cyclic:2,2", "cyclic:4", "cyclic:3"),
        tasks=(
            "verify --group cyclic:2 --n 7",
            "verify --group product_cyclic:2,2 --n 5",
            "verify --group cyclic:4 --n 5 --all-props",
            "class --group cyclic:3 --n 5 --with-verification --per-marking",
        ),
    ),
    # The brute-force gerby_markings / is_admissible path, and enumeration at n=8.
    "census": Workload(
        groups=("cyclic:2", "cyclic:3", "cyclic:1"),
        tasks=(
            "trees --n 7",
            "trees --n 6 --group cyclic:2",
            "trees --n 5 --group cyclic:3 --csv",
            "class --group cyclic:1 --n 8",
        ),
    ),
    # The only nonabelian path, and the only one through the hurwitz layer.
    "hurwitz": Workload(
        groups=("dihedral:5", "dihedral:4", "symmetric:3", "symmetric:4"),
        tasks=(
            "hurwitz --group dihedral:5 --n 6 --orbits",
            "hurwitz --group dihedral:4 --n 6 --orbits --mod-conj",
            "hurwitz --group symmetric:3 --n 7 --orbits --mod-conj",
            "hurwitz --group symmetric:4 --n 4 --orbits --mod-conj",
            "group --group symmetric:4 --format json",
        ),
    ),
}

# Per-layer metrics read as a ratio of two trace counters: useful ÷ attempted.
RATIOS = {
    "trees.is_admissible.useful_ratio": ("trees.is_admissible.admissible", "trees.is_admissible.calls"),
    "calculator.sweep.useful_ratio": ("calculator.sweep.admissible", "calculator.sweep.markings_visited"),
    "smodules.day_convolve.useful_ratio": (
        "smodules.day_convolve.unit_pair_atoms",
        "smodules.day_convolve.atoms_out",
    ),
}

# Per-layer metrics summed over the traced pass's tasks, with their units.
SUMMED = {
    "groups.build_group_s": "s",
    "groups.conjugacy_classes_s": "s",
    "trees.enumerate_s": "s",
    "trees.enumerate.trees_out": "count",
    "trees.gerby_markings_s": "s",
    "trees.gerby_markings.markings_out": "count",
    "trees.is_admissible_s": "s",
    "trees.is_admissible.calls": "count",
    "calculator.topologies_s": "s",
    "calculator.sweep_s": "s",
    "calculator.sweep.markings_visited": "count",
    "calculator.sweep.admissible": "count",
    "calculator.open_module_s": "s",
    "calculator.open_module.atoms_out": "count",
    "calculator.dbar_module_s": "s",
    "calculator.dbar_module.atoms_out": "count",
    "calculator.terms_s": "s",
    "smodules.compose.slots_s": "s",
    "smodules.compose.edge_unit_s": "s",
    "smodules.compose.atoms_out": "count",
    "smodules.freeness_checks": "count",
    "smodules.day_convolve_s": "s",
    "smodules.day_convolve.atoms_out": "count",
    "motives.mul_calls": "count",
    "motives.add_calls": "count",
    "hurwitz.enumerate_s": "s",
    "hurwitz.enumerate.tuples_out": "count",
    "hurwitz.braid_orbits_s": "s",
    "hurwitz.braid_orbits.orbits_out": "count",
    "hurwitz.nielsen_count.calls": "count",
    "cli.self_s": "s",
}


@dataclass(frozen=True)
class Task:
    key: str  # the task's entry in expected.json
    args: tuple[str, ...]


@dataclass
class Outcome:
    task: Task
    wall_s: float
    rss_mb: float
    exit_code: int | None
    stdout: bytes
    stderr: str
    trace: dict | None = None
    errors: list[str] = field(default_factory=list)


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "COVERMOTIVE_CAP"}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv: list[str], timeout: float) -> tuple[int | None, bytes, bytes, float, float]:
    """Run a process to its end: (exit code or None on timeout, stdout,
    stderr, wall seconds, peak RSS in MB).  The process is always reaped."""
    reaped: dict = {}
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=child_env(),
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )

    def reap():
        _, status, usage = os.wait4(proc.pid, 0)
        reaped.update(end=time.perf_counter(), status=status, usage=usage)

    streams: dict[str, bytes] = {}

    def drain(name, stream):
        streams[name] = stream.read()

    threads = [
        threading.Thread(target=reap),
        threading.Thread(target=drain, args=("out", proc.stdout)),
        threading.Thread(target=drain, args=("err", proc.stderr)),
    ]
    for t in threads:
        t.start()
    try:
        threads[0].join(max(timeout, 0.0))
        timed_out = threads[0].is_alive()
    finally:
        if threads[0].is_alive():
            proc.kill()
        for t in threads:
            t.join()
        proc.stdout.close()
        proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(reaped["status"])
    code = None if timed_out else proc.returncode
    rss_mb = reaped["usage"].ru_maxrss / 1024.0  # Linux reports KiB
    return code, streams["out"], streams["err"], reaped["end"] - start, rss_mb


class Runner:
    """Runs and checks tasks, counting every attempt against one deadline."""

    def __init__(self, expected: dict):
        self.expected = expected
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.attempted = 0
        self.failed = 0

    def run(self, task: Task, traced: bool = False) -> Outcome:
        self.attempted += 1
        remaining = self.deadline - time.perf_counter()
        if remaining < 1.0:
            outcome = Outcome(task, 0.0, 0.0, None, b"", "")
            outcome.errors.append("not started: run time limit reached")
        else:
            entry = [str(HERE / "trace_child.py")] if traced else ["-m", "covermotive.cli"]
            code, out, err, wall, rss = run_child(
                [sys.executable, *entry, *task.args], min(TASK_TIMEOUT_S, remaining)
            )
            outcome = Outcome(task, wall, rss, code, out, err.decode(errors="replace"))
            if traced:
                self._split_trace(outcome)
            self._check(outcome)
        if outcome.errors:
            self.fail(outcome)
        return outcome

    def fail(self, outcome: Outcome) -> None:
        self.failed += 1
        for error in outcome.errors:
            print(f"FAILED {' '.join(outcome.task.args)}: {error}", file=sys.stderr)
        if outcome.stderr.strip():
            print(outcome.stderr.rstrip()[-2000:], file=sys.stderr)

    @staticmethod
    def _split_trace(outcome: Outcome) -> None:
        lines = outcome.stderr.splitlines()
        traces = [ln for ln in lines if ln.startswith(TRACE_MARKER)]
        if not traces:
            outcome.errors.append("traced process wrote no trace")
            return
        outcome.trace = json.loads(traces[-1][len(TRACE_MARKER):])["values"]
        outcome.stderr = "\n".join(ln for ln in lines if not ln.startswith(TRACE_MARKER))

    def _check(self, outcome: Outcome) -> None:
        want = self.expected.get(outcome.task.key)
        if outcome.exit_code is None:
            outcome.errors.append(f"timed out after {outcome.wall_s:.1f} s")
            return
        if want is None:
            outcome.errors.append("no expected output recorded for this task")
            return
        if outcome.exit_code != want["exit"]:
            outcome.errors.append(f"exit code {outcome.exit_code}, expected {want['exit']}")
        if hashlib.sha256(outcome.stdout).hexdigest() != want["sha256"]:
            outcome.errors.append("stdout differs from the recorded output")
        if outcome.task.args[0] == "verify":
            lines = [ln.strip() for ln in outcome.stdout.decode(errors="replace").splitlines()]
            if "EQUAL" not in lines or any("MISMATCH" in ln for ln in lines):
                outcome.errors.append("verify did not print EQUAL")


def make_tasks(workload: Workload, rng: random.Random) -> list[Task]:
    # In C2xC2 (product_cyclic:2,2) class ids are the elements 0..3 and the
    # group law is XOR, so forcing the last entry gives a product-one marking:
    # one with a nonzero class, listed in the --per-marking output.
    head = [rng.randrange(4) for _ in range(5)]
    last = 0
    for c in head:
        last ^= c
    marking = ",".join(str(c) for c in head + [last])
    return [Task(key, tuple(key.replace(MARKING_TASK, marking).split())) for key in workload.tasks]


def group_task(spec: str) -> Task:
    key = f"group --group {spec} --format json"
    return Task(key, tuple(key.split()))


def cross_check(runner: Runner, outcomes: list[Outcome]) -> None:
    """The --marking result must equal that marking's --per-marking entry."""
    by_flag = {}
    for o in outcomes:
        for flag in ("--marking", "--per-marking"):
            if flag in o.task.args:
                by_flag[flag] = o
    single, table = by_flag.get("--marking"), by_flag.get("--per-marking")
    if single is None or table is None or single.errors or table.errors:
        return
    marking = single.task.args[single.task.args.index("--marking") + 1]
    got = json.loads(single.stdout)["coefficients"]
    listed = json.loads(table.stdout)["per_marking"].get(marking)
    if got != listed:
        single.errors.append(f"class {got} differs from per-marking entry {listed}")
        runner.fail(single)


def run_pass(runner: Runner, tasks: list[Task], traced: bool = False) -> tuple[float, list[Outcome]]:
    start = time.perf_counter()
    outcomes = [runner.run(task, traced) for task in tasks]
    wall = time.perf_counter() - start
    cross_check(runner, outcomes)
    return wall, outcomes


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(runner: Runner, workload: Workload, rng: random.Random, seconds: int) -> dict:
    runner.run(group_task(workload.groups[0]))  # warm-up: writes bytecode caches
    setups = []
    for _ in range(SETUP_REPEATS):
        setups.append(sum(runner.run(group_task(spec)).wall_s for spec in workload.groups))

    tasks = make_tasks(workload, rng)
    walls, peaks = [], []
    task_walls: dict[str, list[float]] = {}
    start = time.perf_counter()
    while True:
        rng.shuffle(tasks)
        wall, outcomes = run_pass(runner, tasks)
        walls.append(wall)
        peaks.append(max(o.rss_mb for o in outcomes))
        for o in outcomes:
            task_walls.setdefault(o.task.key, []).append(o.wall_s)
        if time.perf_counter() - start >= seconds:
            break
    for key, times in task_walls.items():
        print(f"{statistics.median(times):8.3f} s  {key}", file=sys.stderr)
    print(f"{len(walls)} pass(es): wall_s {walls}, setup_s {setups}", file=sys.stderr)
    return {
        "wall_s": metric(statistics.median(walls), "s"),
        "slowest_task_s": metric(max(map(statistics.median, task_walls.values())), "s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(statistics.median(peaks), "MB"),
    }


def trace(runner: Runner, workload: Workload, rng: random.Random) -> dict:
    tasks = make_tasks(workload, rng)
    rng.shuffle(tasks)
    plain_wall, plain = run_pass(runner, tasks)
    traced_wall, traced = run_pass(runner, tasks, traced=True)
    for p, t in zip(plain, traced):
        if not (p.errors or t.errors) and p.stdout != t.stdout:
            t.errors.append("stdout differs between traced and untraced runs")
            runner.fail(t)

    values = [o.trace for o in traced if o.trace is not None]
    metrics = {}
    if len(values) == len(traced):
        for name, unit in SUMMED.items():
            if all(name in v for v in values):
                metrics[name] = metric(sum(v[name] for v in values), unit)
        for name, (useful, attempts) in RATIOS.items():
            if all(useful in v and attempts in v for v in values):
                total = sum(v[attempts] for v in values)
                ratio = sum(v[useful] for v in values) / total if total else 0.0
                metrics[name] = metric(ratio, "ratio")
    absent = [n for n in [*SUMMED, *RATIOS] if n not in metrics]
    if absent:
        print(f"absent from this program: {', '.join(absent)}", file=sys.stderr)
    metrics["cli.stdout_bytes"] = metric(sum(len(o.stdout) for o in traced), "bytes")
    metrics["traced_wall_s"] = metric(traced_wall, "s")
    metrics["tracing_overhead_s"] = metric(traced_wall - plain_wall, "s")
    metrics["error_rate"] = metric(runner.failed / runner.attempted, "ratio")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so that run_child kills and reaps the running task.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "covermotive" / "cli.py").is_file():
        print(f"error: no covermotive sources under {SRC}", file=sys.stderr)
        return 2
    runner = Runner(json.loads(EXPECTED.read_text()))
    workload = WORKLOADS[args.workload]
    rng = random.Random(f"{args.workload}/{args.seed}")
    if args.trace:
        metrics = trace(runner, workload, rng)
    else:
        metrics = measure(runner, workload, rng, args.seconds)
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
