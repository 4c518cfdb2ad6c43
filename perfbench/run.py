"""Benchmark of the lexcent CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every measured command runs in a fresh interpreter with the checkout's `src`
on PYTHONPATH, as the installed `lexcent` script would. One run:

1. writes the workload's inputs from the seed and runs `lexcent stats` once
   untimed, so bytecode is compiled and files are cached;
2. runs the workload command again and again for S seconds and reports the
   median wall time, peak RSS and CPU time over those invocations;
3. with --trace 0, times `lexcent stats` on the same graph source
   SETUP_REPEATS times, half before the window and half after (setup_s is
   their median);
4. with --trace 1, also runs the command once under tracer.py and reports
   per-layer metrics from its spans;
5. checks the outputs (checks.py), and that every invocation, traced or
   not, wrote the same files.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Workloads, metrics and predictions are
described in NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from layers import layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 11
RUN_DEADLINE_S = 170.0
LAUNCH = "import sys; from lexcent.cli import main; sys.exit(main())"


@dataclass
class Invocation:
    out: Path
    wall: float
    cpu: float
    rss_mb: float
    exit_code: int
    stdout: str


class Runner:
    """Runs lexcent commands in fresh interpreters inside one work directory."""

    def __init__(self, root: Path, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        # BLAS helper threads spin on the other core while numpy imports; the
        # workloads run single-threaded, so BLAS is pinned to one thread too
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"),
                        OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                        MKL_NUM_THREADS="1")
        self.count = 0

    def run(self, argv: list[str], prefix: list[str] | None = None) -> Invocation:
        """One command; output goes to a fresh `out<i>` directory (names of
        equal length, so run_config.json sizes match). Killed at the
        deadline."""
        out = Path(f"out{self.count:03d}")
        self.count += 1
        log = self.work / f"{out}.log"
        cmd = [sys.executable, *(prefix or ["-c", LAUNCH]), *argv, "--out", str(out)]
        with open(log, "w") as stdout, open(self.work / f"{out}.err", "w") as stderr:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.work, env=self.env,
                                    stdout=stdout, stderr=stderr)
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Invocation(
            out=self.work / out,
            wall=wall,
            cpu=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024.0,
            exit_code=proc.returncode,
            stdout=log.read_text(),
        )


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def summary(label: str, values: list[float], unit: str) -> str:
    return (f"{label} = {statistics.median(values):.6g} {unit} (median of {len(values)}; "
            f"min {min(values):.6g}, max {max(values):.6g})")


def measure(args: argparse.Namespace, root: Path, work: Path) -> dict:
    workload = WORKLOADS[args.workload]
    inputs = work / "inputs"
    workload.prepare(args.seed, inputs)
    runner = Runner(root, work, time.monotonic() + RUN_DEADLINE_S)
    command = workload.command(args.seed, Path("inputs"))
    setup_command = workload.setup_command(args.seed, Path("inputs"))
    failures: dict[str, str] = {}  # invocation -> why it failed

    def exited_ok(inv: Invocation) -> bool:
        if inv.exit_code != 0:
            err = (inv.out.parent / f"{inv.out.name}.err").read_text()[-500:]
            failures[inv.out.name] = f"exited {inv.exit_code}: {err}"
        return inv.exit_code == 0

    setup_walls: list[float] = []

    def time_setup(count: int) -> None:
        for _ in range(count):
            inv = runner.run(setup_command)
            setup_walls.append(inv.wall)
            if exited_ok(inv) and not (inv.out / "stats.csv").is_file():
                failures[inv.out.name] = "stats.csv missing"

    exited_ok(runner.run(setup_command))  # warm-up, untimed
    # half of the set-up timings before the window and half after, so that
    # setup_s samples the machine over the whole run
    if not args.trace:
        time_setup(SETUP_REPEATS - SETUP_REPEATS // 2)

    # the measured window: the workload command, again and again
    runs: list[Invocation] = []
    window_start = time.perf_counter()
    while True:
        inv = runner.run(command)
        runs.append(inv)
        if time.perf_counter() - window_start + inv.wall > args.seconds:
            break
    succeeded = [r for r in runs if exited_ok(r)]
    if not args.trace:
        time_setup(SETUP_REPEATS // 2)

    trace = None
    if args.trace:
        spans_file = work / "spans.json"
        inv = runner.run(command, prefix=[str(HERE / "tracer.py"), str(spans_file), "--"])
        if exited_ok(inv):
            trace = json.loads(spans_file.read_text())
            trace["process_wall_s"] = inv.wall
            succeeded.append(inv)

    reference = succeeded[0] if succeeded else None
    if reference is not None:
        for inv in succeeded[1:]:
            if not checks.same_outputs(reference.out, inv.out):
                failures[inv.out.name] = f"outputs differ from {reference.out.name}"
        try:
            workload.check(reference.out, reference.stdout, args.seed, inputs)
        except checks.CheckError as exc:
            for inv in succeeded:
                failures[inv.out.name] = f"output check failed: {exc}"

    walls = [r.wall for r in runs]
    print(summary("wall_s", walls, "s"))
    print(summary("peak_rss_mb", [r.rss_mb for r in runs], "MB"))
    print(summary("proc.cpu_s", [r.cpu for r in runs], "s"))
    if setup_walls:
        print(summary("setup_s", setup_walls, "s"))
    for name, why in sorted(failures.items()):
        print(f"failed: {name}: {why}")

    spec = json.loads((root / "BENCHMARK.json").read_text())
    if args.trace:
        values = per_layer_values(runs, trace, reference)
        section = spec["per_layer"]
    else:
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup_walls),
            "peak_rss_mb": statistics.median(r.rss_mb for r in runs),
        }
        section = spec["end_to_end"]
    return {
        "correct": reference is not None and not failures,
        "attempted": runner.count,
        "failed": len(failures),
        "metrics": {
            m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
            for m in section
        },
    }


def per_layer_values(runs: list[Invocation], trace: dict | None,
                     reference: Invocation | None) -> dict[str, float]:
    """Per-layer metrics: the traced run's spans plus the untraced runs'
    rusage. Span metrics are missing (reported as 0) when the traced run
    failed, which also makes the run incorrect."""
    values: dict[str, float] = {}
    if trace is not None:
        values.update(layer_metrics(trace["spans"], trace["wall_s"]))
        values["trace.overhead_s"] = (
            trace["process_wall_s"] - statistics.median(r.wall for r in runs)
        )
    if reference is not None:
        values["cli.bytes_written"] = dir_bytes(reference.out)
    values["proc.cpu_s"] = statistics.median(r.cpu for r in runs)
    values["proc.cpu_util"] = statistics.median(r.cpu / r.wall for r in runs)
    return values


def metadata() -> dict:
    """Machine and toolchain facts recorded with every result set."""
    import numpy

    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="lexcent CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "lexcent" / "cli.py").is_file():
        print(f"error: {root} holds no lexcent source (src/lexcent/cli.py)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        print(f"meta: {json.dumps(metadata(), sort_keys=True)}")
        result = measure(args, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
