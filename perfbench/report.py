"""Run every benchmark workload once untraced and once traced, print every
end-to-end and per-layer metric by name and unit, and write the result set
with machine metadata to a JSON file.

Run from the repository root:

    python3 perfbench/report.py [--seed N] [--output perfbench/baseline.json]

Each run goes through run.py exactly as the benchmark command does, so the
output checks run too; the exit code is 1 if any run was incorrect.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as stream:
            for line in stream:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_revision() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def metadata() -> dict:
    return {
        **run.metadata(),
        "cpu_model": _cpu_model(),
        "git_revision": _git_revision(),
        "platform": platform.platform(),
        "date": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--output", default=str(HERE / "baseline.json"))
    args = parser.parse_args(argv)

    spec = json.loads(Path("BENCHMARK.json").read_text())
    meta = metadata()
    print("machine: " + json.dumps(meta, sort_keys=True))
    results: dict[str, dict] = {}
    all_correct = True
    for workload in (w["name"] for w in spec["workloads"]):
        results[workload] = {}
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, *spec["command"][1:], "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", str(trace)],
                capture_output=True, text=True, timeout=600,
            )
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return 1
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            results[workload]["per_layer" if trace else "end_to_end"] = result
            all_correct &= result["correct"]
            print(f"\n== {workload} (trace {trace}): correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for line in lines[1:-1]:
                print(f"   {line}")
            for name, metric in result["metrics"].items():
                print(f"   {name:32s} {metric['value']:>14.6g} {metric['unit']}")
    payload = {
        "metadata": meta,
        "seed": args.seed,
        "run_seconds": spec["run_seconds"],
        "workloads": results,
    }
    Path(args.output).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {args.output}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
