"""Print every metric of every workload, by name and with its unit.

    python3 perfbench/report.py [--seed N] [--seconds S]

Runs ``run.py`` on each workload with tracing off (end-to-end metrics,
including ``failed_ops`` as failed over attempted operations) and with
tracing on (per-layer metrics and the tracing overhead), and prints one table
per workload followed by the environment the numbers were measured in.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("suite", "appell", "refine")


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[list[str], dict]:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return lines[:-1], json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"])
    args = parser.parse_args()
    env = None
    for workload in WORKLOADS:
        print(f"== {workload} (seed {args.seed}, {args.seconds} s per run)")
        for trace in (0, 1):
            notes, result = run(workload, args.seed, args.seconds, trace)
            if trace == 0:
                ratio = result["failed"] / result["attempted"]
                print(f"  {'failed_ops':<44} {ratio:>16.6g} ratio  ({result['failed']} of {result['attempted']} operations)")
            for name, metric in result["metrics"].items():
                print(f"  {name:<44} {metric['value']:>16.6g} {metric['unit']}")
            for note in notes:
                if note.startswith("env "):
                    env = note[4:]
                else:
                    print(f"  # {note}")
    print(f"env {env}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
