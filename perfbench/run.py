"""Benchmark entry point: one workload, one seed, tracing off or on.

    python3 perfbench/run.py --workload {suite,appell,refine} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; heatlab is imported from ``src/``.
With ``--trace 0`` it starts ``CHILDREN`` fresh processes one after another.
Each imports heatlab, generates the seeded inputs and runs a cold pass (its
set-up time), then runs warm passes for S / CHILDREN seconds.  The end-to-end
metrics are the medians over all warm passes (``wall_s``, ``cpu_s``), the
median set-up time (``setup_s``) and the largest peak RSS (``peak_rss_mb``).
With ``--trace 1`` a single process alternates untraced and traced warm
passes for S seconds and reports the per-layer metrics of ``BENCHMARK.json``
with the tracing overhead.

The last line of standard output is the JSON result; the lines before it
record the environment and the sample counts.  Failed operations are
``failed`` out of ``attempted`` in that result.  A process that cannot run
the workload at all (no ``src/heatlab``, an import error, a timeout) makes
this script exit non-zero without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
CHILDREN = 2  # fresh processes per timed run, each one set-up sample
DEADLINE_S = 170.0  # every child must have ended by then


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("suite", "appell", "refine"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--role", choices=("measure", "trace"), help=argparse.SUPPRESS)
    parser.add_argument("--budget", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--spawn-time", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


# ------------------------------------------------------------------ child


def timed_pass(workload, tally, tracer=None) -> tuple[float, float]:
    wall0, cpu0 = time.perf_counter(), time.process_time()
    workload.run_pass(tally)
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    if tracer is not None:
        tracer.end_pass(workload.out)
    workload.cleanup()
    return wall, cpu


def warm_passes(workload, tally, budget: float) -> tuple[list, list]:
    walls, cpus = [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < budget:
        wall, cpu = timed_pass(workload, tally)
        walls.append(wall)
        cpus.append(cpu)
    return walls, cpus


def traced_passes(workload, tally, budget: float, dump: Path) -> dict:
    """Untraced and traced warm passes, alternating, for ``budget`` seconds.

    Returns the per-layer metrics; the last traced pass's spans go to ``dump``.
    """
    from tracer import Tracer

    tracer = Tracer()
    plain, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < budget:
        if len(traced) < len(plain):
            tracer.install()
            traced.append(timed_pass(workload, tally, tracer)[0])
            tracer.remove()
        else:
            plain.append(timed_pass(workload, tally)[0])
    layers = tracer.metrics()
    layers["trace.wall_s"] = statistics.median(traced)
    layers["trace.untraced_wall_s"] = statistics.median(plain)
    layers["trace.overhead_s"] = layers["trace.wall_s"] - layers["trace.untraced_wall_s"]
    layers["trace.passes"] = len(traced)
    tracer.dump(dump)
    return layers


def child(args) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import heatlab

    if Path(heatlab.__file__).resolve().parent != (ROOT / "src" / "heatlab").resolve():
        raise SystemExit(f"heatlab imported from {heatlab.__file__}, not from {ROOT / 'src'}")
    np.seterr(over="raise", invalid="raise")  # the policy of tests/conftest.py

    from envinfo import environment
    from workloads import WORKLOADS, Tally

    workdir = OUT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        tally = Tally()
        workload = WORKLOADS[args.workload](args.seed, workdir)
        timed_pass(workload, tally)  # cold
        result = {"setup_s": time.monotonic() - args.spawn_time}
        if args.role == "measure":
            result["wall"], result["cpu"] = warm_passes(workload, tally, args.budget)
        else:
            dump = OUT / f"trace-{args.workload}.jsonl"
            result["layers"] = traced_passes(workload, tally, args.budget, dump)
        result.update(
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            attempted=tally.attempted,
            failed=tally.failed,
            messages=tally.messages,
            digest=workload.reference,
            env=environment(ROOT, workdir),
        )
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# ------------------------------------------------------------------ parent


class ChildFailed(RuntimeError):
    pass


def spawn(args, role: str, budget: float, deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise ChildFailed("out of time before starting a child")
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--role", role, "--budget", repr(budget),
        "--spawn-time", repr(time.monotonic()),
    ]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise ChildFailed(f"{role} process timed out after {exc.timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{role} process exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(lines[-1])


def tail_note(walls: list[float]) -> str:
    """Median and the highest percentile with at least ten samples beyond it."""
    n = len(walls)
    note = f"wall_s median {statistics.median(walls):.4f} s over n={n} warm passes"
    if n > 20:
        ordered = sorted(walls)
        note += f"; p{100.0 * (n - 10) / n:.0f} = {ordered[n - 11]:.4f} s (10 samples beyond it)"
    else:
        note += "; no percentile above the median has ten samples beyond it at this n"
    return note


def run(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "src" / "heatlab" / "__init__.py").is_file():
        print(f"no heatlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace == 0:
            children = [spawn(args, "measure", args.seconds / CHILDREN, deadline) for _ in range(CHILDREN)]
        else:
            children = [spawn(args, "trace", float(args.seconds), deadline)]
    except ChildFailed as exc:
        print(str(exc), file=sys.stderr)
        return 1

    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    messages = [m for c in children for m in c["messages"]]
    digests = {c["digest"] for c in children if c["digest"] is not None}
    if args.workload == "suite":  # CSV bytes must also agree across processes
        attempted += 1
        if len(digests) != 1:
            failed += 1
            messages.append("suite: CSV bytes differ between processes of the same seed")

    if args.trace == 0:
        walls = [w for c in children for w in c["wall"]]
        values = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median([x for c in children for x in c["cpu"]]),
            "setup_s": statistics.median(c["setup_s"] for c in children),
            "peak_rss_mb": max(c["peak_rss_mb"] for c in children),
        }
        listed = spec["end_to_end"]
        print(tail_note(walls) + f", set-up samples {len(children)}")
    else:
        values = children[0]["layers"]
        listed = spec["per_layer"]
        print(
            f"traced passes {values['trace.passes']}: tracing overhead "
            f"{values['trace.overhead_s']:.4f} s per pass "
            f"({values['trace.wall_s']:.4f} traced, {values['trace.untraced_wall_s']:.4f} untraced)"
        )
    print("env " + json.dumps(children[0]["env"], sort_keys=True))
    print(f"failed_ops {failed}/{attempted}")
    for message in messages:
        print("failure: " + message)
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in listed}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.role is not None:
        print(json.dumps(child(args)))
        return 0
    return run(args)


if __name__ == "__main__":
    raise SystemExit(main())
