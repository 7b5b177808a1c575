"""Self-test of the benchmark's checks: each must fail on a corrupted output.

    python3 perfbench/selftest.py [--seed N]

Runs one pass of each workload, confirms its check passes, then corrupts the
output (a perturbed Appell frame, a NaN in a compared Appell value, one
flipped CSV byte, a ``refine`` chain whose gap_to_limit is forced
non-monotone, a NaN residual, an operation that raises) and confirms the check
fails and that the failed-operation count records each failure.  Exits 0 when
every case behaves as expected.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from workloads import Appell, Refine, Suite, Tally, exceeds, guarded  # noqa: E402


class Cases:
    def __init__(self):
        self.tally = Tally()
        self.bad = 0
        self.corrupted = 0

    def expect(self, label: str, failure: str | None, should_fail: bool) -> None:
        self.tally.record(label, failure)
        self.corrupted += should_fail
        good = (failure is not None) == should_fail
        self.bad += not good
        verdict = "ok " if good else "BAD"
        print(f"{verdict} {label}: {failure or 'check passes'}")


def flip_byte(path: Path, offset: int) -> None:
    data = bytearray(path.read_bytes())
    data[offset] = ord("7") if data[offset] != ord("7") else ord("3")
    path.write_bytes(bytes(data))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    seed = parser.parse_args().seed
    np.seterr(over="raise", invalid="raise")
    workdir = ROOT / ".perfbench_out" / f"selftest-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    cases = Cases()
    try:
        # the comparison form: max(0.0, nan) == 0.0 would hide a NaN
        cases.expect("NaN error against a tolerance", "exceeds" if exceeds(float("nan"), 1.0) else None, True)
        cases.expect("error within tolerance", "exceeds" if exceeds(0.5, 1.0) else None, False)

        suite = Suite(seed, workdir)
        out, code = suite.execute()
        cases.expect("suite pass", suite.check(out, code), False)
        frame = out / "evolve" / "frames" / "frame_0100.csv"
        flip_byte(frame, 200)
        cases.expect("suite with one flipped CSV byte", suite.check(out, code), True)
        suite.cleanup()

        appell = Appell(seed, workdir)
        traj, fwd, back = appell.execute()
        cases.expect("appell pass", appell.check(traj, fwd, back), False)
        k = (appell.probe + 7) % appell.n_times
        fwd.frames[k] += 1e-6
        cases.expect(f"appell with forward frame {k} perturbed by 1e-6", appell.check(traj, fwd, back), True)
        fwd.frames[k] -= 1e-6
        probed = fwd.frames[appell.probe].copy()
        fwd.frames[appell.probe, appell.fwd_grid.n // 2] += 1e-9  # inside the 1e-8 forward tolerance
        cases.expect("appell with the kernel-checked frame off by 1e-9", appell.check(traj, fwd, back), True)
        fwd.frames[appell.probe] = probed
        back.frames[5, 10] = np.nan
        cases.expect("appell with a NaN in the round trip", appell.check(traj, fwd, back), True)

        refine = Refine(seed, workdir)
        result = refine.execute(refine.deltas[0], 512)
        cases.expect("refine chain", Refine.check(result), False)
        gaps = result.trace.gap_to_limit
        saved = gaps[10]
        gaps[10] = gaps[9] * 1.01
        cases.expect("refine chain with non-monotone gap_to_limit", Refine.check(result), True)
        gaps[10] = saved
        result.sup_r2 = float("nan")
        cases.expect("refine chain with a NaN residual", Refine.check(result), True)

        def raises():
            raise FloatingPointError("overflow encountered")

        before = cases.tally.failed
        guarded(cases.tally, "operation that raises", raises)
        cases.corrupted += 1
        cases.bad += cases.tally.failed != before + 1
        print(f"{'ok ' if cases.tally.failed == before + 1 else 'BAD'} operation that raises counts as failed")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    counted = cases.tally.failed == cases.corrupted
    print(
        f"failed_ops {cases.tally.failed}/{cases.tally.attempted}: "
        f"{'matches' if counted else 'does NOT match'} the {cases.corrupted} corrupted cases"
    )
    return 0 if cases.bad == 0 and counted else 1


if __name__ == "__main__":
    raise SystemExit(main())
