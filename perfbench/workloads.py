"""The three benchmark workloads: seeded inputs, one timed pass, its checks.

Each workload turns ``--seed`` into inputs, runs one pass through heatlab's
public API and checks every output it produced.  A pass is a list of
operations; an operation fails on an exception, a FAIL verdict, a failed
correctness check, or a NaN/inf in a compared value.  Every comparison is
written ``not (err <= tol)`` so that a NaN fails it.

heatlab is called through module attributes (``cli.main``, ``wt.run_refinement``)
looked up at call time, so the tracer in ``tracer.py`` sees every call once it
has wrapped those attributes.
"""

from __future__ import annotations

import hashlib
import math
import shutil
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from heatlab import cli, functionals as fn, grid as gr, heat, weights as wt

# Checks take the tolerances of the tests and of the CLI runners.
APPELL_FORWARD_TOL = 1e-8  # tests/test_functionals.py: trajectory route vs closed form
APPELL_ROUND_TRIP_TOL = 1e-4  # tests/test_functionals.py: round trip
KERNEL_AGREEMENT_TOL = 1e-10  # resample_periodic against the dense mode sum below
RESIDUAL_TOL = cli.ScenarioConfig.residual_tol
REFINE_STEPS = 50
SUITE_VERDICTS = (
    "construct-weights",
    "evolve",
    "iterate",
    "sharpness-0.5",
    "sharpness-1",
    "sharpness-1.1",
    "verify-bound",
    "verify-convexity-free",
    "verify-convexity-imag",
)


def exceeds(err: float, tol: float) -> bool:
    """True unless ``err <= tol``; a NaN error exceeds every tolerance."""
    return not (err <= tol)


@dataclass
class Tally:
    """Operations attempted and failed, with the first few failure messages."""

    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def record(self, label: str, failure: str | None) -> None:
        self.attempted += 1
        if failure is not None:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(f"{label}: {failure}")


def guarded(tally: Tally, label: str, op) -> None:
    """Run ``op`` (returns a failure message or None) as one counted operation."""
    try:
        failure = op()
    except Exception as exc:  # any exception is a failed operation, not a crash
        where = traceback.extract_tb(exc.__traceback__)[-1]
        failure = f"{type(exc).__name__}: {exc} (at {Path(where.filename).name}:{where.lineno})"
    tally.record(label, failure)


class Workload:
    """Defaults for workloads that write no files and compare no bytes."""

    out: Path | None = None  # output directory of the current pass
    reference: str | None = None  # digest of the first pass's output

    def cleanup(self) -> None:
        pass


# ------------------------------------------------------------------ suite


def csv_digest(directory: Path) -> str:
    """SHA-256 over the relative paths and bytes of every CSV under ``directory``."""
    h = hashlib.sha256()
    for path in sorted(directory.rglob("*.csv")):
        h.update(str(path.relative_to(directory)).encode())
        h.update(b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


class Suite(Workload):
    """``heatlab all`` through ``heatlab.cli.main`` into a fresh directory."""

    name = "suite"

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        # Below sqrt(5) the weighted norm is infinite; at 2.5 the convexity
        # scenarios fail the tail guard at L = 12 as they should.  From 3 up
        # every verdict is expected to PASS.
        self.delta = float(rng.uniform(3.0, 10.0))
        self.workdir = workdir
        self.passes = 0

    def execute(self) -> tuple[Path, int]:
        self.passes += 1
        out = self.workdir / f"pass-{self.passes:03d}"
        self.out = out
        code = cli.main(["all", "--delta", repr(self.delta), "--out", str(out)])
        return out, code

    def check(self, out: Path, code: int) -> str | None:
        if code != 0:
            return f"exit code {code}"
        lines = (out / "summary.txt").read_text().splitlines()
        verdicts = dict(line.split(" = ") for line in lines)
        if tuple(sorted(verdicts)) != SUITE_VERDICTS:
            return f"summary lists {sorted(verdicts)}"
        failing = [k for k, v in verdicts.items() if v != "PASS"]
        if failing:
            return f"FAIL verdicts: {failing}"
        digest = csv_digest(out)
        if self.reference is None:
            self.reference = digest
        elif digest != self.reference:
            return "CSV bytes differ from the first pass of this seed"
        return None

    def run_pass(self, tally: Tally) -> None:
        guarded(tally, f"suite delta={self.delta:.6g}", lambda: self.check(*self.execute()))

    def cleanup(self) -> None:
        if self.out is not None:
            shutil.rmtree(self.out, ignore_errors=True)
            self.out = None


# ------------------------------------------------------------------ appell


def free_heat_gaussian(y, s):
    """Closed-form free heat evolution of the datum e^{-y^2}."""
    return (1.0 + 4.0 * s) ** -0.5 * np.exp(-(y**2) / (1.0 + 4.0 * s)) + 0j


def dense_mode_sum(values: np.ndarray, targets: np.ndarray, half_width: float) -> np.ndarray:
    """Band-limited interpolant of periodic samples by the direct O(N*M) sum.

    The reference the resampling kernel must reproduce to round-off; the
    Nyquist mode is folded into a cosine as in ``heatlab.kernels``.
    """
    n = values.size
    coeffs = np.fft.fft(values) / n
    freqs = 2.0 * np.pi * np.fft.fftfreq(n, d=2.0 * half_width / n)
    phases = targets + half_width
    nyq = n // 2
    keep = np.arange(n) != nyq
    out = np.exp(1j * np.outer(phases, freqs[keep])) @ coeffs[keep]
    return out + coeffs[nyq] * np.cos(abs(freqs[nyq]) * phases)


class Appell(Workload):
    """The Appell change of variables by the trajectory route, there and back."""

    name = "appell"
    n_times = 49
    steps = 512

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        # delta >= 2.6 keeps every mapped point inside the L = 24 source box.
        self.delta = float(rng.uniform(2.6, 6.0))
        self.alpha = 1.0
        self.beta = 1.0 + 2.0 / self.delta
        self.times = np.linspace(0.0, 1.0, self.n_times)
        self.mapped = fn.appell_time_map(self.alpha, self.beta, self.times)
        self.src_grid = gr.SpaceGrid(half_width=24.0, n=1024)
        self.fwd_grid = gr.SpaceGrid(half_width=16.0, n=1024)
        self.back_grid = gr.SpaceGrid(half_width=9.0, n=512)
        self.probe = int(rng.integers(1, self.n_times - 1))  # frame for the kernel check
        self.exact_fwd = fn.appell_transform(
            free_heat_gaussian, self.alpha, self.beta, self.fwd_grid, self.times
        ).frames
        self.exact_back = np.array([free_heat_gaussian(self.back_grid.x, t) for t in self.times])

    def execute(self):
        traj = heat.evolve(
            gr.gaussian_field(self.src_grid),
            gr.zero_potential(),
            0.0,
            1.0,
            steps=self.steps,
            frame_times=self.mapped,
        )
        # exact-frame path: one resample per frame
        fwd = fn.appell_transform(traj, self.alpha, self.beta, self.fwd_grid, self.times)
        # mapped times fall between stored frames: five resamples per frame
        back = fn.appell_transform(fwd, self.beta, self.alpha, self.back_grid, self.times)
        return traj, fwd, back

    def kernel_reference(self, traj) -> np.ndarray:
        """Forward frame ``probe`` recomputed with the dense mode sum."""
        t = self.times[self.probe]
        x = self.fwd_grid.x
        denom = self.alpha * (1.0 - t) + self.beta * t
        root = math.sqrt(self.alpha * self.beta)
        mult = (root / denom) ** 0.5 * np.exp((self.alpha - self.beta) * x**2 / (4.0 * denom))
        resampled = dense_mode_sum(traj.frames[self.probe], root * x / denom, self.src_grid.half_width)
        return mult * resampled

    def check(self, traj, fwd, back) -> str | None:
        kernel_gap = float(np.max(np.abs(fwd.frames[self.probe] - self.kernel_reference(traj))))
        if exceeds(kernel_gap, KERNEL_AGREEMENT_TOL):
            return f"resample_periodic differs from the dense mode sum by {kernel_gap:.3e}"
        fwd_err = float(np.max(np.abs(fwd.frames - self.exact_fwd)))
        if exceeds(fwd_err, APPELL_FORWARD_TOL):
            return f"forward leg error {fwd_err:.3e} > {APPELL_FORWARD_TOL:g}"
        back_err = float(np.max(np.abs(back.frames - self.exact_back)))
        if exceeds(back_err, APPELL_ROUND_TRIP_TOL):
            return f"round-trip error {back_err:.3e} > {APPELL_ROUND_TRIP_TOL:g}"
        return None

    def run_pass(self, tally: Tally) -> None:
        guarded(tally, f"appell delta={self.delta:.6g}", lambda: self.check(*self.execute()))


# ------------------------------------------------------------------ refine


@dataclass
class ChainResult:
    """Outputs of one weight-family pipeline at one (delta, M)."""

    family: wt.WeightFamily
    bvp_gap: float
    sup_r1: float
    sup_r2: float
    certificate: wt.CurvatureCertificate
    trace: wt.RefinementTrace


class Refine(Workload):
    """Weight-family construction, certification and a K = 50 refinement chain."""

    name = "refine"
    grid_sizes = (512, 1024, 2048)
    n_deltas = 16

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.deltas = [float(d) for d in rng.uniform(2.5, 10.0, self.n_deltas)]

    def execute(self, delta: float, m: int) -> ChainResult:
        family = wt.family_from_rate(delta, wt.first_family_rate(delta, m))
        family.validate(strict_signs=True)
        b_bvp = wt.solve_cross_bvp(family.a, family.A)
        r1, r2 = wt.coefficient_residuals(family)
        return ChainResult(
            family=family,
            bvp_gap=float(np.max(np.abs(b_bvp.values - family.b.values))),
            sup_r1=float(np.max(np.abs(r1.values))),
            sup_r2=float(np.max(np.abs(r2.values))),
            certificate=wt.curvature_certificate(family.a, family.A, RESIDUAL_TOL),
            trace=wt.run_refinement(delta, REFINE_STEPS, m=m),
        )

    @staticmethod
    def check(result: ChainResult) -> str | None:
        # the construct-weights pass predicate of heatlab.cli
        scale = max(1.0, abs(result.certificate.min_identity))
        for name in ("bvp_gap", "sup_r1", "sup_r2"):
            err = getattr(result, name)
            if exceeds(err, RESIDUAL_TOL * scale):
                return f"{name} {err:.3e} > {RESIDUAL_TOL * scale:.3e}"
        if result.certificate.verdict != "positive":
            return f"curvature certificate {result.certificate.verdict}"
        trace = result.trace
        if trace.steps_run != REFINE_STEPS or trace.gap_to_limit.size != REFINE_STEPS:
            return f"chain ran {trace.steps_run} steps, expected {REFINE_STEPS}"
        for name in ("gap_to_limit", "sup_cross"):
            if not np.all(np.diff(getattr(trace, name)) < 0.0):
                return f"{name} is not strictly decreasing"
        return None

    def run_pass(self, tally: Tally) -> None:
        for delta in self.deltas:
            for m in self.grid_sizes:
                guarded(
                    tally,
                    f"refine delta={delta:.6g} M={m}",
                    lambda: self.check(self.execute(delta, m)),
                )


WORKLOADS = {w.name: w for w in (Suite, Appell, Refine)}
