"""Spectral evolution of d_t u = Lap u + V u and the conjugated operators.

With V = 0 the frequency multiplier exp(-(t - t0) xi^2) is the exact
propagator.  It is real and even, so it maps real data to real solutions: the
datum's real and imaginary parts each get one real forward transform, and each
stored frame's two parts are the real inverse transforms of those spectra times
the multiplier.  A real datum thus has exactly real frames, exact up to spatial
truncation, which is what makes closed-form Gaussian comparisons meaningful at
1e-6.  With V != 0 the propagator is Strang splitting on the periodic grid: a
half step of pointwise multiplication by exp(dt/2 V), an exact diffusion step
through exp(-dt xi^2), and a second potential half step.  A potential declared
time-independent is evaluated once and its adjacent half steps merge into full
steps (the first-same-as-last form); any other potential is sampled at the
quarter points of every step.

Conjugating the heat operator by the moving Gaussian weight of a
:class:`~heatlab.weights.WeightFamily` splits it into a symmetric part

    S = Lap + (a' + 4a^2) x^2 + (b' + 4ab) x xi + (b^2 - T') xi^2

and a skew-symmetric part A = -2(2ax + b xi) d_x - 2a on the line; both are
realized spectrally.  Their commutator identity collapses onto the multiplier
(e^{8A} a)'' (x + xi)^2, which :func:`commutator_identity` checks against the
assembled operator sum.

Coefficients are rows of :attr:`WeightFamily.derivatives`, read by
:meth:`WeightFamily.derivatives_at`; all four operator routines share one
spectral Laplacian, and stored frames are differentiated in time chunk by
chunk by :func:`~heatlab.timecurve.time_derivative_chunks`.
"""

from __future__ import annotations

import os
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import framecsv
from .grid import Field, PotentialSpec, SpaceGrid
from .timecurve import STACK_CHUNK, time_derivative_chunks, uniform_grid
from .weights import WeightFamily


def complex_gaussian(x, t: float, R: float) -> np.ndarray:
    """Closed-form heat solution (t - iR)^{-1/2} e^{-x^2 / 4(t - iR)} on the line.

    Its modulus is (t^2 + R^2)^{-1/4} e^{-t x^2 / 4(t^2 + R^2)}, so the decay
    rate degrades from 1/(4R) at t = 0 toward t/4(t^2+R^2) for t > 0.
    """
    if t == 0.0 and R == 0.0:
        raise ValueError("(t, R) = (0, 0) is the singular point")
    z = t - 1j * R
    return np.asarray(z, dtype=complex) ** -0.5 * np.exp(
        -np.asarray(x, dtype=float) ** 2 / (4.0 * z)
    )


@dataclass
class Trajectory:
    """Stored frames of one evolution run; it owns a copy of the times it is given."""

    grid: SpaceGrid
    times: np.ndarray
    frames: np.ndarray  # (n_frames, n) complex
    potential: PotentialSpec

    def __post_init__(self):
        self.times = np.array(self.times, dtype=float)
        self.frames = np.ascontiguousarray(self.frames, dtype=complex)
        if self.frames.shape != (expected := (self.times.size, self.grid.n)):
            raise ValueError(f"frames {self.frames.shape} do not match (times, points) {expected}")

    @property
    def n_frames(self) -> int:
        return self.times.size

    def save(self, directory) -> FrameWrite:
        """Start writing a ``Field.to_csv`` file per frame; ``wait()`` on the result
        finishes them and writes the ``frames.csv`` index.

        One helper process per CPU, at most one per frame, runs :mod:`heatlab.framecsv` on a
        contiguous share of the frames, so this process computes on while they write: processes,
        not threads (``%`` holds the GIL) nor forks (numpy's BLAS threads).
        """
        import subprocess  # imported here: at module level it slowed perfbench appell passes 4%
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        affinity = getattr(os, "sched_getaffinity", lambda pid: range(os.cpu_count() or 1))
        count = min(len(affinity(0)), self.n_frames) or 1
        bounds = [share * self.n_frames // count for share in range(count + 1)]
        pending = FrameWrite(directory, self.times, [])
        try:
            for first, stop in zip(bounds, bounds[1:]):
                # an unnamed file, not a pipe: a pipe would block this process while a helper starts
                with tempfile.TemporaryFile() as data:
                    data.writelines([self.grid.x, self.frames[first:stop]])
                    data.seek(0)
                    args = [framecsv.__file__, str(directory), str(first), str(self.grid.n)]
                    pending.helpers.append(subprocess.Popen(
                        [sys.executable, "-I", "-S", *args], stdin=data, stderr=subprocess.PIPE
                    ))
        except BaseException:
            pending._reap()
            raise
        return pending


@dataclass
class FrameWrite:
    """The frame files helper processes are writing into ``directory``."""

    directory: Path
    times: np.ndarray
    helpers: list  # subprocess.Popen, one per share of the frames

    def _reap(self) -> list[str]:
        """Wait for every helper; one message per helper that failed."""
        failures = []
        for helper in self.helpers:
            err = helper.communicate()[1].decode(errors="replace").strip()
            if helper.returncode:
                tail = err.rpartition("\n")[2]
                failures.append(f"frame helper exited with code {helper.returncode}: {tail}")
        return failures

    def wait(self) -> None:
        """Reap every helper, raise ``OSError`` naming each failure, else write ``frames.csv``."""
        failures = self._reap()
        if failures:
            raise OSError("; ".join(failures))
        rows = (f"{i},{t:.12g},{framecsv.frame_name(i)}\n" for i, t in enumerate(self.times))
        (self.directory / "frames.csv").write_text("index,t,file\n" + "".join(rows))


def evolve(
    u0: Field,
    potential: PotentialSpec,
    t0: float,
    t1: float,
    steps: int,
    n_frames: int | None = None,
    frame_times: np.ndarray | None = None,
) -> Trajectory:
    """Propagate ``u0`` from ``t0`` to ``t1`` and store selected frames.

    ``steps`` is a target: with V != 0 each interval between stored frames is
    covered by the fewest whole Strang steps of at most (t1 - t0)/steps.  With
    V = 0 every frame's real and imaginary parts are the real inverse transforms
    of the exact multiplier exp(-(t_j - t0) xi^2) times the spectra of the
    datum's parts, so a real datum has exactly real frames, and ``steps`` only
    validates.  A ``time_independent`` potential is evaluated once and run in
    the first-same-as-last Strang form; any other is sampled at the quarter
    points of every step.  Frames come either as an equispaced count
    ``n_frames`` (default: every step, capped at 257) or as an explicit
    ``frame_times`` array starting at t0 and ending at t1.  A caller that needs
    the tail guard reads the ``tail`` of :meth:`SpaceGrid.mass` of the frames.
    """
    if not t1 > t0:
        raise ValueError("need t1 > t0")
    if steps < 1:
        raise ValueError("need steps >= 1")
    dt_target = (t1 - t0) / steps
    if frame_times is None:
        if n_frames is None:
            n_frames = min(steps + 1, 257)
        if n_frames < 2:
            raise ValueError("need n_frames >= 2")
        frame_times = uniform_grid(n_frames - 1, t0, t1)
    else:
        frame_times = np.asarray(frame_times, dtype=float)
        if not (abs(frame_times[0] - t0) <= 1e-12 and abs(frame_times[-1] - t1) <= 1e-12):
            raise ValueError("frame_times must start at t0 and end at t1")
        if not np.all(np.diff(frame_times) > 0):
            raise ValueError("frame_times must be strictly increasing")

    grid = u0.grid
    xi2 = grid.wavenumbers**2
    frames = np.empty((frame_times.size, grid.n), dtype=complex)
    frames[0] = u = u0.values
    if potential.is_zero:
        re_spectrum, im_spectrum = np.fft.rfft(u.real), np.fft.rfft(u.imag)
        rxi2 = xi2[: grid.n // 2 + 1]  # rfft's +Nyquist bin is -Nyquist here: the same xi^2
        for lo in range(1, frame_times.size, STACK_CHUNK):
            elapsed = frame_times[lo : lo + STACK_CHUNK, None] - frame_times[0]
            mult, chunk = np.exp(-elapsed * rxi2), frames[lo : lo + STACK_CHUNK]
            chunk.real = np.fft.irfft(mult * re_spectrum, grid.n, axis=-1)
            chunk.imag = np.fft.irfft(mult * im_spectrum, grid.n, axis=-1)
    else:
        x = grid.x
        static = potential(x, float(frame_times[0])) if potential.time_independent else None
        t, dt = float(frame_times[0]), None
        for j, target in enumerate(frame_times[1:], start=1):
            span = target - t
            nsub = max(1, int(np.ceil(span / dt_target - 1e-12)))
            if span / nsub != dt:  # intervals of one step size share their multipliers
                dt = span / nsub
                diffusion = np.exp(-dt * xi2)
                if static is not None:
                    half = np.exp(0.5 * dt * static)
                    full = half * half
            if static is not None:
                u = u * half
                for _ in range(nsub - 1):
                    u = np.fft.ifft(diffusion * np.fft.fft(u)) * full
                u = np.fft.ifft(diffusion * np.fft.fft(u)) * half
            else:
                for _ in range(nsub):
                    u = u * np.exp(0.5 * dt * potential(x, t + 0.25 * dt))
                    u = np.fft.ifft(diffusion * np.fft.fft(u))
                    u = u * np.exp(0.5 * dt * potential(x, t + 0.75 * dt))
                    t += dt
            t = float(target)
            frames[j] = u

    return Trajectory(grid=grid, times=frame_times, frames=frames, potential=potential)


def pde_residual(traj: Trajectory) -> float:
    """Worst relative residual of d_t u - Lap u - V u over interior frames, V = traj.potential."""
    grid, x, potential = traj.grid, traj.grid.x, traj.potential
    static = potential(x, float(traj.times[0])) if potential.time_independent else None
    rel = np.empty(traj.n_frames)
    for chunk, u, dudt in time_derivative_chunks(traj.frames, traj.times):
        lap = _laplacian(grid, np.fft.fft(u))
        v = static if static is not None else [potential(x, float(t)) for t in traj.times[chunk]]
        vu = np.multiply(v, u)
        resid = grid.norm(dudt - lap - vu)
        rel[chunk] = resid / (grid.norm(lap) + grid.norm(vu) + 1e-300)
    return float(np.max(rel))  # a NaN frame propagates


def _laplacian(grid: SpaceGrid, spectrum: np.ndarray) -> np.ndarray:
    """Lap u from the spectrum ``np.fft.fft(u)`` of a frame or a chunk of frames."""
    return np.fft.ifft(-grid.wavenumbers**2 * spectrum)


def conjugated_parts(
    u: np.ndarray, grid: SpaceGrid, c: dict, xi: float
) -> tuple[np.ndarray, np.ndarray]:
    """(S u, A u) for one frame ``u`` and the coefficient row
    ``c = family.derivatives_at(t)``, or for a ``(k, n)`` chunk of frames
    and coefficient columns ``c[name][:, None]``; S and A as in the module
    docstring, from one forward transform per frame."""
    x = grid.x
    mult = (
        (c["ap"] + 4.0 * c["a"] ** 2) * x**2
        + (c["bp"] + 4.0 * c["a"] * c["b"]) * x * xi
        + (c["b"] ** 2 - c["Tp"]) * xi**2
    )
    spectrum = np.fft.fft(u)
    du = np.fft.ifft(1j * grid.wavenumbers * spectrum)
    skew = -2.0 * (2.0 * c["a"] * x + c["b"] * xi) * du - 2.0 * c["a"] * u
    return _laplacian(grid, spectrum) + mult * u, skew


def apply_symmetric(f: Field, family: WeightFamily, t: float, xi: float) -> Field:
    """The symmetric conjugated operator S at time ``t`` and frequency ``xi``."""
    return Field(f.grid, conjugated_parts(f.values, f.grid, family.derivatives_at(t), xi)[0], f.time)


def apply_skew(f: Field, family: WeightFamily, t: float, xi: float) -> Field:
    """The skew-symmetric conjugated operator A = -2(2ax + b xi) d_x - 2a."""
    return Field(f.grid, conjugated_parts(f.values, f.grid, family.derivatives_at(t), xi)[1], f.time)


def commutator_identity(
    f: Field, family: WeightFamily, t: float, xi: float
) -> tuple[float, float]:
    """Assembled commutator pairing versus its collapsed square form.

    Returns ``(lhs, rhs)`` where lhs pairs
    e^{8A}(S_t + [S, A]) f + (e^{8A})' S f against f, with the operator
    realized by its multiplier/Laplacian normal form and coefficient time
    derivatives taken by finite differences, and
    rhs = int (e^{8A} a)'' (x + xi)^2 |f|^2 dx.  The contract is
    lhs = rhs >= 0 for certified families.
    """
    c = family.derivatives_at(t)
    x = f.grid.x
    u = f.values
    comm_mult = (
        (c["app"] + 16.0 * c["a"] * c["ap"] + 32.0 * c["a"] ** 3) * x**2
        + (
            c["bpp"]
            + 8.0 * c["a"] * c["bp"]
            + 8.0 * c["ap"] * c["b"]
            + 32.0 * c["a"] ** 2 * c["b"]
        )
        * x
        * xi
        + (8.0 * c["a"] * c["b"] ** 2 + 4.0 * c["b"] * c["bp"] - c["Tpp"]) * xi**2
    )
    comm = -8.0 * c["a"] * _laplacian(f.grid, np.fft.fft(u)) + comm_mult * u
    s_part = conjugated_parts(u, f.grid, c, xi)[0]
    op = c["w8"] * comm + 8.0 * c["a"] * c["w8"] * s_part
    lhs = f.grid.inner(op, u).real
    rhs = float(c["ident"] * f.grid.dx * np.sum((x + xi) ** 2 * np.abs(u) ** 2))
    return lhs, rhs
