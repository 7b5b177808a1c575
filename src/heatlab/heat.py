"""Spectral evolution of d_t u = Lap u + V u and the conjugated operators.

The propagator is Strang splitting on the periodic grid: a half step of
pointwise multiplication by exp(dt/2 V), an exact diffusion step through the
frequency multiplier exp(-dt xi^2), and a second potential half step.  With
V = 0 the diffusion step alone is exact up to spatial truncation, which is
what makes closed-form Gaussian comparisons meaningful at 1e-6.

Conjugating the heat operator by the moving Gaussian weight of a
:class:`~heatlab.weights.WeightFamily` splits it into a symmetric part

    S = Lap + (a' + 4a^2) x^2 + (b' + 4ab) x xi + (b^2 - T') xi^2

and a skew-symmetric part A = -2(2ax + b xi) d_x - 2na (n = 1 here); both are
realized spectrally.  Their commutator identity collapses onto the multiplier
(e^{8A} a)'' (x + xi)^2, which :func:`commutator_identity` checks against the
assembled operator sum.

Coefficients are rows of :attr:`WeightFamily.derivatives`; stored frames are
differentiated in time by :func:`~heatlab.timecurve.fd_derivative`.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .grid import DEFAULT_TAIL_TOL, Field, PotentialSpec, SpaceGrid, zero_potential
from .timecurve import fd_derivative
from .weights import WeightFamily

DIMENSION = 1  # all coefficient formulas carry n symbolically; the lab runs n = 1


def complex_gaussian(x, t: float, R: float) -> np.ndarray:
    """Closed-form heat solution (t - iR)^{-n/2} e^{-x^2 / 4(t - iR)} for n = 1.

    Its modulus is (t^2 + R^2)^{-1/4} e^{-t x^2 / 4(t^2 + R^2)}, so the decay
    rate degrades from 1/(4R) at t = 0 toward t/4(t^2+R^2) for t > 0.
    """
    if t == 0.0 and R == 0.0:
        raise ValueError("(t, R) = (0, 0) is the singular point")
    z = t - 1j * R
    return np.asarray(z, dtype=complex) ** (-DIMENSION / 2.0) * np.exp(
        -np.asarray(x, dtype=float) ** 2 / (4.0 * z)
    )


def complex_gaussian_field(grid: SpaceGrid, t: float, R: float) -> Field:
    return Field(grid=grid, values=complex_gaussian(grid.x, t, R), time=t)


@dataclass
class Trajectory:
    """Stored frames of one evolution run."""

    grid: SpaceGrid
    times: np.ndarray
    frames: np.ndarray  # (n_frames, n) complex
    tail_flags: np.ndarray  # per-frame: True when the tail guard held
    potential: PotentialSpec

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.frames = np.asarray(self.frames, dtype=complex)

    @property
    def n_frames(self) -> int:
        return self.times.size

    def field(self, i: int) -> Field:
        return Field(grid=self.grid, values=self.frames[i], time=float(self.times[i]))

    def index_at(self, t: float) -> int:
        i = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[i] - t) > 1e-9:
            raise ValueError(f"no stored frame at t={t}")
        return i

    def norms(self) -> np.ndarray:
        return np.sqrt(self.grid.dx * np.sum(np.abs(self.frames) ** 2, axis=1))

    def save(self, directory) -> None:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        manifest = ["index,t,file"]
        for i in range(self.n_frames):
            name = f"frame_{i:04d}.csv"
            self.field(i).to_csv(directory / name)
            manifest.append(f"{i},{self.times[i]:.12g},{name}")
        (directory / "frames.csv").write_text("\n".join(manifest) + "\n")

    @classmethod
    def load(
        cls,
        directory,
        potential: PotentialSpec | None = None,
        tail_tol: float = DEFAULT_TAIL_TOL,
    ) -> "Trajectory":
        directory = Path(directory)
        rows = (directory / "frames.csv").read_text().strip().splitlines()[1:]
        times, frames, flags = [], [], []
        grid = None
        for row in rows:
            _, t, name = row.split(",")
            f = Field.from_csv(directory / name, time=float(t))
            grid = f.grid
            times.append(float(t))
            frames.append(f.values)
            flags.append(f.tail_ok(tail_tol))
        return cls(
            grid=grid,
            times=np.array(times),
            frames=np.array(frames),
            tail_flags=np.array(flags),
            potential=potential or zero_potential(),
        )


def evolve(
    u0: Field,
    potential: PotentialSpec,
    t0: float,
    t1: float,
    steps: int,
    n_frames: int | None = None,
    frame_times: np.ndarray | None = None,
    tail_tol: float = DEFAULT_TAIL_TOL,
    strict_tail: bool = False,
    max_dt: float | None = None,
) -> Trajectory:
    """Propagate ``u0`` from ``t0`` to ``t1`` and store selected frames.

    ``steps`` sets the target step size (t1 - t0)/steps; each interval between
    stored frames is covered by whole steps of at most that size.  Frames come
    either as an equispaced count ``n_frames`` (default: every step, capped at
    257) or as an explicit ``frame_times`` array starting at t0 and ending at
    t1.  Tail-guard violations raise when ``strict_tail`` is set and are
    recorded per frame otherwise.
    """
    if not t1 > t0:
        raise ValueError("need t1 > t0")
    if steps < 1:
        raise ValueError("need steps >= 1")
    dt_target = (t1 - t0) / steps
    if max_dt is not None and dt_target > max_dt * (1.0 + 1e-12):
        raise ValueError(
            f"step count too small: dt = {dt_target:.3e} exceeds max_dt = {max_dt:.3e}"
        )
    if frame_times is None:
        if n_frames is None:
            n_frames = min(steps + 1, 257)
        if n_frames < 2 or (steps % (n_frames - 1)) != 0:
            raise ValueError("n_frames - 1 must divide steps")
        frame_times = t0 + (t1 - t0) * np.arange(n_frames) / (n_frames - 1)
    else:
        frame_times = np.asarray(frame_times, dtype=float)
        if abs(frame_times[0] - t0) > 1e-12 or abs(frame_times[-1] - t1) > 1e-12:
            raise ValueError("frame_times must start at t0 and end at t1")
        if np.any(np.diff(frame_times) <= 0):
            raise ValueError("frame_times must be strictly increasing")

    grid = u0.grid
    x = grid.x
    xi2 = grid.wavenumbers**2
    u = u0.values.astype(complex)
    flags = [u0.tail_ok(tail_tol)]
    if strict_tail:
        u0.require_tail(tail_tol)

    frames = [u.copy()]
    t = float(frame_times[0])
    for target in frame_times[1:]:
        span = target - t
        nsub = max(1, int(np.ceil(span / dt_target - 1e-12)))
        dt = span / nsub
        for _ in range(nsub):
            if potential.is_zero:
                u = np.fft.ifft(np.exp(-dt * xi2) * np.fft.fft(u))
            else:
                u = u * np.exp(0.5 * dt * potential(x, t + 0.25 * dt))
                u = np.fft.ifft(np.exp(-dt * xi2) * np.fft.fft(u))
                u = u * np.exp(0.5 * dt * potential(x, t + 0.75 * dt))
            t += dt
        t = float(target)
        frames.append(u.copy())
        f = Field(grid=grid, values=u, time=t)
        ok = f.tail_ok(tail_tol)
        if strict_tail and not ok:
            f.require_tail(tail_tol)
        flags.append(ok)

    return Trajectory(
        grid=grid,
        times=frame_times,
        frames=np.array(frames),
        tail_flags=np.array(flags),
        potential=potential,
    )


def pde_residual(traj: Trajectory, potential: PotentialSpec | None = None) -> float:
    """Worst relative residual of d_t u - Lap u - V u over interior frames."""
    if potential is None:
        potential = traj.potential
    dts = np.diff(traj.times)
    if np.max(np.abs(dts - dts[0])) > 1e-10:
        raise ValueError("pde_residual needs equispaced frames")
    xi2 = traj.grid.wavenumbers**2
    dudt = fd_derivative(traj.frames, float(dts[0]))
    rel = np.empty(traj.n_frames)
    for i in range(traj.n_frames):
        u = traj.frames[i]
        lap = np.fft.ifft(-xi2 * np.fft.fft(u))
        vu = potential(traj.grid.x, float(traj.times[i])) * u
        resid = traj.grid.norm(dudt[i] - lap - vu)
        scale = traj.grid.norm(lap) + traj.grid.norm(vu) + 1e-300
        rel[i] = resid / scale
    return float(np.max(rel))  # a NaN frame propagates


def _coefficients_at(family: WeightFamily, t: float) -> dict[str, float]:
    """Row of the family's derivative table at the grid node ``t``."""
    i = family.a.node_index(t)
    return {name: float(col[i]) for name, col in family.derivatives.items()}


def apply_symmetric(f: Field, family: WeightFamily, t: float, xi: float) -> Field:
    """The symmetric conjugated operator S at time ``t`` and frequency ``xi``."""
    c = _coefficients_at(family, t)
    x = f.grid.x
    lap = np.fft.ifft(-f.grid.wavenumbers**2 * np.fft.fft(f.values))
    mult = (
        (c["ap"] + 4.0 * c["a"] ** 2) * x**2
        + (c["bp"] + 4.0 * c["a"] * c["b"]) * x * xi
        + (c["b"] ** 2 - c["Tp"]) * xi**2
    )
    return f.with_values(lap + mult * f.values)


def apply_skew(f: Field, family: WeightFamily, t: float, xi: float) -> Field:
    """The skew-symmetric conjugated operator A = -2(2ax + b xi) d_x - 2na."""
    c = _coefficients_at(family, t)
    x = f.grid.x
    df = np.fft.ifft(1j * f.grid.wavenumbers * np.fft.fft(f.values))
    vals = -2.0 * (2.0 * c["a"] * x + c["b"] * xi) * df - 2.0 * DIMENSION * c["a"] * f.values
    return f.with_values(vals)


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
    c = _coefficients_at(family, t)
    x = f.grid.x
    u = f.values
    lap = np.fft.ifft(-f.grid.wavenumbers**2 * np.fft.fft(u))
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
    comm = -8.0 * c["a"] * lap + comm_mult * u
    s_part = apply_symmetric(f, family, t, xi).values
    op = c["w8"] * comm + 8.0 * c["a"] * c["w8"] * s_part
    lhs = f.grid.inner(op, u).real
    rhs = float(c["ident"] * f.grid.dx * np.sum((x + xi) ** 2 * np.abs(u) ** 2))
    return lhs, rhs
