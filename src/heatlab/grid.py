"""Truncated periodic 1-D spatial domain, complex fields and bounded potentials."""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import TailViolation

DEFAULT_HALF_WIDTH = 12.0
DEFAULT_POINTS = 1024
DEFAULT_TAIL_TOL = 1e-8
TAIL_START = 0.9  # fraction of the half-width where the guard band begins


@dataclass(frozen=True)
class SpaceGrid:
    """Periodic uniform grid on [-L, L) with a power-of-two point count."""

    half_width: float = DEFAULT_HALF_WIDTH
    n: int = DEFAULT_POINTS

    def __post_init__(self):
        if self.half_width <= 0.0:
            raise ValueError("half_width must be positive")
        if self.n < 256 or self.n & (self.n - 1) != 0:
            raise ValueError("n must be a power of two >= 256")

    @property
    def dx(self) -> float:
        return 2.0 * self.half_width / self.n

    @property
    def x(self) -> np.ndarray:
        return -self.half_width + self.dx * np.arange(self.n)

    @property
    def wavenumbers(self) -> np.ndarray:
        """FFT-ordered wavenumbers xi_m = (pi/L) m."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dx)

    def inner(self, f: np.ndarray, g: np.ndarray) -> complex:
        """L^2 pairing int f conj(g) by the periodic trapezoid rule."""
        return complex(self.dx * np.sum(f * np.conj(g)))

    def norm(self, f: np.ndarray) -> float:
        return float(np.sqrt(self.dx * np.sum(np.abs(f) ** 2)))


@dataclass(frozen=True)
class Field:
    """Complex samples of u(., t) on a space grid."""

    grid: SpaceGrid
    values: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != (self.grid.n,):
            raise ValueError("values must match the grid point count")
        object.__setattr__(self, "values", vals)

    def norm(self) -> float:
        return self.grid.norm(self.values)

    def tail_fraction(self) -> float:
        """Mass fraction beyond 0.9 of the half-width."""
        x = self.grid.x
        mass = np.abs(self.values) ** 2
        total = float(np.sum(mass))
        if total == 0.0:
            return 0.0
        outer = float(np.sum(mass[np.abs(x) > TAIL_START * self.grid.half_width]))
        return outer / total

    def tail_ok(self, tol: float = DEFAULT_TAIL_TOL) -> bool:
        return self.tail_fraction() <= tol

    def require_tail(self, tol: float = DEFAULT_TAIL_TOL) -> "Field":
        frac = self.tail_fraction()
        if not frac <= tol:  # a NaN fraction fails too
            raise TailViolation(
                f"tail mass fraction {frac:.3e} exceeds {tol:.1e} at t={self.time:g}: "
                "domain too small for this field"
            )
        return self

    def with_values(self, values: np.ndarray, time: float | None = None) -> "Field":
        return replace(self, values=values, time=self.time if time is None else time)

    def to_csv(self, path) -> None:
        lines = ["x,re,im"]
        for x, v in zip(self.grid.x, self.values):
            lines.append(f"{x:.12g},{v.real:.12g},{v.imag:.12g}")
        Path(path).write_text("\n".join(lines) + "\n")

    @classmethod
    def from_csv(cls, path, time: float = 0.0) -> "Field":
        rows = Path(path).read_text().strip().splitlines()
        if rows[0] != "x,re,im":
            raise ValueError("expected header 'x,re,im'")
        data = np.array([[float(c) for c in row.split(",")] for row in rows[1:]])
        n = data.shape[0]
        half_width = -data[0, 0]
        return cls(
            grid=SpaceGrid(half_width=half_width, n=n),
            values=data[:, 1] + 1j * data[:, 2],
            time=time,
        )


def gaussian_field(grid: SpaceGrid, rate: float = 1.0, time: float = 0.0) -> Field:
    """The localized datum e^{-rate x^2}."""
    return Field(grid=grid, values=np.exp(-rate * grid.x**2) + 0j, time=time)


@dataclass(frozen=True)
class PotentialSpec:
    """Bounded complex potential V(x, t) together with its declared sup norm."""

    fn: Callable[[np.ndarray, float], np.ndarray] = dataclass_field(repr=False, default=None)
    sup_norm: float = 0.0
    label: str = "none"

    def __call__(self, x: np.ndarray, t: float) -> np.ndarray:
        if self.fn is None:
            return np.zeros_like(x, dtype=complex)
        vals = np.asarray(self.fn(x, t), dtype=complex)
        peak = float(np.max(np.abs(vals)))
        if peak > self.sup_norm * (1.0 + 1e-12) + 1e-300:
            raise ValueError(
                f"potential exceeds its declared sup norm: {peak:g} > {self.sup_norm:g}"
            )
        return vals

    @property
    def is_zero(self) -> bool:
        return self.fn is None


def zero_potential() -> PotentialSpec:
    return PotentialSpec(fn=None, sup_norm=0.0, label="none")


def gaussian_potential(amplitude: float, imaginary: bool = False) -> PotentialSpec:
    """V(x) = amplitude * e^{-x^2}, optionally rotated onto the imaginary axis."""
    factor = 1j if imaginary else 1.0

    def fn(x, t):
        return factor * amplitude * np.exp(-(x**2))

    label = "gauss-imag" if imaginary else "gauss-real"
    return PotentialSpec(fn=fn, sup_norm=abs(amplitude), label=label)


def constant_potential(value: complex) -> PotentialSpec:
    def fn(x, t):
        return np.full_like(x, value, dtype=complex)

    return PotentialSpec(fn=fn, sup_norm=abs(value), label="constant")
