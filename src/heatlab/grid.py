"""Truncated periodic 1-D spatial domain, complex fields and bounded potentials."""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import TailViolation
from .timecurve import _read_only, row_chunks, write_csv

DEFAULT_HALF_WIDTH = 12.0
DEFAULT_POINTS = 1024
DEFAULT_TAIL_TOL = 1e-8
TAIL_START = 0.9  # fraction of the half-width where the guard band begins
HUGE_MODULUS = 1e150  # a row peaking outside [1/this, this] is divided by its peak before squaring


@dataclass(frozen=True)
class SpaceGrid:
    """Periodic uniform grid on [-L, L) with a power-of-two point count."""

    half_width: float = DEFAULT_HALF_WIDTH
    n: int = DEFAULT_POINTS

    def __post_init__(self):
        if not 0.0 < self.half_width < np.inf:
            raise ValueError("half_width must be positive and finite")
        if self.n < 256 or self.n & (self.n - 1) != 0:
            raise ValueError("n must be a power of two >= 256")

    @property
    def dx(self) -> float:
        return 2.0 * self.half_width / self.n

    @cached_property
    def x(self) -> np.ndarray:
        """The nodes, built once per grid and read-only."""
        return _read_only(-self.half_width + self.dx * np.arange(self.n))

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        """FFT-ordered wavenumbers xi_m = (pi/L) m, built once per grid and read-only."""
        return _read_only(2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dx))

    def inner(self, f: np.ndarray, g: np.ndarray) -> complex:
        """L^2 pairing int f conj(g) by the periodic trapezoid rule."""
        return complex(self.dx * np.sum(f * np.conj(g)))

    def mass(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(mass, scale, tail)`` of each row along the last axis, from one pass.

        ``mass`` is dx sum |values / scale|^2, with scale the row's peak modulus
        where that is finite, nonzero and above ``HUGE_MODULUS`` or below its
        reciprocal, else 1, so the norm ``scale * sqrt(mass)`` can neither
        overflow nor underflow to 0.  ``tail`` is the fraction of that mass
        beyond ``TAIL_START`` of the half-width: 0 for a zero row, and NaN,
        which passes no tol, for a row holding a NaN or inf.  A stack is squared
        block by block of ``row_chunks``, each block by its own call."""
        if np.ndim(values) > 1 and len(blocks := row_chunks(len(values))) > 1:
            return tuple(np.concatenate(part) for part in zip(*(self.mass(values[s]) for s in blocks)))
        modulus = np.abs(values)
        peak = modulus.max(axis=-1, keepdims=True)  # NaN when the row holds one
        extreme = (peak > HUGE_MODULUS) | (peak < 1.0 / HUGE_MODULUS)
        scale = np.where(extreme & (peak > 0.0) & (peak < np.inf), peak, 1.0)
        modulus /= scale
        np.square(modulus, out=modulus)
        total = np.sum(modulus, axis=-1)
        # compress keeps each row's band contiguous, so every row sums pairwise
        band = np.compress(np.abs(self.x) > TAIL_START * self.half_width, modulus, axis=-1)
        finite = np.isfinite(peak[..., 0])
        tail = np.where(finite, 0.0, np.nan)
        np.divide(np.sum(band, axis=-1), total, out=tail, where=finite & (total != 0.0))
        return self.dx * total, scale[..., 0], tail

    def norm(self, f: np.ndarray):
        """The norm of each row along the last axis: a float for one row, else an array."""
        mass, scale, _ = self.mass(f)
        return float(scale * np.sqrt(mass)) if np.ndim(f) == 1 else scale * np.sqrt(mass)


def require_tail(
    fraction, time, tol: float = DEFAULT_TAIL_TOL, cause: str = "domain too small for this field"
) -> None:
    """Raise TailViolation at the first tail fraction that is not <= ``tol``
    (NaN included); ``time`` holds the matching frame times."""
    fraction = np.ravel(fraction)
    bad = ~(fraction <= tol)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise TailViolation(
            f"tail mass fraction {fraction[i]:.3e} exceeds {tol:.1e} at "
            f"t={np.ravel(time)[i]:g}: {cause}"
        )


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
        return float(self.grid.mass(self.values)[2])

    def to_csv(self, path) -> None:
        write_csv(path, "x,re,im", self.grid.x, self.values.real, self.values.imag)


def gaussian_field(grid: SpaceGrid) -> Field:
    """The localized datum e^{-x^2} at t = 0."""
    return Field(grid=grid, values=np.exp(-grid.x**2) + 0j)


@dataclass(frozen=True)
class PotentialSpec:
    """Bounded complex potential V(x, t) together with its declared sup norm.

    ``time_independent`` declares that ``fn`` ignores t, so one evaluation
    serves a whole run; it belongs to the potential, not to a run's settings.
    """

    fn: Callable[[np.ndarray, float], np.ndarray] = dataclass_field(repr=False, default=None)
    sup_norm: float = 0.0
    time_independent: bool = False

    def __call__(self, x: np.ndarray, t: float) -> np.ndarray:
        if self.fn is None:
            return np.zeros_like(x, dtype=complex)
        vals = np.asarray(self.fn(x, t), dtype=complex)
        peak = float(np.max(np.abs(vals)))
        if not peak <= self.sup_norm * (1.0 + 1e-12) + 1e-300:  # a NaN peak fails
            raise ValueError(
                f"potential exceeds its declared sup norm: {peak:g} > {self.sup_norm:g}"
            )
        return vals

    @property
    def is_zero(self) -> bool:
        return self.fn is None


def zero_potential() -> PotentialSpec:
    return PotentialSpec(fn=None, sup_norm=0.0, time_independent=True)


def gaussian_potential(amplitude: float, imaginary: bool = False) -> PotentialSpec:
    """V(x) = amplitude * e^{-x^2}, optionally rotated onto the imaginary axis."""
    factor = 1j if imaginary else 1.0

    def fn(x, t):
        return factor * amplitude * np.exp(-(x**2))

    return PotentialSpec(fn=fn, sup_norm=abs(amplitude), time_independent=True)

