"""Scalar functions of time on a uniform grid, with high-order calculus services.

A :class:`TimeCurve` holds samples of a smooth real function on an equispaced
grid over ``[t0, t1]`` and provides differentiation, cumulative integration and
local interpolation, all with fourth-order (or better) accuracy.  Endpoint rows
use one-sided stencils of matching order, so every operation reproduces
polynomials of degree <= 4 exactly at the nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import GridError

MIN_INTERVALS = 64
FD_ORDER = 4


@lru_cache(maxsize=None)
def stencil_weights(offsets: tuple[int, ...], point: float, deriv: int) -> tuple[float, ...]:
    """Finite-difference weights on integer ``offsets`` for the ``deriv``-th
    derivative evaluated at ``point``, in units of the grid spacing.

    Solved from the Vandermonde moment conditions, so the weights are exact on
    polynomials of degree ``len(offsets) - 1``.
    """
    n = len(offsets)
    if deriv >= n:
        raise ValueError("not enough points for requested derivative")
    shifted = np.asarray(offsets, dtype=float) - point
    vander = np.vstack([shifted**r for r in range(n)])
    rhs = np.zeros(n)
    rhs[deriv] = math.factorial(deriv)
    return tuple(np.linalg.solve(vander, rhs))


@lru_cache(maxsize=None)
def interval_quadrature_weights(offsets: tuple[int, ...], left: int) -> tuple[float, ...]:
    """Weights integrating the degree ``len(offsets)-1`` interpolant over the
    unit interval ``[left, left+1]`` (offset units)."""
    n = len(offsets)
    vander = np.vstack([np.asarray(offsets, dtype=float) ** r for r in range(n)])
    moments = np.array(
        [((left + 1.0) ** (r + 1) - float(left) ** (r + 1)) / (r + 1) for r in range(n)]
    )
    return tuple(np.linalg.solve(vander, moments))


def _window(i: int, m: int, width: int) -> int:
    """Start index of a ``width``-point window around node ``i`` on ``0..m``."""
    return min(max(i - width // 2, 0), m + 1 - width)


@lru_cache(maxsize=None)
def _stencil_rows(deriv: int) -> tuple[np.ndarray, np.ndarray]:
    """Centered five-point weights, and the rows of nodes 0, 1, m-1, m on the
    end windows: six points for second derivatives, to keep fourth order."""
    ends = tuple(range(5 if deriv == 1 else 6))
    centered = np.array(stencil_weights((-2, -1, 0, 1, 2), 0.0, deriv))
    edges = np.array([stencil_weights(ends, float(p), deriv) for p in (0, 1, *ends[-2:])])
    return centered, edges


def fd_derivative(values: np.ndarray, h: float, deriv: int = 1) -> np.ndarray:
    """Differentiate uniform samples along the first axis with stencils of
    accuracy order >= 4.

    ``values`` is a real curve of shape ``(m + 1,)`` or a stack such as the
    complex ``(frames, n)`` array of a stored trajectory, differentiated in
    time column by column.
    """
    values = np.asarray(values)
    if values.dtype.kind != "c":
        values = values.astype(float, copy=False)
    centered, edges = _stencil_rows(deriv)
    m, width = values.shape[0] - 1, edges.shape[1]
    if m + 1 < width:
        raise GridError(f"need at least {width} samples, got {m + 1}")
    out = np.empty_like(values)
    # interior: centered rows on a read-only five-point window view
    s = values.strides
    windows = as_strided(values, (m - 3, *values.shape[1:], 5), (*s, s[0]), writeable=False)
    out[2 : m - 1] = windows @ centered
    head, tail = values[:width], values[m + 1 - width :]
    out[0], out[1] = edges[0] @ head, edges[1] @ head
    out[m - 1], out[m] = edges[2] @ tail, edges[3] @ tail
    return out / h**deriv


def cumulative_integral(values: np.ndarray, h: float) -> np.ndarray:
    """Cumulative integral from the first node, exact for degree <= 4.

    Interior intervals integrate the quartic through the five nearest nodes,
    giving global accuracy O(h^5).  The four edge intervals use six-point
    (quintic) windows: one order better there, so that differentiating the
    result twice keeps full stencil order across the window junctions.
    """
    values = np.asarray(values, dtype=float)
    m = values.size - 1
    if m + 1 < 6:
        raise GridError(f"need at least 6 samples, got {m + 1}")
    increments = np.empty(m)
    # interval i covers [i, i+1]; its interior window starts at i - 2
    w_int = np.asarray(interval_quadrature_weights((0, 1, 2, 3, 4), 2))
    windows = np.lib.stride_tricks.sliding_window_view(values, 5)
    increments[2 : m - 1] = windows[: m - 3] @ w_int
    for i in (0, 1, m - 2, m - 1):
        start = 0 if i < 2 else m - 5
        w = np.asarray(interval_quadrature_weights((0, 1, 2, 3, 4, 5), i - start))
        increments[i] = values[start : start + 6] @ w
    out = np.empty(m + 1)
    out[0] = 0.0
    np.cumsum(increments, out=out[1:])
    return out * h


def lagrange_sample(values: np.ndarray, t0: float, h: float, times) -> np.ndarray:
    """Evaluate the local quartic interpolant of uniform samples at ``times``.

    Scalar input returns a float, array input an array.
    """
    values = np.asarray(values, dtype=float)
    m = values.size - 1
    scalar = np.ndim(times) == 0
    times = np.atleast_1d(np.asarray(times, dtype=float))
    pos = (times - t0) / h
    if np.any(pos < -1e-9) or np.any(pos > m + 1e-9):
        raise ValueError("sample time outside the curve interval")
    base = np.clip(np.rint(pos).astype(int), 0, m)
    out = np.empty(times.size)
    exact = np.abs(pos - base) < 1e-12
    out[exact] = values[base[exact]]
    for j in np.nonzero(~exact)[0]:
        start = _window(base[j], m, 5)
        xs = np.arange(start, start + 5, dtype=float)
        ys = values[start : start + 5]
        # barycentric form of the quartic through the window
        wbar = np.array([1.0, -4.0, 6.0, -4.0, 1.0])
        diff = pos[j] - xs
        terms = wbar / diff
        out[j] = (terms @ ys) / terms.sum()
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class TimeCurve:
    """Real samples of a smooth function on a uniform grid over ``[t0, t1]``."""

    values: np.ndarray
    t0: float = 0.0
    t1: float = 1.0

    order = FD_ORDER

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1:
            raise ValueError("values must be one-dimensional")
        if vals.size - 1 < MIN_INTERVALS:
            raise GridError(
                f"grid too coarse: {vals.size - 1} intervals < {MIN_INTERVALS}"
            )
        if not self.t1 > self.t0:
            raise ValueError("need t1 > t0")
        object.__setattr__(self, "values", vals)

    @property
    def m(self) -> int:
        return self.values.size - 1

    @property
    def h(self) -> float:
        return (self.t1 - self.t0) / self.m

    @property
    def nodes(self) -> np.ndarray:
        return self.t0 + self.h * np.arange(self.m + 1)

    def with_values(self, values: np.ndarray) -> "TimeCurve":
        return replace(self, values=np.asarray(values, dtype=float))

    def derivative(self) -> "TimeCurve":
        return self.with_values(fd_derivative(self.values, self.h, 1))

    def second_derivative(self) -> "TimeCurve":
        return self.with_values(fd_derivative(self.values, self.h, 2))

    def antiderivative(self, start_value: float = 0.0) -> "TimeCurve":
        return self.with_values(start_value + cumulative_integral(self.values, self.h))

    def definite_integral(self) -> float:
        return float(cumulative_integral(self.values, self.h)[-1])

    def sample_at(self, times) -> np.ndarray:
        return lagrange_sample(self.values, self.t0, self.h, times)

    def node_index(self, t: float) -> int:
        """Index of the node at time ``t``; raises if ``t`` is off the grid."""
        pos = (t - self.t0) / self.h
        i = int(round(pos))
        if not 0 <= i <= self.m or abs(pos - i) > 1e-9:
            raise ValueError(f"t={t} is not a grid node")
        return i

    def to_csv(self, path) -> None:
        lines = ["t,value"]
        for t, v in zip(self.nodes, self.values):
            lines.append(f"{t:.12g},{v:.12g}")
        Path(path).write_text("\n".join(lines) + "\n")

    @classmethod
    def from_csv(cls, path) -> "TimeCurve":
        rows = Path(path).read_text().strip().splitlines()
        if rows[0] != "t,value":
            raise ValueError("expected header 't,value'")
        data = np.array([[float(x) for x in row.split(",")] for row in rows[1:]])
        return cls(values=data[:, 1], t0=float(data[0, 0]), t1=float(data[-1, 0]))


def uniform_grid(m: int, t0: float = 0.0, t1: float = 1.0) -> np.ndarray:
    return t0 + (t1 - t0) * np.arange(m + 1) / m


def curve_from_callable(fn, m: int, t0: float = 0.0, t1: float = 1.0) -> TimeCurve:
    return TimeCurve(values=np.asarray(fn(uniform_grid(m, t0, t1)), dtype=float), t0=t0, t1=t1)
