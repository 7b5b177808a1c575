"""Scalar functions of time on a uniform grid, with high-order calculus services.

A :class:`TimeCurve` holds samples of a smooth real function on an equispaced
grid over ``[t0, t1]``; the functions here differentiate, integrate and locally
interpolate such samples, all with fourth-order (or better) accuracy.  Endpoint rows
use one-sided stencils of matching order, so every operation reproduces
polynomials of degree <= 4 exactly at the nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import GridError

MIN_INTERVALS = 64
STACK_CHUNK = 16  # rows of a frame stack per elementwise stencil pass


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def uniform_grid(m: int, t0: float = 0.0, t1: float = 1.0) -> np.ndarray:
    """The m + 1 equispaced times t0 + (t1 - t0) k / m, cached and read-only:
    the lab's only time-grid formula.  On [0, 1] node k is k / m correctly
    rounded, the last one 1.0.  Defaulted and spelled-out ends share one entry."""
    return _cached_grid(m, t0, t1)


@lru_cache(maxsize=64)
def _cached_grid(m: int, t0: float, t1: float) -> np.ndarray:
    return _read_only(t0 + (t1 - t0) * np.arange(m + 1) / m)


def _solve_moments(nodes, moments) -> tuple[float, ...]:
    """Weights w with sum_k w_k nodes[k]^r = moments[r] for r < len(nodes): the
    one Vandermonde solve behind every stencil, quadrature and interpolation row."""
    vander = np.vstack([np.asarray(nodes, dtype=float) ** r for r in range(len(nodes))])
    return tuple(np.linalg.solve(vander, moments))


def stencil_weights(offsets, point: float, deriv: int) -> tuple[float, ...]:
    """Weights on the nodes ``offsets`` (in units of their spacing, so O(1) apart)
    for the ``deriv``-th derivative at ``point``; ``deriv = 0`` gives interpolation
    weights.  Solved from the Vandermonde moment conditions on ``offsets - point``,
    so the weights are exact on polynomials of degree ``len(offsets) - 1``.
    """
    if deriv >= len(offsets):
        raise ValueError("not enough points for requested derivative")
    rhs = np.eye(len(offsets))[deriv] * math.factorial(deriv)
    return _solve_moments(np.asarray(offsets, dtype=float) - point, rhs)


def interval_quadrature_weights(offsets: tuple[int, ...], left: int) -> tuple[float, ...]:
    """Weights integrating the degree ``len(offsets)-1`` interpolant over the
    unit interval ``[left, left+1]`` (offset units)."""
    moments = [((left + 1.0) ** (r + 1) - float(left) ** (r + 1)) / (r + 1) for r in range(len(offsets))]
    return _solve_moments(offsets, moments)


@lru_cache(maxsize=None)
def _rows(deriv: int) -> tuple[np.ndarray, np.ndarray]:
    """Centred five-point row and the four end rows of the engine: for
    ``deriv`` 1 or 2 the stencils of nodes 0, 1, m-1, m (six-point end
    windows for second derivatives, to keep fourth order); for ``deriv = -1``
    the integrals over the middle interval of the window and over intervals
    0, 1, m-2, m-1 (quintic end windows, so that differentiating the result
    twice keeps full stencil order across the window junctions)."""
    if deriv < 0:
        centered = interval_quadrature_weights((0, 1, 2, 3, 4), 2)
        edges = [interval_quadrature_weights(tuple(range(6)), left) for left in (0, 1, 3, 4)]
    else:
        ends = tuple(range(5 if deriv == 1 else 6))
        centered = stencil_weights((-2, -1, 0, 1, 2), 0.0, deriv)
        edges = [stencil_weights(ends, float(p), deriv) for p in (0, 1, *ends[-2:])]
    return np.array(centered), np.array(edges)


@lru_cache(maxsize=64)
def _end_index(n: int, width: int) -> np.ndarray:
    """Gather index of a curve's ``[head | tail]`` end windows, shape ``(width, 2)``."""
    return _read_only(np.stack([np.arange(width), np.arange(n - width, n)], axis=1))


def weighted_sum(weights, terms, out=None, scratch=None) -> np.ndarray:
    """``sum_k weights[k] * terms[k]`` accumulated in the order of k into ``out``
    through one product buffer ``scratch``, elementwise, so frames never reach BLAS."""
    out = np.multiply(terms[0], weights[0], out=out)
    scratch = np.empty_like(out) if scratch is None else scratch
    for weight, term in zip(weights[1:], terms[1:]):
        out += np.multiply(term, weight, out=scratch)
    return out


def stack_rows(values: np.ndarray, deriv: int, lo: int, hi: int, out, scratch) -> np.ndarray:
    """Rows ``[lo, hi)`` of the ``_rows(deriv)`` stencils applied along the first
    axis of a stack (real or complex), into ``out`` through the product buffer
    ``scratch`` (>= hi - lo rows), elementwise with no BLAS call; a row's bytes
    do not depend on the range it is computed in."""
    centered, edges = _rows(deriv)
    n, width = values.shape[0], edges.shape[1]
    if n < width:
        raise GridError(f"need at least {width} samples, got {n}")
    n_out = n - 1 if deriv < 0 else n
    start, stop = max(lo, 2), min(hi, n_out - 2)
    if start < stop:
        rows = [values[start + k : stop + k] for k in range(-2, 3)]
        weighted_sum(centered, rows, out[start - lo : stop - lo], scratch[: stop - start])
    head, tail = values[:width], values[n - width :]
    for i, edge, rows in ((0, 0, head), (1, 1, head), (n_out - 2, 2, tail), (n_out - 1, 3, tail)):
        if lo <= i < hi:
            weighted_sum(edges[edge], rows, out[i - lo], scratch[0])
    return out


def row_chunks(n: int, start: int = 0) -> list[slice]:
    """Slices of rows ``[start, n)``, STACK_CHUNK each but the last: every stack pass's chunks."""
    return [slice(lo, min(lo + STACK_CHUNK, n)) for lo in range(start, n, STACK_CHUNK)]


def time_derivative_chunks(rows, times: np.ndarray):
    """Refuse fewer frames than a stencil window, or ``times`` not equispaced within 1e-10 (a NaN
    time is not), then iterate ``(chunk, frames, d)`` for each slice ``chunk`` of ``row_chunks``:
    ``frames`` those frames and ``d`` their first time derivative, in one block the next chunk
    overwrites.  ``rows(s)`` gives the frames of slice ``s``, called once a chunk for its window:
    the chunk's rows, the two rows on each side, or the end window at either end."""
    if times.size < (width := _rows(1)[1].shape[1]):
        raise GridError(f"need at least {width} samples, got {times.size}")
    dts = np.diff(times)
    if not np.max(np.abs(dts - dts[0])) <= 1e-10:
        raise ValueError("frames must be equispaced")
    return _derivative_chunks(rows, times.size, float(dts[0]), width)


def _derivative_chunks(rows, n: int, dt: float, width: int):
    for chunk in row_chunks(n):
        lo, hi = chunk.start, chunk.stop
        w0, w1 = max(0, min(lo - 2, n - width)), min(n, max(hi + 2, width))
        window = rows(slice(w0, w1))
        if lo == 0:
            block, scratch = np.empty((2, STACK_CHUNK, *window.shape[1:]), dtype=window.dtype)
        d = stack_rows(window, 1, lo - w0, hi - w0, block[: hi - lo], scratch)
        yield chunk, window[lo - w0 : hi - w0], np.divide(d, dt, out=d)


def _apply_rows(values: np.ndarray, deriv: int, lead: int = 0) -> np.ndarray:
    """The rows of ``_rows(deriv)`` applied to a real curve: one output per node
    for a derivative, one per interval for ``deriv = -1``, after ``lead`` <= 2
    unset leading rows.  Stacks and complex samples go through :func:`stack_rows`."""
    values = np.asarray(values)
    if values.ndim != 1 or values.dtype.kind == "c":
        raise ValueError(f"not a real curve: {values.dtype} {values.shape}; use stack_rows")
    values = values.astype(float, copy=False)
    centered, edges = _rows(deriv)
    n, width = values.size, edges.shape[1]
    if n < width:
        raise GridError(f"need at least {width} samples, got {n}")
    n_out = n - 1 if deriv < 0 else n
    # the "full" correlation (each window summed as its dot) is the output
    out = np.correlate(values, centered, "full")[2 - lead : n_out + 2]
    ends = np.dot(edges, values[_end_index(n, width)])
    out[lead], out[lead + 1], out[-2], out[-1] = ends[0, 0], ends[1, 0], ends[2, 1], ends[3, 1]
    return out


def fd_derivative(values: np.ndarray, h: float, deriv: int = 1) -> np.ndarray:
    """Differentiate a real curve of shape ``(m + 1,)`` at spacing ``h`` with
    stencils of accuracy order >= 4."""
    out = _apply_rows(values, deriv)
    return np.divide(out, h**deriv, out=out)


def cumulative_integral(values: np.ndarray, h: float) -> np.ndarray:
    """Cumulative integral of a real curve from its first node, exact for
    degree <= 4.

    Interior intervals integrate the quartic through the five nearest nodes,
    giving global accuracy O(h^5); the four edge intervals use quintic
    windows (see ``_rows``).
    """
    out = _apply_rows(values, -1, lead=1)
    out[0] = 0.0
    out[1:].cumsum(out=out[1:])  # the increments, accumulated in place
    return np.multiply(out, h, out=out)


def lagrange_sample(values: np.ndarray, nodes, times) -> np.ndarray:
    """Rows of a real curve or a complex frame stack given along axis 0 at increasing ``nodes``,
    at ``times`` in their span (a scalar time gives one row): a node's own row within 1e-11 of
    it, else the quartic through the five nearest nodes, weighted by the zeroth-derivative
    stencil on them in quarters of the window width from the time, elementwise with no BLAS."""
    values, nodes = np.asarray(values), np.asarray(nodes, dtype=float)
    if not np.all(np.diff(nodes) > 0.0):  # a NaN node fails too
        raise ValueError("curve nodes must strictly increase")
    span = np.asarray(times, dtype=float).ravel()
    inside = (span >= nodes[0] - 1e-11) & (span <= nodes[-1] + 1e-11)
    if not np.all(inside):  # a NaN time fails too
        t = span[np.argmin(inside)]
        raise ValueError(f"time {t:g} outside the curve interval [{nodes[0]:g}, {nodes[-1]:g}]")
    rows = values.reshape(len(values), -1)
    out = np.empty((span.size, rows.shape[1]), dtype=np.result_type(values, float))
    for r, s in enumerate(span):
        gaps = np.abs(nodes - s)
        j = int(np.argmin(gaps))
        if gaps[j] < 1e-11:
            out[r] = rows[j]
            continue
        if nodes.size < 5:
            raise ValueError(f"time {s:g} needs the 5-frame quartic; only {len(nodes)} stored")
        lo = min(max(j - 2, 0), nodes.size - 5)
        window = nodes[lo : lo + 5]
        weights = stencil_weights((window - s) / (window[4] - window[0]) * 4, 0.0, 0)
        weighted_sum(weights, rows[lo : lo + 5], out[r])
    return out.reshape(np.shape(times) + values.shape[1:])[()]  # a curve's row: a scalar


def write_csv(path, header: str, *columns) -> None:
    """Write equal-length columns under ``header``, each value as ``%.12g``."""
    row = ",".join(["%.12g"] * len(columns))
    rows = zip(*(np.asarray(c).tolist() for c in columns))
    lines = [header, *(row % values for values in rows)]
    Path(path).write_text("\n".join(lines) + "\n")


@dataclass(frozen=True)
class TimeCurve:
    """Real samples of a smooth function on a uniform grid over ``[t0, t1]``."""

    values: np.ndarray
    t0: float = 0.0
    t1: float = 1.0

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
        """The grid times, one read-only array shared by every curve on this grid."""
        return uniform_grid(self.m, self.t0, self.t1)

    def with_values(self, values: np.ndarray) -> "TimeCurve":
        return TimeCurve(values, self.t0, self.t1)

    def node_index(self, t):
        """Index of the node at time ``t``, or an index array for an array of
        times; raises if any time is off the grid."""
        pos = (np.asarray(t, dtype=float) - self.t0) / self.h
        near = np.rint(pos)
        on_grid = (np.abs(pos - near) <= 1e-9) & (near >= 0) & (near <= self.m)
        if not np.all(on_grid):  # a NaN time is off the grid too
            raise ValueError(f"t={np.ravel(t)[np.argmin(on_grid)]} is not a grid node")
        return int(near) if near.ndim == 0 else near.astype(int)


