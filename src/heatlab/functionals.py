"""Weighted norms, the log-convexity engine, the Appell change of variables,
and the interior-bound / sharpness verifiers.

The central object is H(t) = ||exp(a x^2 + b x xi - T xi^2) u(t)||^2 for a
trajectory u and a certified weight family.  In the clock gamma = e^{8A} the
quantity log(H + eps) is convex up to two computable corrections: M solving
d_t(gamma d_t M) = -gamma ||d_t f - S f - A f||^2 / (H + eps) with zero
boundary values, and the scalar N integrating |Re(d_t f - Sf - Af, f)|/(H+eps).
``check_log_convexity`` assembles the interpolation bound

    H(t) + eps <= (H(c)+eps)^theta (H(d)+eps)^(1-theta) e^{M(t) + 2N}

and reports its slack curve; everything else here is bookkeeping around that
inequality: norm evaluation with a tail guard, the Appell reshaping of
Gaussian weights, the interior-bound ratio for the closed-form weight
t x^2 / 4(t^2 + R^2), and its sharpness from the closed-form norms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ResidualError
from .grid import DEFAULT_TAIL_TOL, Field, PotentialSpec, SpaceGrid, require_tail, zero_potential
from .heat import Trajectory, conjugated_parts
from .kernels import resample_periodic
from .timecurve import (
    TimeCurve, cumulative_integral, fd_derivative, lagrange_sample, row_chunks,
    time_derivative_chunks, uniform_grid,
)
from .weights import WeightFamily, floor_bound

CONJUGATION_TOL = 5e-3  # relative residual allowed in d_t f - S f - A f = V f
CORRECTION_TOL = 1e-6  # relative residual and sign slack of the correction term M


def _weighted_rows(grid: SpaceGrid, rate: np.ndarray, values: np.ndarray, time: float, tol: float):
    """Norms ||e^{rate x^2} u|| of the rows of ``values``, one ``rate`` each, and the tail
    fractions of e^{rate x^2} |u|, both from one ``SpaceGrid.mass`` call per ``row_chunks``
    block, weighted only then.  A weight that defeats the decay of ``u`` makes the truncated
    quadrature meaningless, so a last row with more than ``tol`` of its mass in the outer band
    raises TailViolation at ``time``; ``tol = inf`` measures truncated norms regardless."""
    norms, fractions = np.empty((2, len(values)))
    for rows in row_chunks(len(values)):
        mass, scale, fractions[rows] = grid.mass(np.exp(rate[rows, None] * grid.x**2) * np.abs(values[rows]))
        norms[rows] = scale * np.sqrt(mass)
    require_tail(fractions[-1], time, tol, "the weighted norm is not finite at this truncation")
    return norms, fractions


def weighted_norm(field: Field, a: float) -> float:
    """|| e^{a x^2} u || by the periodic trapezoid rule; an integrand holding
    more than ``DEFAULT_TAIL_TOL`` of its mass in the outer band is rejected
    rather than silently truncated."""
    norms, _ = _weighted_rows(field.grid, np.array([a]), field.values[None], field.time, DEFAULT_TAIL_TOL)
    return float(norms[0])


def interpolation_exponent(gamma: TimeCurve) -> np.ndarray:
    """The exponent theta(t) = int_t^d ds/gamma / int_c^d ds/gamma at each node
    of the clock ``gamma``, whose grid runs from c to d."""
    if not np.min(gamma.values) > 0.0:
        raise ValueError("gamma must be positive")
    acc = cumulative_integral(1.0 / gamma.values, gamma.h)
    return (acc[-1] - acc) / (acc[-1] - acc[0])


def solve_convexity_correction(gamma: TimeCurve, source: TimeCurve) -> TimeCurve:
    """Solve d_t(gamma d_t M) = -source with M = 0 at both ends of the grid.

    Double quadrature: gamma M' = C - int source, with C fixed by the final
    boundary value.  A nonnegative source makes M concave in the gamma clock,
    hence nonnegative; that sign is checked along with the equation residual,
    both held to ``floor_bound(CORRECTION_TOL, ...)``.
    """
    if not np.min(gamma.values) > 0.0:
        raise ValueError("gamma must be positive")
    if not np.min(source.values) >= 0.0:
        raise ValueError("source must be nonnegative")
    h = gamma.h
    accumulated = cumulative_integral(source.values, h)
    weight = 1.0 / gamma.values
    c = cumulative_integral(accumulated * weight, h)[-1] / cumulative_integral(weight, h)[-1]
    mvals = cumulative_integral((c - accumulated) * weight, h)
    mvals = mvals - mvals[-1] * uniform_grid(gamma.m)
    # boundary values are pinned exactly; the equation is certified on the
    # interior, away from the compounded one-sided stencil rows
    resid = (fd_derivative(gamma.values * fd_derivative(mvals, h, 1), h, 1) + source.values)[3:-3]
    if not float(np.max(np.abs(resid))) <= floor_bound(CORRECTION_TOL, source.values):
        raise ResidualError(
            f"correction-term residual {np.max(np.abs(resid)):.3e} exceeds tolerance"
        )
    if not float(np.min(mvals)) >= -floor_bound(CORRECTION_TOL, mvals):
        raise ResidualError("correction term went negative")
    return gamma.with_values(mvals)


@dataclass
class ConvexityReport:
    """Machine-checkable outcome of one log-convexity verification."""

    times: np.ndarray
    H: np.ndarray
    theta: np.ndarray
    M: np.ndarray
    Nval: float
    slack: np.ndarray
    conjugation_residual: float

    @property
    def h_scale(self) -> float:
        return float(np.max(self.H))

    @property
    def min_slack(self) -> float:
        return float(np.min(self.slack))


def check_log_convexity(
    traj: Trajectory,
    family: WeightFamily,
    xi: float,
    epsilon: float = 1e-6,
    tail_tol: float = DEFAULT_TAIL_TOL,
) -> ConvexityReport:
    """Verify the interpolation inequality for one trajectory and weight family.

    Builds f(t) = e^{a x^2 + b x xi - T xi^2} u(t) on the stored frames,
    evaluates d_t f - Sf - Af by frame differencing (it must reproduce V f:
    the conjugation identity is asserted numerically, not assumed), solves for
    the corrections M (its equation and sign certified) and N, and returns the
    slack of the bound at every frame.  Frames must be equispaced family nodes,
    as many as a TimeCurve needs; a window [c, d] is the trajectory sliced to it.
    """
    potential, times = traj.potential, traj.times
    grid, x = traj.grid, traj.grid.x
    rows = family.derivatives_at(times)
    gamma = TimeCurve(rows["w8"], t0=float(times[0]), t1=float(times[-1]))
    a, b, T = (rows[name][:, None] for name in ("a", "b", "T"))
    f = lambda s: np.exp(a[s] * x**2 + b[s] * x * xi - T[s] * xi**2) * traj.frames[s]
    derivatives = time_derivative_chunks(f, times)  # refuses unequal spacing before any weighting

    # each chunk's f rows give H and the tail guard from one mass call, and its d_t f is turned
    # into the defect (d_t f - S f) - A f in place, in that rounding order; only row sums are kept
    static = potential(x, float(times[0])) if potential.time_independent else None
    H, conj_gaps, defect_sq, pairing = np.empty((4, times.size))
    for chunk, fc, defect in derivatives:
        mass, scale, tail = grid.mass(fc)
        require_tail(tail, times[chunk], tail_tol)
        H[chunk] = scale**2 * mass
        columns = {name: col[chunk, None] for name, col in rows.items()}
        sf, af = conjugated_parts(fc, grid, columns, xi)
        defect -= sf
        defect -= af
        v = static if static is not None else [potential(x, float(t)) for t in times[chunk]]
        conj_gaps[chunk] = grid.norm(defect - np.multiply(v, fc))
        defect_sq[chunk] = grid.dx * np.sum(np.abs(defect) ** 2, axis=1)
        pairing[chunk] = grid.dx * np.abs(np.real(np.sum(defect * np.conj(fc), axis=1)))
    vnorm_scale = math.sqrt(np.max(H)) * (1.0 + potential.sup_norm)
    conj_rel = float(np.max(conj_gaps)) / max(vnorm_scale, 1e-300)
    if not conj_rel <= CONJUGATION_TOL:
        raise ResidualError(
            f"conjugation identity residual {conj_rel:.3e} exceeds {CONJUGATION_TOL:.1e}"
        )

    h_eps = H + epsilon
    source = gamma.with_values(gamma.values * defect_sq / h_eps)
    M = solve_convexity_correction(gamma, source)
    Nval = float(cumulative_integral(pairing / h_eps, gamma.h)[-1])

    theta = interpolation_exponent(gamma)
    rhs = h_eps[0] ** theta * h_eps[-1] ** (1.0 - theta) * np.exp(M.values + 2.0 * Nval)
    return ConvexityReport(
        times=times,
        H=H,
        theta=theta,
        M=M.values,
        Nval=Nval,
        slack=rhs - h_eps,
        conjugation_residual=conj_rel,
    )


def appell_mid_exponent(alpha: float, beta: float, gamma: float, s: float) -> float:
    """Exponent coefficient q(s) making ||e^{gamma x^2} u~(t)|| = ||e^{q(s) y^2} u(s)||
    under the Appell change of variables, with s the transformed time."""
    e = alpha * s + beta * (1.0 - s)
    return gamma * alpha * beta / e**2 + (alpha - beta) / (4.0 * e)


def appell_time_map(alpha: float, beta: float, t) -> np.ndarray:
    """s = beta t / (alpha (1 - t) + beta t)."""
    t = np.asarray(t, dtype=float)
    return beta * t / (alpha * (1.0 - t) + beta * t)


def appell_transform(
    source,
    alpha: float,
    beta: float,
    grid: SpaceGrid,
    times: np.ndarray,
) -> Trajectory:
    """Apply the parabolic change of variables

        u~(x, t) = (sqrt(ab)/D)^{1/2} u(sqrt(ab) x / D, beta t / D)
                   * exp((alpha - beta) x^2 / (4 D)),   D = alpha(1-t) + beta t,

    producing frames of u~ on ``grid`` at ``times``.  ``source`` is a callable
    u(x, s) or a stored Trajectory, whose frames are resampled band-limitedly in
    space and, between stored frames, by ``lagrange_sample``'s quartic in time;
    a mapped point or time outside the source is refused.  Heat solutions map to
    heat solutions with the rescaled potential V~, whose sup norm is at most
    max(alpha/beta, beta/alpha) ||V||.  V is a stored trajectory's own
    potential; a callable source is a free solution, so V = 0 and V~ = 0.
    """
    if not (alpha > 0.0 and beta > 0.0):
        raise ValueError("need alpha, beta > 0")
    times = np.asarray(times, dtype=float)
    x = grid.x
    frames = np.empty((times.size, grid.n), dtype=complex)

    if isinstance(source, Trajectory):
        src_l = source.grid.half_width

        def eval_source(y: np.ndarray, s: np.ndarray) -> np.ndarray:
            # resampling is linear, so interpolate the frames in time first and resample once
            return resample_periodic(lagrange_sample(source.frames, source.times, s), y, src_l)

    elif callable(source):
        def eval_source(y: np.ndarray, s: np.ndarray) -> np.ndarray:
            return np.array([source(yr, float(sr)) for yr, sr in zip(y, s)], dtype=complex)

    else:
        raise TypeError("source must be a Trajectory or a callable u(x, s)")

    root = math.sqrt(alpha * beta)
    mapped = appell_time_map(alpha, beta, times)
    for chunk in row_chunks(times.size):  # one resampling call per chunk of output times
        denom = alpha * (1.0 - times[chunk, None]) + beta * times[chunk, None]
        mult = (root / denom) ** 0.5 * np.exp((alpha - beta) * x**2 / (4.0 * denom))
        frames[chunk] = mult * eval_source(root * x / denom, mapped[chunk])

    new_potential = zero_potential()
    if isinstance(source, Trajectory) and not source.potential.is_zero:
        potential = source.potential

        def v_fn(xv, tv):
            dv = alpha * (1.0 - tv) + beta * tv
            sv = float(appell_time_map(alpha, beta, tv))
            return (alpha * beta / dv**2) * potential(root * xv / dv, sv)

        new_potential = PotentialSpec(
            fn=v_fn,
            sup_norm=max(alpha / beta, beta / alpha) * potential.sup_norm,
        )

    return Trajectory(grid=grid, times=times, frames=frames, potential=new_potential)


@dataclass
class BoundReport:
    """Weighted-norm supremum against the data norm for one trajectory."""

    times: np.ndarray
    weighted_norms: np.ndarray
    lhs_sup: float
    rhs_data: float
    ratio: float
    finite: bool


def verify_interior_bound(
    traj: Trajectory,
    R: float,
    tail_tol: float = DEFAULT_TAIL_TOL,
) -> BoundReport:
    """Supremum of ||e^{t x^2/4(t^2+R^2)} u(t)|| over the frames, divided by
    ||u(0)|| + the final-time weighted norm; the first frame must be at t = 0.

    The final-time norm is the precondition: if its integrand defeats the
    truncation the whole report is refused.  An interior frame failing the
    tail guard gets an infinite norm, which marks the report non-finite.
    ``tail_tol = inf`` measures truncated norms regardless, which is how the
    critical closed-form family (whose weighted integrand is constant in x)
    is probed.
    """
    if not 0.0 < R < math.inf:
        raise ValueError("need 0 < R < inf")
    if not traj.times[0] == 0.0:
        raise ValueError("need the first frame at t = 0")
    grid, t = traj.grid, traj.times
    norms, fraction = _weighted_rows(grid, t / (4.0 * (t**2 + R**2)), traj.frames, t[-1], tail_tol)
    rhs = float(norms[0] + norms[-1])  # the weight at t = 0 is e^0 = 1: norms[0] = ||u(0)||
    if rhs == 0.0:
        raise ValueError("||u(0)|| + the final weighted norm is 0, so the bound is undefined")
    norms[~(fraction <= tail_tol)] = np.inf
    lhs = float(np.max(norms))
    return BoundReport(
        times=traj.times.copy(),
        weighted_norms=norms,
        lhs_sup=lhs,
        rhs_data=rhs,
        ratio=lhs / rhs,
        finite=bool(np.isfinite(lhs)),
    )


@dataclass
class SharpnessReport:
    """Weighted norms of the closed-form solution on growing boxes."""

    box_widths: np.ndarray
    norms: np.ndarray
    verdict: str  # "convergent" | "divergent"
    growth_exponent: float


def _box_integral(c: float, L: float) -> float:
    """The exact integral of e^{c x^2} over [-L, L], in Python floats:
    sqrt(pi/|c|) erf(s) with s = sqrt(|c|) L for c < 0, written (2L/s)(sqrt(pi)/2) erf(s)
    where pi/|c| overflows, else the series 2 sum_k c^k L^{2k+1} / (k! (2k+1)),
    whose terms are all positive."""
    if c < 0.0:
        s = math.sqrt(-c) * L
        scale = math.sqrt(math.pi / -c) if math.pi / -c < math.inf else L * math.sqrt(math.pi) / s
        total = scale * math.erf(s)
    else:
        x2, term, total, k = c * L * L, 2.0 * L, 0.0, 0
        # past the largest term, until the rest is rounding
        while (k <= x2 or term > 1e-17 * total) and total < math.inf:
            total += term / (2 * k + 1)
            k += 1
            term *= x2 / k
    if not total < math.inf:
        raise OverflowError(f"the box integral of e^({c:.6g} x^2) on L = {L:g} exceeds float64")
    return total


def sharpness_probe(
    R: float,
    t: float,
    gamma_factor: float,
    box_widths=(8.0, 16.0, 32.0, 64.0),
) -> SharpnessReport:
    """Norms ||e^{g x^2} u_R(., t)|| with g = gamma_factor * t/4(t^2+R^2) on
    growing boxes [-L, L], from their closed form.

    |u_R|^2 = (t^2+R^2)^{-1/2} e^{-t x^2/2(t^2+R^2)}, so the weighted integrand
    is amp * exp(net x^2) with net = (gamma_factor - 1) t / 2(t^2+R^2).  The
    whole-line norm is finite exactly when net < 0, which is the verdict
    "convergent"; at net = 0 the norm grows like sqrt(2L), above it like a
    Gaussian.  The growth exponent is the log-log slope over the boxes.
    """
    for name, value in (("R", R), ("t", t)):
        if not 0.0 < value < math.inf:
            raise ValueError(f"need 0 < {name} < inf")
    if not gamma_factor > 0.0:
        raise ValueError("need gamma_factor > 0")
    boxes = np.asarray(box_widths, dtype=float)
    if boxes.size < 2:
        raise ValueError("need at least two box widths")
    amp = (t**2 + R**2) ** -0.5
    net = ((gamma_factor - 1.0) * t / 2.0) / (t**2 + R**2)  # halved first: 2(t^2 + R^2) may overflow
    norms = np.array([math.sqrt(amp * _box_integral(net, l)) for l in boxes.tolist()])
    verdict = "convergent" if net < 0.0 else "divergent"
    slope = float(np.polyfit(np.log(boxes), np.log(norms), 1)[0])
    return SharpnessReport(box_widths=boxes, norms=norms, verdict=verdict, growth_exponent=slope)
