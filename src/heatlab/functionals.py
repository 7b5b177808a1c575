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
t x^2 / 4(t^2 + R^2), and box-growth probes of its sharpness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ResidualError, TailViolation
from .grid import DEFAULT_TAIL_TOL, TAIL_START, Field, PotentialSpec, SpaceGrid, zero_potential
from .heat import Trajectory, apply_skew, apply_symmetric
from .kernels import resample_periodic
from .timecurve import TimeCurve, cumulative_integral, fd_derivative
from .weights import WeightFamily, curvature_certificate


@dataclass(frozen=True)
class WeightSlice:
    """Gaussian weight exp(a x^2 + b x xi - T xi^2) frozen at one time."""

    a: float
    b: float = 0.0
    T: float = 0.0
    xi: float = 0.0

    def exponent(self, x: np.ndarray) -> np.ndarray:
        return self.a * x**2 + self.b * x * self.xi - self.T * self.xi**2


def weighted_norm(
    field: Field,
    spec: WeightSlice,
    tail_tol: float = DEFAULT_TAIL_TOL,
    check_tail: bool = True,
) -> float:
    """|| e^{a x^2 + b x xi - T xi^2} u || by the periodic trapezoid rule.

    A weight that defeats the decay of ``u`` makes the truncated quadrature
    meaningless, so integrands with more than ``tail_tol`` of their mass in
    the outer band are rejected rather than silently truncated.
    """
    x = field.grid.x
    integrand = np.exp(2.0 * spec.exponent(x)) * np.abs(field.values) ** 2
    total = float(np.sum(integrand))
    if check_tail and total > 0.0:
        outer = float(np.sum(integrand[np.abs(x) > TAIL_START * field.grid.half_width]))
        if outer > tail_tol * total:
            raise TailViolation(
                f"weighted integrand has tail fraction {outer / total:.3e} at "
                f"t={field.time:g}: the norm is not finite at this truncation"
            )
    return math.sqrt(field.grid.dx * total)


def interpolation_exponent(t: float, c: float, d: float, gamma: TimeCurve) -> float:
    """The exponent theta(t) = int_t^d ds/gamma / int_c^d ds/gamma."""
    if not c <= t <= d:
        raise ValueError("need c <= t <= d")
    if float(np.min(gamma.values)) <= 0.0:
        raise ValueError("gamma must be positive")
    acc = gamma.with_values(cumulative_integral(1.0 / gamma.values, gamma.h))
    fc, ft, fd = acc.sample_at(np.array([c, t, d]))
    return float((fd - ft) / (fd - fc))


def solve_convexity_correction(
    gamma: TimeCurve, source: TimeCurve, residual_tol: float | None = 1e-6
) -> TimeCurve:
    """Solve d_t(gamma d_t M) = -source with M = 0 at both ends of the grid.

    Double quadrature: gamma M' = C - int source, with C fixed by the final
    boundary value.  A nonnegative source makes M concave in the gamma clock,
    hence nonnegative; that sign is checked along with the equation residual.
    """
    if float(np.min(gamma.values)) <= 0.0:
        raise ValueError("gamma must be positive")
    if float(np.min(source.values)) < 0.0:
        raise ValueError("source must be nonnegative")
    h = gamma.h
    accumulated = cumulative_integral(source.values, h)
    weight = 1.0 / gamma.values
    c = cumulative_integral(accumulated * weight, h)[-1] / cumulative_integral(weight, h)[-1]
    mvals = cumulative_integral((c - accumulated) * weight, h)
    tau = (gamma.nodes - gamma.t0) / (gamma.t1 - gamma.t0)
    mvals = mvals - mvals[-1] * tau
    m = gamma.with_values(mvals)
    if residual_tol is not None:
        # boundary values are pinned exactly; the equation is certified on the
        # interior, away from the compounded one-sided stencil rows
        resid = (
            fd_derivative(gamma.values * fd_derivative(mvals, h, 1), h, 1) + source.values
        )[3:-3]
        scale = max(1.0, float(np.max(np.abs(source.values))))
        if float(np.max(np.abs(resid))) > residual_tol * scale:
            raise ResidualError(
                f"correction-term residual {np.max(np.abs(resid)):.3e} exceeds tolerance"
            )
        if float(np.min(mvals)) < -residual_tol * max(1.0, float(np.max(np.abs(mvals)))):
            raise ResidualError("correction term went negative")
    return m


@dataclass
class ConvexityReport:
    """Machine-checkable outcome of one log-convexity verification."""

    times: np.ndarray
    H: np.ndarray
    theta: np.ndarray
    M: np.ndarray
    Nval: float
    slack: np.ndarray
    epsilon: float
    conjugation_residual: float
    curvature_verdict: str

    @property
    def h_scale(self) -> float:
        return float(np.max(self.H))

    @property
    def min_slack(self) -> float:
        return float(np.min(self.slack))

    def passes(self, tol: float = 1e-4) -> bool:
        return self.min_slack >= -tol * self.h_scale

    def to_csv(self, path) -> None:
        lines = ["t,H,theta,M,slack"]
        for i, t in enumerate(self.times):
            lines.append(
                f"{t:.12g},{self.H[i]:.12g},{self.theta[i]:.12g},"
                f"{self.M[i]:.12g},{self.slack[i]:.12g}"
            )
        Path(path).write_text("\n".join(lines) + "\n")


def weight_slices_at(family: WeightFamily, times: np.ndarray, xi: float) -> list[WeightSlice]:
    a = family.a.sample_at(times)
    b = family.b.sample_at(times)
    T = family.T.sample_at(times)
    return [WeightSlice(a=a[i], b=b[i], T=T[i], xi=xi) for i in range(times.size)]


def check_log_convexity(
    traj: Trajectory,
    family: WeightFamily,
    xi: float,
    potential: PotentialSpec | None = None,
    epsilon: float = 1e-6,
    c: float | None = None,
    d: float | None = None,
    tail_tol: float = DEFAULT_TAIL_TOL,
    conjugation_tol: float = 5e-3,
) -> ConvexityReport:
    """Verify the interpolation inequality for one trajectory and weight family.

    Builds f(t) = e^{a x^2 + b x xi - T xi^2} u(t) on the stored frames,
    evaluates d_t f - Sf - Af by frame differencing (it must reproduce V f:
    the conjugation identity is asserted numerically, not assumed), solves for
    the corrections M and N, and returns the slack of the bound at every
    frame.  Frames must be equispaced and aligned with the family grid.
    """
    if potential is None:
        potential = traj.potential
    times = traj.times
    if c is None:
        c = float(times[0])
    if d is None:
        d = float(times[-1])
    sel = np.nonzero((times >= c - 1e-12) & (times <= d + 1e-12))[0]
    times = times[sel]
    if times.size < 65:
        raise ValueError("need at least 65 stored frames in [c, d]")
    dts = np.diff(times)
    if np.max(np.abs(dts - dts[0])) > 1e-10:
        raise ValueError("frames must be equispaced in [c, d]")
    dt = float(dts[0])

    grid = traj.grid
    x = grid.x
    slices = weight_slices_at(family, times, xi)
    f_frames = np.empty((times.size, grid.n), dtype=complex)
    for i, idx in enumerate(sel):
        f_frames[i] = np.exp(slices[i].exponent(x)) * traj.frames[idx]
        Field(grid=grid, values=f_frames[i], time=float(times[i])).require_tail(tail_tol)

    H = grid.dx * np.sum(np.abs(f_frames) ** 2, axis=1)

    # d_t f - S f - A f, frame by frame
    dfdt = fd_derivative(f_frames, dt)
    defect = np.empty_like(f_frames)
    conj_gaps = np.empty(times.size)
    vnorm_scale = 0.0
    for i, t in enumerate(times):
        f_i = Field(grid=grid, values=f_frames[i], time=float(t))
        sf = apply_symmetric(f_i, family, float(t), xi).values
        af = apply_skew(f_i, family, float(t), xi).values
        defect[i] = dfdt[i] - sf - af
        vf = potential(x, float(t)) * f_frames[i]
        vnorm_scale = max(vnorm_scale, grid.norm(f_frames[i]) * (1.0 + potential.sup_norm))
        conj_gaps[i] = grid.norm(defect[i] - vf)
    conj_rel = float(np.max(conj_gaps)) / max(vnorm_scale, 1e-300)
    if not conj_rel <= conjugation_tol:
        raise ResidualError(
            f"conjugation identity residual {conj_rel:.3e} exceeds {conjugation_tol:.1e}"
        )

    gamma = TimeCurve(np.exp(8.0 * family.A.sample_at(times)), t0=float(times[0]), t1=float(times[-1]))
    defect_sq = grid.dx * np.sum(np.abs(defect) ** 2, axis=1)
    source = gamma.with_values(gamma.values * defect_sq / (H + epsilon))
    M = solve_convexity_correction(gamma, source, residual_tol=None)

    pairing = grid.dx * np.abs(np.real(np.sum(defect * np.conj(f_frames), axis=1)))
    Nval = float(cumulative_integral(pairing / (H + epsilon), dt)[-1])

    inv_acc = cumulative_integral(1.0 / gamma.values, dt)
    theta = (inv_acc[-1] - inv_acc) / inv_acc[-1]
    rhs = (
        (H[0] + epsilon) ** theta
        * (H[-1] + epsilon) ** (1.0 - theta)
        * np.exp(M.values + 2.0 * Nval)
    )
    slack = rhs - (H + epsilon)

    cert = curvature_certificate(family.a, family.A)
    return ConvexityReport(
        times=times,
        H=H,
        theta=theta,
        M=M.values,
        Nval=Nval,
        slack=slack,
        epsilon=epsilon,
        conjugation_residual=conj_rel,
        curvature_verdict=cert.verdict,
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
    potential: PotentialSpec | None = None,
    source_half_width: float | None = None,
    tail_tol: float = DEFAULT_TAIL_TOL,
) -> Trajectory:
    """Apply the parabolic change of variables

        u~(x, t) = (sqrt(ab)/D)^{1/2} u(sqrt(ab) x / D, beta t / D)
                   * exp((alpha - beta) x^2 / (4 D)),   D = alpha(1-t) + beta t,

    producing frames of u~ on ``grid`` at ``times``.  ``source`` is either a
    callable u(x, s) or a stored Trajectory; trajectory frames are resampled
    band-limitedly in space and, when the mapped time falls between stored
    frames, interpolated by a local quartic in time.  Heat solutions map to
    heat solutions with the rescaled potential V~, whose sup norm is at most
    max(alpha/beta, beta/alpha) ||V||.
    """
    if alpha <= 0.0 or beta <= 0.0:
        raise ValueError("need alpha, beta > 0")
    times = np.asarray(times, dtype=float)
    x = grid.x
    frames = np.empty((times.size, grid.n), dtype=complex)
    flags = np.empty(times.size, dtype=bool)

    if isinstance(source, Trajectory):
        src_l = source.grid.half_width

        def eval_source(y: np.ndarray, s: float) -> np.ndarray:
            if np.max(np.abs(y)) > src_l * (1.0 + 1e-12):
                raise ValueError(
                    f"mapped points reach |y| = {np.max(np.abs(y)):.3g} outside the "
                    f"source box [-{src_l:g}, {src_l:g}]"
                )
            gaps = np.abs(source.times - s)
            j = int(np.argmin(gaps))
            if gaps[j] < 1e-11:
                return resample_periodic(source.frames[j], y, src_l)
            # local quartic in time through the five nearest frames
            lo = min(max(j - 2, 0), source.times.size - 5)
            vals = np.stack(
                [resample_periodic(source.frames[lo + k], y, src_l) for k in range(5)]
            )
            ts = source.times[lo : lo + 5]
            out = np.zeros_like(vals[0])
            for k in range(5):
                lk = np.prod([(s - ts[r]) / (ts[k] - ts[r]) for r in range(5) if r != k])
                out += lk * vals[k]
            return out

    elif callable(source):
        if source_half_width is not None:
            limit = source_half_width

            def eval_source(y, s, _fn=source):
                if np.max(np.abs(y)) > limit * (1.0 + 1e-12):
                    raise ValueError("mapped points leave the declared source domain")
                return np.asarray(_fn(y, s), dtype=complex)

        else:

            def eval_source(y, s, _fn=source):
                return np.asarray(_fn(y, s), dtype=complex)

    else:
        raise TypeError("source must be a Trajectory or a callable u(x, s)")

    root = math.sqrt(alpha * beta)
    for i, t in enumerate(times):
        denom = alpha * (1.0 - t) + beta * t
        s = beta * t / denom
        y = root * x / denom
        mult = (root / denom) ** 0.5 * np.exp((alpha - beta) * x**2 / (4.0 * denom))
        frames[i] = mult * eval_source(y, float(s))
        flags[i] = Field(grid=grid, values=frames[i], time=float(t)).tail_ok(tail_tol)

    if potential is not None and not potential.is_zero:

        def v_fn(xv, tv, _p=potential):
            dv = alpha * (1.0 - tv) + beta * tv
            sv = beta * tv / dv
            return (alpha * beta / dv**2) * _p(root * xv / dv, float(sv))

        new_potential = PotentialSpec(
            fn=v_fn,
            sup_norm=max(alpha / beta, beta / alpha) * potential.sup_norm,
            label=f"appell({potential.label})",
        )
    else:
        new_potential = zero_potential()

    return Trajectory(
        grid=grid, times=times, frames=frames, tail_flags=flags, potential=new_potential
    )


@dataclass
class BoundReport:
    """Weighted-norm supremum against the data norm for one trajectory."""

    times: np.ndarray
    weighted_norms: np.ndarray
    lhs_sup: float
    rhs_data: float
    ratio: float
    finite: bool
    R: float

    @property
    def argmax_time(self) -> float:
        return float(self.times[int(np.argmax(self.weighted_norms))])

    def to_csv(self, path) -> None:
        lines = ["t,weighted_norm"]
        for t, v in zip(self.times, self.weighted_norms):
            lines.append(f"{t:.12g},{v:.12g}")
        Path(path).write_text("\n".join(lines) + "\n")


def verify_interior_bound(
    traj: Trajectory,
    R: float,
    tail_tol: float = DEFAULT_TAIL_TOL,
    check_tail: bool = True,
) -> BoundReport:
    """Supremum of ||e^{t x^2/4(t^2+R^2)} u(t)|| over frames, divided by
    ||u(0)|| + the final-time weighted norm.

    The final-time norm is the precondition: if its integrand defeats the
    truncation the whole report is refused.  An interior frame failing the
    tail guard marks the report non-finite instead.  ``check_tail=False``
    measures truncated norms regardless, which is how the critical closed-form
    family (whose weighted integrand is constant in x) is probed.
    """
    if R <= 0.0:
        raise ValueError("need R > 0")
    t_end = float(traj.times[-1])
    final = weighted_norm(
        traj.field(traj.n_frames - 1),
        WeightSlice(a=t_end / (4.0 * (t_end**2 + R**2))),
        tail_tol=tail_tol,
        check_tail=check_tail,
    )
    norms = np.empty(traj.n_frames)
    finite = True
    for i in range(traj.n_frames):
        t = float(traj.times[i])
        spec = WeightSlice(a=t / (4.0 * (t**2 + R**2)))
        try:
            norms[i] = weighted_norm(traj.field(i), spec, tail_tol=tail_tol, check_tail=check_tail)
        except TailViolation:
            norms[i] = np.inf
            finite = False
    rhs = traj.field(0).norm() + final
    lhs = float(np.max(norms))
    return BoundReport(
        times=traj.times.copy(),
        weighted_norms=norms,
        lhs_sup=lhs,
        rhs_data=rhs,
        ratio=lhs / rhs,
        finite=finite and np.isfinite(lhs),
        R=R,
    )


@dataclass
class SharpnessReport:
    """Weighted norms of the closed-form solution on growing boxes."""

    R: float
    t: float
    gamma_factor: float
    box_widths: np.ndarray
    norms: np.ndarray
    verdict: str  # "convergent" | "divergent"
    growth_exponent: float

    def to_csv(self, path) -> None:
        lines = ["L,norm"]
        for l, v in zip(self.box_widths, self.norms):
            lines.append(f"{l:.12g},{v:.12g}")
        Path(path).write_text("\n".join(lines) + "\n")


def sharpness_probe(
    R: float,
    t: float,
    gamma_factor: float,
    box_widths=(8.0, 16.0, 32.0, 64.0),
    points_per_unit: float = 48.0,
    cauchy_tol: float = 1e-6,
) -> SharpnessReport:
    """Norms ||e^{g x^2} u_R(., t)|| with g = gamma_factor * t/4(t^2+R^2) on
    growing boxes.

    Below the critical factor the sequence is Cauchy; at the critical factor
    the integrand modulus is constant in x and the norm grows like sqrt(2L);
    above it the growth is Gaussian.  The verdict is "convergent" exactly when
    the relative increments stay below ``cauchy_tol``; the growth exponent is
    the log-log slope over the boxes.
    """
    if gamma_factor <= 0.0:
        raise ValueError("need gamma_factor > 0")
    boxes = np.asarray(box_widths, dtype=float)
    # |u_R|^2 = (t^2+R^2)^{-1/2} e^{-t x^2/2(t^2+R^2)}, so the weighted
    # integrand is amp * exp(net x^2); combining the exponents first keeps the
    # supercritical probes finite in float arithmetic.
    amp = (t**2 + R**2) ** -0.5
    net = (gamma_factor - 1.0) * t / (2.0 * (t**2 + R**2))
    norms = np.empty(boxes.size)
    for i, l in enumerate(boxes):
        n = 1 << max(8, int(math.ceil(math.log2(points_per_unit * 2.0 * l))))
        dx = 2.0 * l / n
        x = -l + dx * np.arange(n)
        norms[i] = math.sqrt(dx * amp * float(np.sum(np.exp(net * x**2))))
    increments = np.abs(np.diff(norms)) / norms[1:]
    # Cauchy within tol = the tail increment has stabilized
    verdict = "convergent" if increments[-1] <= cauchy_tol else "divergent"
    slope = float(np.polyfit(np.log(boxes), np.log(norms), 1)[0])
    return SharpnessReport(
        R=R,
        t=t,
        gamma_factor=gamma_factor,
        box_widths=boxes,
        norms=norms,
        verdict=verdict,
        growth_exponent=slope,
    )
