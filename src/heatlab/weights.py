"""Time-dependent Gaussian weight families and their fixed-point refinement.

A family packs four curves (a, A, b, T) on [0, 1]: ``a`` is the coefficient of
x^2 in the exponent of the moving Gaussian weight exp(a x^2 + b x*xi - T xi^2),
``A`` is the antiderivative of ``a`` vanishing at the final time, ``b`` couples
x to the frequency parameter xi and ``T`` balances the xi^2 direction.  The
defining two-point problems are

    (e^{8A} b)'' = 2 (e^{8A} a)'',        b(0) = b(1) = 0,
    (e^{8A} T')' = 2 (e^{8A} b^2)' - (e^{8A} a)'',   T(0) = T(1) = 0,

and the usable families are exactly those with (e^{8A} a)'' >= 0.  Both
problems reduce to quadratures, which is how they are solved here; the
discrete equation residuals, read from each family's derivative table, double
as independent certificates (:meth:`WeightFamily.certify_equations`).

Starting from a(t) = t/(delta+2-2t)^2 the refinement step

    a_next = a + b^2 / (8 (int_0^t b^2 + N))

drives b to zero monotonically; the limit satisfies a e^{8A} = t/delta^2 in
closed form, a(t) = t / (4 (t^2 + R^2)) with R^2 = delta^2/4 - 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from functools import cached_property

import numpy as np

from .errors import CertificationError, ResidualError
from .timecurve import TimeCurve, _read_only, cumulative_integral, fd_derivative, uniform_grid

DEFAULT_M = 512
DEFAULT_RESIDUAL_TOL = 1e-6
DEFAULT_RECERT_TOL = 1e-4  # the chain's per-step curvature and rate tolerance


def grid_tol(tol: float, m: int) -> float:
    """Residual tolerance rescaled to the grid: the defaults are calibrated at
    M = 512 and truncation shrinks like h^4, so coarser grids get more room."""
    return tol * max(1.0, (DEFAULT_M / m) ** 4)


def _rate_drift(a: np.ndarray, A: np.ndarray, h: float) -> tuple[float, bool]:
    """``(max |A' - a|, ok)``, ok when the drift is within max(tol, 100 tol max|a|)
    for tol = ``DEFAULT_RESIDUAL_TOL``; a NaN drift is not ok."""
    drift = float(np.abs(fd_derivative(A, h, 1) - a).max())
    tol = DEFAULT_RESIDUAL_TOL
    return drift, drift <= max(tol, 100 * tol * np.abs(a).max())


def floor_bound(tol: float, *scales) -> float:
    """``tol`` times max(1, the largest |value| among ``scales``): the one bound of
    every residual, sign and curvature check.  A NaN scale counts as 1, so a NaN
    value still fails its check, which is written "not (value within bound)"."""
    return tol * max(1.0, *[float(np.abs(s).max()) for s in scales])


def antiderivative(curve: TimeCurve) -> TimeCurve:
    """Antiderivative normalized to vanish at the final node."""
    acc = cumulative_integral(curve.values, curve.h)
    return curve.with_values(acc - acc[-1])


def first_family_rate(delta: float, m: int = DEFAULT_M) -> TimeCurve:
    """The seed rate a(t) = t / (delta + 2 - 2t)^2 on [0, 1]."""
    t = uniform_grid(m)
    return TimeCurve(t / (delta + 2.0 - 2.0 * t) ** 2)


def _growth_columns(a: np.ndarray, A: np.ndarray, h: float) -> dict[str, np.ndarray]:
    """a', a'', the clock ``w8`` = e^{8A} and (e^{8A} a)'' along two routes:
    ``ident`` by the product-rule identity e^{8A} (a'' + 24 a a' + 64 a^3),
    ``direct`` by a second difference of e^{8A} a."""
    ap = fd_derivative(a, h, 1)
    app = fd_derivative(a, h, 2)
    w8 = np.exp(8.0 * A)
    ident = w8 * (app + 24.0 * a * ap + 64.0 * a**3)
    direct = fd_derivative(w8 * a, h, 2)
    return {"ap": ap, "app": app, "w8": w8, "ident": ident, "direct": direct}


@dataclass(frozen=True)
class CurvatureCertificate:
    """Nodewise record of (e^{8A} a)'' computed along two independent routes."""

    min_identity: float
    max_route_gap: float
    verdict: str  # "positive" | "nonnegative" | "failed"
    bound: float  # tol times the curvature scale, which the gap and the minimum are held to


def _certify(ident: np.ndarray, direct: np.ndarray, tol: float) -> CurvatureCertificate:
    """Verdict on the interior nodes of the two routes to (e^{8A} a)''.

    The routes must agree within ``tol`` times the curvature scale, otherwise
    the grid is too coarse and the verdict is "failed"; a NaN fails too.
    """
    ident, direct = ident[1:-1], direct[1:-1]
    bound = floor_bound(tol, ident)
    gap = float(np.abs(ident - direct).max())
    min_ident = float(ident.min())
    verdict = "failed"
    if gap <= bound and min_ident >= -bound:
        verdict = "positive" if min_ident > bound else "nonnegative"
    return CurvatureCertificate(min_ident, gap, verdict, bound)


def curvature_certificate(
    a: TimeCurve, A: TimeCurve, tol: float = DEFAULT_RESIDUAL_TOL
) -> CurvatureCertificate:
    """Certify convexity of e^{8A} a by cross-checked interior curvature:
    the product-rule identity against a direct second difference of e^{8A} a.
    A family reads the same certificate from its table."""
    cols = _growth_columns(a.values, A.values, a.h)
    return _certify(cols["ident"], cols["direct"], tol)


def solve_cross(a: np.ndarray, em8: np.ndarray, t: np.ndarray, delta: float) -> np.ndarray:
    """Cross coefficient b with b(0) = b(1) = 0 at the nodes ``t``, by the closed
    form b = 2 (a - t e^{-8A} / delta^2) from a and ``em8`` = e^{-8A}.
    :meth:`WeightFamily.certify_equations` checks it against the defining equation."""
    if not (abs(a[0]) <= 1e-12 and abs(a[-1] - 1.0 / delta**2) <= 1e-9):
        raise ValueError(
            "boundary data violated: need a(0) = 0 and a(1) = 1/delta^2, got "
            f"a(0)={a[0]:g}, a(1)={a[-1]:g}"
        )
    return 2.0 * (a - t * em8 / delta**2)


def solve_cross_bvp(a: TimeCurve, A: TimeCurve) -> TimeCurve:
    """Cross coefficient by direct numerical solution of the two-point problem.

    Double quadrature of the second difference of e^{8A} a, with the linear
    part fixed by the zero boundary values.  Independent of the closed form;
    used to cross-check it.
    """
    w = np.exp(8.0 * A.values)
    g = fd_derivative(w * a.values, a.h, 2)
    g2 = cumulative_integral(cumulative_integral(g, a.h), a.h)
    return a.with_values(2.0 * (g2 - g2[-1] * uniform_grid(a.m)) / w)


def cross_energy(b: np.ndarray, h: float) -> np.ndarray:
    """int_0^t b^2 at the nodes, the one quadrature of b that T, N and a step read."""
    return cumulative_integral(b**2, h)


def solve_freq(a: np.ndarray, em8: np.ndarray, int_b2: np.ndarray, h: float) -> np.ndarray:
    """Frequency coefficient T with T = 0 at both ends, from a, ``em8`` = e^{-8A}
    and ``int_b2`` = cross_energy(b) on a grid of spacing ``h``.

    First integral of the defining equation plus the boundary fit:
    T = 2 int b^2 - (a - a(t0)) - 8 int a^2 + C int e^{-8A}, with C chosen so
    the final value vanishes.  :meth:`WeightFamily.certify_equations` checks
    it against the defining equation.
    """
    int_a2 = cumulative_integral(a**2, h)
    int_em = cumulative_integral(em8, h)
    c = (a[-1] - a[0] - 2.0 * int_b2[-1] + 8.0 * int_a2[-1]) / int_em[-1]
    tvals = 2.0 * int_b2 - (a - a[0]) - 8.0 * int_a2 + c * int_em
    return tvals - tvals[-1] * uniform_grid(a.size - 1)  # pin the endpoint exactly


@dataclass(frozen=True)
class WeightFamily:
    """A certified quadruple (a, A, b, T) for one delta, built only by ``_complete``."""

    delta: float
    a: TimeCurve
    A: TimeCurve
    b: TimeCurve
    T: TimeCurve

    @cached_property
    def derivatives(self) -> dict[str, np.ndarray]:
        """Read-only nodewise table, built once per family: a, b, T and their
        first and second time derivatives (keys ``a, ap, app, b, bp, bpp, T,
        Tp, Tpp``), the clock ``w8`` = e^{8A}, (e^{8A} a)'' along two routes
        (``ident`` by the product rule, ``direct`` by a second difference of
        e^{8A} a) and ``cross`` = (e^{8A} b)''."""
        table = {"a": self.a.values.view(), **_growth_columns(self.a.values, self.A.values, self.a.h)}
        for name, curve in (("b", self.b), ("T", self.T)):
            table[name] = curve.values.view()
            table[name + "p"] = fd_derivative(curve.values, curve.h, 1)
            table[name + "pp"] = fd_derivative(curve.values, curve.h, 2)
        table["cross"] = fd_derivative(table["w8"] * table["b"], self.b.h, 2)
        return {name: _read_only(col) for name, col in table.items()}

    def derivatives_at(self, t) -> dict:
        """Rows of :attr:`derivatives` at the node time ``t``: scalars for a
        scalar ``t``, columns for an array of node times; off-node times raise."""
        i = self.a.node_index(t)
        return {name: col[i] for name, col in self.derivatives.items()}

    def certificate(self, tol: float = DEFAULT_RESIDUAL_TOL) -> CurvatureCertificate:
        """:func:`curvature_certificate` of (a, A), read from the table."""
        return _certify(self.derivatives["ident"], self.derivatives["direct"], tol)

    def certify_equations(self, tol: float = DEFAULT_RESIDUAL_TOL) -> None:
        """Check b and T against their defining equations: each residual of
        :func:`coefficient_residuals` stays within ``floor_bound(grid_tol(tol, m),
        *terms)`` (ResidualError), and T dips below ``-floor_bound(tol, T)`` at no
        interior node (CertificationError: inconsistent inputs).
        """
        for name, (resid, terms) in _collapse_residuals(self).items():
            if not float(np.max(np.abs(resid))) <= floor_bound(grid_tol(tol, self.a.m), *terms):
                raise ResidualError(
                    f"{name}-coefficient residual {np.max(np.abs(resid)):.3e} exceeds tolerance"
                )
        if not np.min(self.T.values[1:-1]) >= -floor_bound(tol, self.T.values):
            raise CertificationError(
                f"sign failure: interior minimum {np.min(self.T.values[1:-1]):.3e} < 0 "
                "signals inconsistent inputs"
            )

    def validate(self, strict_signs: bool = False) -> None:
        """Check the structural invariants at ``DEFAULT_RESIDUAL_TOL``; raise
        CertificationError on failure.

        ``strict_signs`` additionally requires b < 0 and T > 0 at interior
        nodes, which holds for every refinement iterate but degenerates for
        the closed-form limit (b = 0 there).
        """
        a, A, b, T = self.a, self.A, self.b, self.T
        problems = []
        # every check is written "not (value <= bound)", so a NaN fails it
        if not abs(A.values[-1]) <= 1e-12:
            problems.append("A does not vanish at the final node")
        if not _rate_drift(a.values, A.values, A.h)[1]:
            problems.append("A' differs from a beyond tolerance")
        if not abs(a.values[0]) <= 1e-12:
            problems.append("a(0) != 0")
        if not abs(a.values[-1] - 1.0 / self.delta**2) <= 1e-9:
            problems.append("a(1) != 1/delta^2")
        for name, curve in (("b", b), ("T", T)):
            if not np.max(np.abs(curve.values[[0, -1]])) <= 1e-10:
                problems.append(f"{name} does not vanish at the endpoints")
        cert = self.certificate()
        if cert.verdict == "failed":
            problems.append(f"curvature certificate failed (min {cert.min_identity:.3e})")
        if strict_signs:
            if not np.max(b.values[1:-1]) < 0.0:
                problems.append("b is not strictly negative on the interior")
            if not np.min(T.values[1:-1]) > 0.0:
                problems.append("T is not strictly positive on the interior")
        else:
            if not np.max(b.values[1:-1]) <= floor_bound(DEFAULT_RESIDUAL_TOL, b.values):
                problems.append("b has a positive interior excursion")
            if not np.min(T.values[1:-1]) >= -floor_bound(DEFAULT_RESIDUAL_TOL, T.values):
                problems.append("T has a negative interior excursion")
        if problems:
            raise CertificationError("; ".join(problems))


def _complete(delta: float, a: TimeCurve, A: TimeCurve, b: np.ndarray, em8: np.ndarray,
              tol: float = DEFAULT_RESIDUAL_TOL) -> WeightFamily:
    """The family (a, A, b, T) with T solved from a, e^{-8A} and b, returned only
    once :meth:`WeightFamily.certify_equations` passes at ``tol``."""
    T = solve_freq(a.values, em8, cross_energy(b, a.h), a.h)
    family = WeightFamily(delta, a, A, a.with_values(b), a.with_values(T))
    family.certify_equations(tol)
    return family


def family_from_rate(
    delta: float, a: TimeCurve, residual_tol: float = DEFAULT_RESIDUAL_TOL
) -> WeightFamily:
    """Complete a rate curve into a full family, with A = antiderivative(a),
    by solving for b and T; the family is certified at ``residual_tol``."""
    A = antiderivative(a)
    em8 = np.exp(-8.0 * A.values)
    return _complete(delta, a, A, solve_cross(a.values, em8, a.nodes, delta), em8, residual_tol)


def quadratic_form_coefficients(
    family: WeightFamily,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodewise coefficients (c_xx, c_xxi, c_xixi) of the commutator form

        c_xx x^2 + c_xxi x·xi + c_xixi xi^2,

    so that the collapse to (e^{8A} a)'' (x + xi)^2 is a genuine numerical
    check.  The xi^2 coefficient 2 (e^{8A} b^2)' - (e^{8A} T')' is expanded by
    the product rule, e^{8A} (16 a b^2 + 4 b b' - T'' - 8 a T'), so that every
    derivative is a single stencil application: composing two stencil passes
    would degrade one order at the one-sided/centered row junctions.
    """
    d = family.derivatives
    a, b = d["a"], d["b"]
    c_xixi = d["w8"] * (16.0 * a * b**2 + 4.0 * b * d["bp"] - d["Tpp"] - 8.0 * a * d["Tp"])
    return d["direct"], d["cross"], c_xixi


def _collapse_residuals(family: WeightFamily) -> dict[str, tuple[np.ndarray, tuple]]:
    """The two residuals of :func:`coefficient_residuals` by equation name,
    each with the two terms it is the difference of."""
    _, c_xxi, c_xixi = quadratic_form_coefficients(family)
    ident = family.derivatives["ident"]
    twice = 2.0 * ident
    return {"cross": (c_xxi - twice, (c_xxi, twice)), "frequency": (c_xixi - ident, (c_xixi, ident))}


def coefficient_residuals(family: WeightFamily) -> tuple[TimeCurve, TimeCurve]:
    """Residuals certifying that the commutator form collapses to a square.

    r1 = (e^{8A} b)'' - 2 (e^{8A} a)''  and
    r2 = 2 (e^{8A} b^2)' - (e^{8A} T')' - (e^{8A} a)'', with the growth term
    evaluated through the product-rule identity so the comparison carries
    genuine truncation error at the stencil order.
    """
    r1, r2 = (family.a.with_values(resid) for resid, _ in _collapse_residuals(family).values())
    return r1, r2


def minimal_stabilizer(b: np.ndarray, T: np.ndarray, int_b2: np.ndarray) -> float:
    """Smallest N >= 1 with N + b/2 >= 1 and T <= 2 (int_b2 + N) nodewise."""
    # np.maximum, unlike builtin max, propagates a NaN node
    return float(np.maximum(np.maximum(1.0, (1.0 - b / 2.0).max()), (T / 2.0 - int_b2).max()))


def refine_pair(
    a: np.ndarray, A: np.ndarray, b: np.ndarray, int_b2: np.ndarray, stabilizer: float, h: float
) -> tuple[np.ndarray, np.ndarray]:
    """One refinement step of (a, A) on a grid of spacing ``h``, driven by b and
    ``int_b2`` = cross_energy(b):

    a_next = a + b^2 / (8 (int_0^t b^2 + N)) and
    A_next = A + (log(int_0^t b^2 + N) - log(int_0^1 b^2 + N)) / 8.
    That A_next' = a_next is asserted to the construction-time residual
    tolerance, not assumed.
    """
    if not stabilizer >= 1.0:
        raise ValueError("stabilizer must be >= 1")
    energy = int_b2 + stabilizer
    a_next = a + b**2 / (8.0 * energy)
    A_next = A + (np.log(energy) - math.log(energy[-1])) / 8.0
    drift, ok = _rate_drift(a_next, A_next, h)
    if not ok:
        raise ValueError(f"consistency failure: |A_next' - a_next| = {drift:.3e}")
    return a_next, A_next


def limit_rate(delta: float, m: int = DEFAULT_M) -> tuple[TimeCurve, TimeCurve]:
    """Closed-form limit rate a(t) = t / (4 (t^2 + R^2)) on [0, 1] and its
    antiderivative, for delta > 2 (R^2 = delta^2/4 - 1 > 0).  Hardy's threshold
    delta = 2 is refused: there the rate 1/(4t) is unbounded at t = 0."""
    if not delta > 2.0:
        raise ValueError("need delta > 2")
    r2 = delta**2 / 4.0 - 1.0
    t = uniform_grid(m)
    a = TimeCurve(t / (4.0 * (t**2 + r2)))
    A = TimeCurve(np.log(4.0 * (t**2 + r2) / delta**2) / 8.0)
    return a, A


def limit_family(delta: float, m: int = DEFAULT_M) -> WeightFamily:
    """The fixed-point family: b = 0, a e^{8A} = t/delta^2 at every node.

    The frequency coefficient degenerates to T = 0 here (its first integral is
    const/(t^2 + R^2) and the zero boundary values kill the constant).  It is
    certified as :func:`family_from_rate` certifies; delta must exceed 2.
    """
    a, A = limit_rate(delta, m)
    relation = a.values * np.exp(8.0 * A.values) - a.nodes / delta**2
    if not np.max(np.abs(relation)) <= 1e-12:
        raise CertificationError("closed-form limit violates a e^{8A} = t/delta^2")
    return _complete(delta, a, A, np.zeros(m + 1), np.exp(-8.0 * A.values))


@dataclass
class RefinementTrace:
    """Per-step record of the fixed-point refinement; ``families`` holds the
    stored iterates, each certified by its equations at ``DEFAULT_RECERT_TOL``."""

    stabilizer: float
    converged: bool
    steps_run: int
    sup_cross: np.ndarray  # sup |b_k| for k = 1..steps_run
    rate_margin: np.ndarray  # min (a_k' + 4 a_k^2) for k = 1..steps_run
    gap_to_limit: np.ndarray  # sup |a_k - a_limit| for k = 1..steps_run
    families: list[WeightFamily] = dataclass_field(default_factory=list)
    stored_steps: list[int] = dataclass_field(default_factory=list)

    @property
    def final_gap(self) -> float:
        return float(self.gap_to_limit[-1])

    @property
    def final_sup_cross(self) -> float:
        return float(self.sup_cross[-1])


def run_refinement(
    delta: float,
    max_steps: int,
    tol: float = 1e-5,
    m: int = DEFAULT_M,
    store_every: int = 0,
) -> RefinementTrace:
    """Drive the refinement from the seed family until sup|b| <= tol.

    Every iterate is recertified: strict curvature positivity, chain
    monotonicity, the ceiling 1/(delta^2 - 4) and the rate inequality
    a' + 4a^2 >= 0; a violation raises CertificationError.  The iterates
    steepen near t = 1 as the step count grows, so the per-step curvature
    cross-check runs at ``DEFAULT_RECERT_TOL`` rather than the construction-time
    residual tolerance.  If ``tol`` is not reached within ``max_steps`` the
    trace comes back with ``converged = False`` as a diagnostic rather than
    an error.  ``store_every`` = s > 0 keeps the families of step 1, every
    s-th step after it and the last step, each certified by its equations at
    ``DEFAULT_RECERT_TOL``; by default none are kept.  Steps run on bare
    arrays; no iterate is formed after the last step.
    """
    a_lim = limit_rate(delta, m)[0].values  # refuses delta <= 2, a NaN too
    if max_steps < 1:
        raise ValueError("need max_steps >= 1")
    seed = first_family_rate(delta, m)
    t, h = seed.nodes, seed.h
    a, A = seed.values, antiderivative(seed).values
    ceiling = 1.0 / (delta**2 - 4.0)

    sup_cross: list[float] = []
    margins: list[float] = []
    gaps: list[float] = []
    families: list[WeightFamily] = []
    stored: list[int] = []
    stabilizer = 1.0
    prev_a: np.ndarray | None = None

    for k in range(1, max_steps + 1):
        em8 = np.exp(-8.0 * A)  # shared by both solves
        b = solve_cross(a, em8, t, delta)
        int_b2 = cross_energy(b, h)
        T = solve_freq(a, em8, int_b2, h)
        cols = _growth_columns(a, A, h)
        cert = _certify(cols["ident"], cols["direct"], DEFAULT_RECERT_TOL)
        if cert.verdict != "positive":
            raise CertificationError(
                f"convexity certificate failed at step {k}: {cert.verdict} (route gap "
                f"{cert.max_route_gap:.3e}, interior minimum {cert.min_identity:.3e}, "
                f"bound DEFAULT_RECERT_TOL x scale = {cert.bound:.3e})"
            )
        # each check is written "not (value within bound)", so a NaN fails it
        if not a.max() <= ceiling + DEFAULT_RECERT_TOL:
            raise CertificationError(f"chain ceiling exceeded at step {k}")
        margin = float((cols["ap"] + 4.0 * a**2).min())
        if not margin >= -DEFAULT_RECERT_TOL:
            raise CertificationError(f"rate inequality a' + 4a^2 >= 0 failed at step {k}")
        if prev_a is not None and not (a[1:-1] - prev_a[1:-1]).min() >= 0.0:
            raise CertificationError(f"chain violation: a_{k} < a_{k-1} somewhere")
        sup_cross.append(float(np.abs(b).max()))
        margins.append(margin)
        gaps.append(float(np.abs(a - a_lim).max()))
        converged = sup_cross[-1] <= tol
        if store_every > 0 and ((k - 1) % store_every == 0 or converged or k == max_steps):
            curves = (seed.with_values(a), seed.with_values(A))
            families.append(_complete(delta, *curves, b, em8, DEFAULT_RECERT_TOL))
            stored.append(k)
        if converged:
            break
        stabilizer = max(stabilizer, minimal_stabilizer(b, T, int_b2))
        if k == max_steps:  # no iterate after the last step
            break
        prev_a = a
        a, A = refine_pair(a, A, b, int_b2, stabilizer, h)

    return RefinementTrace(
        stabilizer=stabilizer, converged=converged, steps_run=k,
        sup_cross=np.array(sup_cross), rate_margin=np.array(margins),
        gap_to_limit=np.array(gaps), families=families, stored_steps=stored,
    )
