import ast
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from heatlab import weights as wt
from heatlab.errors import CertificationError, ResidualError
from heatlab.timecurve import TimeCurve, fd_derivative, lagrange_sample, uniform_grid
from heatlab.weights import (
    WeightFamily,
    antiderivative,
    coefficient_residuals,
    cross_energy,
    curvature_certificate,
    family_from_rate,
    first_family_rate,
    limit_family,
    minimal_stabilizer,
    quadratic_form_coefficients,
    refine_pair,
    run_refinement,
    solve_cross,
    solve_cross_bvp,
    solve_freq,
)
from heatlab.weights import limit_rate


def test_antiderivative_zero_and_constant():
    zero = TimeCurve(np.zeros(129))
    assert np.max(np.abs(antiderivative(zero).values)) == 0.0
    one = TimeCurve(np.ones(129))
    t = one.nodes
    assert np.max(np.abs(antiderivative(one).values - (t - 1.0))) < 1e-14


def test_solve_cross_rejects_bad_boundary_data():
    zero = TimeCurve(np.zeros(129))
    with pytest.raises(ValueError, match="boundary data"):
        solve_cross(zero.values, np.ones(129), zero.nodes, 3.0)


def test_fixed_point_family_has_zero_cross_coefficient():
    fam = limit_family(3.0)
    assert np.max(np.abs(fam.b.values)) == 0.0
    relation = fam.a.values * fam.derivatives["w8"] - fam.a.nodes / 9.0
    assert np.max(np.abs(relation)) < 1e-12


def test_derivative_table_matches_fresh_differences(family3):
    table = family3.derivatives
    assert table is family3.derivatives  # built once per family
    h = family3.a.h
    for name, curve in (("a", family3.a), ("b", family3.b), ("T", family3.T)):
        assert np.array_equal(table[name], curve.values)
        assert np.array_equal(table[name + "p"], fd_derivative(curve.values, h, 1))
        assert np.array_equal(table[name + "pp"], fd_derivative(curve.values, h, 2))
    assert np.array_equal(table["w8"], np.exp(8.0 * family3.A.values))
    ap = fd_derivative(family3.a.values, h, 1)
    app = fd_derivative(family3.a.values, h, 2)
    ident = table["w8"] * (app + 24.0 * family3.a.values * ap + 64.0 * family3.a.values**3)
    assert np.array_equal(table["ident"], ident)
    assert np.array_equal(table["direct"], fd_derivative(table["w8"] * family3.a.values, h, 2))
    assert np.array_equal(table["cross"], fd_derivative(table["w8"] * family3.b.values, h, 2))
    assert not table["ap"].flags.writeable


def test_cross_closed_form_value_against_quadrature(family3):
    # independent evaluation of b(1/2) through adaptive quadrature of the rate
    delta = 3.0
    rate = lambda s: s / (delta + 2.0 - 2.0 * s) ** 2
    big_a_half = -quad(rate, 0.5, 1.0, epsabs=1e-13)[0]
    expected = 2.0 * (rate(0.5) - 0.5 * math.exp(-8.0 * big_a_half) / delta**2)
    got = float(lagrange_sample(family3.b.values, family3.b.nodes, 0.5))
    assert abs(got - expected) < 1e-10


def test_cross_bvp_route_matches_closed_form(family3):
    b_bvp = solve_cross_bvp(family3.a, family3.A)
    assert np.max(np.abs(b_bvp.values - family3.b.values)) < 1e-9


def test_cross_residual_certificate(family3):
    r1, _ = coefficient_residuals(family3)
    assert np.max(np.abs(r1.values)) < 1e-6


def test_freq_zero_inputs_give_zero():
    m = 128
    zero = TimeCurve(np.zeros(m + 1))
    T = solve_freq(zero.values, np.ones(m + 1), cross_energy(zero.values, zero.h), zero.h)
    assert np.max(np.abs(T)) < 1e-15


def test_freq_against_refined_midpoint_quadrature(family3):
    # rebuild T at 10x resolution with a plain midpoint rule and compare
    delta = 3.0
    m_fine = 5120
    a = first_family_rate(delta, m_fine)
    big_a = antiderivative(a)
    b = solve_cross(a.values, np.exp(-8.0 * big_a.values), a.nodes, delta)
    h = a.h

    def midpoint_cum(values):
        mids = 0.5 * (values[1:] + values[:-1])
        out = np.zeros(values.size)
        np.cumsum(mids * h, out=out[1:])
        return out

    int_b2 = midpoint_cum(b**2)
    int_a2 = midpoint_cum(a.values**2)
    int_em = midpoint_cum(np.exp(-8.0 * big_a.values))
    c = (a.values[-1] - 2.0 * int_b2[-1] + 8.0 * int_a2[-1]) / int_em[-1]
    t_oracle = 2.0 * int_b2 - a.values - 8.0 * int_a2 + c * int_em
    coarse_on_fine = lagrange_sample(family3.T.values, family3.T.nodes, a.nodes)
    assert np.max(np.abs(coarse_on_fine - t_oracle)) < 1e-8


def test_freq_positive_interior_for_valid_families(family3):
    assert np.min(family3.T.values[1:-1]) > 0.0
    for delta in (2.5, 10.0):
        fam = family_from_rate(delta, first_family_rate(delta, 512))
        assert np.min(fam.T.values[1:-1]) > 0.0


def test_curvature_certificate_constant_rate():
    c = 0.3
    m = 256
    a = TimeCurve(np.full(m + 1, c))
    big_a = TimeCurve(c * (uniform_grid(m) - 1.0))
    cert = curvature_certificate(a, big_a)
    assert cert.verdict == "positive"
    # a'' and a' vanish, so the identity route reduces to 64 c^3 e^{8A};
    # the minimum over interior nodes sits at the first one
    expected_min = 64.0 * c**3 * math.exp(8.0 * c * (1.0 / m - 1.0))
    assert abs(cert.min_identity - expected_min) < 1e-10


def test_curvature_certificate_first_family(family3):
    cert = curvature_certificate(family3.a, family3.A)
    assert cert.verdict == "positive"
    assert cert.min_identity > 0.04


def test_curvature_certificate_limit_family_is_borderline():
    # the fixed point satisfies a e^{8A} = t/delta^2, so the curvature collapses
    a, big_a = limit_rate(math.sqrt(5.0), 512)
    cert = curvature_certificate(a, big_a)
    assert cert.verdict == "nonnegative"
    assert abs(cert.min_identity) < 1e-8
    direct = fd_derivative(np.exp(8 * big_a.values) * a.values, a.h, 2)[1:-1]
    assert abs(direct.min()) < 1e-8


@pytest.mark.parametrize("tol", [1e-6, 1e-4])
@pytest.mark.parametrize("which", ["family3", "limit"])
def test_family_certificate_reads_the_bare_rate_certificate(family3, which, tol):
    fam = family3 if which == "family3" else limit_family(3.0)
    assert fam.certificate(tol) == curvature_certificate(fam.a, fam.A, tol)


def count_calls(monkeypatch, name: str) -> list:
    calls = []
    original = getattr(wt, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(wt, name, counted)
    return calls


def count_stencil_passes(monkeypatch) -> list:
    return count_calls(monkeypatch, "fd_derivative")


def count_quadratures(monkeypatch) -> list:
    return count_calls(monkeypatch, "cumulative_integral")


def test_family_certificate_reuses_the_table(monkeypatch):
    # family_from_rate's equation check builds the table, so validate,
    # coefficient_residuals and the certificate read it and add only A'
    fam = family_from_rate(3.0, first_family_rate(3.0, 512))
    calls = count_stencil_passes(monkeypatch)
    fam.validate(strict_signs=True)
    coefficient_residuals(fam)
    fam.certificate()
    assert len(calls) <= 1


def test_fresh_family_differences_each_curve_once(monkeypatch):
    # the solvers difference nothing: the table's eight stencil passes (a, b
    # and T twice each, e^{8A} a and e^{8A} b once each) serve the equation
    # check, validate, the residuals and the certificate, and validate adds A'
    calls = count_stencil_passes(monkeypatch)
    fam = family_from_rate(3.0, first_family_rate(3.0, 512))
    fam.validate(strict_signs=True)
    coefficient_residuals(fam)
    fam.certificate()
    assert len(calls) <= 9


def test_chain_step_differences_a_once_for_both_certificates(monkeypatch):
    # per step: a', a'' and the direct route for the curvature certificate and
    # the rate inequality, one A_next' for refine_pair's consistency check
    calls = count_stencil_passes(monkeypatch)
    run_refinement(3.0, 5)
    assert len(calls) <= 20


def test_chain_step_integrates_b_squared_once(monkeypatch):
    # per step: int b^2 once for T, the stabilizer and refine_pair, plus
    # int a^2 and int e^{-8A} for T; before the chain, the seed's A
    calls = count_quadratures(monkeypatch)
    trace = run_refinement(3.0, 5)
    assert trace.steps_run == 5 and not trace.converged
    assert len(calls) == 3 * 5 + 1


def test_chain_step_forms_two_exponentials(monkeypatch):
    # per step: e^{-8A}, shared by the cross and frequency solves, and the clock e^{8A}
    calls = []
    exp = np.exp
    monkeypatch.setattr(wt.np, "exp", lambda x: calls.append(1) or exp(x))
    run_refinement(3.0, 5)
    assert len(calls) == 2 * 5


@pytest.mark.parametrize("steps, advances", [(1, 0), (3, 2)])
def test_chain_forms_no_iterate_after_its_last_step(monkeypatch, steps, advances):
    calls = count_calls(monkeypatch, "refine_pair")
    trace = run_refinement(3.0, steps)
    assert trace.steps_run == steps and len(calls) == advances


def reference_chain(delta: float, m: int, steps: int):
    """The refinement chain composed from the public step functions."""
    seed = first_family_rate(delta, m)
    t, h = seed.nodes, seed.h
    a, big_a = seed.values, antiderivative(seed).values
    a_lim = limit_rate(delta, m)[0].values
    sup_cross, gaps, families, stabilizer = [], [], [], 1.0
    for k in range(1, steps + 1):
        b = solve_cross(a, np.exp(-8.0 * big_a), t, delta)
        int_b2 = cross_energy(b, h)
        T = solve_freq(a, np.exp(-8.0 * big_a), int_b2, h)
        sup_cross.append(float(np.abs(b).max()))
        gaps.append(float(np.abs(a - a_lim).max()))
        families.append((a, big_a, b, T))
        stabilizer = max(stabilizer, minimal_stabilizer(b, T, int_b2))
        if k < steps:
            a, big_a = refine_pair(a, big_a, b, int_b2, stabilizer, h)
    return np.array(sup_cross), np.array(gaps), stabilizer, families


# at M = 64 the curvature certificate fails at step 9 (delta 2.3) and 30 (delta 3)
CERTIFIED_STEPS = {(2.3, 64): 8, (3.0, 64): 29}


@pytest.mark.parametrize("m", [64, 512, 2048])
@pytest.mark.parametrize("delta", [2.3, 3.0, 4.71, 9.9])
def test_chain_equals_the_public_step_functions(delta, m):
    trace = run_refinement(delta, CERTIFIED_STEPS.get((delta, m), 50), m=m, store_every=1)
    sup_cross, gaps, stabilizer, families = reference_chain(delta, m, trace.steps_run)
    assert trace.sup_cross.tobytes() == sup_cross.tobytes()
    assert trace.gap_to_limit.tobytes() == gaps.tobytes()
    assert trace.stabilizer == stabilizer
    assert trace.stored_steps == list(range(1, trace.steps_run + 1))
    for stored, curves, margin in zip(trace.families, families, trace.rate_margin):
        for name, curve in zip("aAbT", curves):
            assert getattr(stored, name).values.tobytes() == curve.tobytes()
        assert margin == (stored.derivatives["ap"] + 4.0 * stored.a.values**2).min()


@pytest.mark.parametrize(
    "name, pattern",
    [("b", "^cross-coefficient residual"), ("T", "^frequency-coefficient residual")],
)
def test_certify_equations_rejects_a_scaled_coefficient(family3, name, pattern):
    family3.certify_equations()
    curve = getattr(family3, name)
    bad = replace(family3, **{name: curve.with_values(1.01 * curve.values)})
    with pytest.raises(ResidualError, match=pattern):
        bad.certify_equations()


def test_certify_equations_rejects_an_interior_dip_of_T(family3):
    # both residuals read only T' and T'', so a shifted T passes them and fails the sign
    shifted = replace(family3, T=family3.T.with_values(family3.T.values - 1.0))
    with pytest.raises(CertificationError, match=r"^sign failure: interior minimum -9\.998e-01 < 0"):
        shifted.certify_equations()


def test_near_critical_limit_family_fails_the_cross_equation():
    # the limit curvature is unresolved at delta = 2.01 on 512 nodes; r1 is
    # checked first, so it names the cross equation
    with pytest.raises(ResidualError, match="^cross-coefficient residual"):
        limit_family(2.01, m=512)


def test_coefficient_residuals_fixed_point(family3):
    fam = limit_family(3.0)
    r1, r2 = coefficient_residuals(fam)
    assert np.max(np.abs(r1.values)) < 1e-7
    assert np.max(np.abs(r2.values)) < 1e-5  # 1/(4t)-type steepness near t=0


def test_coefficient_residuals_shrink_at_stencil_order():
    sups = {}
    for m in (128, 256):
        fam = family_from_rate(3.0, first_family_rate(3.0, m))
        r1, r2 = coefficient_residuals(fam)
        sups[m] = (np.max(np.abs(r1.values)), np.max(np.abs(r2.values)))
    assert sups[128][0] / sups[256][0] > 8.0
    assert sups[128][1] / sups[256][1] > 8.0


def test_corrupted_cross_coefficient_is_detected(family3):
    t = family3.b.nodes
    bad_b = family3.b.with_values(family3.b.values + 1e-3 * t * (1.0 - t))
    bad = WeightFamily(delta=3.0, a=family3.a, A=family3.A, b=bad_b, T=family3.T)
    r1_bad, _ = coefficient_residuals(bad)
    r1_good, _ = coefficient_residuals(family3)
    assert np.max(np.abs(r1_bad.values)) > 100.0 * np.max(np.abs(r1_good.values))
    assert np.max(np.abs(r1_bad.values)) > 1e-4


def test_minimal_stabilizer_trivial_cases():
    m = 128
    h = 1.0 / m
    zero = np.zeros(m + 1)
    assert minimal_stabilizer(zero, zero, cross_energy(zero, h)) == 1.0
    minus_two = np.full(m + 1, -2.0)
    assert abs(minimal_stabilizer(minus_two, zero, cross_energy(minus_two, h)) - 2.0) < 1e-12


def test_minimal_stabilizer_stable_under_refinement():
    vals = {}
    for m in (512, 1024):
        fam = family_from_rate(3.0, first_family_rate(3.0, m))
        vals[m] = minimal_stabilizer(fam.b.values, fam.T.values, cross_energy(fam.b.values, fam.b.h))
    assert abs(vals[512] - vals[1024]) < 1e-3


def test_refine_fixed_point_is_unchanged():
    fam = limit_family(3.0)
    b, h = fam.b.values, fam.a.h
    a_next, big_a_next = refine_pair(fam.a.values, fam.A.values, b, cross_energy(b, h), 1.0, h)
    assert np.array_equal(a_next, fam.a.values)
    assert np.array_equal(big_a_next, fam.A.values)


def test_refine_step_monotone_and_boundary_exact(family3):
    assert float(lagrange_sample(family3.a.values, family3.a.nodes, 0.5)) == 0.5 / 16.0
    a, b, h = family3.a, family3.b.values, family3.a.h
    int_b2 = cross_energy(b, h)
    stab = minimal_stabilizer(b, family3.T.values, int_b2)
    a2 = a.with_values(refine_pair(a.values, family3.A.values, b, int_b2, stab, h)[0])
    assert float(lagrange_sample(a2.values, a2.nodes, 0.5)) > 0.03125
    assert a2.values[0] == 0.0
    assert a2.values[-1] == family3.a.values[-1] == 1.0 / 9.0
    assert np.all(a2.values[1:-1] > family3.a.values[1:-1])


def test_refine_rejects_small_stabilizer(family3):
    with pytest.raises(ValueError):
        b, h = family3.b.values, family3.a.h
        refine_pair(family3.a.values, family3.A.values, b, cross_energy(b, h), 0.5, h)


def test_run_refinement_chain_certificates_delta3():
    trace = run_refinement(3.0, 50, tol=1e-5, store_every=10)
    assert trace.steps_run == 50 and not trace.converged
    assert np.all(np.diff(trace.gap_to_limit) < 0.0)
    assert np.all(np.diff(trace.sup_cross) < 0.0)
    for fam in trace.families:
        fam.validate(strict_signs=True)
        assert np.max(fam.a.values) <= 0.2 + 1e-9
    # the refinement target in closed form
    a_lim, _ = limit_rate(3.0, 512)
    assert abs(float(lagrange_sample(a_lim.values, a_lim.nodes, 0.5)) - 1.0 / 12.0) < 1e-15
    assert abs(a_lim.values[-1] - 1.0 / 9.0) < 1e-15


def test_run_refinement_stores_no_families_by_default():
    trace = run_refinement(3.0, 5)
    assert trace.steps_run == 5
    assert trace.families == [] and trace.stored_steps == []


def test_storing_families_does_not_change_the_chain():
    default = run_refinement(3.0, 5)
    stored = run_refinement(3.0, 5, store_every=1)
    assert stored.stored_steps == [1, 2, 3, 4, 5] and len(stored.families) == 5
    assert default.families == []
    for name in ("sup_cross", "gap_to_limit"):
        assert getattr(stored, name).tobytes() == getattr(default, name).tobytes()
    assert stored.stabilizer == default.stabilizer


@pytest.mark.parametrize("tol, steps, stored", [(1.0, 1, [1]), (0.082, 3, [1, 3])])
def test_run_refinement_stops_and_stores_at_convergence(tol, steps, stored):
    # sup|b| reads 0.0845, 0.0831, 0.0817 over the first steps at delta = 3, so
    # these tolerances stop the chain early; the converged step is stored
    trace = run_refinement(3.0, 50, tol=tol, store_every=10)
    assert trace.converged and trace.steps_run == steps
    assert trace.stored_steps == stored and len(trace.families) == len(stored)
    assert trace.sup_cross[-1] <= tol < trace.sup_cross[:-1].min(initial=math.inf)


def test_run_refinement_ceiling_delta10():
    trace = run_refinement(10.0, 30, tol=1e-5, store_every=10)
    for fam in trace.families:
        assert np.max(fam.a.values) <= 1.0 / 96.0 + 1e-9


def test_run_refinement_near_critical_stress():
    trace = run_refinement(2.01, 20, tol=1e-5, store_every=20)
    assert np.all(np.diff(trace.gap_to_limit) < 0.0)
    assert trace.steps_run == 20


def test_run_refinement_argument_guards():
    with pytest.raises(ValueError, match="^need delta > 2$"):
        run_refinement(2.0, 5)
    with pytest.raises(ValueError, match="^need max_steps >= 1$"):
        run_refinement(3.0, 0)



def test_run_refinement_refuses_a_nan_delta_before_building_the_seed(monkeypatch):
    seeds = count_calls(monkeypatch, "first_family_rate")
    with pytest.raises(ValueError, match="^need delta > 2$"):
        run_refinement(math.nan, 5)
    assert seeds == []

def test_limit_family_values():
    fam3 = limit_family(3.0)
    assert abs(float(lagrange_sample(fam3.a.values, fam3.a.nodes, 0.5)) - 1.0 / 12.0) < 1e-15
    relation = fam3.a.values * fam3.derivatives["w8"] - fam3.a.nodes / 9.0
    assert np.max(np.abs(relation)) < 1e-12
    # Hardy's threshold delta = 2 and below build no family
    for delta in (1.5, 2.0):
        for build in (limit_family, limit_rate):
            with pytest.raises(ValueError, match="^need delta > 2$"):
                build(delta)


def test_validate_flags_sign_corruption(family3):
    flipped = WeightFamily(
        delta=3.0, a=family3.a, A=family3.A, b=family3.b.with_values(-family3.b.values),
        T=family3.T,
    )
    with pytest.raises(CertificationError):
        flipped.validate(strict_signs=True)


def nudged(curve, node, by):
    values = curve.values.copy()
    values[node] += by
    return curve.with_values(values)


# one corrupted curve each: the problems validate names, in its order
VALIDATE_PROBLEMS = {
    "A(1) != 0": (
        lambda fam: replace(fam, A=fam.A.with_values(fam.A.values + 1e-3)),
        ["A does not vanish at the final node"],
    ),
    "a(0) != 0": (lambda fam: replace(fam, a=nudged(fam.a, 0, 1e-6)), ["a(0) != 0"]),
    "a(1) off": (
        lambda fam: replace(fam, a=nudged(fam.a, -1, 1e-6)),
        ["a(1) != 1/delta^2", "curvature certificate failed"],
    ),
    "A' drift": (
        lambda fam: replace(fam, A=fam.A.with_values(fam.A.values + 1e-4 * (fam.A.nodes - 1.0))),
        ["A' differs from a beyond tolerance", "curvature certificate failed"],
    ),
}


@pytest.mark.parametrize("case", list(VALIDATE_PROBLEMS))
def test_validate_names_each_structural_problem(family3, case):
    corrupt, problems = VALIDATE_PROBLEMS[case]
    family3.validate()
    with pytest.raises(CertificationError) as exc:
        corrupt(family3).validate()
    assert [problem.split(" (")[0] for problem in str(exc.value).split("; ")] == problems


@given(
    x=st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
    xi=st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
    node=st.integers(min_value=1, max_value=511),
)
@settings(max_examples=40, deadline=None)
def test_quadratic_form_collapses_to_square(family3, x, xi, node):
    c_xx, c_xxi, c_xixi = quadratic_form_coefficients(family3)
    ident = family3.derivatives["ident"]
    assembled = c_xx[node] * x**2 + c_xxi[node] * x * xi + c_xixi[node] * xi**2
    collapsed = ident[node] * (x + xi) ** 2
    scale = max(1.0, abs(collapsed), abs(ident[node]) * (x**2 + xi**2))
    assert abs(assembled - collapsed) < 1e-6 * scale
    assert assembled > -1e-6 * scale


def test_derivatives_at_array_matches_scalar_rows(family3):
    times = family3.a.nodes[::3]
    rows = family3.derivatives_at(times)
    assert set(rows) == set(family3.derivatives)
    for k, t in enumerate(times):
        row = family3.derivatives_at(float(t))
        for name, col in rows.items():
            assert np.ndim(row[name]) == 0
            assert col[k] == row[name] == family3.derivatives[name][3 * k]
    with pytest.raises(ValueError, match="not a grid node"):
        family3.derivatives_at(np.array([0.5, 0.5 + 1e-4]))
    with pytest.raises(ValueError, match="not a grid node"):
        family3.derivatives_at(np.nan)


def test_weight_family_is_constructed_only_in_complete():
    # _complete certifies every family it builds, so no other call site may exist
    sites = []

    class Calls(ast.NodeVisitor):
        def __init__(self, module):
            self.scope = [module]

        def visit_FunctionDef(self, node):
            self.scope.append(node.name)
            self.generic_visit(node)
            self.scope.pop()

        def visit_Call(self, node):
            if getattr(node.func, "id", getattr(node.func, "attr", None)) == "WeightFamily":
                sites.append(".".join(self.scope))
            self.generic_visit(node)

    for path in sorted(Path(wt.__file__).parent.glob("*.py")):
        Calls(path.stem).visit(ast.parse(path.read_text()))
    assert sites == ["weights._complete"]


def test_every_stored_chain_family_is_certified(monkeypatch):
    tols = []
    certify = WeightFamily.certify_equations

    def counting(self, tol=wt.DEFAULT_RESIDUAL_TOL):
        tols.append(tol)
        return certify(self, tol)

    monkeypatch.setattr(WeightFamily, "certify_equations", counting)
    trace = run_refinement(3.0, 5, store_every=1)
    assert len(trace.families) == 5
    assert tols == [wt.DEFAULT_RECERT_TOL] * 5
