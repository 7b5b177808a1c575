import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from conftest import count_grid_calls, traced_peak
from heatlab import functionals
from heatlab import weights as wt
from heatlab.errors import CertificationError, GridError, ResidualError, TailViolation
from heatlab.functionals import (
    appell_mid_exponent,
    appell_time_map,
    appell_transform,
    check_log_convexity,
    interpolation_exponent,
    sharpness_probe,
    solve_convexity_correction,
    verify_interior_bound,
    weighted_norm,
)
from heatlab.grid import (
    Field,
    PotentialSpec,
    SpaceGrid,
    gaussian_field,
    gaussian_potential,
    zero_potential,
)
from heatlab.heat import Trajectory, complex_gaussian, evolve, pde_residual
from heatlab.kernels import resample_periodic
from heatlab.timecurve import STACK_CHUNK, TimeCurve, uniform_grid
from heatlab.weights import WeightFamily, antiderivative


def free_heat_gaussian(y, s):
    """Closed-form evolution of e^{-y^2} under the free heat flow."""
    return (1.0 + 4.0 * s) ** -0.5 * np.exp(-(y**2) / (1.0 + 4.0 * s)) + 0j


# ---------------------------------------------------------------- weighted norm


def test_plain_l2_norm_of_gaussian(grid12):
    f = Field(grid=grid12, values=np.exp(-grid12.x**2) + 0j)
    assert abs(weighted_norm(f, 0.0) - (math.pi / 2.0) ** 0.25) < 1e-12


@given(
    lam=st.floats(min_value=0.4, max_value=3.0),
    frac=st.floats(min_value=0.0, max_value=0.6),
)
@settings(max_examples=25, deadline=None)
def test_weighted_gaussian_norm_formula(lam, frac):
    grid = SpaceGrid(half_width=12.0, n=1024)
    a = frac * lam
    f = Field(grid=grid, values=np.exp(-lam * grid.x**2) + 0j)
    expected = (math.pi / (2.0 * (lam - a))) ** 0.25
    assert abs(weighted_norm(f, a) - expected) < 1e-9 * expected


def test_supercritical_weight_is_rejected(grid12):
    t, r = 0.5, 1.0
    f = Field(grid=grid12, values=complex_gaussian(grid12.x, t, r), time=t)
    with pytest.raises(TailViolation):
        weighted_norm(f, 1.01 * t / (4.0 * (t**2 + r**2)))


# --------------------------------------------------------- theta and correction


def test_interpolation_exponent_constant_clock():
    gam = TimeCurve(np.ones(129))
    theta = interpolation_exponent(gam)
    assert np.max(np.abs(theta - (1.0 - gam.nodes))) < 1e-14
    assert theta[0] == 1.0
    assert theta[-1] == 0.0
    with pytest.raises(ValueError):
        interpolation_exponent(gam.with_values(-np.ones(129)))


def test_interpolation_exponent_refined_quadrature(family3):
    gam = TimeCurve(np.exp(8.0 * family3.A.values))
    fine = TimeCurve(np.exp(8.0 * antiderivative(
        family3.a.with_values(np.interp(uniform_grid(5120), family3.a.nodes, family3.a.values))
    ).values))
    # every coarse node (M = 512) is every tenth fine node (M = 5120)
    coarse, refined = interpolation_exponent(gam), interpolation_exponent(fine)[::10]
    assert np.max(np.abs(coarse - refined)) < 1e-7


def test_correction_zero_source_gives_zero():
    gam = TimeCurve(np.ones(129))
    out = solve_convexity_correction(gam, TimeCurve(np.zeros(129)))
    assert np.max(np.abs(out.values)) < 1e-15


def test_correction_unit_source_closed_form():
    gam = TimeCurve(np.ones(129))
    out = solve_convexity_correction(gam, TimeCurve(np.ones(129)))
    t = out.nodes
    assert np.max(np.abs(out.values - t * (1.0 - t) / 2.0)) < 1e-13


def test_correction_rejects_negative_source():
    gam = TimeCurve(np.ones(129))
    with pytest.raises(ValueError):
        solve_convexity_correction(gam, TimeCurve(-np.ones(129)))


def test_correction_nonnegative_generic():
    gam = TimeCurve(np.exp(np.linspace(0.0, 1.5, 257)))
    t = np.linspace(0, 1, 257)
    src = TimeCurve(np.sin(7 * t) ** 2 + 0.1 * t)
    out = solve_convexity_correction(gam, src)
    assert np.min(out.values) > -1e-12
    assert abs(out.values[0]) < 1e-15 and abs(out.values[-1]) < 1e-15


def with_nan(curve, node=100):
    values = curve.values.copy()
    values[node] = np.nan
    return curve.with_values(values)


def clock(fam):
    return TimeCurve(fam.derivatives["w8"])


def limit_family_with_nan_rate(fam):
    a, big_a = wt.limit_rate(fam.delta)
    with mock.patch.object(wt, "limit_rate", lambda *args: (with_nan(a), big_a)):
        wt.limit_family(fam.delta)


def family_with_nan(fam, name, node=100):
    return replace(fam, **{name: with_nan(getattr(fam, name), node)})


def validate_with_nan(name, node, strict_signs):
    return lambda fam: family_with_nan(fam, name, node).validate(strict_signs=strict_signs)


def refine_with(fam, b, stabilizer):
    h = fam.a.h
    wt.refine_pair(fam.a.values, fam.A.values, b, wt.cross_energy(b, h), stabilizer, h)


def step_with_nan_stabilizer(name):
    # minimal_stabilizer of a family with a NaN node is NaN, which refine_pair refuses
    def call(fam):
        bad = family_with_nan(fam, name)
        int_b2 = wt.cross_energy(bad.b.values, fam.a.h)
        refine_with(fam, fam.b.values, wt.minimal_stabilizer(bad.b.values, bad.T.values, int_b2))

    return call


def step_with_nan_cross(fam):
    # a NaN node in b poisons int_0^t b^2 from there on, so A_next' drifts from a_next
    refine_with(fam, with_nan(fam.b).values, 1.0)


def nan_at(values, node=100):
    values = values.copy()
    values[node] = np.nan
    return values


def chain_with(fam, **patches):
    # three steps of the chain with its curvature certificate passing, so the
    # NaN reaches the chain's own checks
    positive = wt.CurvatureCertificate(0.0, 0.0, "positive", 1.0)
    with mock.patch.multiple(wt, _certify=lambda *args: positive, **patches):
        wt.run_refinement(fam.delta, 3)


def chain_with_nan_seed(fam):
    seed = wt.first_family_rate
    chain_with(fam, first_family_rate=lambda *args: with_nan(seed(*args)))


def chain_with_nan_rate_derivative(fam):
    growth = wt._growth_columns

    def poisoned(*args):
        cols = growth(*args)
        return {**cols, "ap": nan_at(cols["ap"])}

    chain_with(fam, _growth_columns=poisoned)


def chain_with_nan_previous_rate(fam):
    advance = wt.refine_pair

    def poisoning(a, *args):
        step = advance(a, *args)
        a[100] = np.nan  # the rate just certified, which the next step compares against
        return step

    chain_with(fam, refine_pair=poisoning)


# one NaN node in a, b, T, the correction source, the clock gamma, the
# stabilizer or a chain iterate: (error, message pattern, call)
NAN_GUARDS = {
    "certify_equations cross": (
        ResidualError,
        "^cross-coefficient residual",
        lambda fam: family_with_nan(fam, "a").certify_equations(),
    ),
    "certify_equations freq": (
        ResidualError,
        "^frequency-coefficient residual",
        lambda fam: family_with_nan(fam, "T").certify_equations(),
    ),
    "refine_pair consistency": (ValueError, "consistency", step_with_nan_cross),
    "correction source sign": (
        ValueError, "source", lambda fam: solve_convexity_correction(clock(fam), with_nan(clock(fam)))
    ),
    "correction gamma sign": (
        ValueError, "gamma", lambda fam: solve_convexity_correction(with_nan(clock(fam)), clock(fam))
    ),
    "theta gamma sign": (
        ValueError, "gamma", lambda fam: interpolation_exponent(with_nan(clock(fam)))
    ),
    "limit_family relation": (CertificationError, "limit", limit_family_with_nan_rate),
    "refine_pair stabilizer": (
        ValueError,
        "stabilizer",
        lambda fam: refine_with(fam, fam.b.values, math.nan),
    ),
    "minimal_stabilizer b": (ValueError, "stabilizer", step_with_nan_stabilizer("b")),
    "minimal_stabilizer T": (ValueError, "stabilizer", step_with_nan_stabilizer("T")),
    "run_refinement ceiling": (CertificationError, "^chain ceiling", chain_with_nan_seed),
    "run_refinement rate inequality": (
        CertificationError, "^rate inequality", chain_with_nan_rate_derivative
    ),
    "run_refinement monotonicity": (
        CertificationError, "^chain violation", chain_with_nan_previous_rate
    ),
}
NAN_GUARDS |= {
    f"validate {name} {where}" + (" strict" if strict else ""): (
        CertificationError, f"^{name} ", validate_with_nan(name, node, strict)
    )
    for name in ("b", "T")
    for node, where in ((100, "interior"), (-1, "endpoint"))
    for strict in (False, True)
}


@pytest.mark.parametrize("guard", list(NAN_GUARDS))
def test_nan_node_fails_the_guard(family3, guard):
    # each guard is written "not (err <= bound)", so a NaN never passes it
    error, pattern, call = NAN_GUARDS[guard]
    with pytest.raises(error, match=pattern):
        call(family3)


def with_nan_time(traj, i=64):
    times = traj.times.copy()
    times[i] = np.nan
    return replace(traj, times=times)


def evolve_free(traj, **kwargs):
    return evolve(Field(traj.grid, traj.frames[0], 0.0), zero_potential(), 0.0, 1.0, steps=8, **kwargs)


def appell_with(alpha, beta):
    return lambda tr, fam: appell_transform(free_heat_gaussian, alpha, beta, tr.grid, tr.times)


# a NaN (or inf) argument next to a 129-frame free trajectory and the family:
# (error, message pattern, call)
NAN_ARGUMENTS = {
    "SpaceGrid half_width nan": (
        ValueError, "^half_width", lambda tr, fam: SpaceGrid(half_width=math.nan)
    ),
    "SpaceGrid half_width inf": (
        ValueError, "^half_width", lambda tr, fam: SpaceGrid(half_width=math.inf)
    ),
    "evolve frame_times interior": (
        ValueError,
        "strictly increasing",
        lambda tr, fam: evolve_free(tr, frame_times=with_nan_time(tr).times),
    ),
    "evolve frame_times end": (
        ValueError,
        "start at t0",
        lambda tr, fam: evolve_free(tr, frame_times=with_nan_time(tr, -1).times),
    ),
    "appell_transform alpha": (ValueError, "alpha, beta", appell_with(math.nan, 1.0)),
    "appell_transform beta": (ValueError, "alpha, beta", appell_with(1.0, math.nan)),
    "sharpness_probe gamma_factor": (
        ValueError, "gamma_factor", lambda tr, fam: sharpness_probe(1.0, 0.5, math.nan)
    ),
    "pde_residual times": (
        ValueError, "equispaced", lambda tr, fam: pde_residual(with_nan_time(tr))
    ),
    "check_log_convexity times": (
        ValueError,
        "is not a grid node$",
        lambda tr, fam: check_log_convexity(with_nan_time(tr), fam, xi=1.0),
    ),
    "check_log_convexity tail_tol": (
        TailViolation,
        "^tail mass fraction",
        lambda tr, fam: check_log_convexity(tr, fam, xi=1.0, tail_tol=math.nan),
    ),
    "verify_interior_bound tail_tol": (
        TailViolation,
        "^tail mass fraction",
        lambda tr, fam: verify_interior_bound(tr, 1.0, tail_tol=math.nan),
    ),
}


@pytest.mark.parametrize("guard", list(NAN_ARGUMENTS))
def test_nan_argument_fails_the_guard(gauss12, family3, guard):
    # each guard is written "not (value <= bound)", so a NaN never passes it
    error, pattern, call = NAN_ARGUMENTS[guard]
    traj = evolve(gauss12, zero_potential(), 0.0, 1.0, steps=128, n_frames=129)
    with pytest.raises(error, match=pattern):
        call(traj, family3)


def test_weighted_norm_rejects_a_nan_integrand(grid12):
    values = np.exp(-grid12.x**2) + 0j
    values[500] = np.nan
    with pytest.raises(TailViolation):
        weighted_norm(Field(grid=grid12, values=values), 0.0)


# ------------------------------------------------------------- log-convexity


def test_log_convexity_memory_stays_near_three_frame_stacks(gauss12, family3):
    # the engine holds f and reduces its defect STACK_CHUNK frames at a time,
    # applying S and A to each chunk, whose temporaries are a few rows each;
    # S and A over the whole stack at once would push this past the bound
    potential = gaussian_potential(0.5, imaginary=True)
    traj = evolve(gauss12, potential, 0.0, 1.0, steps=1024, n_frames=257)
    family3.derivatives_at(traj.times)  # builds the family's table outside the measurement
    peak = traced_peak(lambda: check_log_convexity(traj, family3, xi=1.0))
    assert peak < 3.5 * traj.frames.nbytes


def test_log_convexity_never_holds_a_whole_stack_defect(gauss12, family3):
    # f is one stack; a whole-stack d_t f, defect, |defect|^2, conj(f) or
    # defect * conj(f) would each add most of another
    traj = evolve(gauss12, zero_potential(), 0.0, 1.0, steps=256, n_frames=257)
    family3.derivatives_at(traj.times)
    peak = traced_peak(lambda: check_log_convexity(traj, family3, xi=1.0))
    assert peak < 2.0 * traj.frames.nbytes


@pytest.mark.parametrize(
    "potential", [zero_potential(), gaussian_potential(0.5, imaginary=True)], ids=["free", "gauss-imag"]
)
def test_log_convexity_weights_its_frames_a_window_at_a_time(gauss12, family3, potential):
    # f, its exponent and its modulus exist only for one chunk's window of frames,
    # so the engine needs less than one more trajectory; a whole-stack f alone is one
    traj = evolve(gauss12, potential, 0.0, 1.0, steps=1024, n_frames=257)
    family3.derivatives_at(traj.times)
    peak = traced_peak(lambda: check_log_convexity(traj, family3, xi=1.0))
    assert peak < 1.0 * traj.frames.nbytes


def test_zero_potential_is_evaluated_once_per_check(gauss12, family3, monkeypatch):
    traj = evolve(gauss12, zero_potential(), 0.0, 1.0, steps=256, n_frames=257)
    general = replace(traj, potential=replace(zero_potential(), time_independent=False))
    want_residual, want = pde_residual(general), check_log_convexity(general, family3, xi=1.0)
    calls = []
    call = PotentialSpec.__call__
    monkeypatch.setattr(PotentialSpec, "__call__", lambda v, x, t: calls.append(t) or call(v, x, t))
    assert pde_residual(traj) == want_residual
    assert len(calls) == 1
    report = check_log_convexity(traj, family3, xi=1.0)
    assert len(calls) == 2
    for name in ("H", "M", "slack"):
        assert getattr(report, name).tobytes() == getattr(want, name).tobytes()
    assert (report.Nval, report.conjugation_residual) == (want.Nval, want.conjugation_residual)


def test_log_convexity_evaluates_a_static_potential_once(gauss12, family3):
    base = gaussian_potential(0.5, imaginary=True)
    traj = evolve(gauss12, base, 0.0, 1.0, steps=1024, n_frames=257)
    calls = []
    traj.potential = replace(base, fn=lambda x, t: calls.append(t) or base.fn(x, t))
    report = check_log_convexity(traj, family3, xi=1.0)
    assert len(calls) == 1
    traj.potential = replace(base, time_independent=False)
    general = check_log_convexity(traj, family3, xi=1.0)
    assert report.conjugation_residual == general.conjugation_residual
    assert np.array_equal(report.slack, general.slack)


def test_log_convexity_free_heat(grid12, gauss12, family3):
    traj = evolve(gauss12, zero_potential(), 0.0, 1.0, steps=1024, n_frames=257)
    report = check_log_convexity(traj, family3, xi=1.0)
    # zero potential kills the corrections and leaves a pure interpolation bound
    assert report.Nval < 1e-6
    assert np.max(report.M) < 1e-8
    assert report.min_slack >= -1e-4 * report.h_scale
    assert report.conjugation_residual < 1e-3
    assert family3.certificate().verdict == "positive"
    assert abs(report.theta[0] - 1.0) < 1e-14 and abs(report.theta[-1]) < 1e-14


def test_log_convexity_imaginary_potential(grid12, gauss12, family3):
    potential = gaussian_potential(0.5, imaginary=True)
    traj = evolve(gauss12, potential, 0.0, 1.0, steps=1024, n_frames=257)
    report = check_log_convexity(traj, family3, xi=1.0, epsilon=1e-6)
    assert report.min_slack >= -1e-4 * report.h_scale
    # purely imaginary potential: Re(Vf, f) = 0, so N stays at frame-noise level
    assert report.Nval < 1e-6
    assert np.max(report.M) > 1e-3  # the M correction is genuinely active


def test_log_convexity_certifies_its_correction_term(gauss12, family3, monkeypatch):
    # every check solves for M and then checks d_t(gamma d_t M) = -source and
    # M >= 0; a derivative off by 1e-3 breaks the equation and stops the check
    traj = evolve(gauss12, zero_potential(), 0.0, 1.0, steps=256, n_frames=257)
    check_log_convexity(traj, family3, xi=1.0)
    derivative = functionals.fd_derivative
    monkeypatch.setattr(functionals, "fd_derivative", lambda *args: derivative(*args) + 1e-3)
    with pytest.raises(ResidualError, match="^correction-term residual"):
        check_log_convexity(traj, family3, xi=1.0)


def test_log_convexity_certifies_the_conjugation_identity(gauss12, family3):
    # free-heat frames declared to carry an imaginary potential: d_t f - Sf - Af
    # is 0 on them, not V f, and the check stops before it solves for M
    free = evolve(gauss12, zero_potential(), 0.0, 1.0, steps=256, n_frames=257)
    potential = gaussian_potential(0.5, imaginary=True)
    declared = Trajectory(grid=free.grid, times=free.times, frames=free.frames, potential=potential)
    with pytest.raises(ResidualError, match=r"^conjugation identity residual .* exceeds 5\.0e-03$"):
        check_log_convexity(declared, family3, xi=1.0)


def test_log_convexity_constant_weight_matches_gaussian_closed_form(grid12, gauss12):
    # constant weight, b = T = 0, xi = 0: classical log-convexity of
    # ||e^{c x^2} u|| for free heat, with H(t) known in closed form
    c = 0.05
    m = 512
    a = TimeCurve(np.full(m + 1, c))
    fam = WeightFamily(
        delta=3.0, a=a, A=TimeCurve(c * (uniform_grid(m) - 1.0)),
        b=TimeCurve(np.zeros(m + 1)), T=TimeCurve(np.zeros(m + 1)),
    )
    traj = evolve(gauss12, zero_potential(), 0.0, 1.0, steps=1024, n_frames=257)
    report = check_log_convexity(traj, fam, xi=0.0)
    assert report.min_slack >= -1e-4 * report.h_scale
    # H(t) = int e^{2c x^2} |u(t)|^2 with u(t) the Gaussian closed form
    for i in (0, 64, 128, 192, 256):
        s = report.times[i]
        lam = 1.0 / (1.0 + 4.0 * s)
        expected = (1.0 + 4.0 * s) ** -1.0 * math.sqrt(math.pi / (2.0 * lam - 2.0 * c))
        assert abs(report.H[i] - expected) < 1e-8 * expected


def test_log_convexity_requires_aligned_frames(grid12, gauss12, family3):
    traj = evolve(gauss12, zero_potential(), 0.0, 1.0, steps=500, n_frames=101)
    window = replace(traj, times=traj.times[:26], frames=traj.frames[:26])
    with pytest.raises(ValueError, match="at least 65|not a grid node"):
        check_log_convexity(window, family3, xi=0.0)


def test_log_convexity_refuses_unequally_spaced_family_nodes(gauss12, family3):
    # 129 frames on nodes k/512 of the family grid, with node 64 left out
    times = uniform_grid(512)[np.delete(np.arange(130), 64)]
    traj = evolve(gauss12, zero_potential(), 0.0, times[-1], steps=129, frame_times=times)
    with pytest.raises(ValueError, match="^frames must be equispaced$"):
        check_log_convexity(traj, family3, xi=1.0)



def test_log_convexity_refuses_unequal_spacing_before_measuring_any_frame(gauss12, family3, monkeypatch):
    times = uniform_grid(512)[np.delete(np.arange(130), 64)]
    traj = evolve(gauss12, zero_potential(), 0.0, times[-1], steps=129, frame_times=times)
    masses = count_grid_calls(monkeypatch)
    with pytest.raises(ValueError, match="^frames must be equispaced$"):
        check_log_convexity(traj, family3, xi=1.0)
    assert masses == []

def test_log_convexity_refuses_33_frames_before_weighting_any(gauss12, family3, monkeypatch):
    # the clock gamma is a TimeCurve, so fewer than 64 intervals stop the engine
    # before a frame is weighted or differenced
    traj = evolve(gauss12, zero_potential(), 0.0, 1.0, steps=32, n_frames=33)
    masses = count_grid_calls(monkeypatch)
    monkeypatch.setattr(functionals, "time_derivative_chunks", mock.Mock(side_effect=AssertionError))
    with pytest.raises(GridError, match="^grid too coarse: 32 intervals < 64$"):
        check_log_convexity(traj, family3, xi=1.0)
    assert masses == []


def test_log_convexity_on_a_sliced_trajectory_is_the_window(gauss12, family3):
    # a window [c, d] is the trajectory sliced to it: frames 64..192 of 257
    # give the full run's H on those frames, with theta running from 1 to 0
    potential = gaussian_potential(0.5, imaginary=True)
    traj = evolve(gauss12, potential, 0.0, 1.0, steps=1024, n_frames=257)
    full = check_log_convexity(traj, family3, xi=1.0)
    window = replace(traj, times=traj.times[64:193], frames=traj.frames[64:193])
    report = check_log_convexity(window, family3, xi=1.0)
    assert (report.times[0], report.times[-1]) == (0.25, 0.75)
    assert report.H.tobytes() == full.H[64:193].tobytes()
    assert (report.theta[0], report.theta[-1]) == (1.0, 0.0)
    assert np.all(np.diff(report.theta) < 0.0)


# ------------------------------------------------------------------ appell


def test_appell_identity_when_parameters_match(grid12):
    times = np.linspace(0.0, 1.0, 65)
    tr = appell_transform(free_heat_gaussian, 1.3, 1.3, grid12, times)
    for i, t in enumerate(times):
        assert np.max(np.abs(tr.frames[i] - free_heat_gaussian(grid12.x, t))) < 1e-12


def test_appell_exponent_anchors_machine_level():
    delta = 3.0
    alpha, beta, gamma = 1.0, 1.0 + 2.0 / delta, 1.0 / (2.0 * delta)
    assert abs(appell_mid_exponent(alpha, beta, gamma, 0.0)) < 1e-15
    assert abs(appell_mid_exponent(alpha, beta, gamma, 1.0) - 1.0 / delta**2) < 1e-15


def test_appell_endpoint_norm_identities():
    delta = 3.0
    alpha, beta, gamma = 1.0, 1.0 + 2.0 / delta, 1.0 / (2.0 * delta)
    grid = SpaceGrid(half_width=16.0, n=2048)
    times = np.linspace(0.0, 1.0, 65)
    tr = appell_transform(free_heat_gaussian, alpha, beta, grid, times)
    left = weighted_norm(Field(grid, tr.frames[0], float(tr.times[0])), gamma)
    right = weighted_norm(Field(grid, tr.frames[64], float(tr.times[64])), gamma)
    u0 = weighted_norm(Field(grid=grid, values=free_heat_gaussian(grid.x, 0.0)), 0.0)
    u1 = weighted_norm(Field(grid=grid, values=free_heat_gaussian(grid.x, 1.0)), 1.0 / delta**2)
    assert abs(left - u0) < 1e-10 * u0
    assert abs(right - u1) < 1e-10 * u1


def test_appell_mid_time_identity_closed_form():
    delta = 3.0
    alpha, beta, gamma = 1.0, 1.0 + 2.0 / delta, 1.0 / (2.0 * delta)
    grid = SpaceGrid(half_width=16.0, n=2048)
    times = np.linspace(0.0, 1.0, 129)
    tr = appell_transform(free_heat_gaussian, alpha, beta, grid, times)
    worst = 0.0
    for i, t in enumerate(times):
        s = float(appell_time_map(alpha, beta, t))
        lhs = weighted_norm(Field(grid, tr.frames[i], float(t)), gamma)
        q = appell_mid_exponent(alpha, beta, gamma, s)
        rhs = weighted_norm(Field(grid=grid, values=free_heat_gaussian(grid.x, s)), q)
        worst = max(worst, abs(lhs - rhs) / rhs)
    assert worst < 1e-6


def test_appell_trajectory_route_matches_closed_form():
    delta = 3.0
    alpha, beta = 1.0, 1.0 + 2.0 / delta
    out_grid = SpaceGrid(half_width=16.0, n=2048)
    times = np.linspace(0.0, 1.0, 65)
    src_grid = SpaceGrid(half_width=24.0, n=2048)
    # store frames exactly at the mapped times so no time interpolation occurs
    mapped = appell_time_map(alpha, beta, times)
    traj = evolve(
        gaussian_field(src_grid), zero_potential(), 0.0, 1.0, steps=1024, frame_times=mapped
    )
    got = appell_transform(traj, alpha, beta, out_grid, times)
    exact = appell_transform(free_heat_gaussian, alpha, beta, out_grid, times)
    assert np.max(np.abs(got.frames - exact.frames)) < 1e-8


def test_appell_of_free_solution_solves_free_heat():
    delta = 3.0
    alpha, beta = 1.0, 1.0 + 2.0 / delta
    out_grid = SpaceGrid(half_width=16.0, n=2048)
    times = np.linspace(0.0, 1.0, 257)
    tr = appell_transform(free_heat_gaussian, alpha, beta, out_grid, times)
    assert pde_residual(tr) < 1e-4


def test_appell_round_trip():
    alpha, beta = 1.0, 5.0 / 3.0
    mid_grid = SpaceGrid(half_width=16.0, n=1024)
    src_grid = SpaceGrid(half_width=24.0, n=1024)
    times = np.linspace(0.0, 1.0, 65)
    mapped = appell_time_map(alpha, beta, times)
    traj = evolve(
        gaussian_field(src_grid), zero_potential(), 0.0, 1.0, steps=512, frame_times=mapped
    )
    fwd = appell_transform(traj, alpha, beta, mid_grid, times)
    # the inverse leg hits mapped times between stored frames: quartic time
    # interpolation is exercised here
    back = appell_transform(fwd, beta, alpha, SpaceGrid(half_width=9.0, n=512), times)
    worst = 0.0
    for i, t in enumerate(times):
        exact = free_heat_gaussian(back.grid.x, t)
        worst = max(worst, np.max(np.abs(back.frames[i] - exact)))
    assert worst < 1e-4


def evolved_under_gauss_imag(gauss12):
    """Nine frames of the Gaussian datum evolved under V = 0.5i e^{-x^2}."""
    potential = gaussian_potential(0.5, imaginary=True)
    return evolve(gauss12, potential, 0.0, 1.0, steps=64, n_frames=9)


def test_evolve_and_appell_transform_compute_no_tail_fraction(monkeypatch, gauss12):
    calls = count_grid_calls(monkeypatch)
    evolve(gauss12, zero_potential(), 0.0, 1.0, steps=64, n_frames=9)
    traj = evolved_under_gauss_imag(gauss12)
    out = SpaceGrid(half_width=8.0, n=256)  # maps inside the source box for alpha, beta = 1, 1.5
    appell_transform(traj, 1.0, 1.5, out, traj.times)
    appell_transform(free_heat_gaussian, 1.0, 1.5, out, traj.times)
    assert calls == []


@pytest.mark.parametrize(
    "verify, stacks",
    [
        (lambda tr, fam: check_log_convexity(tr, fam, xi=1.0), 2),
        (lambda tr, fam: verify_interior_bound(tr, 1.0), 1),
    ],
    ids=["convexity", "interior_bound"],
)
def test_weighted_norms_and_tail_guard_share_one_mass_pass(monkeypatch, gauss12, family3, verify, stacks):
    # each weighted frame is squared exactly once, for its norm and its tail fraction alike,
    # in calls of at most STACK_CHUNK rows; the engine squares each frame's defect once more
    traj = evolve(gauss12, zero_potential(), 0.0, 1.0, steps=256, n_frames=65)
    calls = count_grid_calls(monkeypatch)
    verify(traj, family3)
    rows = [len(values) for values in calls]
    assert max(rows) <= STACK_CHUNK and sum(rows) == stacks * traj.n_frames


def test_appell_image_of_a_trajectory_carries_its_rescaled_potential(gauss12):
    traj, alpha, beta = evolved_under_gauss_imag(gauss12), 1.0, 1.5
    image = appell_transform(traj, alpha, beta, SpaceGrid(half_width=8.0, n=256), traj.times)
    assert image.potential.sup_norm == max(alpha / beta, beta / alpha) * 0.5


def test_a_trajectory_owns_a_copy_of_its_times(gauss12):
    times = np.linspace(0.0, 1.0, 9)
    traj = evolve(gauss12, zero_potential(), 0.0, 1.0, steps=64, frame_times=times)
    times[2] = 7.0
    assert traj.times[2] == 0.25
    times = np.linspace(0.0, 1.0, 9)
    image = appell_transform(free_heat_gaussian, 1.0, 1.5, SpaceGrid(half_width=8.0, n=256), times)
    times[2] = 7.0
    assert image.times[2] == 0.25


def stored_free_heat(n_frames=37):
    """Closed-form free heat frames on a uniform time grid, as a stored Trajectory."""
    grid = SpaceGrid(half_width=16.0, n=512)
    times = np.linspace(0.0, 1.0, n_frames)
    frames = np.array([free_heat_gaussian(grid.x, t) for t in times])
    return Trajectory(grid=grid, times=times, frames=frames, potential=zero_potential())


def resample_then_combine(traj, alpha, beta, grid, times):
    """Appell frames with each of the five nearest frames resampled before the
    quartic time interpolation combines them."""
    root = math.sqrt(alpha * beta)
    out = []
    for t in times:
        denom = alpha * (1.0 - t) + beta * t
        s = beta * t / denom
        y = root * grid.x / denom
        lo = min(max(int(np.argmin(np.abs(traj.times - s))) - 2, 0), traj.times.size - 5)
        ts = traj.times[lo : lo + 5]
        vals = 0.0
        for k in range(5):
            lk = np.prod([(s - ts[r]) / (ts[k] - ts[r]) for r in range(5) if r != k])
            vals = vals + lk * resample_periodic(traj.frames[lo + k], y, traj.grid.half_width)
        mult = (root / denom) ** 0.5 * np.exp((alpha - beta) * grid.x**2 / (4.0 * denom))
        out.append(mult * vals)
    return np.array(out)


def test_appell_interpolates_frames_before_resampling():
    traj = stored_free_heat()
    alpha, beta = 1.0, 5.0 / 3.0  # alpha < beta: the Gaussian multiplier damps round-off
    grid = SpaceGrid(half_width=9.0, n=512)
    times = np.linspace(0.05, 0.95, 17)  # every mapped time falls between stored frames
    assert np.min(np.abs(appell_time_map(alpha, beta, times)[:, None] - traj.times)) > 1e-3
    got = appell_transform(traj, alpha, beta, grid, times)
    expected = resample_then_combine(traj, alpha, beta, grid, times)
    assert np.max(np.abs(got.frames - expected)) < 1e-12


def test_appell_resamples_once_per_output_time(monkeypatch):
    calls = []

    def counting(values, targets, half_width):
        calls.append(np.shape(values))
        return resample_periodic(values, targets, half_width)

    monkeypatch.setattr(functionals, "resample_periodic", counting)
    times = np.linspace(0.0, 1.0, 17)  # the ends hit stored frames, the rest fall between
    appell_transform(stored_free_heat(), 1.0, 5.0 / 3.0, SpaceGrid(half_width=9.0, n=512), times)
    # each output time is one row of one stacked call, STACK_CHUNK rows to a call
    assert len(calls) == math.ceil(times.size / STACK_CHUNK)
    assert sum(rows for rows, n in calls) == times.size
    assert {n for rows, n in calls} == {512}


def test_appell_memory_stays_bounded_by_the_chunk():
    # the perfbench appell forward leg: 49 output times, 1024 points, L = 24 -> 16
    alpha, beta = 1.0, 1.0 + 2.0 / 3.0
    times = np.linspace(0.0, 1.0, 49)
    src = gaussian_field(SpaceGrid(half_width=24.0, n=1024))
    mapped = appell_time_map(alpha, beta, times)
    traj = evolve(src, zero_potential(), 0.0, 1.0, steps=512, frame_times=mapped)
    out = SpaceGrid(half_width=16.0, n=1024)
    # STACK_CHUNK rows per kernel call; resampling all 49 rows at once would take ~11 MB
    assert traced_peak(lambda: appell_transform(traj, alpha, beta, out, times)) < 8 * 2**20


def test_appell_transformed_potential_bound(gauss12):
    delta = 3.0
    alpha, beta = 1.0, 1.0 + 2.0 / delta
    traj = evolve(gauss12, gaussian_potential(1.0), 0.0, 1.0, steps=64, n_frames=65)
    out = SpaceGrid(half_width=8.0, n=256)
    tr = appell_transform(traj, alpha, beta, out, np.linspace(0.0, 1.0, 65))
    assert abs(tr.potential.sup_norm - max(alpha / beta, beta / alpha)) < 1e-12
    sampled = max(
        float(np.max(np.abs(tr.potential(out.x, t)))) for t in np.linspace(0, 1, 11)
    )
    assert sampled <= tr.potential.sup_norm + 1e-12


def test_appell_rejects_out_of_domain_targets():
    alpha, beta = 1.0, 5.0 / 3.0
    src_grid = SpaceGrid(half_width=12.0, n=512)
    traj = evolve(gaussian_field(src_grid), zero_potential(), 0.0, 1.0, steps=128, n_frames=65)
    big_out = SpaceGrid(half_width=12.0, n=512)  # needs sqrt(ab)*12 > 12 at t=0
    with pytest.raises(ValueError, match="outside the periodic box"):
        appell_transform(traj, alpha, beta, big_out, np.linspace(0.0, 1.0, 65))


def test_appell_refuses_mapped_times_past_the_stored_frames():
    # frames up to t = 0.5 while the output times map onto s up to 1: the quartic
    # through the last five frames would extrapolate, 1.3e-2 off the exact image at s = 1
    src = evolve(gaussian_field(SpaceGrid(24.0, 1024)), zero_potential(), 0.0, 0.5, steps=64, n_frames=65)
    out, times = SpaceGrid(9.0, 512), np.linspace(0.0, 1.0, 49)
    with pytest.raises(ValueError, match=r"time 0\.52\d* outside the curve interval \[0, 0\.5\]"):
        appell_transform(src, 1.0, 2.0, out, times)
    inside = times[appell_time_map(1.0, 2.0, times) <= 0.5]
    image = appell_transform(src, 1.0, 2.0, out, inside)
    exact = appell_transform(free_heat_gaussian, 1.0, 2.0, out, inside)
    assert np.max(np.abs(image.frames - exact.frames)) < 1e-6


def test_appell_names_the_quartic_when_a_short_trajectory_lacks_frames():
    # 3 stored frames: s = 0.6 / 1.3 falls between them, where the quartic needs 5
    src_grid = SpaceGrid(half_width=24.0, n=1024)
    traj = evolve(
        gaussian_field(src_grid), zero_potential(), 0.0, 1.0, steps=10,
        frame_times=np.array([0.0, 0.3, 1.0]),
    )
    out = SpaceGrid(half_width=9.0, n=512)
    with pytest.raises(ValueError, match="needs the 5-frame quartic; only 3 stored"):
        appell_transform(traj, 1.0, 2.0, out, np.array([0.0, 0.3, 1.0]))
    # times that map onto stored frames need no quartic, whatever the frame count
    on_frames = appell_transform(traj, 1.0, 2.0, out, np.array([0.0, 1.0]))
    exact = appell_transform(free_heat_gaussian, 1.0, 2.0, out, np.array([0.0, 1.0]))
    assert np.max(np.abs(on_frames.frames - exact.frames)) < 1e-10
    same = appell_transform(traj, 1.0, 1.0, out, traj.times)
    assert same.n_frames == 3 and np.all(np.isfinite(same.frames))


def test_appell_refuses_a_source_that_is_neither_trajectory_nor_callable():
    with pytest.raises(TypeError, match="^source must be a Trajectory or a callable u\\(x, s\\)$"):
        appell_transform(42, 1.0, 2.0, SpaceGrid(9.0, 512), np.array([0.0, 1.0]))


def test_appell_refuses_a_trajectory_whose_times_do_not_increase():
    # the quartic reads the stored times as its nodes, so they must increase
    src = evolve(gaussian_field(SpaceGrid(24.0, 1024)), zero_potential(), 0.0, 1.0, steps=16, n_frames=17)
    order = np.arange(17)
    order[[5, 9]] = order[[9, 5]]
    shuffled = replace(src, times=src.times[order], frames=src.frames[order])
    with pytest.raises(ValueError, match="^curve nodes must strictly increase$"):
        appell_transform(shuffled, 1.0, 2.0, SpaceGrid(9.0, 512), np.linspace(0.05, 0.95, 5))


# --------------------------------------------------------------- bound report


def test_interior_bound_on_critical_closed_form(grid12):
    r = 0.5
    times = np.linspace(0.0, 1.0, 101)
    frames = np.array([complex_gaussian(grid12.x, t, r) for t in times])
    from heatlab.heat import Trajectory

    traj = Trajectory(grid=grid12, times=times, frames=frames, potential=zero_potential())
    report = verify_interior_bound(traj, r, tail_tol=math.inf)
    assert report.finite
    assert report.lhs_sup > 0.0
    # the guard rejects the same run when asked to certify the truncation
    with pytest.raises(TailViolation):
        verify_interior_bound(traj, r)
    # the weight coefficient t/4(t^2+R^2) peaks at t = R inside [0, 1]
    tgrid = np.linspace(0.0, 1.0, 2001)
    coeff = tgrid / (4.0 * (tgrid**2 + r**2))
    assert abs(tgrid[int(np.argmax(coeff))] - r) < 1e-3


def test_interior_bound_marks_one_failing_interior_frame(grid12, gauss12):
    base = evolve(gauss12, zero_potential(), 0.0, 1.0, steps=500, n_frames=101)
    frames = base.frames.copy()
    frames[40, np.abs(grid12.x - 11.0) < 0.5] += 1e-3  # mass in frame 40's tail band
    traj = Trajectory(grid=grid12, times=base.times, frames=frames, potential=base.potential)
    r = 1.0
    report = verify_interior_bound(traj, r)
    assert np.isinf(report.weighted_norms[40])
    assert np.count_nonzero(np.isinf(report.weighted_norms)) == 1
    assert not report.finite
    rates = traj.times / (4.0 * (traj.times**2 + r**2))
    for i in np.delete(np.arange(traj.n_frames), 40):
        field = Field(grid12, traj.frames[i], float(traj.times[i]))
        frame_norm = weighted_norm(field, float(rates[i]))
        assert np.array_equal(report.weighted_norms[i], frame_norm)


def test_interior_bound_weights_its_frames_a_chunk_at_a_time(gauss12):
    # e^{rate x^2} |u| is formed STACK_CHUNK rows at a time; a stack-sized
    # weight or modulus would each take half the trajectory's bytes
    traj = evolve(gauss12, zero_potential(), 0.0, 1.0, steps=500, n_frames=101)
    assert traced_peak(lambda: verify_interior_bound(traj, 1.0)) < 0.5 * traj.frames.nbytes


def test_interior_bound_refuses_a_trajectory_that_starts_after_zero(gauss12):
    # the data norm ||u(0)|| is read from the first frame; from t0 = 0.5 it
    # would be the weighted norm at 0.5 (ratio 0.5457), so the run is refused
    traj = evolve(gauss12, zero_potential(), 0.5, 1.0, 200, n_frames=101)
    with pytest.raises(ValueError, match=r"^need the first frame at t = 0$"):
        verify_interior_bound(traj, 1.0)


def test_interior_bound_names_a_zero_datum(grid12):
    zero = Field(grid12, np.zeros(grid12.n, dtype=complex), 0.0)
    traj = evolve(zero, zero_potential(), 0.0, 1.0, steps=8)
    with pytest.raises(ValueError, match=r"^\|\|u\(0\)\|\| \+ the final weighted norm is 0"):
        verify_interior_bound(traj, 1.0)


@pytest.mark.parametrize("k", [-1000, -600, -520, 0, 500, 520, 600, 1000])
def test_interior_bound_ratio_is_scale_free(grid12, k):
    # the datum 2^k e^{-x^2} scales every norm by 2^k, so the ratio keeps its
    # bytes: a huge datum must not overflow, nor a tiny one read as zero
    def ratio(scale):
        datum = Field(grid12, scale * np.exp(-grid12.x**2) + 0j)
        traj = evolve(datum, zero_potential(), 0.0, 1.0, steps=1000, n_frames=101)
        return verify_interior_bound(traj, 2.5).ratio

    with np.errstate(over="raise", invalid="raise"):
        assert ratio(2.0**k).hex() == ratio(1.0).hex()


def test_interior_bound_free_heat_stable_and_monotone_in_potential():
    ratios = []
    for amp in (0.0, 0.5, 1.0):
        potential = zero_potential() if amp == 0.0 else gaussian_potential(amp, imaginary=True)
        traj = evolve(gaussian_field(SpaceGrid()), potential, 0.0, 1.0, steps=1000, n_frames=101)
        ratios.append(verify_interior_bound(traj, 1.0).ratio)
    assert ratios[0] < ratios[1] < ratios[2]


def test_interior_bound_blow_up_signature_as_time_floor_shrinks(grid12, gauss12):
    # with the critical weight x^2/4t the truncated norms explode as t -> 0+
    traj = evolve(gauss12, zero_potential(), 0.0, 1.0, steps=500, n_frames=101)
    norms = []
    for i, t in ((40, 0.4), (30, 0.3), (20, 0.2)):
        norms.append(grid12.norm(np.exp(grid12.x**2 / (4.0 * t)) * np.abs(traj.frames[i])))
    assert norms[1] / norms[0] > 100.0
    assert norms[2] / norms[1] > 1e6


# ----------------------------------------------------------------- sharpness


def test_sharpness_verdicts_and_growth():
    convergent = sharpness_probe(1.0, 0.5, 0.5)
    critical = sharpness_probe(1.0, 0.5, 1.0)
    divergent = sharpness_probe(1.0, 0.5, 1.1)
    assert convergent.verdict == "convergent"
    assert critical.verdict == "divergent"
    assert divergent.verdict == "divergent"
    assert abs(critical.growth_exponent - 0.5) < 0.05
    # super-Gaussian growth above the critical factor
    log_ratio = np.diff(np.log(divergent.norms))
    assert np.all(np.diff(log_ratio) > 0.0)
    with pytest.raises(ValueError):
        sharpness_probe(1.0, 0.5, 0.0)


def test_sharpness_probe_needs_two_boxes():
    # the growth exponent is a slope, which needs two boxes
    with pytest.raises(ValueError, match="^need at least two box widths$"):
        sharpness_probe(1.0, 0.5, 0.5, box_widths=(8.0,))


@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0], ids=["nan", "inf", "0", "-1"])
def test_R_and_t_must_be_positive_and_finite(gauss12, value):
    # an infinite R zeroes the weight yet reads as a finite ratio, and a NaN, 0
    # or negative R or t gives NaN norms or divides by zero: each is refused by name
    traj = evolve(gauss12, zero_potential(), 0.0, 1.0, steps=8, n_frames=9)
    with pytest.raises(ValueError, match=r"^need 0 < R < inf$"):
        verify_interior_bound(traj, value)
    with pytest.raises(ValueError, match=r"^need 0 < R < inf$"):
        sharpness_probe(value, 0.5, 1.1)
    with pytest.raises(ValueError, match=r"^need 0 < t < inf$"):
        sharpness_probe(1.0, value, 1.1)


def test_sharpness_critical_norm_values():
    # at the critical factor the integrand modulus is exactly constant
    report = sharpness_probe(1.0, 0.5, 1.0, box_widths=(8.0, 32.0))
    for l, value in zip(report.box_widths, report.norms):
        assert abs(value - math.sqrt(2.0 * l) * 1.25**-0.25) < 1e-12


def test_membership_threshold_just_below_and_above_critical():
    # the closed-form family belongs to the weighted space for 0.99 of the
    # critical rate and escapes it at 1.01; the margin is only 1%, so the
    # boxes must grow to ~1/sqrt(0.01 * rate) before the verdict stabilizes
    boxes = (32.0, 64.0, 128.0, 256.0)
    below = sharpness_probe(1.0, 0.5, 0.99, box_widths=boxes)
    above = sharpness_probe(1.0, 0.5, 1.01, box_widths=boxes)
    assert below.verdict == "convergent"
    assert above.verdict == "divergent"
    assert above.norms[-1] / above.norms[0] > 1e3


@pytest.mark.parametrize("factor", [0.99, 0.9999])
def test_a_factor_just_below_critical_is_convergent_on_the_default_boxes(factor):
    # the weighted integrand has not decayed by L = 64, yet its whole-line norm is finite
    assert sharpness_probe(1.0, 0.5, factor).verdict == "convergent"


@settings(max_examples=200, deadline=None)
@given(factor=st.floats(min_value=1e-300, max_value=1.5))
def test_the_verdict_is_convergent_exactly_below_the_critical_factor(factor):
    verdict = sharpness_probe(1.0, 0.5, factor, box_widths=(8.0, 16.0)).verdict
    assert verdict == ("convergent" if factor < 1.0 else "divergent")


@pytest.mark.parametrize("R", [0.5, 1.0, 2.5])
@pytest.mark.parametrize("factor", [0.01, 0.5, 0.99, 1.0, 1.01, 1.1])
def test_sharpness_norms_match_the_erf_closed_form(R, factor):
    # on [-L, L] the integral of e^{c x^2} is sqrt(pi/|c|) erf(sqrt|c| L), with erfi above c = 0
    t = 0.5
    report = sharpness_probe(R, t, factor)
    c = (factor - 1.0) * t / (2.0 * (t**2 + R**2))
    root = math.sqrt(abs(c))
    for L, norm in zip(report.box_widths, report.norms):
        if c < 0.0:
            integral = math.sqrt(math.pi) / root * special.erf(root * L)
        elif c > 0.0:
            integral = math.sqrt(math.pi) / root * special.erfi(root * L)
        else:
            integral = 2.0 * L
        exact = math.sqrt((t**2 + R**2) ** -0.5 * integral)
        assert abs(norm - exact) <= 1e-13 * exact
