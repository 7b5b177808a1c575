import gc
import os
from dataclasses import replace

import numpy as np
import pytest

from conftest import read_csv, traced_peak
from heatlab.errors import GridError, TailViolation
from heatlab.grid import (
    DEFAULT_TAIL_TOL,
    Field,
    PotentialSpec,
    SpaceGrid,
    gaussian_field,
    gaussian_potential,
    require_tail,
    zero_potential,
)
from heatlab.heat import (
    Trajectory,
    apply_skew,
    apply_symmetric,
    commutator_identity,
    complex_gaussian,
    conjugated_parts,
    evolve,
    pde_residual,
)
from heatlab.timecurve import TimeCurve, uniform_grid, write_csv
from heatlab.weights import WeightFamily, antiderivative, limit_family


def constant_potential(value: complex) -> PotentialSpec:
    """V(x, t) = value, declared time-independent."""
    return PotentialSpec(
        fn=lambda x, t: np.full_like(x, value, dtype=complex),
        sup_norm=abs(value), time_independent=True,
    )


def zero_family(m=512):
    z = TimeCurve(np.zeros(m + 1))
    return WeightFamily(delta=3.0, a=z, A=z, b=z, T=z)


@pytest.mark.parametrize("rate", [0.5, 1.0, 2.0])
def test_free_heat_matches_gaussian_kernel(grid12, rate):
    # e^{-r x^2} evolves to (1+4rt)^{-1/2} e^{-r x^2/(1+4rt)}, at every stored frame
    u0 = Field(grid=grid12, values=np.exp(-rate * grid12.x**2) + 0j)
    traj = evolve(u0, zero_potential(), 0.0, 0.25, steps=256)
    assert traj.n_frames == 257
    for t, frame in zip(traj.times, traj.frames):
        spread = 1.0 + 4.0 * rate * t
        exact = spread**-0.5 * np.exp(-rate * grid12.x**2 / spread)
        assert grid12.norm(frame - exact) < 1e-6


def test_free_heat_takes_two_real_transforms_for_the_datum_and_two_per_frame(
    grid12, gauss12, monkeypatch
):
    calls = {"fft": 0, "ifft": 0, "rfft": 0, "irfft": 0}
    for name in calls:
        original = getattr(np.fft, name)

        def counted(a, *args, _name=name, _original=original, **kwargs):
            calls[_name] += np.size(a) // np.shape(a)[-1]  # rows transformed, one call or many
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    traj = evolve(gauss12, zero_potential(), 0.0, 1.0, steps=2048, n_frames=17)
    # the datum is frame 0; each part of each later frame is one multiplier on that part's spectrum
    assert calls == {"fft": 0, "ifft": 0, "rfft": 2, "irfft": 2 * (traj.n_frames - 1)}


UNEQUAL_TIMES = np.array([0.0, 1e-3, 0.01, 0.0105, 0.2, 0.5, 0.51, 1.0])


@pytest.mark.parametrize("frames", [{"n_frames": 251}, {"frame_times": UNEQUAL_TIMES}])
def test_free_frames_of_a_real_datum_are_exactly_real(gauss12, frames):
    traj = evolve(gauss12, zero_potential(), 0.0, 1.0, steps=250, **frames)
    assert traj.frames.imag.tobytes() == bytes(traj.frames.imag.nbytes)  # +0.0 everywhere


def chirped_datum(grid):
    """e^{-x^2} e^{ix}: both parts nonzero, so a route that drops either one shows."""
    return Field(grid, np.exp(-grid.x**2 + 1j * grid.x))


@pytest.mark.parametrize("frames", [{"n_frames": 65}, {"frame_times": UNEQUAL_TIMES}])
def test_free_frames_of_a_complex_datum_match_the_complex_transform_route(grid12, frames):
    # bound fixed before measuring: a few hundred ulps of the unit peak
    u0 = chirped_datum(grid12)
    traj = evolve(u0, zero_potential(), 0.0, 1.0, steps=64, **frames)
    elapsed = traj.times[:, None] - traj.times[0]
    direct = np.fft.ifft(np.exp(-elapsed * grid12.wavenumbers**2) * np.fft.fft(u0.values), axis=-1)
    assert np.max(np.abs(traj.frames - direct)) < 1e-13


def test_free_evolution_commutes_with_conjugation_and_splits_into_parts_bitwise(grid12):
    u0 = chirped_datum(grid12)
    free = lambda values: evolve(Field(grid12, values), zero_potential(), 0.0, 1.0, 64).frames
    frames = free(u0.values)
    # bitwise up to the sign of zero: where the far tails cancel to +0.0, conj makes -0.0
    assert (free(np.conj(u0.values)) + 0.0).tobytes() == (np.conj(frames) + 0.0).tobytes()
    assert free(u0.values.real + 0j).tobytes() == (frames.real + 0j).tobytes()
    assert free(u0.values.imag + 0j).tobytes() == (frames.imag + 0j).tobytes()


def chunk_and_columns(family, grid, gauss, n_frames=16):
    traj = evolve(gauss, gaussian_potential(0.5, imaginary=True), 0.0, 1.0, steps=512, n_frames=257)
    times = traj.times[40 : 40 + n_frames]
    rows = family.derivatives_at(times)
    return traj.frames[40 : 40 + n_frames], times, {name: col[:, None] for name, col in rows.items()}


def test_conjugated_parts_on_a_chunk_equals_the_frame_calls(grid12, gauss12, family3):
    frames, times, columns = chunk_and_columns(family3, grid12, gauss12)
    sf, af = conjugated_parts(frames, grid12, columns, 1.0)
    assert sf.shape == af.shape == frames.shape
    for i, t in enumerate(times):
        s_one, a_one = conjugated_parts(frames[i], grid12, family3.derivatives_at(t), 1.0)
        assert sf[i].tobytes() == s_one.tobytes() and af[i].tobytes() == a_one.tobytes()


def test_conjugated_parts_takes_one_fft_and_two_inverses_per_chunk(
    grid12, gauss12, family3, monkeypatch
):
    frames, _, columns = chunk_and_columns(family3, grid12, gauss12)
    calls = {"fft": 0, "ifft": 0}
    for name in calls:
        original = getattr(np.fft, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    conjugated_parts(frames, grid12, columns, 1.0)
    # one spectrum feeds both the Laplacian and d_x
    assert calls == {"fft": 1, "ifft": 2}


def test_free_heat_steps_only_validate(grid12, gauss12):
    coarse = evolve(gauss12, zero_potential(), 0.0, 0.5, steps=4, n_frames=5)
    fine = evolve(gauss12, zero_potential(), 0.0, 0.5, steps=4096, n_frames=5)
    assert np.array_equal(coarse.frames, fine.frames)
    assert np.array_equal(coarse.frames[0], gauss12.values)


def test_constant_potential_is_a_gauge_factor(grid12, gauss12):
    t1 = 0.25
    traj = evolve(gauss12, constant_potential(0.7), 0.0, t1, steps=256)
    free = evolve(gauss12, zero_potential(), 0.0, t1, steps=256)
    assert grid12.norm(traj.frames[-1] - np.exp(0.7 * t1) * free.frames[-1]) < 1e-10


def test_energy_inequality_complex_potential(grid12, gauss12):
    potential = gaussian_potential(1.0, imaginary=True)
    traj = evolve(gauss12, potential, 0.0, 1.0, steps=1024)
    norms = grid12.norm(traj.frames)
    slack = norms - np.exp(potential.sup_norm * traj.times) * norms[0]
    assert np.max(slack) <= 1e-6


def test_strang_splitting_is_second_order(grid12, gauss12):
    potential = gaussian_potential(1.0)
    ref = evolve(gauss12, potential, 0.0, 0.5, steps=8192, n_frames=2).frames[-1]
    errs = []
    for steps in (64, 128, 256):
        got = evolve(gauss12, potential, 0.0, 0.5, steps=steps, n_frames=2).frames[-1]
        errs.append(grid12.norm(got - ref))
    assert 3.2 < errs[0] / errs[1] < 4.8
    assert 3.2 < errs[1] / errs[2] < 4.8


def quarter_point_strang(u0, potential, t0, t1, steps, n_frames):
    """The general Strang loop, V sampled at the quarter points of every step."""
    grid = u0.grid
    x, xi2 = grid.x, grid.wavenumbers**2
    frame_times = t0 + (t1 - t0) * np.arange(n_frames) / (n_frames - 1)
    dt = (t1 - t0) / steps
    diffusion = np.exp(-dt * xi2)
    u = u0.values
    frames = [u]
    t = t0
    for target in frame_times[1:]:
        for _ in range(steps // (n_frames - 1)):
            u = u * np.exp(0.5 * dt * potential(x, t + 0.25 * dt))
            u = np.fft.ifft(diffusion * np.fft.fft(u))
            u = u * np.exp(0.5 * dt * potential(x, t + 0.75 * dt))
            t += dt
        t = float(target)
        frames.append(u)
    return np.array(frames)


@pytest.mark.parametrize(
    "potential",
    [gaussian_potential(1.0), gaussian_potential(0.5, imaginary=True), constant_potential(0.7)],
    ids=["gauss-real", "gauss-imag", "constant"],
)
def test_static_strang_matches_quarter_point_scheme(grid12, gauss12, potential):
    assert potential.time_independent
    traj = evolve(gauss12, potential, 0.0, 1.0, steps=512, n_frames=9)
    oracle = quarter_point_strang(gauss12, potential, 0.0, 1.0, 512, 9)
    for got, want in zip(traj.frames, oracle):
        assert grid12.norm(got - want) <= 1e-13 * grid12.norm(want)
    general = replace(potential, time_independent=False)
    general = evolve(gauss12, general, 0.0, 1.0, steps=512, n_frames=9)
    assert np.array_equal(general.frames, oracle)


def test_static_potential_is_evaluated_once(grid12, gauss12):
    calls = []
    base = gaussian_potential(0.5, imaginary=True)
    counted = replace(base, fn=lambda x, t: calls.append(t) or base.fn(x, t))
    traj = evolve(gauss12, counted, 0.0, 1.0, steps=1024, n_frames=257)
    assert len(calls) == 1
    general = replace(traj, potential=replace(base, time_independent=False))
    assert pde_residual(traj) == pde_residual(general)
    assert len(calls) == 2


def test_pde_residual_memory_stays_below_one_frame_stack(gauss12):
    # d_t u is taken STACK_CHUNK frames at a time in one reused block; a
    # whole-stack derivative alone would be one stack
    potential = gaussian_potential(0.5, imaginary=True)
    traj = evolve(gauss12, potential, 0.0, 1.0, steps=1024, n_frames=257)
    assert traced_peak(lambda: pde_residual(traj)) < 0.75 * traj.frames.nbytes


def test_time_dependent_potential_stays_second_order(grid12, gauss12):
    # (1 + t) e^{-x^2} on [0, 1] has sup norm 2 and runs the quarter-point path
    potential = PotentialSpec(
        fn=lambda x, t: (1.0 + t) * np.exp(-(x**2)), sup_norm=2.0
    )
    assert not potential.time_independent
    ref = evolve(gauss12, potential, 0.0, 1.0, steps=8192, n_frames=2).frames[-1]
    errs = []
    for steps in (64, 128, 256):
        got = evolve(gauss12, potential, 0.0, 1.0, steps=steps, n_frames=2).frames[-1]
        errs.append(grid12.norm(got - ref))
    assert 3.2 < errs[0] / errs[1] < 4.8
    assert 3.2 < errs[1] / errs[2] < 4.8


def test_evolve_argument_guards(grid12, gauss12):
    with pytest.raises(ValueError, match="^need n_frames >= 2$"):
        evolve(gauss12, zero_potential(), 0.0, 1.0, steps=100, n_frames=1)
    with pytest.raises(ValueError):
        evolve(gauss12, zero_potential(), 1.0, 0.0, steps=10)


def test_evolve_refuses_zero_steps(gauss12):
    with pytest.raises(ValueError, match="^need steps >= 1$"):
        evolve(gauss12, zero_potential(), 0.0, 1.0, steps=0)


def test_grid_and_field_guards(grid12):
    with pytest.raises(ValueError, match="^n must be a power of two >= 256$"):
        SpaceGrid(n=300)
    with pytest.raises(ValueError, match="^values must match the grid point count$"):
        Field(grid12, np.zeros(grid12.n + 1))


def test_potential_sup_norm_is_enforced(grid12, gauss12):
    lying = PotentialSpec(fn=lambda x, t: 2.0 * np.exp(-(x**2)), sup_norm=1.0)
    # a NaN peak compares False with any bound, so it must not pass as "not above" it
    holed = PotentialSpec(fn=lambda x, t: np.where(np.abs(x) < 1.0, np.nan, 0.1), sup_norm=0.5)
    for potential in (lying, holed):
        with pytest.raises(ValueError, match="sup norm"):
            evolve(gauss12, potential, 0.0, 0.1, steps=100)
        with pytest.raises(ValueError, match="sup norm"):
            evolve(gauss12, replace(potential, time_independent=True), 0.0, 0.1, steps=100)


def test_complex_gaussian_modulus():
    #  |u_R| = (t^2+R^2)^{-1/4} exp(-t x^2 / 4(t^2+R^2))
    assert abs(abs(complex_gaussian(0.0, 0.0, 1.0)) - 1.0) < 1e-15
    val = abs(complex_gaussian(2.0, 0.5, 1.0))
    assert abs(val - 1.25**-0.25 * np.exp(-0.5 * 4.0 / 5.0)) < 1e-15
    with pytest.raises(ValueError):
        complex_gaussian(1.0, 0.0, 0.0)


def test_closed_form_solution_flags_tail_at_start(grid12):
    u0 = Field(grid12, complex_gaussian(grid12.x, 0.0, 1.0), 0.0)
    assert not u0.tail_fraction() <= DEFAULT_TAIL_TOL
    traj = evolve(u0, zero_potential(), 0.0, 1.0, steps=512)
    assert not grid12.mass(traj.frames)[2][0] <= DEFAULT_TAIL_TOL


def test_solver_matches_closed_form_from_positive_start():
    # from t0 = 0.35 the closed-form datum is localized and the match is global;
    # the box is sized so the truncated data tails stay below the target
    grid = SpaceGrid(half_width=16.0, n=2048)
    u0 = Field(grid, complex_gaussian(grid.x, 0.35, 1.0), 0.35)
    assert u0.tail_fraction() <= DEFAULT_TAIL_TOL
    traj = evolve(u0, zero_potential(), 0.35, 1.0, steps=1024)
    exact = complex_gaussian(grid.x, 1.0, 1.0)
    assert grid.norm(traj.frames[-1] - exact) < 1e-6


def test_solver_matches_closed_form_from_zero_away_from_seam():
    # the modulus-one datum at t = 0 contaminates a diffusion-length
    # neighborhood of the periodic seam; the interior stays clean
    grid = SpaceGrid(half_width=16.0, n=2048)
    u0 = Field(grid, complex_gaussian(grid.x, 0.0, 1.0), 0.0)
    traj = evolve(u0, zero_potential(), 0.0, 1.0, steps=1024)
    exact = complex_gaussian(grid.x, 1.0, 1.0)
    window = np.abs(grid.x) <= 8.0
    err = np.sqrt(grid.dx * np.sum(np.abs(traj.frames[-1] - exact)[window] ** 2))
    assert err < 1e-6


def test_apply_symmetric_reduces_to_laplacian(grid12):
    fam = zero_family()
    mode = Field(grid=grid12, values=np.exp(1j * np.pi * grid12.x / grid12.half_width))
    out = apply_symmetric(mode, fam, 0.5, 0.7)
    eig = -((np.pi / grid12.half_width) ** 2)
    assert grid12.norm(out.values - eig * mode.values) < 1e-10
    skew = apply_skew(mode, fam, 0.5, 0.7)
    assert grid12.norm(skew.values) == 0.0


def test_apply_symmetric_constant_coefficient_oracle(grid12):
    # a(t) = t gives a' + 4a^2 = 1 at t = 0 with all other coefficients zero,
    # so S = Lap + x^2; on e^{-x^2/2} that is (2x^2 - 1) e^{-x^2/2}
    m = 512
    t = uniform_grid(m)
    a = TimeCurve(t)
    fam = WeightFamily(
        delta=3.0, a=a, A=antiderivative(a), b=TimeCurve(np.zeros(m + 1)),
        T=TimeCurve(np.zeros(m + 1)),
    )
    f = Field(grid=grid12, values=np.exp(-grid12.x**2 / 2.0) + 0j)
    out = apply_symmetric(f, fam, 0.0, 0.0)
    exact = (2.0 * grid12.x**2 - 1.0) * f.values
    assert grid12.norm(out.values - exact) < 1e-8


def test_symmetry_and_skew_symmetry(grid12, family3):
    x = grid12.x
    f = Field(grid=grid12, values=np.exp(-x**2 / 2) * (1 + 0.3 * x) + 0.2j * np.exp(-x**2))
    g = Field(grid=grid12, values=np.exp(-x**2 / 3) * (1 - 0.5 * x) + 0.1j * x * np.exp(-x**2 / 2))
    sf = apply_symmetric(f, family3, 0.5, 1.0).values
    sg = apply_symmetric(g, family3, 0.5, 1.0).values
    lhs, rhs = grid12.inner(sf, g.values), grid12.inner(f.values, sg)
    assert abs(lhs - rhs) / abs(lhs) < 1e-8
    af = apply_skew(f, family3, 0.5, 1.0).values
    ag = apply_skew(g, family3, 0.5, 1.0).values
    pair = grid12.inner(af, g.values) + grid12.inner(f.values, ag)
    assert abs(pair) < 1e-8 * abs(grid12.inner(af, g.values))
    # <Af, f> is purely imaginary
    diag = grid12.inner(af, f.values)
    assert abs(diag.real) < 1e-10 * max(1.0, abs(diag))


def test_skew_zero_order_term_on_flat_bump(grid12):
    m = 512
    c = 0.17
    a = TimeCurve(np.full(m + 1, c))
    fam = WeightFamily(
        delta=3.0, a=a, A=TimeCurve(c * (uniform_grid(m) - 1.0)),
        b=TimeCurve(np.zeros(m + 1)), T=TimeCurve(np.zeros(m + 1)),
    )
    bump = Field(grid=grid12, values=np.exp(-((grid12.x / 7.0) ** 8)) + 0j)
    out = apply_skew(bump, fam, 0.5, 0.0)
    center = grid12.n // 2
    assert abs(out.values[center] - (-2.0 * c * bump.values[center])) < 1e-10


def test_commutator_identity_fixed_point_xi_zero(grid12):
    fam = limit_family(3.0)
    f = Field(grid=grid12, values=np.exp(-grid12.x**2 / 2.0) + 0j)
    lhs, rhs = commutator_identity(f, fam, 0.5, 0.0)
    ident = fam.derivatives["ident"]
    direct = float(
        ident[fam.a.node_index(0.5)]
        * grid12.dx
        * np.sum(grid12.x**2 * np.abs(f.values) ** 2)
    )
    scale = grid12.dx * np.sum((1.0 + grid12.x**2) * np.abs(f.values) ** 2)
    assert abs(lhs - rhs) < 1e-9 * scale
    assert abs(rhs - direct) < 1e-12 * scale
    assert lhs > -1e-12 * scale


def test_commutator_identity_first_family(grid12, family3):
    f = Field(grid=grid12, values=np.exp(-grid12.x**2 / 2.0) + 0j)
    lhs, rhs = commutator_identity(f, family3, 0.5, 1.0)
    assert rhs > 0.0
    assert abs(lhs - rhs) / rhs < 1e-4


def test_commutator_positivity_random_sweep(grid12, family3):
    rng = np.random.default_rng(42)
    x = grid12.x
    nodes = family3.a.nodes
    for _ in range(20):
        coeffs = rng.normal(size=4)
        t = float(nodes[rng.integers(1, nodes.size - 1)])
        xi = float(rng.uniform(-2.0, 2.0))
        poly = coeffs[0] + coeffs[1] * x + coeffs[2] * x**2 + coeffs[3] * x**3
        f = Field(grid=grid12, values=poly * np.exp(-x**2 / 2.0) + 0j)
        lhs, rhs = commutator_identity(f, family3, t, xi)
        scale = rhs + f.norm() ** 2 * (1.0 + xi**2)
        assert lhs >= -1e-8 * scale
        assert abs(lhs - rhs) <= 1e-4 * scale


def test_pde_residual_small_for_solver_output(grid12, gauss12):
    traj = evolve(gauss12, gaussian_potential(0.5), 0.0, 1.0, steps=1024, n_frames=257)
    assert pde_residual(traj) < 1e-4



@pytest.mark.parametrize("n_frames", [1, 2, 4])
def test_pde_residual_refuses_fewer_frames_than_a_stencil_naming_the_count(gauss12, n_frames):
    traj = evolve(gauss12, zero_potential(), 0.0, 0.5, steps=64, n_frames=65)
    short = replace(traj, times=traj.times[:n_frames], frames=traj.frames[:n_frames])
    with pytest.raises(GridError, match=f"^need at least 5 samples, got {n_frames}$"):
        pde_residual(short)

def test_nan_frame_is_never_hidden(grid12, gauss12):
    traj = evolve(gauss12, zero_potential(), 0.0, 0.5, steps=64, n_frames=65)
    traj.frames[40, 100] = np.nan
    assert np.isnan(pde_residual(traj))
    with pytest.raises(TailViolation):
        require_tail(grid12.mass(traj.frames[40])[2], traj.times[40])


def test_grid_tail_fraction_of_a_stack_matches_fields(grid12, gauss12):
    traj = evolve(gauss12, zero_potential(), 0.0, 0.5, steps=64, n_frames=5)
    frames = np.vstack([traj.frames, np.zeros(grid12.n), np.exp(-((grid12.x - 11.0) ** 2))])
    frames[2, 7] = np.nan
    got = grid12.mass(frames)[2]
    assert got.shape == (frames.shape[0],)
    for row, frac in zip(frames, got):
        field = Field(grid=grid12, values=row)
        assert np.array_equal(frac, field.tail_fraction(), equal_nan=True)
    assert got[5] == 0.0 and got[6] > 0.5
    assert np.isnan(got[2])
    assert not Field(grid=grid12, values=frames[2]).tail_fraction() <= DEFAULT_TAIL_TOL


def field_with_spike(x0, value=np.inf):
    # e^{-x^2} on L = 12, n = 256 with the node nearest x = x0 set to value
    u = gaussian_field(SpaceGrid(half_width=12.0, n=256))
    values = u.values.copy()
    values[np.argmin(np.abs(u.grid.x - x0))] = value
    return Field(u.grid, values, u.time)


def test_inf_outside_the_tail_band_fails_the_tail_guard():
    # an infinite total must not turn the band mass into a fraction of 0
    field = field_with_spike(0.0)
    assert np.isnan(field.tail_fraction()) and not field.tail_fraction() <= DEFAULT_TAIL_TOL
    with pytest.raises(TailViolation):
        require_tail(field.tail_fraction(), field.time)


def test_inf_inside_the_tail_band_is_a_tail_violation():
    # inf / inf must not escape the guard as a FloatingPointError
    field = field_with_spike(-11.5)
    with pytest.raises(TailViolation):
        require_tail(field.tail_fraction(), field.time)


def test_huge_finite_value_outside_the_tail_band_passes_the_tail_guard():
    # squaring 1e160 overflows; the guard scales each row by its peak first
    field = field_with_spike(0.0, 1e160)
    assert field.tail_fraction() <= DEFAULT_TAIL_TOL
    require_tail(field.tail_fraction(), field.time)


def test_huge_finite_value_inside_the_tail_band_is_a_tail_violation():
    field = field_with_spike(-11.5, 1e160)
    assert not field.tail_fraction() <= DEFAULT_TAIL_TOL
    with pytest.raises(TailViolation):
        require_tail(field.tail_fraction(), field.time)


def test_grid_mass_of_a_stack_gives_each_rows_mass_scale_and_tail():
    # one pass keeps every row rule: a zero row, a NaN row, inf and 1e160 spikes inside
    # and outside the tail band and a 1e-160 row, with no FloatingPointError on the way
    grid = SpaceGrid(half_width=12.0, n=256)
    gauss = gaussian_field(grid).values
    spikes = [field_with_spike(x0, v).values for v in (np.inf, 1e160) for x0 in (0.0, -11.5)]
    stack = np.array([gauss, np.zeros(grid.n), np.full(grid.n, np.nan), *spikes, 1e-160 * gauss])
    with np.errstate(over="raise", invalid="raise"):
        mass, scale, tail = grid.mass(stack)
        for i, row in enumerate(stack):
            assert np.array_equal(tail[i], Field(grid, row).tail_fraction(), equal_nan=True)
            assert np.array_equal((mass[i], scale[i]), grid.mass(row)[:2], equal_nan=True)
    assert tail[1] == 0.0 and mass[1] == 0.0
    assert np.all(np.isnan(tail[2:5])) and not np.any(tail[2:5] <= DEFAULT_TAIL_TOL)
    assert tail[5] <= DEFAULT_TAIL_TOL < tail[6]
    assert np.array_equal(scale, [1.0, 1.0, 1.0, 1.0, 1.0, 1e160, 1e160, 1e-160])
    assert tail[7] == pytest.approx(tail[0]) and mass[7] == pytest.approx(mass[0])


def small_imaginary_run():
    """The Gaussian datum on 256 points of [-12, 12) and V = 0.5i e^{-x^2}."""
    return gaussian_field(SpaceGrid(half_width=12.0, n=256)), gaussian_potential(0.5, imaginary=True)


@pytest.mark.parametrize("n_frames", [101, 251, 257])
@pytest.mark.parametrize("steps", [1, 100, 1000])
def test_evolve_fits_whole_steps_to_each_frame_interval(steps, n_frames):
    # a target step count gives the bytes of the next multiple of the frame stride
    u0, potential = small_imaginary_run()
    stride = n_frames - 1
    rounded = -(-steps // stride) * stride
    got = evolve(u0, potential, 0.0, 1.0, steps=steps, n_frames=n_frames)
    want = evolve(u0, potential, 0.0, 1.0, steps=rounded, n_frames=n_frames)
    assert got.frames.tobytes() == want.frames.tobytes()
    assert got.times.tobytes() == want.times.tobytes()


def test_evolve_takes_any_steps_for_any_frame_count():
    u0, potential = small_imaginary_run()
    got = evolve(u0, potential, 0.0, 1.0, steps=100, n_frames=64)  # 63 intervals of 2 steps
    want = evolve(u0, potential, 0.0, 1.0, steps=126, n_frames=64)
    assert got.frames.tobytes() == want.frames.tobytes()
    # the default frame count is min(steps + 1, 257), whether or not it divides the steps
    assert evolve(u0, potential, 0.0, 1.0, steps=1000).n_frames == 257
    assert evolve(u0, potential, 0.0, 1.0, steps=7).n_frames == 8


def test_grid_axes_are_read_only_and_built_once(monkeypatch):
    calls = []
    fftfreq = np.fft.fftfreq

    def counted(*args, **kwargs):
        calls.append(args)
        return fftfreq(*args, **kwargs)

    monkeypatch.setattr(np.fft, "fftfreq", counted)
    grid = SpaceGrid(half_width=7.25, n=512)
    x, xi = grid.x, grid.wavenumbers
    assert grid.x is x and grid.wavenumbers is xi
    assert len(calls) == 1
    assert np.array_equal(x, -7.25 + grid.dx * np.arange(512))
    assert np.array_equal(xi, 2.0 * np.pi * fftfreq(512, d=grid.dx))
    for axis in (x, xi):
        with pytest.raises(ValueError, match="read-only"):
            axis[0] = 1.0


def test_norms_of_a_huge_datum_do_not_overflow():
    # squaring 1e160 overflows; the norm divides a huge row by its peak first
    grid = SpaceGrid(half_width=12.0, n=256)
    u0 = gaussian_field(grid)
    traj = evolve(u0, zero_potential(), 0.0, 0.5, steps=64, n_frames=5)
    huge = evolve(Field(grid, 1e160 * u0.values), zero_potential(), 0.0, 0.5, steps=64, n_frames=5)
    norms = grid.norm(huge.frames)
    assert np.all(np.isfinite(norms))
    assert np.max(np.abs(norms / (1e160 * grid.norm(traj.frames)) - 1.0)) <= 1e-14
    first, base = (Field(grid, tr.frames[0], float(tr.times[0])).norm() for tr in (huge, traj))
    assert abs(first / (1e160 * base) - 1.0) <= 1e-14


def read_saved(directory):
    """(grid, times, frames) of a saved trajectory, read back with ``read_csv``."""
    rows = [row.split(",") for row in (directory / "frames.csv").read_text().splitlines()[1:]]
    columns = [read_csv(directory / name, "x,re,im") for _, _, name in rows]
    x = columns[0][0]
    grid = SpaceGrid(half_width=-x[0], n=x.size)
    times = np.array([float(t) for _, t, _ in rows])
    return grid, times, np.array([re + 1j * im for _, re, im in columns])


def test_trajectory_save_load_round_trip(tmp_path, grid12, gauss12):
    traj = evolve(gauss12, zero_potential(), 0.0, 0.5, steps=64, n_frames=5)
    traj.save(tmp_path / "run").wait()
    assert (tmp_path / "run" / "frames.csv").read_text().splitlines()[0] == "index,t,file"
    _, times, frames = read_saved(tmp_path / "run")
    assert np.max(np.abs(frames - traj.frames)) < 1e-11
    assert np.array_equal(times, traj.times)


def assert_frames_are_write_csv_bytes(traj, directory, scratch):
    traj.save(directory).wait()
    for i in range(traj.n_frames):
        scratch.unlink(missing_ok=True)  # a new file writes faster than a truncated one
        write_csv(scratch, "x,re,im", traj.grid.x, traj.frames[i].real, traj.frames[i].imag)
        assert (directory / f"frame_{i:04d}.csv").read_bytes() == scratch.read_bytes()


SPECIAL = [-0.0 + 5e-324j, complex(np.inf, -np.inf), complex(np.nan, 1e12)]


def n_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


@pytest.fixture
def two_cpus(monkeypatch):
    n_cpus(monkeypatch, 2)


def test_saved_frames_are_write_csv_bytes(tmp_path, grid12, two_cpus, popen_spy):
    # frame 0 is not localized, so the round trip must keep its tail fraction above the tol
    u0 = Field(grid12, complex_gaussian(grid12.x, 0.0, 1.0), 0.0)
    pot = gaussian_potential(0.5, imaginary=True)
    for n_frames in (2, 5, 251):
        traj = evolve(u0, pot, 0.0, 0.5, steps=500, n_frames=n_frames)
        traj.save(tmp_path / f"run_{n_frames}").wait()
        grid, _, frames = read_saved(tmp_path / f"run_{n_frames}")
        tail_flags = grid.mass(frames)[2] <= DEFAULT_TAIL_TOL
        assert not tail_flags[0]
        assert np.array_equal(tail_flags, traj.grid.mass(traj.frames)[2] <= DEFAULT_TAIL_TOL)
        # one helper writes frames [0, half) and the other frames [half, n_frames)
        half = n_frames // 2
        special = replace(traj, frames=traj.frames.copy())
        special.frames[[half - 1, half], :3] = SPECIAL
        directory = tmp_path / f"special_{n_frames}"
        assert_frames_are_write_csv_bytes(special, directory, tmp_path / "ref.csv")
    assert [helper.returncode for helper in popen_spy] == [0] * 12


def test_a_one_frame_trajectory_is_saved_by_one_helper(tmp_path, grid12, gauss12, two_cpus, popen_spy):
    values = gauss12.values.copy()
    values[:3] = SPECIAL
    traj = Trajectory(grid12, [0.0], values[None], zero_potential())
    assert_frames_are_write_csv_bytes(traj, tmp_path / "run", tmp_path / "ref.csv")
    assert [helper.returncode for helper in popen_spy] == [0]


def test_a_trajectory_refuses_frames_that_do_not_match_its_times(grid12, gauss12):
    # readers pair frame j with time j: 33 times over 65 frames would misplace every frame
    traj = evolve(gauss12, zero_potential(), 0.0, 0.5, steps=64, n_frames=65)
    with pytest.raises(ValueError, match=r"^frames \(65, 1024\) do not match \(times, points\) \(33, 1024\)$"):
        Trajectory(grid12, traj.times[::2], traj.frames, traj.potential)
    with pytest.raises(ValueError, match=r"^frames \(65, 512\) do not match \(times, points\) \(65, 1024\)$"):
        Trajectory(grid12, traj.times, traj.frames[:, ::2], traj.potential)
    with pytest.raises(ValueError, match=r"^frames \(1024,\) do not match \(times, points\) \(1, 1024\)$"):
        Trajectory(grid12, [0.0], gauss12.values, zero_potential())


def test_one_cpu_saves_every_frame_in_one_helper(tmp_path, gauss12, popen_spy, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    traj = evolve(gauss12, zero_potential(), 0.0, 0.5, steps=64, n_frames=5)
    assert_frames_are_write_csv_bytes(traj, tmp_path / "run", tmp_path / "ref.csv")
    assert [helper.returncode for helper in popen_spy] == [0]


@pytest.mark.filterwarnings("error::ResourceWarning")
def test_frame_helper_failures_raise_and_leave_no_process(tmp_path, gauss12, two_cpus, popen_spy):
    traj = evolve(gauss12, zero_potential(), 0.0, 0.5, steps=64, n_frames=5)
    traj.save(tmp_path / "ok").wait()
    assert [helper.returncode for helper in popen_spy] == [0, 0]
    # of 5 frames one helper writes frames 0 and 1 and the other frames 2 to 4
    for index, failure in ((3, "frame helper exited with code 1"), (0, "Is a directory")):
        blocked = tmp_path / f"blocked_{index}" / f"frame_{index:04d}.csv"
        blocked.mkdir(parents=True)
        with pytest.raises(OSError, match=failure) as raised:
            traj.save(blocked.parent).wait()
        assert str(blocked) in str(raised.value)
        assert not (blocked.parent / "frames.csv").exists()
    assert [helper.returncode for helper in popen_spy] == [0, 0, 0, 1, 1, 0]
    gc.collect()


@pytest.mark.parametrize(
    "cpus, n_frames, firsts",
    [(1, 5, [0]), (2, 5, [0, 2]), (3, 5, [0, 1, 3]), (3, 2, [0, 1])],
    ids=["1-cpu", "2-cpus", "3-cpus", "3-cpus-2-frames"],
)
def test_one_helper_per_cpu_and_at_most_one_per_frame(
    tmp_path, gauss12, popen_spy, monkeypatch, cpus, n_frames, firsts
):
    n_cpus(monkeypatch, cpus)
    traj = evolve(gauss12, zero_potential(), 0.0, 0.5, steps=64, n_frames=n_frames)
    traj.save(tmp_path / "run").wait()
    # each helper's argv ends with its first frame and the points per frame
    assert [int(helper.args[-2]) for helper in popen_spy] == firsts
    assert [helper.returncode for helper in popen_spy] == [0] * len(firsts)
    assert len(read_saved(tmp_path / "run")[2]) == n_frames


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_special_values_keep_their_bytes_at_every_share_boundary(
    tmp_path, gauss12, popen_spy, monkeypatch, cpus
):
    n_cpus(monkeypatch, cpus)
    traj = evolve(gauss12, zero_potential(), 0.0, 0.5, steps=64, n_frames=7)
    special = replace(traj, frames=traj.frames.copy())
    firsts = [share * 7 // cpus for share in range(cpus)]
    for first in firsts:  # the last frame of the share before and the first of this one
        special.frames[[first - 1, first], :3] = SPECIAL
    assert_frames_are_write_csv_bytes(special, tmp_path / "run", tmp_path / "ref.csv")
    assert [int(helper.args[-2]) for helper in popen_spy] == firsts


@pytest.mark.filterwarnings("error::ResourceWarning")
@pytest.mark.parametrize(
    "blocked_frames, codes",
    [((0,), [1, 0, 0]), ((3,), [0, 1, 0]), ((6,), [0, 0, 1]), ((1, 4), [1, 0, 1])],
    ids=["first-share", "middle-share", "last-share", "two-shares"],
)
def test_a_blocked_frame_in_any_share_fails_the_wait(
    tmp_path, gauss12, popen_spy, monkeypatch, blocked_frames, codes
):
    # 7 frames on 3 CPUs: the helpers write frames 0 and 1, 2 and 3, and 4 to 6
    n_cpus(monkeypatch, 3)
    traj = evolve(gauss12, zero_potential(), 0.0, 0.5, steps=64, n_frames=7)
    directory = tmp_path / "run"
    for index in blocked_frames:
        (directory / f"frame_{index:04d}.csv").mkdir(parents=True)
    pending = traj.save(directory)
    with pytest.raises(OSError, match="frame helper exited with code 1") as raised:
        pending.wait()
    for index in blocked_frames:
        assert str(directory / f"frame_{index:04d}.csv") in str(raised.value)
    assert not (directory / "frames.csv").exists()
    assert [helper.returncode for helper in popen_spy] == codes
    gc.collect()
