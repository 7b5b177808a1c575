import numpy as np
import pytest

from heatlab import (
    Field,
    SpaceGrid,
    TimeCurve,
    Trajectory,
    WeightFamily,
    apply_skew,
    apply_symmetric,
    commutator_identity,
    complex_gaussian,
    complex_gaussian_field,
    constant_potential,
    evolve,
    gaussian_field,
    gaussian_potential,
    limit_family,
    pde_residual,
    zero_potential,
)
from heatlab.errors import TailViolation
from heatlab.timecurve import uniform_grid
from heatlab.weights import antiderivative, growth_identity


def zero_family(m=512):
    z = TimeCurve(np.zeros(m + 1))
    return WeightFamily(delta=3.0, a=z, A=z, b=z, T=z)


@pytest.mark.parametrize("rate", [0.5, 1.0, 2.0])
def test_free_heat_matches_gaussian_kernel(grid12, rate):
    # e^{-r x^2} evolves to (1+4rt)^{-1/2} e^{-r x^2/(1+4rt)}
    u0 = Field(grid=grid12, values=np.exp(-rate * grid12.x**2) + 0j)
    t1 = 0.25
    traj = evolve(u0, zero_potential(), 0.0, t1, steps=256)
    exact = (1.0 + 4.0 * rate * t1) ** -0.5 * np.exp(
        -rate * grid12.x**2 / (1.0 + 4.0 * rate * t1)
    )
    assert grid12.norm(traj.frames[-1] - exact) < 1e-6


def test_constant_potential_is_a_gauge_factor(grid12, gauss12):
    t1 = 0.25
    traj = evolve(gauss12, constant_potential(0.7), 0.0, t1, steps=256)
    free = evolve(gauss12, zero_potential(), 0.0, t1, steps=256)
    assert grid12.norm(traj.frames[-1] - np.exp(0.7 * t1) * free.frames[-1]) < 1e-10


def test_energy_inequality_complex_potential(grid12, gauss12):
    potential = gaussian_potential(1.0, imaginary=True)
    traj = evolve(gauss12, potential, 0.0, 1.0, steps=1024)
    norms = traj.norms()
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


def test_evolve_argument_guards(grid12, gauss12):
    with pytest.raises(ValueError, match="n_frames"):
        evolve(gauss12, zero_potential(), 0.0, 1.0, steps=100, n_frames=64)
    with pytest.raises(ValueError, match="step count too small"):
        evolve(gauss12, zero_potential(), 0.0, 1.0, steps=10, max_dt=1e-3)
    with pytest.raises(ValueError):
        evolve(gauss12, zero_potential(), 1.0, 0.0, steps=10)


def test_potential_sup_norm_is_enforced(grid12, gauss12):
    from heatlab import PotentialSpec

    lying = PotentialSpec(fn=lambda x, t: 2.0 * np.exp(-(x**2)), sup_norm=1.0, label="liar")
    with pytest.raises(ValueError, match="sup norm"):
        evolve(gauss12, lying, 0.0, 0.1, steps=100)


def test_complex_gaussian_modulus():
    #  |u_R| = (t^2+R^2)^{-1/4} exp(-t x^2 / 4(t^2+R^2))
    assert abs(abs(complex_gaussian(0.0, 0.0, 1.0)) - 1.0) < 1e-15
    val = abs(complex_gaussian(2.0, 0.5, 1.0))
    assert abs(val - 1.25**-0.25 * np.exp(-0.5 * 4.0 / 5.0)) < 1e-15
    with pytest.raises(ValueError):
        complex_gaussian(1.0, 0.0, 0.0)


def test_closed_form_solution_flags_tail_at_start(grid12):
    u0 = complex_gaussian_field(grid12, 0.0, 1.0)
    assert not u0.tail_ok()
    traj = evolve(u0, zero_potential(), 0.0, 1.0, steps=512)
    assert not traj.tail_flags[0]
    with pytest.raises(TailViolation):
        evolve(u0, zero_potential(), 0.0, 1.0, steps=512, strict_tail=True)


def test_solver_matches_closed_form_from_positive_start():
    # from t0 = 0.35 the closed-form datum is localized and the match is global;
    # the box is sized so the truncated data tails stay below the target
    grid = SpaceGrid(half_width=16.0, n=2048)
    u0 = complex_gaussian_field(grid, 0.35, 1.0)
    assert u0.tail_ok()
    traj = evolve(u0, zero_potential(), 0.35, 1.0, steps=1024)
    exact = complex_gaussian(grid.x, 1.0, 1.0)
    assert grid.norm(traj.frames[-1] - exact) < 1e-6


def test_solver_matches_closed_form_from_zero_away_from_seam():
    # the modulus-one datum at t = 0 contaminates a diffusion-length
    # neighborhood of the periodic seam; the interior stays clean
    grid = SpaceGrid(half_width=16.0, n=2048)
    u0 = complex_gaussian_field(grid, 0.0, 1.0)
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
    ident = growth_identity(fam.a, fam.A)
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


def test_nan_frame_is_never_hidden(grid12, gauss12):
    traj = evolve(gauss12, zero_potential(), 0.0, 0.5, steps=64, n_frames=65)
    traj.frames[40, 100] = np.nan
    assert np.isnan(pde_residual(traj))
    with pytest.raises(TailViolation):
        traj.field(40).require_tail()


def test_trajectory_save_load_round_trip(tmp_path, grid12, gauss12):
    traj = evolve(gauss12, zero_potential(), 0.0, 0.5, steps=64, n_frames=5)
    traj.save(tmp_path / "run")
    assert (tmp_path / "run" / "frames.csv").read_text().splitlines()[0] == "index,t,file"
    back = Trajectory.load(tmp_path / "run")
    assert np.max(np.abs(back.frames - traj.frames)) < 1e-11
    assert np.array_equal(back.times, traj.times)
