"""Acceptance gate: every criterion at its stated tolerance, one line each.

Two sub-criteria are implemented exactly as stated and fail; both failures
are intrinsic to the mathematics at the stated parameters:

* criterion 3's convergence targets (gap <= 1e-4, sup|b| <= 1e-5 at K = 50):
  the refinement step is quadratic in the deviation from the fixed-point
  relation, so the chain converges harmonically (gap ~ 3.9/k at delta = 3);
  K = 50 gives gap ~ 3e-2 and the stated targets would need K ~ 4e4 / 6e5.
* criterion 4's closed-form clause from t = 0: the modulus-one datum
  u(x, 0) = (-iR)^{-1/2} e^{ix^2/4R} violates the solver's own tail guard,
  and its box truncation error decays only like 1/L (0.15 at L = 12), so a
  1e-6 full-box match is unreachable in double precision; the solver does
  match the closed form to 1e-6 from any localized start (see 4b-window
  and the heat test suite).
"""

import filecmp
import math
import time

import numpy as np
import pytest

from heatlab.cli import main as cli_main
from heatlab.functionals import (
    appell_mid_exponent,
    appell_time_map,
    appell_transform,
    check_log_convexity,
    sharpness_probe,
    verify_interior_bound,
    weighted_norm,
)
from heatlab.grid import Field, SpaceGrid, gaussian_field, gaussian_potential, zero_potential
from heatlab.heat import commutator_identity, complex_gaussian, evolve
from heatlab.weights import (
    coefficient_residuals,
    family_from_rate,
    first_family_rate,
    run_refinement,
    solve_cross_bvp,
)


def announce(label: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {label}: {'PASS' if ok else 'FAIL'} - {detail}")


# -------------------------------------------------------------- criterion 1


@pytest.mark.parametrize("delta", [2.5, 3.0, 10.0])
def test_criterion_1_weight_bvp_equivalence(delta):
    start = time.perf_counter()
    family = family_from_rate(delta, first_family_rate(delta, 512))
    gap = float(np.max(np.abs(solve_cross_bvp(family.a, family.A).values - family.b.values)))
    r1, r2 = coefficient_residuals(family)
    sup_r1 = float(np.max(np.abs(r1.values)))
    sup_r2 = float(np.max(np.abs(r2.values)))
    # Convergence order is measured on the 128 -> 256 pair.  A residual can
    # only exhibit its order while truncation dominates the second-difference
    # roundoff floor ~ eps/h^2; at delta = 10 the residuals sit below that
    # floor on every admissible grid, so smallness is asserted instead.
    coarse = {}
    for m in (128, 256):
        fam = family_from_rate(delta, first_family_rate(delta, m))
        ra, rb = coefficient_residuals(fam)
        coarse[m] = (np.max(np.abs(ra.values)), np.max(np.abs(rb.values)))
    measurable = 1000.0 * np.finfo(float).eps * 256.0**2  # ~1.4e-8
    shrinks = []
    floors = []
    for j in (0, 1):
        if coarse[128][j] > measurable:
            shrinks.append(coarse[128][j] / coarse[256][j])
        else:
            floors.append(coarse[256][j])
    elapsed = time.perf_counter() - start
    ok = (
        gap <= 1e-6
        and sup_r1 <= 1e-6
        and sup_r2 <= 1e-6
        and all(s >= 8.0 for s in shrinks)
        and all(f <= measurable for f in floors)
        and elapsed < 1.0
    )
    shrink_txt = ", ".join(f"{s:.1f}x" for s in shrinks) or "n/a"
    announce(
        f"1 (delta={delta:g})",
        ok,
        f"bvp gap {gap:.2e}, residuals ({sup_r1:.2e}, {sup_r2:.2e}), "
        f"shrink [{shrink_txt}], {len(floors)} at roundoff floor, {elapsed:.2f}s",
    )
    assert gap <= 1e-6
    assert sup_r1 <= 1e-6 and sup_r2 <= 1e-6
    for s in shrinks:
        assert s >= 8.0
    for f in floors:
        assert f <= measurable
    assert elapsed < 1.0


# -------------------------------------------------------------- criterion 2


def test_criterion_2_commutator_identity(grid12, family3):
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    x = grid12.x
    nodes = family3.a.nodes
    worst_rel = 0.0
    worst_neg = 0.0
    for _ in range(20):
        coeffs = rng.normal(size=4)
        width = rng.uniform(0.35, 1.0)
        poly = coeffs[0] + coeffs[1] * x + coeffs[2] * x**2 + coeffs[3] * x**3
        f = Field(grid=grid12, values=poly * np.exp(-width * x**2) + 0j)
        t = float(nodes[rng.integers(1, nodes.size - 1)])
        xi = float(rng.uniform(-2.0, 2.0))
        lhs, rhs = commutator_identity(f, family3, t, xi)
        scale = rhs + f.norm() ** 2 * (1.0 + xi**2)
        worst_rel = max(worst_rel, abs(lhs - rhs) / scale)
        worst_neg = min(worst_neg, lhs / scale)
    elapsed = time.perf_counter() - start
    ok = worst_rel <= 1e-4 and worst_neg >= -1e-8 and elapsed < 10.0
    announce(
        "2", ok, f"worst rel {worst_rel:.2e}, worst negativity {worst_neg:.2e}, {elapsed:.1f}s"
    )
    assert worst_rel <= 1e-4
    assert worst_neg >= -1e-8
    assert elapsed < 10.0


# -------------------------------------------------------------- criterion 3


def test_criterion_3_chain_invariants():
    start = time.perf_counter()
    trace = run_refinement(3.0, 50, tol=1e-5, store_every=1)
    elapsed = time.perf_counter() - start
    ceiling_ok = all(np.max(f.a.values) <= 0.2 + 1e-12 for f in trace.families)
    positive_ok = all(np.min(f.a.values[1:]) > 0.0 for f in trace.families)
    monotone_ok = all(
        np.all(trace.families[i + 1].a.values[1:-1] > trace.families[i].a.values[1:-1])
        for i in range(len(trace.families) - 1)
    )
    ok = ceiling_ok and positive_ok and monotone_ok and elapsed < 30.0
    announce(
        "3 (chain)",
        ok,
        f"0 < a_k < a_k+1 <= 1/5 over 50 steps, {elapsed:.1f}s",
    )
    assert ceiling_ok and positive_ok and monotone_ok
    assert elapsed < 30.0


def test_criterion_3_convergence_targets():
    # stated targets: sup|a_50 - t/4(t^2+1.25)| <= 1e-4 and sup|b_50| <= 1e-5.
    # The refinement increment is b^2/(8(int b^2 + N)), quadratic in the
    # deviation, so sup|b_k| ~ 5.7/k and the gap ~ 3.9/k: harmonic, far from
    # the stated values at K = 50.  Kept exactly as stated; see notes.
    start = time.perf_counter()
    trace = run_refinement(3.0, 50, tol=1e-5, store_every=50)
    elapsed = time.perf_counter() - start
    ok = trace.final_gap <= 1e-4 and trace.final_sup_cross <= 1e-5 and elapsed < 30.0
    announce(
        "3 (convergence)",
        ok,
        f"gap {trace.final_gap:.3e} (target 1e-4), sup|b| {trace.final_sup_cross:.3e} "
        f"(target 1e-5), {elapsed:.1f}s",
    )
    assert elapsed < 30.0
    gap = trace.final_gap
    assert gap <= 1e-4, (
        f"harmonic convergence: gap after 50 steps is {gap:.3e}; "
        "reaching 1e-4 needs ~4e4 steps"
    )
    assert trace.final_sup_cross <= 1e-5


# -------------------------------------------------------------- criterion 4


def test_criterion_4a_gaussian_solver_oracle(grid12, gauss12):
    start = time.perf_counter()
    traj = evolve(gauss12, zero_potential(), 0.0, 0.25, steps=256)
    exact = 2.0**-0.5 * np.exp(-grid12.x**2 / 2.0)
    gap = grid12.norm(traj.frames[-1] - exact)
    elapsed = time.perf_counter() - start
    ok = gap <= 1e-6 and elapsed < 30.0
    announce("4a (gaussian)", ok, f"L2 gap {gap:.2e}, {elapsed:.1f}s")
    assert gap <= 1e-6
    assert elapsed < 30.0


def test_criterion_4b_closed_form_family_from_zero(grid12):
    # stated: evolving u(., 0) of the closed-form family for R = 1 up to t = 1
    # matches the closed form to 1e-6.  The datum has modulus one, violates
    # the tail guard, and its truncation error decays like 1/L; the full-box
    # mismatch is O(0.1).  Kept exactly as stated; see notes.
    start = time.perf_counter()
    u0 = Field(grid12, complex_gaussian(grid12.x, 0.0, 1.0), 0.0)
    traj = evolve(u0, zero_potential(), 0.0, 1.0, steps=1024)
    exact = complex_gaussian(grid12.x, 1.0, 1.0)
    gap = grid12.norm(traj.frames[-1] - exact)
    elapsed = time.perf_counter() - start
    ok = gap <= 1e-6 and elapsed < 30.0
    announce("4b (closed form from t=0)", ok, f"full-box L2 gap {gap:.2e}, {elapsed:.1f}s")
    assert elapsed < 30.0
    assert gap <= 1e-6, (
        f"box-truncation barrier: full-box gap {gap:.2e} decays only like 1/L "
        "for the modulus-one datum; see the windowed and offset-start variants"
    )


def test_criterion_4b_window_closed_form_family():
    # same oracle, measured where the truncated run is meaningful: away from
    # the periodic seam the solver reproduces the closed form to 1e-6
    start = time.perf_counter()
    grid = SpaceGrid(half_width=16.0, n=2048)
    u0 = Field(grid, complex_gaussian(grid.x, 0.0, 1.0), 0.0)
    traj = evolve(u0, zero_potential(), 0.0, 1.0, steps=1024)
    exact = complex_gaussian(grid.x, 1.0, 1.0)
    window = np.abs(grid.x) <= 8.0
    gap = math.sqrt(grid.dx * float(np.sum(np.abs(traj.frames[-1] - exact)[window] ** 2)))
    elapsed = time.perf_counter() - start
    ok = gap <= 1e-6 and elapsed < 30.0
    announce("4b-window (|x| <= L/2)", ok, f"windowed L2 gap {gap:.2e}, {elapsed:.1f}s")
    assert gap <= 1e-6
    assert elapsed < 30.0


def test_criterion_4c_energy_inequality(grid12, gauss12):
    start = time.perf_counter()
    worst = -np.inf
    for potential in (
        gaussian_potential(1.0, imaginary=True),
        gaussian_potential(1.0),
        gaussian_potential(0.7, imaginary=False),
    ):
        traj = evolve(gauss12, potential, 0.0, 1.0, steps=1024)
        norms = traj.grid.norm(traj.frames)
        worst = max(worst, float(np.max(norms - np.exp(potential.sup_norm * traj.times) * norms[0])))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 30.0
    announce("4c (energy)", ok, f"worst slack {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-6
    assert elapsed < 30.0


# -------------------------------------------------------------- criterion 5


@pytest.mark.parametrize("imaginary_amp", [0.0, 0.5])
@pytest.mark.parametrize("xi", [0.0, 1.0])
def test_criterion_5_log_convexity_end_to_end(grid12, gauss12, family3, imaginary_amp, xi):
    start = time.perf_counter()
    potential = (
        zero_potential() if imaginary_amp == 0.0 else gaussian_potential(imaginary_amp, imaginary=True)
    )
    traj = evolve(gauss12, potential, 0.0, 1.0, steps=1024, n_frames=257)
    report = check_log_convexity(traj, family3, xi=xi, epsilon=1e-6)
    elapsed = time.perf_counter() - start
    floor = -1e-4 * report.h_scale
    ok = report.min_slack >= floor and elapsed < 120.0
    announce(
        f"5 (V={'0' if imaginary_amp == 0 else '0.5i exp(-x^2)'}, xi={xi:g})",
        ok,
        f"min slack {report.min_slack:.2e} vs floor {floor:.2e}, {elapsed:.1f}s",
    )
    assert report.min_slack >= floor
    assert elapsed < 120.0


# -------------------------------------------------------------- criterion 6


def test_criterion_6_appell_identities():
    start = time.perf_counter()
    delta = 3.0
    alpha, beta, gamma = 1.0, 1.0 + 2.0 / delta, 1.0 / (2.0 * delta)

    exp0 = abs(appell_mid_exponent(alpha, beta, gamma, 0.0))
    exp1 = abs(appell_mid_exponent(alpha, beta, gamma, 1.0) - 1.0 / delta**2)

    def u_closed(y, s):
        return (1.0 + 4.0 * s) ** -0.5 * np.exp(-(y**2) / (1.0 + 4.0 * s)) + 0j

    grid = SpaceGrid(half_width=16.0, n=2048)
    times = np.linspace(0.0, 1.0, 129)
    tr = appell_transform(u_closed, alpha, beta, grid, times)
    left = weighted_norm(Field(grid, tr.frames[0], float(tr.times[0])), gamma)
    right = weighted_norm(Field(grid, tr.frames[128], float(tr.times[128])), gamma)
    u0 = weighted_norm(Field(grid=grid, values=u_closed(grid.x, 0.0)), 0.0)
    u1 = weighted_norm(Field(grid=grid, values=u_closed(grid.x, 1.0)), 1.0 / delta**2)
    anchor_err = max(abs(left - u0) / u0, abs(right - u1) / u1)

    worst_mid = 0.0
    for i, t in enumerate(times):
        s = float(appell_time_map(alpha, beta, t))
        lhs = weighted_norm(Field(grid, tr.frames[i], float(t)), gamma)
        rhs = weighted_norm(
            Field(grid=grid, values=u_closed(grid.x, s)),
            appell_mid_exponent(alpha, beta, gamma, s),
        )
        worst_mid = max(worst_mid, abs(lhs - rhs) / rhs)
    elapsed = time.perf_counter() - start
    ok = exp0 <= 1e-15 and exp1 <= 1e-15 and anchor_err <= 1e-9 and worst_mid <= 1e-6 and elapsed < 30.0
    announce(
        "6",
        ok,
        f"exponent anchors ({exp0:.1e}, {exp1:.1e}), norm anchors {anchor_err:.2e}, "
        f"mid-time {worst_mid:.2e}, {elapsed:.1f}s",
    )
    assert exp0 <= 1e-15 and exp1 <= 1e-15
    assert anchor_err <= 1e-9
    assert worst_mid <= 1e-6
    assert elapsed < 30.0


# -------------------------------------------------------------- criterion 7


def test_criterion_7_sharpness_probes():
    start = time.perf_counter()
    reports = {f: sharpness_probe(1.0, 0.5, f) for f in (0.5, 1.0, 1.1)}
    elapsed = time.perf_counter() - start
    verdicts = tuple(reports[f].verdict for f in (0.5, 1.0, 1.1))
    exponent = reports[1.0].growth_exponent
    ok = (
        verdicts == ("convergent", "divergent", "divergent")
        and abs(exponent - 0.5) <= 0.05
        and elapsed < 30.0
    )
    announce("7", ok, f"verdicts {verdicts}, critical growth exponent {exponent:.4f}, {elapsed:.1f}s")
    assert verdicts == ("convergent", "divergent", "divergent")
    assert abs(exponent - 0.5) <= 0.05
    assert elapsed < 30.0


# -------------------------------------------------------------- criterion 8


def test_criterion_8_bound_ratio_stability():
    # free-heat scenario with R = 2.5; larger R keeps the final weight well
    # above the spectral noise floor on the doubled box (see notes)
    start = time.perf_counter()

    def one(scale):
        grid = SpaceGrid(half_width=12.0 * scale, n=1024 * scale)
        traj = evolve(
            gaussian_field(grid), zero_potential(), 0.0, 1.0,
            steps=1000 * scale, n_frames=101,
        )
        return verify_interior_bound(traj, 2.5)

    base, fine = one(1), one(2)
    drift = abs(fine.ratio - base.ratio) / base.ratio
    elapsed = time.perf_counter() - start
    ok = base.finite and fine.finite and drift < 0.01 and elapsed < 120.0
    announce("8", ok, f"ratio {base.ratio:.6f}, refinement drift {drift:.2e}, {elapsed:.1f}s")
    assert base.finite and fine.finite
    assert drift < 0.01
    assert elapsed < 120.0


# -------------------------------------------------------------- criterion 9


def test_criterion_9_cli_determinism(tmp_path):
    start = time.perf_counter()
    first = tmp_path / "run1"
    second = tmp_path / "run2"
    assert cli_main(["all", "--out", str(first)]) == 0
    assert cli_main(["all", "--out", str(second)]) == 0
    csvs_first = sorted(p.relative_to(first) for p in first.rglob("*.csv"))
    csvs_second = sorted(p.relative_to(second) for p in second.rglob("*.csv"))
    assert csvs_first == csvs_second and csvs_first
    mismatched = [
        str(rel)
        for rel in csvs_first
        if not filecmp.cmp(first / rel, second / rel, shallow=False)
    ]
    elapsed = time.perf_counter() - start
    ok = not mismatched and elapsed < 120.0
    announce("9", ok, f"{len(csvs_first)} CSV files byte-identical, {elapsed:.1f}s")
    assert not mismatched
    assert elapsed < 120.0
