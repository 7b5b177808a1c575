"""Batch driver: every verification as a reproducible command.

Each command reads an optional flat ``key = value`` config file, applies flag
overrides, runs one scenario into its output directory and writes CSV
artifacts, a ``manifest.txt`` echoing the effective config and versions, and a
one-line ``verdict.txt`` with PASS/FAIL and the maximal violation (NaN
included).  Floating-point overflow and invalid operations raise.  Exit code
0 means every verdict passed, 1 means a verification or the arithmetic failed,
2 means the configuration could not be parsed.  Reruns with identical config
produce byte-identical CSV output.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, fields as dataclass_fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .errors import CertificationError, ConfigError, ResidualError, TailViolation
from .grid import SpaceGrid, gaussian_field, gaussian_potential, zero_potential
from .heat import evolve, pde_residual
from .svgplot import write_line_plot
from . import functionals as fn
from . import weights as wt

COMMANDS = (
    "construct-weights",
    "iterate",
    "evolve",
    "verify-convexity",
    "verify-bound",
    "sharpness",
    "all",
)
POTENTIALS = ("none", "gauss-real", "gauss-imag")


@dataclass(frozen=True)
class ScenarioConfig:
    """Effective parameters of one scenario run."""

    delta: float = 3.0
    R: float = 1.0
    K: int = 50
    tol: float = 1e-5
    residual_tol: float = 1e-6
    slack_tol: float = 1e-4
    tail_tol: float = 1e-8
    grid_M: int = 512
    box_L: float = 12.0
    grid_N: int = 1024
    steps: int = 1024
    potential: str = "none"
    amplitude: float = 0.5
    xi: float = 1.0
    gamma_factor: float = 1.0
    epsilon: float = 1e-6
    out: str = "out"
    plot: bool = False

    def validate(self) -> None:
        if self.delta <= 2.0:
            raise ConfigError("delta must exceed 2")
        if self.R <= 0.0:
            raise ConfigError("R must be positive")
        if self.K < 1:
            raise ConfigError("K must be >= 1")
        for name in ("tol", "residual_tol", "slack_tol", "tail_tol", "epsilon"):
            if getattr(self, name) <= 0.0:
                raise ConfigError(f"{name} must be positive")
        if self.grid_M < 64:
            raise ConfigError("grid_M must be >= 64")
        if self.box_L <= 0.0:
            raise ConfigError("box_L must be positive")
        if self.grid_N < 256 or self.grid_N & (self.grid_N - 1) != 0:
            raise ConfigError("grid_N must be a power of two >= 256")
        if self.steps < 1:
            raise ConfigError("steps must be >= 1")
        if self.potential not in POTENTIALS:
            raise ConfigError(f"potential must be one of {POTENTIALS}")
        if self.amplitude < 0.0:
            raise ConfigError("amplitude must be nonnegative")
        if self.gamma_factor <= 0.0:
            raise ConfigError("gamma_factor must be positive")


_FIELD_TYPES = {f.name: f.type for f in dataclass_fields(ScenarioConfig)}


def _coerce(key: str, raw: str):
    kind = _FIELD_TYPES[key]
    if kind == "bool":
        low = raw.strip().lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"cannot parse boolean value {raw!r} for {key}")
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
    except ValueError as exc:
        raise ConfigError(f"cannot parse {raw!r} for {key}: {exc}") from exc
    return raw.strip()


def load_config_file(path) -> dict:
    """Parse a flat ``key = value`` file; unknown keys are rejected."""
    out = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        out[key] = _coerce(key, value.strip())
    return out


def build_config(args: argparse.Namespace) -> ScenarioConfig:
    cfg = ScenarioConfig()
    if args.config:
        cfg = replace(cfg, **load_config_file(args.config))
    overrides = {}
    for flag, key in (
        ("delta", "delta"),
        ("R", "R"),
        ("K", "K"),
        ("tol", "tol"),
        ("grid_M", "grid_M"),
        ("box_L", "box_L"),
        ("grid_N", "grid_N"),
        ("steps", "steps"),
        ("potential", "potential"),
        ("amplitude", "amplitude"),
        ("gamma_factor", "gamma_factor"),
        ("out", "out"),
    ):
        value = getattr(args, flag, None)
        if value is not None:
            overrides[key] = value
    if getattr(args, "plot", False):
        overrides["plot"] = True
    cfg = replace(cfg, **overrides)
    cfg.validate()
    return cfg


def make_potential(cfg: ScenarioConfig):
    if cfg.potential == "none":
        return zero_potential()
    return gaussian_potential(cfg.amplitude, imaginary=cfg.potential == "gauss-imag")


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def write_manifest(directory: Path, command: str, cfg: ScenarioConfig, extra: dict | None = None) -> None:
    lines = [f"command = {command}", f"heatlab_version = {__version__}"]
    lines.append(f"numpy_version = {np.__version__}")
    for f in dataclass_fields(cfg):
        lines.append(f"{f.name} = {_fmt(getattr(cfg, f.name))}")
    for key, value in (extra or {}).items():
        lines.append(f"{key} = {_fmt(value)}")
    (directory / "manifest.txt").write_text("\n".join(lines) + "\n")


def max_violation(*values: float) -> float:
    """The largest violation, at least 0; unlike builtin ``max``, NaN propagates."""
    return float(np.max([0.0, *values]))


def write_verdict(directory: Path, passed: bool, violation: float, note: str = "") -> None:
    tag = "PASS" if passed else "FAIL"
    suffix = f" {note}" if note else ""
    (directory / "verdict.txt").write_text(f"{tag} max_violation={violation:.6g}{suffix}\n")


def _outdir(cfg: ScenarioConfig, name: str) -> Path:
    directory = Path(cfg.out) / name
    directory.mkdir(parents=True, exist_ok=True)
    return directory


def run_construct_weights(cfg: ScenarioConfig) -> bool:
    out = _outdir(cfg, "construct-weights")
    a = wt.first_family_rate(cfg.delta, cfg.grid_M)
    family = wt.family_from_rate(cfg.delta, a, residual_tol=cfg.residual_tol)
    family.validate(strict_signs=True)
    for name, curve in (("a", family.a), ("A", family.A), ("b", family.b), ("T", family.T)):
        curve.to_csv(out / f"{name}.csv")
    b_bvp = wt.solve_cross_bvp(family.a, family.A)
    gap = float(np.max(np.abs(b_bvp.values - family.b.values)))
    r1, r2 = wt.coefficient_residuals(family)
    sup_r1 = float(np.max(np.abs(r1.values)))
    sup_r2 = float(np.max(np.abs(r2.values)))
    lines = ["t,r1,r2"]
    for i, t in enumerate(r1.nodes):
        lines.append(f"{t:.12g},{r1.values[i]:.12g},{r2.values[i]:.12g}")
    (out / "residuals.csv").write_text("\n".join(lines) + "\n")
    cert = wt.curvature_certificate(family.a, family.A, cfg.residual_tol)
    scale = max(1.0, abs(cert.min_identity))
    violation = max_violation(gap, sup_r1, sup_r2)
    passed = cert.verdict == "positive" and all(
        v <= cfg.residual_tol * scale for v in (gap, sup_r1, sup_r2)
    )
    if cfg.plot:
        write_line_plot(
            out / "family.svg",
            family.a.nodes,
            [("a", family.a.values), ("b", family.b.values), ("T", family.T.values)],
            title=f"weight family, delta={cfg.delta:g}",
            xlabel="t",
        )
    write_manifest(
        out,
        "construct-weights",
        cfg,
        {
            "bvp_gap": gap,
            "sup_r1": sup_r1,
            "sup_r2": sup_r2,
            "curvature_verdict": cert.verdict,
        },
    )
    write_verdict(out, passed, violation)
    return passed


def run_iterate(cfg: ScenarioConfig) -> bool:
    out = _outdir(cfg, "iterate")
    store_every = max(1, cfg.K // 8)
    try:
        trace = wt.run_refinement(
            cfg.delta, cfg.K, tol=cfg.tol, m=cfg.grid_M, store_every=store_every
        )
    except CertificationError as exc:
        write_manifest(out, "iterate", cfg, {"error": str(exc)})
        write_verdict(out, False, float("nan"), "invariant-violation")
        return False
    ks = np.arange(1, trace.steps_run + 1)
    lines = ["k,sup_b,gap_to_limit"]
    for i in range(trace.steps_run):
        lines.append(f"{ks[i]},{trace.sup_cross[i]:.12g},{trace.gap_to_limit[i]:.12g}")
    (out / "trace.csv").write_text("\n".join(lines) + "\n")
    if cfg.plot:
        write_line_plot(
            out / "trace.svg",
            ks,
            [("sup|b_k|", trace.sup_cross), ("gap to limit", trace.gap_to_limit)],
            title=f"refinement, delta={cfg.delta:g}",
            xlabel="k",
            logy=True,
        )
    write_manifest(
        out,
        "iterate",
        cfg,
        {
            "steps_run": trace.steps_run,
            "converged": trace.converged,
            "final_sup_b": trace.final_sup_cross,
            "final_gap": trace.final_gap,
            "stabilizer": trace.stabilizer,
        },
    )
    write_verdict(out, True, trace.final_sup_cross)
    return True


def _aligned_steps(steps: int, n_frames: int) -> int:
    stride = n_frames - 1
    return ((steps + stride - 1) // stride) * stride


def run_evolve(cfg: ScenarioConfig) -> bool:
    out = _outdir(cfg, "evolve")
    grid = SpaceGrid(half_width=cfg.box_L, n=cfg.grid_N)
    potential = make_potential(cfg)
    n_frames = 251 if cfg.steps >= 250 else cfg.steps + 1
    steps = _aligned_steps(cfg.steps, n_frames)
    traj = evolve(
        gaussian_field(grid),
        potential,
        0.0,
        1.0,
        steps=steps,
        n_frames=n_frames,
        tail_tol=cfg.tail_tol,
    )
    traj.save(out / "frames")
    norms = traj.norms()
    checks = {
        "tails_ok": bool(np.all(traj.tail_flags)),
        "pde_residual": pde_residual(traj),
        "energy_slack": float(
            np.max(norms - np.exp(potential.sup_norm * traj.times) * norms[0])
        ),
    }
    bounds = {"pde_residual": 1e-4, "energy_slack": 1e-6}
    if potential.is_zero:
        exact = (1.0 + 4.0) ** -0.5 * np.exp(-grid.x**2 / 5.0)
        checks["closed_form_gap"] = grid.norm(traj.frames[-1] - exact)
        bounds["closed_form_gap"] = 1e-6
    passed = checks["tails_ok"] and all(checks[k] <= bound for k, bound in bounds.items())
    violation = max_violation(*(checks[k] for k in bounds))
    if cfg.plot:
        write_line_plot(
            out / "norms.svg",
            traj.times,
            [("||u(t)||", norms)],
            title="evolution norm history",
            xlabel="t",
        )
    write_manifest(out, "evolve", cfg, checks)
    write_verdict(out, passed, violation)
    return passed


def run_verify_convexity(cfg: ScenarioConfig) -> bool:
    out = _outdir(cfg, "verify-convexity")
    grid = SpaceGrid(half_width=cfg.box_L, n=cfg.grid_N)
    potential = make_potential(cfg)
    n_frames = 257
    if cfg.grid_M % (n_frames - 1) != 0:
        raise ConfigError("grid_M must be a multiple of 256 for convexity runs")
    steps = _aligned_steps(cfg.steps, n_frames)
    traj = evolve(
        gaussian_field(grid), potential, 0.0, 1.0, steps=steps,
        n_frames=n_frames, tail_tol=cfg.tail_tol,
    )
    family = wt.family_from_rate(cfg.delta, wt.first_family_rate(cfg.delta, cfg.grid_M))
    try:
        report = fn.check_log_convexity(
            traj, family, xi=cfg.xi, potential=potential,
            epsilon=cfg.epsilon, tail_tol=cfg.tail_tol,
        )
    except (ResidualError, TailViolation) as exc:
        write_manifest(out, "verify-convexity", cfg, {"error": str(exc)})
        write_verdict(out, False, float("nan"), "engine-failure")
        return False
    report.to_csv(out / "convexity.csv")
    passed = report.passes(cfg.slack_tol) and report.curvature_verdict == "positive"
    violation = max_violation(-report.min_slack / report.h_scale)
    if cfg.plot:
        write_line_plot(
            out / "slack.svg",
            report.times,
            [("H", report.H), ("slack", report.slack)],
            title=f"log-convexity slack, V={cfg.potential}",
            xlabel="t",
        )
    write_manifest(
        out,
        "verify-convexity",
        cfg,
        {
            "min_slack": report.min_slack,
            "h_scale": report.h_scale,
            "Nval": report.Nval,
            "conjugation_residual": report.conjugation_residual,
            "curvature_verdict": report.curvature_verdict,
        },
    )
    write_verdict(out, passed, violation)
    return passed


def run_verify_bound(cfg: ScenarioConfig) -> bool:
    out = _outdir(cfg, "verify-bound")

    def one(scale: int) -> fn.BoundReport:
        grid = SpaceGrid(half_width=cfg.box_L * scale, n=cfg.grid_N * scale)
        n_frames = 101
        steps = _aligned_steps(cfg.steps * scale, n_frames)
        traj = evolve(
            gaussian_field(grid), make_potential(cfg), 0.0, 1.0,
            steps=steps, n_frames=n_frames, tail_tol=cfg.tail_tol,
        )
        return fn.verify_interior_bound(traj, cfg.R, tail_tol=cfg.tail_tol)

    try:
        base = one(1)
        fine = one(2)
    except TailViolation as exc:
        write_manifest(out, "verify-bound", cfg, {"error": str(exc)})
        write_verdict(out, False, float("nan"), "precondition-failure")
        return False
    base.to_csv(out / "bound.csv")
    drift = abs(fine.ratio - base.ratio) / base.ratio
    passed = base.finite and fine.finite and drift < 0.01
    if cfg.plot:
        write_line_plot(
            out / "bound.svg",
            base.times,
            [("weighted norm", base.weighted_norms)],
            title=f"interior weighted norms, R={cfg.R:g}",
            xlabel="t",
        )
    write_manifest(
        out,
        "verify-bound",
        cfg,
        {
            "ratio": base.ratio,
            "ratio_refined": fine.ratio,
            "ratio_drift": drift,
            "lhs_sup": base.lhs_sup,
            "rhs_data": base.rhs_data,
        },
    )
    write_verdict(out, passed, drift)
    return passed


def run_sharpness(cfg: ScenarioConfig) -> bool:
    out = _outdir(cfg, "sharpness")
    report = fn.sharpness_probe(cfg.R, 0.5, cfg.gamma_factor)
    report.to_csv(out / "norms.csv")
    expected = "convergent" if cfg.gamma_factor < 1.0 else "divergent"
    passed = report.verdict == expected
    if cfg.plot:
        write_line_plot(
            out / "growth.svg",
            report.box_widths,
            [("norm", report.norms)],
            title=f"box growth, factor={cfg.gamma_factor:g}",
            xlabel="L",
            logy=True,
        )
    write_manifest(
        out,
        "sharpness",
        cfg,
        {
            "verdict": report.verdict,
            "expected": expected,
            "growth_exponent": report.growth_exponent,
        },
    )
    write_verdict(out, passed, 0.0 if passed else 1.0, report.verdict)
    return passed


def run_all(cfg: ScenarioConfig) -> bool:
    """Full suite; scenario outputs land in subdirectories of ``out``."""
    results = {}
    results["construct-weights"] = run_construct_weights(cfg)
    results["iterate"] = run_iterate(cfg)
    results["evolve"] = run_evolve(replace(cfg, potential="none"))
    results["verify-convexity-free"] = run_verify_convexity(
        replace(cfg, potential="none", out=str(Path(cfg.out) / "convexity-free"))
    )
    results["verify-convexity-imag"] = run_verify_convexity(
        replace(
            cfg,
            potential="gauss-imag",
            amplitude=0.5,
            out=str(Path(cfg.out) / "convexity-imag"),
        )
    )
    results["verify-bound"] = run_verify_bound(replace(cfg, R=2.5))
    for factor in (0.5, 1.0, 1.1):
        results[f"sharpness-{factor:g}"] = run_sharpness(
            replace(cfg, gamma_factor=factor, out=str(Path(cfg.out) / f"sharpness-{factor:g}"))
        )
    passed = all(results.values())
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    lines = [f"{name} = {'PASS' if ok else 'FAIL'}" for name, ok in sorted(results.items())]
    (out / "summary.txt").write_text("\n".join(lines) + "\n")
    write_verdict(out, passed, 0.0 if passed else 1.0, "suite")
    return passed


RUNNERS = {
    "construct-weights": run_construct_weights,
    "iterate": run_iterate,
    "evolve": run_evolve,
    "verify-convexity": run_verify_convexity,
    "verify-bound": run_verify_bound,
    "sharpness": run_sharpness,
    "all": run_all,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heatlab",
        description="Verification lab for Gaussian-weight convexity bounds on heat evolutions.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} scenario")
        p.add_argument("--config", metavar="FILE", help="flat key = value config file")
        p.add_argument("--delta", type=float)
        p.add_argument("--R", type=float)
        p.add_argument("--K", type=int)
        p.add_argument("--tol", type=float)
        p.add_argument("--grid-M", dest="grid_M", type=int)
        p.add_argument("--box-L", dest="box_L", type=float)
        p.add_argument("--grid-N", dest="grid_N", type=int)
        p.add_argument("--steps", type=int)
        p.add_argument("--potential", choices=POTENTIALS)
        p.add_argument("--amplitude", type=float)
        p.add_argument("--gamma-factor", dest="gamma_factor", type=float)
        p.add_argument("--out", metavar="DIR")
        p.add_argument("--plot", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = build_config(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        with np.errstate(over="raise", invalid="raise"):
            passed = RUNNERS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FloatingPointError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 1
    print(f"{args.command}: {'PASS' if passed else 'FAIL'} (outputs in {cfg.out})")
    return 0 if passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
