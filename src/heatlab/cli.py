"""Batch driver: every verification as a reproducible command.

Each command reads an optional flat ``key = value`` config file, applies flag
overrides and runs one scenario into its output directory.  A scenario body
computes and touches no file: it returns its checks, its manifest info and its
files, and the :func:`scenario` wrapper writes them all, then a
``manifest.txt`` echoing the effective config and versions, and a one-line
``verdict.txt``.  A scenario's verdict is a list of named checks, each passing
when its value is at most its bound (NaN fails); ``verdict.txt`` gives
PASS/FAIL and the largest check value as the maximal violation, or names the
exception class that stopped the scenario, which then writes only its manifest
and verdict.  Overflow and invalid operations raise, in NumPy and in Python
float arithmetic alike, and stop their scenario with such a FAIL, as does a
grid too large to allocate (``MemoryError``).  Exit code 0
means every verdict passed, 1 means a verification or the arithmetic failed, 2
means the config could not be read or parsed, sets a key twice, holds a
non-finite number, puts ``out`` or a name a scenario owns at, in or under a file, or a non-file at a file name, or does not fit the command
(``grid_M`` not a multiple of 256 for convexity runs); nothing is written then.  ``steps`` is a target in every scenario, which
:func:`~heatlab.heat.evolve` rounds up to whole steps per frame interval.  Over an
earlier run's ``manifest.txt`` a rerun removes only the names ``OWNED`` lists.
Reruns with identical config produce byte-identical CSV output.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import shutil
import sys
import typing
from dataclasses import dataclass, fields as dataclass_fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .errors import CertificationError, ConfigError, ResidualError, TailViolation
from .grid import SpaceGrid, gaussian_field, gaussian_potential, zero_potential
from .heat import Trajectory, evolve, pde_residual
from .svgplot import write_line_plot
from .timecurve import MIN_INTERVALS, write_csv
from . import functionals as fn
from . import weights as wt

POTENTIALS = ("none", "gauss-real", "gauss-imag")
# config fields settable by a flag, in --help order: --grid-M sets grid_M
FLAGS = (
    "delta", "R", "K", "tol", "grid_M", "box_L", "grid_N", "steps",
    "potential", "amplitude", "gamma_factor", "out", "plot",
)
CONVEXITY_FRAMES = 257  # frames per convexity run, one per 256th of [0, 1]
POSITIVE_FIELDS = (
    "R", "tol", "residual_tol", "slack_tol", "tail_tol", "box_L", "gamma_factor", "epsilon"
)
RUNNERS = {}  # command name -> runner, filled by @scenario in definition order, then "all"
OWNED = {}  # command name -> the names its runner writes into its directory, filled by @scenario


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

    def validate(self, command: str = "all") -> None:
        """Refuse a config the ``command`` scenario cannot run; ``all`` covers every one."""
        for name, kind in _FIELD_TYPES.items():
            if kind is float and not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite")
        if self.delta <= 2.0:
            raise ConfigError("delta must exceed 2")
        for name in POSITIVE_FIELDS:
            if getattr(self, name) <= 0.0:
                raise ConfigError(f"{name} must be positive")
        for name in ("K", "steps"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.grid_M < MIN_INTERVALS:
            raise ConfigError(f"grid_M must be >= {MIN_INTERVALS}")
        if self.grid_N < 256 or self.grid_N & (self.grid_N - 1) != 0:
            raise ConfigError("grid_N must be a power of two >= 256")
        if self.potential not in POTENTIALS:
            raise ConfigError(f"potential must be one of {POTENTIALS}")
        if self.amplitude < 0.0:
            raise ConfigError("amplitude must be nonnegative")
        if command in ("verify-convexity", "all") and self.grid_M % (CONVEXITY_FRAMES - 1) != 0:
            raise ConfigError("grid_M must be a multiple of 256 for convexity runs")


_FIELD_TYPES = typing.get_type_hints(ScenarioConfig)  # field name -> int, float, str or bool


def _coerce(key: str, raw: str):
    kind = _FIELD_TYPES[key]
    if kind is bool:
        low = raw.strip().lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"cannot parse boolean value {raw!r} for {key}")
    try:
        return kind(raw.strip())
    except ValueError as exc:
        raise ConfigError(f"cannot parse {raw!r} for {key}: {exc}") from exc


def load_config_file(path) -> dict:
    """Parse a flat ``key = value`` UTF-8 file; refuse an unreadable file, unknown or repeated keys."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    out, set_on = {}, {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in set_on:
            raise ConfigError(f"{path}:{lineno}: {key!r} is already set on line {set_on[key]}")
        set_on[key] = lineno
        out[key] = _coerce(key, value.strip())
    return out


def build_config(args: argparse.Namespace) -> ScenarioConfig:
    given = vars(args)  # a flag that was not given is absent
    cfg = ScenarioConfig()
    if "config" in given:
        cfg = replace(cfg, **load_config_file(args.config))
    cfg = replace(cfg, **{key: value for key, value in given.items() if key in _FIELD_TYPES})
    cfg.validate(args.command)
    suite = _suite(cfg).values() if args.command == "all" else [(args.command, cfg)]
    tops = [Path(cfg.out) / name for name in ("summary.txt", "verdict.txt")] if args.command == "all" else []
    for path in [*tops, *(Path(sub.out) / command / name for command, sub in suite for name in OWNED[command])]:
        # the nearest existing component, a dangling link too: an ancestor or frames (no suffix) is a directory
        found = next(p for p in (path, *path.parents) if p.exists() or p.is_symlink())
        kind = "directory" if found != path or not path.suffix else "regular file"
        if not (found.is_dir() if kind == "directory" else found.is_file()):
            raise ConfigError(f"out {cfg.out!r}: {str(found)!r} exists and is not a {kind}")
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


def write_manifest(directory: Path, command: str, cfg: ScenarioConfig, info: dict) -> None:
    lines = [f"command = {command}", f"heatlab_version = {__version__}"]
    lines.append(f"numpy_version = {np.__version__}")
    for f in dataclass_fields(cfg):
        lines.append(f"{f.name} = {_fmt(getattr(cfg, f.name))}")
    for key, value in info.items():
        lines.append(f"{key} = {_fmt(value)}")
    (directory / "manifest.txt").write_text("\n".join(lines) + "\n")


def max_violation(*values: float) -> float:
    """The largest violation, at least 0; unlike builtin ``max``, NaN propagates."""
    return float(np.max([0.0, *values]))


def write_verdict(directory: Path, passed: bool, violation: float, note: str = "") -> None:
    tag = "PASS" if passed else "FAIL"
    suffix = f" {note}" if note else ""
    (directory / "verdict.txt").write_text(f"{tag} max_violation={violation:.6g}{suffix}\n")


@dataclass(frozen=True)
class Check:
    """One named condition of a verdict; a yes/no condition is a 0/1 value with bound 0."""

    name: str
    value: float
    bound: float

    @property
    def passed(self) -> bool:
        return self.value <= self.bound  # NaN fails


def indicator(name: str, ok: bool) -> Check:
    return Check(name, 0.0 if ok else 1.0, 0.0)


def scenario(name: str, *files: str):
    """Turn ``body(cfg) -> (checks, manifest_info, files[, note])`` into the runner
    ``RUNNERS[name](cfg, pending=None) -> bool`` that writes every file into ``cfg.out/name``.

    ``files`` maps a name of ``*files``, which ``OWNED[name]`` lists with the manifest and
    verdict, to a ``(header, *columns)`` CSV table, a dict of :func:`write_line_plot`
    arguments (under ``--plot``) or a :class:`Trajectory`, whose directory helper processes
    write.  Once they are done come ``manifest.txt`` (the config echo, then the info keys)
    and ``verdict.txt``: PASS when every check passes, with the largest check
    value as ``max_violation``.  Given an ``ExitStack`` as ``pending``, the
    runner returns while the frames are written and leaves the wait, the
    manifest and the verdict to the stack's exit.  A certification, residual,
    tail, arithmetic or memory failure of the body (an admitted grid too large
    to allocate) becomes one NaN check, an ``error`` manifest line and a FAIL
    naming its class, and no other file is written.
    """

    def decorate(body):
        @functools.wraps(body)
        def run(cfg: ScenarioConfig, pending: contextlib.ExitStack | None = None) -> bool:
            out = Path(cfg.out) / name
            if (out / "manifest.txt").is_file():  # an earlier run's: its owned names go, and no other file
                for path in (out / owned for owned in OWNED[name]):  # frames whole; a link is only unlinked
                    shutil.rmtree(path) if path.is_dir() and not path.is_symlink() else path.unlink(missing_ok=True)
            out.mkdir(parents=True, exist_ok=True)
            try:
                checks, info, files, *note = body(cfg)
            except (CertificationError, ResidualError, TailViolation, ArithmeticError, MemoryError) as exc:
                checks, info, files = [Check("error", math.nan, 0.0)], {"error": str(exc)}, {}
                note = [type(exc).__name__]
            for file_name, entry in files.items():
                if isinstance(entry, tuple):
                    write_csv(out / file_name, *entry)
                elif isinstance(entry, dict) and cfg.plot:
                    write_line_plot(out / file_name, **entry)
            # started last, so that no other write can fail while helpers run unreaped
            writes = [
                traj.save(out / key) for key, traj in files.items() if isinstance(traj, Trajectory)
            ]
            passed = all(check.passed for check in checks)

            def finish():
                for write in writes:
                    write.wait()
                write_manifest(out, name, cfg, info)
                write_verdict(out, passed, max_violation(*(check.value for check in checks)), *note)

            if pending is None:
                finish()
            else:
                pending.callback(finish)
            return passed

        RUNNERS[name], OWNED[name] = run, (*files, "manifest.txt", "verdict.txt")
        return run

    return decorate


def _family(cfg: ScenarioConfig) -> tuple[wt.WeightFamily, wt.CurvatureCertificate, Check]:
    """The first family at the config's delta and grid_M, certified at its residual_tol,
    its curvature certificate at that tolerance and the ``curvature`` check on it."""
    family = wt.family_from_rate(cfg.delta, wt.first_family_rate(cfg.delta, cfg.grid_M), cfg.residual_tol)
    cert = family.certificate(cfg.residual_tol)
    return family, cert, indicator("curvature", cert.verdict == "positive")


@scenario("construct-weights", "a.csv", "A.csv", "b.csv", "T.csv", "residuals.csv", "family.svg")
def run_construct_weights(cfg: ScenarioConfig):
    family, cert, curvature = _family(cfg)
    family.validate(strict_signs=True)
    b_bvp = wt.solve_cross_bvp(family.a, family.A)
    gap = float(np.max(np.abs(b_bvp.values - family.b.values)))
    r1, r2 = wt.coefficient_residuals(family)
    sup_r1, sup_r2 = (float(np.max(np.abs(r.values))) for r in (r1, r2))
    bound = wt.floor_bound(cfg.residual_tol, cert.min_identity)
    checks = [
        Check("bvp_gap", gap, bound),
        Check("sup_r1", sup_r1, bound),
        Check("sup_r2", sup_r2, bound),
        curvature,
    ]
    info = {"bvp_gap": gap, "sup_r1": sup_r1, "sup_r2": sup_r2, "curvature_verdict": cert.verdict}
    curves = {"a": family.a, "A": family.A, "b": family.b, "T": family.T}
    files = {f"{key}.csv": ("t,value", curve.nodes, curve.values) for key, curve in curves.items()}
    files["residuals.csv"] = ("t,r1,r2", r1.nodes, r1.values, r2.values)
    files["family.svg"] = dict(
        x=family.a.nodes, series=[(key, curves[key].values) for key in "abT"],
        title=f"weight family, delta={cfg.delta:g}", xlabel="t",
    )
    return checks, info, files


@scenario("iterate", "trace.csv", "trace.svg")
def run_iterate(cfg: ScenarioConfig):
    trace = wt.run_refinement(cfg.delta, cfg.K, tol=cfg.tol, m=cfg.grid_M)
    ks = np.arange(1, trace.steps_run + 1)
    info = {
        "steps_run": trace.steps_run,
        "converged": trace.converged,
        "final_sup_b": trace.final_sup_cross,
        "final_gap": trace.final_gap,
        "stabilizer": trace.stabilizer,
        "rate_margin": float(trace.rate_margin[-1]),
    }
    files = {
        "trace.csv": ("k,sup_b,gap_to_limit", ks, trace.sup_cross, trace.gap_to_limit),
        "trace.svg": dict(
            x=ks, series=[("sup|b_k|", trace.sup_cross), ("gap to limit", trace.gap_to_limit)],
            title=f"refinement, delta={cfg.delta:g}", xlabel="k", logy=True,
        ),
    }
    # run_refinement certifies the chain; each trace's largest step-to-step rise must be 0,
    # and the last iterate's a' + 4a^2 may dip below 0 by the chain's own tolerance at most
    rises = [("sup_b_rise", trace.sup_cross), ("gap_rise", trace.gap_to_limit)]
    checks = [Check(name, max_violation(*np.diff(v)), 0.0) for name, v in rises]
    checks.append(Check("rate_margin", -info["rate_margin"], wt.DEFAULT_RECERT_TOL))
    return [indicator("finite_sup_b", math.isfinite(trace.final_sup_cross)), *checks], info, files


def _evolve_gaussian(cfg: ScenarioConfig, n_frames: int, scale: int = 1) -> Trajectory:
    """The Gaussian datum evolved over [0, 1] under the config's potential, on
    the config's box with ``scale`` times its points and ``scale`` times its
    target steps, at least one per frame interval so that ``scale`` always refines dt.
    The box stays: doubling it lifts |u(1)|'s edge round-off floor by e^{x^2/8}."""
    grid = SpaceGrid(half_width=cfg.box_L, n=cfg.grid_N * scale)
    steps = max(cfg.steps, n_frames - 1) * scale
    return evolve(gaussian_field(grid), make_potential(cfg), 0.0, 1.0, steps, n_frames=n_frames)


@scenario("evolve", "frames", "norms.svg")
def run_evolve(cfg: ScenarioConfig):
    traj = _evolve_gaussian(cfg, 251)
    grid, potential = traj.grid, traj.potential
    mass, scale, tail = grid.mass(traj.frames)
    norms = scale * np.sqrt(mass)
    info = {
        "tails_ok": bool(np.all(tail <= cfg.tail_tol)),
        "pde_residual": pde_residual(traj),
        "energy_slack": float(np.max(norms - np.exp(potential.sup_norm * traj.times) * norms[0])),
    }
    checks = [
        indicator("tails_ok", info["tails_ok"]),
        Check("pde_residual", info["pde_residual"], 1e-4),
        Check("energy_slack", info["energy_slack"], 1e-6),
    ]
    if potential.is_zero:
        exact = (1.0 + 4.0) ** -0.5 * np.exp(-grid.x**2 / 5.0)
        info["closed_form_gap"] = grid.norm(traj.frames[-1] - exact)
        checks.append(Check("closed_form_gap", info["closed_form_gap"], 1e-6))
    files = {
        "frames": traj,
        "norms.svg": dict(
            x=traj.times, series=[("||u(t)||", norms)], title="evolution norm history", xlabel="t"
        ),
    }
    return checks, info, files


@scenario("verify-convexity", "convexity.csv", "slack.svg")
def run_verify_convexity(cfg: ScenarioConfig):
    traj = _evolve_gaussian(cfg, CONVEXITY_FRAMES)
    family, cert, curvature = _family(cfg)
    report = fn.check_log_convexity(
        traj, family, xi=cfg.xi, epsilon=cfg.epsilon, tail_tol=cfg.tail_tol
    )
    checks = [Check("slack", -report.min_slack / report.h_scale, cfg.slack_tol), curvature]
    info = {
        "min_slack": report.min_slack,
        "h_scale": report.h_scale,
        "Nval": report.Nval,
        "conjugation_residual": report.conjugation_residual,
        "curvature_verdict": cert.verdict,
    }
    files = {
        "convexity.csv": (
            "t,H,theta,M,slack", report.times, report.H, report.theta, report.M, report.slack
        ),
        "slack.svg": dict(
            x=report.times, series=[("H", report.H), ("slack", report.slack)],
            title=f"log-convexity slack, V={cfg.potential}", xlabel="t",
        ),
    }
    return checks, info, files


@scenario("verify-bound", "bound.csv", "bound.svg")
def run_verify_bound(cfg: ScenarioConfig):
    base, fine = (
        fn.verify_interior_bound(_evolve_gaussian(cfg, 101, scale), cfg.R, tail_tol=cfg.tail_tol)
        for scale in (1, 2)
    )
    drift = abs(fine.ratio - base.ratio) / base.ratio
    checks = [indicator("finite", base.finite and fine.finite), Check("ratio_drift", drift, 0.01)]
    info = {
        "ratio": base.ratio,
        "ratio_refined": fine.ratio,
        "ratio_drift": drift,
        "lhs_sup": base.lhs_sup,
        "rhs_data": base.rhs_data,
    }
    if make_potential(cfg).is_zero:  # ||e^{a x^2} u(t)||^2 = sqrt(pi / (2/s - 2a)) / s
        t, spread = base.times, 1.0 + 4.0 * base.times  # s = 1 + 4t, a = t / 4(t^2 + R^2)
        exact = np.sqrt(np.sqrt(np.pi / (2.0 / spread - t / (2.0 * (t**2 + cfg.R**2)))) / spread)
        info["closed_form_gap"] = float(np.max(np.abs(base.weighted_norms - exact) / exact))
        checks.append(Check("closed_form_gap", info["closed_form_gap"], 1e-10))
    files = {
        "bound.csv": ("t,weighted_norm", base.times, base.weighted_norms),
        "bound.svg": dict(
            x=base.times, series=[("weighted norm", base.weighted_norms)],
            title=f"interior weighted norms, R={cfg.R:g}", xlabel="t",
        ),
    }
    return checks, info, files


@scenario("sharpness", "norms.csv", "growth.svg")
def run_sharpness(cfg: ScenarioConfig):
    report = fn.sharpness_probe(cfg.R, 0.5, cfg.gamma_factor)
    expected = "convergent" if cfg.gamma_factor < 1.0 else "divergent"
    info = {"verdict": report.verdict, "expected": expected, "growth_exponent": report.growth_exponent}
    files = {
        "norms.csv": ("L,norm", report.box_widths, report.norms),
        "growth.svg": dict(
            x=report.box_widths, series=[("norm", report.norms)],
            title=f"box growth, factor={cfg.gamma_factor:g}", xlabel="L", logy=True,
        ),
    }
    return [indicator("expected_verdict", report.verdict == expected)], info, files, report.verdict


def _suite(cfg: ScenarioConfig) -> dict:
    """The scenarios of ``all`` in run order: summary name -> (command, config)."""
    out, free = Path(cfg.out), replace(cfg, potential="none")
    imag = replace(cfg, potential="gauss-imag", amplitude=0.5, out=str(out / "convexity-imag"))
    return {
        "evolve": ("evolve", free),
        "construct-weights": ("construct-weights", cfg),
        "iterate": ("iterate", cfg),
        "verify-convexity-free": ("verify-convexity", replace(free, out=str(out / "convexity-free"))),
        "verify-convexity-imag": ("verify-convexity", imag),
        "verify-bound": ("verify-bound", replace(cfg, R=2.5)),
        **{
            f"sharpness-{g:g}": ("sharpness", replace(cfg, gamma_factor=g, out=str(out / f"sharpness-{g:g}")))
            for g in (0.5, 1.0, 1.1)
        },
    }


def run_all(cfg: ScenarioConfig) -> bool:
    """Full suite; scenario outputs land in subdirectories of ``out``.

    ``evolve`` runs first and its frames are written while the other
    scenarios compute; every pending scenario is finished before the summary,
    also when a later one raises."""
    out = Path(cfg.out)
    with contextlib.ExitStack() as pending:
        results = {
            name: RUNNERS[command](sub, pending if command == "evolve" else None)
            for name, (command, sub) in _suite(cfg).items()
        }
    passed = all(results.values())
    lines = [f"{name} = {'PASS' if ok else 'FAIL'}" for name, ok in sorted(results.items())]
    for stale in ("summary.txt", "verdict.txt"):  # a new file writes faster than a truncated one
        (out / stale).unlink(missing_ok=True)
    (out / "summary.txt").write_text("\n".join(lines) + "\n")
    write_verdict(out, passed, 0.0 if passed else 1.0, "suite")
    return passed


RUNNERS["all"] = run_all


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heatlab",
        argument_default=argparse.SUPPRESS,
        description="Verification lab for Gaussian-weight convexity bounds on heat evolutions.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("command", choices=list(RUNNERS), help="the scenario to run")
    special = {
        "config": {"metavar": "FILE", "help": "flat key = value config file"},
        "potential": {"choices": POTENTIALS},
        "out": {"metavar": "DIR"},
        "plot": {"action": "store_true"},
    }
    for key in ("config", *FLAGS):
        options = special.get(key) or {"type": _FIELD_TYPES[key]}
        parser.add_argument("--" + key.replace("_", "-"), **options)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = build_config(args)
        with np.errstate(over="raise", invalid="raise"):
            passed = RUNNERS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 1
    print(f"{args.command}: {'PASS' if passed else 'FAIL'} (outputs in {cfg.out})")
    return 0 if passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
