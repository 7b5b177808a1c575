import gc
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import count_grid_calls, read_csv, traced_peak
from test_output_ledger import digest, read_ledger
import heatlab
from heatlab import cli, functionals as fn, weights as wt
from heatlab.cli import Check, ScenarioConfig, load_config_file, main
from heatlab.errors import CertificationError, ConfigError
from heatlab.heat import evolve
from heatlab.timecurve import STACK_CHUNK


def run(args):
    return main(args)


def test_construct_weights_command(tmp_path):
    out = tmp_path / "cw"
    assert run(["construct-weights", "--delta", "3", "--out", str(out)]) == 0
    scenario = out / "construct-weights"
    for name in ("a.csv", "A.csv", "b.csv", "T.csv", "residuals.csv", "manifest.txt", "verdict.txt"):
        assert (scenario / name).exists()
    assert (scenario / "verdict.txt").read_text().startswith("PASS")
    assert (scenario / "a.csv").read_text().splitlines()[0] == "t,value"


def test_iterate_command_passes_invariants(tmp_path):
    out = tmp_path / "it"
    assert run(["iterate", "--delta", "3", "--K", "10", "--out", str(out)]) == 0
    trace = (out / "iterate" / "trace.csv").read_text().splitlines()
    assert trace[0] == "k,sup_b,gap_to_limit"
    assert len(trace) == 11
    manifest = (out / "iterate" / "manifest.txt").read_text()
    assert "converged = false" in manifest


def test_evolve_command_free_heat(tmp_path):
    out = tmp_path / "ev"
    assert run(["evolve", "--potential", "none", "--steps", "500", "--out", str(out)]) == 0
    frames = out / "evolve" / "frames"
    manifest = (frames / "frames.csv").read_text().splitlines()
    assert manifest[0] == "index,t,file"
    assert (frames / manifest[1].split(",")[2]).exists()


def test_free_evolve_writes_exactly_real_frames_and_the_same_index(tmp_path):
    out = tmp_path / "ev"
    assert run(["evolve", "--potential", "none", "--out", str(out)]) == 0
    frames = out / "evolve" / "frames"
    files = sorted(frames.glob("frame_*.csv"))
    assert len(files) == 251
    for path in files:
        rows = path.read_text().splitlines()[1:]
        assert {row.rpartition(",")[2] for row in rows} == {"0"}, path.name
    assert digest(frames / "frames.csv") == read_ledger()[1]["delta-3/evolve/frames/frames.csv"]


def test_evolve_command_fails_a_tail_above_the_config_tail_tol(tmp_path):
    # by t = 1 the free datum holds about 5e-22 of its mass beyond 0.9 of the box
    config = tmp_path / "tight.cfg"
    config.write_text("tail_tol = 1e-30\n")
    out = tmp_path / "ev"
    assert run(["evolve", "--config", str(config), "--steps", "250", "--out", str(out)]) == 1
    assert (out / "evolve" / "verdict.txt").read_text() == "FAIL max_violation=1\n"
    manifest = (out / "evolve" / "manifest.txt").read_text().splitlines()
    assert "tail_tol = 1e-30" in manifest
    assert "tails_ok = false" in manifest


def test_verify_convexity_command(tmp_path):
    out = tmp_path / "vc"
    assert run(["verify-convexity", "--potential", "none", "--out", str(out)]) == 0
    body = (out / "verify-convexity" / "convexity.csv").read_text().splitlines()
    assert body[0] == "t,H,theta,M,slack"
    verdict = (out / "verify-convexity" / "verdict.txt").read_text()
    assert verdict.startswith("PASS")


def test_sharpness_command_verdicts(tmp_path):
    out = tmp_path / "sh"
    assert run(["sharpness", "--R", "1", "--gamma-factor", "1.0", "--out", str(out)]) == 0
    manifest = (out / "sharpness" / "manifest.txt").read_text()
    assert "verdict = divergent" in manifest


def test_sharpness_just_below_the_critical_factor_passes(tmp_path):
    out = tmp_path / "sh"
    assert run(["sharpness", "--gamma-factor", "0.99", "--out", str(out)]) == 0
    assert (out / "sharpness" / "verdict.txt").read_text() == "PASS max_violation=0 convergent\n"


def test_sharpness_where_twice_t2_plus_r2_overflows_still_converges(tmp_path):
    # at R = 1.2e154, 2(t^2 + R^2) overflows where t^2 + R^2 does not, and pi/|net| overflows
    out = tmp_path / "sh"
    assert run(["sharpness", "--R", "1.2e154", "--gamma-factor", "0.5", "--out", str(out)]) == 0
    assert (out / "sharpness" / "verdict.txt").read_text() == "PASS max_violation=0 convergent\n"
    widths, norms = read_csv(out / "sharpness" / "norms.csv", "L,norm")
    # the integrand is flat to round-off on every box: the norm is sqrt(2L / sqrt(t^2 + R^2))
    assert np.all(np.isfinite(norms)) and np.all(norms > 0.0)
    assert np.max(np.abs(norms / np.sqrt(2.0 * widths / 1.2e154) - 1.0)) < 1e-9


def test_sharpness_whose_largest_box_overflows_is_a_named_fail(tmp_path):
    out = tmp_path / "sh"
    assert run(["sharpness", "--gamma-factor", "1.86", "--out", str(out)]) == 0
    assert run(["sharpness", "--gamma-factor", "1.9", "--out", str(out)]) == 1
    scenario = out / "sharpness"
    assert sorted(p.name for p in scenario.iterdir()) == ["manifest.txt", "verdict.txt"]
    assert (scenario / "verdict.txt").read_text() == "FAIL max_violation=nan OverflowError\n"


def test_both_curvature_checks_read_the_config_residual_tol(tmp_path):
    # a looser tolerance raises the bar _certify sets for a positive minimum
    config = tmp_path / "loose.cfg"
    config.write_text("residual_tol = 1e300\n")
    cheap = ["--grid-M", "256", "--grid-N", "256", "--steps", "256"]
    lines = []
    for command in ("construct-weights", "verify-convexity"):
        assert run([command, "--config", str(config), *cheap, "--out", str(tmp_path / "o")]) == 1
        manifest = (tmp_path / "o" / command / "manifest.txt").read_text().splitlines()
        lines += [line for line in manifest if line.startswith("curvature_verdict = ")]
    assert lines == ["curvature_verdict = nonnegative"] * 2


def test_verify_bound_command(tmp_path):
    out = tmp_path / "vb"
    assert run(["verify-bound", "--R", "2.5", "--steps", "400", "--out", str(out)]) == 0
    assert (out / "verify-bound" / "bound.csv").exists()
    assert "closed_form_gap = " in (out / "verify-bound" / "manifest.txt").read_text()


def test_verify_bound_closed_form_gap_can_fail(tmp_path, monkeypatch):
    # weighted norms off by 1e-9 relative break the closed form, not the drift
    original = fn.verify_interior_bound

    def skewed(*args, **kwargs):
        report = original(*args, **kwargs)
        return replace(report, weighted_norms=report.weighted_norms * (1.0 + 1e-9))

    monkeypatch.setattr(fn, "verify_interior_bound", skewed)
    out = tmp_path / "vb"
    assert run(["verify-bound", "--R", "2.5", "--steps", "400", "--out", str(out)]) == 1
    verdict = (out / "verify-bound" / "verdict.txt").read_text()
    assert verdict.startswith("FAIL max_violation=1e-09")


def test_verify_bound_default_passes_and_refines_at_its_own_box(tmp_path):
    # the refined run doubles the points and steps, not the box, so the default R = 1
    # passes; at R = 0.5 the weight e^{x^2/5} cancels the decay of u(1) ~ e^{-x^2/5}
    assert run(["verify-bound", "--out", str(tmp_path / "r1")]) == 0
    manifest = (tmp_path / "r1" / "verify-bound" / "manifest.txt").read_text()
    drift = float(re.search(r"ratio_drift = (\S+)", manifest).group(1))
    assert drift <= 1e-12
    assert run(["verify-bound", "--R", "0.5", "--out", str(tmp_path / "r05")]) == 1
    verdict = (tmp_path / "r05" / "verify-bound" / "verdict.txt").read_text()
    assert verdict.startswith("FAIL") and "TailViolation" in verdict


def test_verify_bound_refined_run_halves_dt_below_one_step_per_frame(tmp_path, monkeypatch):
    # 101 frames: at --steps 10 the base run takes one Strang step per frame interval,
    # and the refined run, on twice the points, must take two
    lengths = []
    fft = np.fft.fft

    def counting(u, *args, **kwargs):
        lengths.append(np.shape(u)[-1])
        return fft(u, *args, **kwargs)

    monkeypatch.setattr(np.fft, "fft", counting)
    flags = ["--potential", "gauss-imag", "--steps", "10", "--out", str(tmp_path / "o")]
    assert run(["verify-bound", *flags]) == 0
    n = ScenarioConfig().grid_N
    assert lengths.count(n) == 100
    assert lengths.count(2 * n) == 2 * lengths.count(n)


SMALL = ["--grid-M", "256", "--K", "5", "--grid-N", "256", "--steps", "256"]


def suite_files(plot):
    """Relative paths ``heatlab all`` writes, SVGs only with ``plot``."""
    frames = [f"frames/frame_{i:04d}.csv" for i in range(251)]
    scenarios = {
        "construct-weights": ["a.csv", "A.csv", "b.csv", "T.csv", "residuals.csv", "family.svg"],
        "iterate": ["trace.csv", "trace.svg"],
        "evolve": ["frames/frames.csv", *frames, "norms.svg"],
        "convexity-free/verify-convexity": ["convexity.csv", "slack.svg"],
        "convexity-imag/verify-convexity": ["convexity.csv", "slack.svg"],
        "verify-bound": ["bound.csv", "bound.svg"],
        **{f"sharpness-{f}/sharpness": ["norms.csv", "growth.svg"] for f in ("0.5", "1", "1.1")},
    }
    paths = {"summary.txt", "verdict.txt"}
    for directory, names in scenarios.items():
        for name in [*names, "manifest.txt", "verdict.txt"]:
            if plot or not name.endswith(".svg"):
                paths.add(f"{directory}/{name}")
    return paths


@pytest.mark.parametrize("plot", [True, False], ids=["plot", "no-plot"])
def test_suite_writes_exactly_its_artifacts(tmp_path, plot):
    out = tmp_path / "o"
    assert run(["all", *SMALL, *(["--plot"] if plot else []), "--out", str(out)]) == 0
    written = {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()}
    assert written == suite_files(plot)
    assert sum(name.endswith(".svg") for name in written) == (9 if plot else 0)


def test_failed_scenario_writes_only_manifest_and_verdict(tmp_path, monkeypatch):
    def overflowing(traj):
        raise FloatingPointError("overflow encountered in multiply")

    # a fresh --out, and one that holds a previous PASS run of the same scenario
    fresh, reused = tmp_path / "o", tmp_path / "reused"
    assert run(["evolve", "--potential", "none", "--steps", "500", "--plot", "--out", str(reused)]) == 0
    monkeypatch.setattr(cli, "pde_residual", overflowing)
    for out in (fresh, reused):
        assert run(["evolve", "--potential", "none", "--steps", "500", "--plot", "--out", str(out)]) == 1
        scenario = out / "evolve"
        assert sorted(p.name for p in scenario.iterdir()) == ["manifest.txt", "verdict.txt"]
        verdict = (scenario / "verdict.txt").read_text().strip()
        assert verdict == "FAIL max_violation=nan FloatingPointError"


def test_a_rerun_replaces_only_the_directory_an_earlier_run_wrote(tmp_path):
    out = tmp_path / "o"
    assert run(["evolve", "--out", str(out)]) == 0
    frames = out / "evolve" / "frames"
    assert len(list(frames.iterdir())) == 252
    (out / "keep.txt").write_text("not heatlab's\n")
    (frames / "frame_9999.csv").write_text("stale\n")
    assert run(["evolve", "--steps", "100", "--out", str(out)]) == 0
    assert len((frames / "frames.csv").read_text().splitlines()) == 1 + 251
    expected = {"frames.csv", *(f"frame_{i:04d}.csv" for i in range(251))}
    assert {p.name for p in frames.iterdir()} == expected
    assert (out / "keep.txt").read_text() == "not heatlab's\n"
    # a directory without a manifest.txt was not written by heatlab and is never removed
    stranger = tmp_path / "p" / "sharpness"
    stranger.mkdir(parents=True)
    (stranger / "notes.txt").write_text("mine\n")
    assert run(["sharpness", "--gamma-factor", "0.5", "--out", str(tmp_path / "p")]) == 0
    assert (stranger / "notes.txt").read_text() == "mine\n"


@pytest.mark.filterwarnings("error::ResourceWarning")
def test_a_failed_frame_write_stops_all_after_the_other_scenarios(tmp_path, popen_spy):
    # evolve runs first, and its frames are written while the other eight scenarios run
    out = tmp_path / "o"
    blocked = out / "evolve" / "frames" / "frame_0200.csv"
    blocked.mkdir(parents=True)
    with pytest.raises(OSError, match="frame helper exited with code 1") as raised:
        run(["all", *SMALL, "--out", str(out)])
    assert str(blocked) in str(raised.value)
    others = {path.rpartition("/")[0] for path in suite_files(False) if "/verdict.txt" in path}
    assert {p.parent.relative_to(out).as_posix() for p in out.rglob("verdict.txt")} == others - {"evolve"}
    assert sorted(p.name for p in (out / "evolve").iterdir()) == ["frames"]
    assert not (out / "evolve" / "frames" / "frames.csv").exists()
    assert not (out / "summary.txt").exists()
    assert popen_spy and all(helper.returncode is not None for helper in popen_spy)
    gc.collect()


def test_a_suite_rerun_writes_only_new_files(tmp_path, monkeypatch):
    # replacing a file in place can cost a flush, so a rerun into the same --out
    # unlinks summary.txt and verdict.txt first; every byte stays the same
    out = tmp_path / "o"
    assert run(["all", *SMALL, "--out", str(out)]) == 0
    first = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    replaced, write_text = [], Path.write_text

    def spy(path, *args, **kwargs):
        if path.exists():
            replaced.append(path.relative_to(out).as_posix())
        return write_text(path, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", spy)
    assert run(["all", *SMALL, "--out", str(out)]) == 0
    assert replaced == []
    assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == first


def test_evolve_squares_its_frames_once(tmp_path, monkeypatch):
    # the norms and the tail guard both come from one SpaceGrid.mass pass over the frames,
    # which squares each frame exactly once, in calls of at most STACK_CHUNK rows
    evolved = []
    monkeypatch.setattr(cli, "evolve", lambda *args, **kw: evolved.append(evolve(*args, **kw)) or evolved[0])
    calls = count_grid_calls(monkeypatch)
    assert run(["evolve", "--out", str(tmp_path / "o")]) == 0
    frames = evolved[0].frames
    blocks = [values for values in calls if np.may_share_memory(values, frames)]
    assert max(map(len, blocks)) <= STACK_CHUNK
    assert np.concatenate(blocks).tobytes() == frames.tobytes()


def test_a_traced_all_peaks_below_two_frame_stacks(tmp_path):
    # the convexity engine weights its frames a window at a time and every
    # weighted norm pass squares STACK_CHUNK rows at a time, so no scenario
    # holds much beyond its own trajectory; a whole weighted stack, its
    # exponent and its modulus would take the peak to about 2.8 stacks
    stack = cli.CONVEXITY_FRAMES * 1024 * 16  # one 257 x 1024 complex stack
    assert traced_peak(lambda: run(["all", "--out", str(tmp_path / "o")])) < 2.0 * stack


def test_plot_flag_writes_svg(tmp_path):
    out = tmp_path / "pl"
    assert run(["sharpness", "--gamma-factor", "0.5", "--plot", "--out", str(out)]) == 0
    svg = (out / "sharpness" / "growth.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_unknown_config_key_is_exit_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("delta = 3\nmystery = 1\n")
    assert run(["iterate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_malformed_config_value_is_exit_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("K = not-a-number\n")
    assert run(["iterate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_config_file_reads_bool_and_str_values(tmp_path):
    cfg = tmp_path / "kinds.cfg"
    cfg.write_text("plot = yes\npotential = gauss-imag\n")
    assert load_config_file(cfg) == {"plot": True, "potential": "gauss-imag"}
    out = tmp_path / "o"
    assert run(["sharpness", "--config", str(cfg), "--gamma-factor", "0.5", "--out", str(out)]) == 0
    manifest = (out / "sharpness" / "manifest.txt").read_text().splitlines()
    assert "plot = true" in manifest and "potential = gauss-imag" in manifest
    cfg.write_text("plot = maybe\n")
    assert run(["sharpness", "--config", str(cfg), "--out", str(tmp_path / "p")]) == 2
    assert not (tmp_path / "p").exists()


def test_out_of_range_flag_is_exit_2(tmp_path):
    assert run(["iterate", "--delta", "1.5", "--out", str(tmp_path / "o")]) == 2
    assert run(["evolve", "--grid-N", "1000", "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize(
    "flag, config, message",
    [
        (["--grid-M", "32"], "", "grid_M must be >= 64"),
        ([], "amplitude = -1\n", "amplitude must be nonnegative"),
        ([], "potential = foo\n", "potential must be one of"),
        ([], "delta 3\n", "expected 'key = value', got 'delta 3'"),
        ([], "delta = 3\n# again\ndelta = 4\n", "refused.cfg:3: 'delta' is already set on line 1"),
        ([], "delta = 3\ndelta = 3\n", "refused.cfg:2: 'delta' is already set on line 1"),
    ],
    ids=[
        "grid-M-32", "negative-amplitude", "unknown-potential", "line-without-equals",
        "key-set-twice", "key-set-twice-alike",
    ],
)
def test_a_refused_config_exits_2_and_writes_nothing(tmp_path, capsys, flag, config, message):
    cfg = tmp_path / "refused.cfg"
    cfg.write_text(config)
    out = tmp_path / "o"
    assert run(["sharpness", "--config", str(cfg), *flag, "--out", str(out)]) == 2
    assert not out.exists()
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sharpness", "all"])
@pytest.mark.parametrize("below", ["", "sub"], ids=["FILE", "FILE-sub"])
def test_an_out_in_or_under_a_file_exits_2_and_writes_nothing(tmp_path, capsys, command, below):
    blocker = tmp_path / "afile"
    blocker.write_text("kept\n")
    out = blocker / below
    assert run([command, "--out", str(out)]) == 2
    message = f"config error: out {str(out)!r}: {str(blocker)!r} exists and is not a directory\n"
    assert capsys.readouterr().err == message
    assert list(tmp_path.iterdir()) == [blocker] and blocker.read_text() == "kept\n"


# the nine scenario directories of all, those holding a manifest, and one of their parents
SUITE_DIRECTORIES = [
    *sorted(p.removesuffix("/manifest.txt") for p in suite_files(False) if p.endswith("/manifest.txt")),
    "convexity-imag",
]


@pytest.mark.parametrize(
    "command, blocker", [("sharpness", "sharpness"), *(("all", d) for d in SUITE_DIRECTORIES)]
)
def test_a_scenario_directory_that_is_a_file_exits_2_and_writes_nothing(tmp_path, capsys, command, blocker):
    # refused before any scenario runs, so no scenario writes a file
    out = tmp_path / "o"
    (out / blocker).parent.mkdir(parents=True, exist_ok=True)
    (out / blocker).write_text("kept\n")
    before = sorted(tmp_path.rglob("*"))
    assert run([command, "--out", str(out)]) == 2
    message = f"config error: out {str(out)!r}: {str(out / blocker)!r} exists and is not a directory\n"
    assert capsys.readouterr().err == message
    assert sorted(tmp_path.rglob("*")) == before and (out / blocker).read_text() == "kept\n"


def test_config_file_reads_plot_off_as_false(tmp_path):
    cfg = tmp_path / "off.cfg"
    cfg.write_text("plot = off\n")
    assert load_config_file(cfg) == {"plot": False}


def test_verify_convexity_certifies_its_family_at_the_config_residual_tol(tmp_path):
    # at 1e-12 the first family's residuals fail: both scenarios that build it say so
    cfg = tmp_path / "tight.cfg"
    cfg.write_text("residual_tol = 1e-12\n")
    out = tmp_path / "o"
    for command in ("construct-weights", "verify-convexity"):
        assert run([command, "--config", str(cfg), *SMALL, "--out", str(out)]) == 1
        verdict = (out / command / "verdict.txt").read_text()
        assert verdict == "FAIL max_violation=nan ResidualError\n"


def test_runners_are_the_scenarios_in_definition_order_then_all():
    # @scenario fills the table, so --help lists the commands in this order
    assert list(cli.RUNNERS) == [
        "construct-weights", "iterate", "evolve", "verify-convexity", "verify-bound", "sharpness", "all",
    ]


def test_help_lists_the_commands_in_runners_order(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["--help"])
    assert stop.value.code == 0
    assert "{" + ",".join(cli.RUNNERS) + "}" in capsys.readouterr().out


def test_every_command_prints_the_one_help_text(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    text = capsys.readouterr().out
    for command in cli.RUNNERS:
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert capsys.readouterr().out == text


# one value per flag, each differing from its ScenarioConfig default
EVERY_FLAG = {
    "config": ("--config", "x.cfg", "x.cfg"),
    "delta": ("--delta", "4.5", 4.5), "R": ("--R", "2", 2.0), "K": ("--K", "7", 7),
    "tol": ("--tol", "1e-3", 1e-3), "grid_M": ("--grid-M", "256", 256),
    "box_L": ("--box-L", "8", 8.0), "grid_N": ("--grid-N", "512", 512),
    "steps": ("--steps", "300", 300), "potential": ("--potential", "gauss-imag", "gauss-imag"),
    "amplitude": ("--amplitude", "0.25", 0.25), "gamma_factor": ("--gamma-factor", "1.1", 1.1),
    "out": ("--out", "elsewhere", "elsewhere"), "plot": ("--plot", None, True),
}


@pytest.mark.parametrize("command", list(cli.RUNNERS))
def test_each_command_accepts_every_flag(command):
    assert list(EVERY_FLAG) == ["config", *cli.FLAGS]
    argv = [command]
    for flag, raw, _ in EVERY_FLAG.values():
        argv += [flag] if raw is None else [flag, raw]
    parsed = vars(cli.build_parser().parse_args(argv))
    assert parsed == {"command": command, **{key: value for key, (*_, value) in EVERY_FLAG.items()}}


@pytest.mark.parametrize("argv", [[], ["bogus"], ["--delta", "3"]], ids=["none", "unknown", "flags-only"])
def test_a_missing_or_unknown_command_exits_2_and_writes_nothing(tmp_path, capsys, argv):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as stop:
        main([*argv, "--out", str(out)])
    assert stop.value.code == 2
    assert not out.exists()
    assert "heatlab: error:" in capsys.readouterr().err


def test_version_prints(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["--version"])
    assert stop.value.code == 0
    assert capsys.readouterr().out == f"heatlab {heatlab.__version__}\n"


def unreadable_config(tmp_path, kind):
    if kind == "directory":
        return tmp_path
    if kind == "non-utf8":
        path = tmp_path / "latin1.cfg"
        path.write_bytes(b"potential = gauss-imag # caf\xe9\n")
        return path
    return tmp_path / "missing" / "x.cfg"


@pytest.mark.parametrize("kind", ["missing", "directory", "non-utf8"])
def test_an_unreadable_config_exits_2_and_writes_nothing(tmp_path, capsys, kind):
    path = unreadable_config(tmp_path, kind)
    out = tmp_path / "o"
    assert run(["construct-weights", "--config", str(path), "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err.startswith(f"config error: cannot read {path}: ")


def test_flags_override_config_file(tmp_path):
    cfg = tmp_path / "base.cfg"
    cfg.write_text("# comment line\ndelta = 3.5\nK = 5\ntol = 1e-4\n")
    parsed = load_config_file(cfg)
    assert parsed == {"delta": 3.5, "K": 5, "tol": 1e-4}
    out = tmp_path / "o"
    assert run(["iterate", "--config", str(cfg), "--K", "3", "--out", str(out)]) == 0
    manifest = (out / "iterate" / "manifest.txt").read_text()
    assert "delta = 3.5" in manifest
    assert "K = 3" in manifest


def test_scenario_config_validation():
    with pytest.raises(Exception):
        ScenarioConfig(delta=2.0).validate()
    ScenarioConfig().validate()


# each range rule of ScenarioConfig.validate: the value it refuses and its message
RANGE_RULES = {
    **{
        name: (0.0, f"{name} must be positive")
        for name in (
            "R", "tol", "residual_tol", "slack_tol", "tail_tol", "box_L", "gamma_factor", "epsilon"
        )
    },
    "K": (0, "K must be >= 1"),
    "steps": (0, "steps must be >= 1"),
}


@pytest.mark.parametrize("name", RANGE_RULES)
def test_scenario_config_range_rules(name):
    value, message = RANGE_RULES[name]
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        ScenarioConfig(**{name: value}).validate()
    # a value just above the refused one passes
    ScenarioConfig(**{name: value + (1 if isinstance(value, int) else 1e-300)}).validate("iterate")


@pytest.mark.parametrize("flag, value", [("--gamma-factor", "nan"), ("--delta", "inf")])
def test_non_finite_flag_is_exit_2(tmp_path, flag, value):
    out = tmp_path / "o"
    assert run(["sharpness", flag, value, "--out", str(out)]) == 2
    assert not out.exists()


def test_check_passes_only_within_bound():
    assert Check("x", 1.0, 1.0).passed
    assert not Check("x", 1.5, 1.0).passed
    assert not Check("x", float("nan"), float("inf")).passed


def test_verdict_file_contains_max_violation(tmp_path):
    out = tmp_path / "cw"
    run(["construct-weights", "--out", str(out)])
    verdict = (out / "construct-weights" / "verdict.txt").read_text().strip()
    head, violation = verdict.split(" ", 1)
    assert head == "PASS"
    assert violation.startswith("max_violation=")
    float(violation.split("=")[1])


def nan_pde_residual(monkeypatch):
    monkeypatch.setattr(cli, "pde_residual", lambda traj: float("nan"))


def nan_sup_cross(monkeypatch):
    refine = wt.run_refinement

    def patched(*args, **kwargs):
        trace = refine(*args, **kwargs)
        return replace(trace, sup_cross=np.full_like(trace.sup_cross, np.nan))

    monkeypatch.setattr(wt, "run_refinement", patched)


@pytest.mark.parametrize(
    "command, flags, patch",
    [
        ("evolve", ["--potential", "none", "--steps", "500"], nan_pde_residual),
        ("iterate", ["--K", "10"], nan_sup_cross),
    ],
    ids=["evolve", "iterate"],
)
def test_nan_residual_propagates_into_verdict(tmp_path, monkeypatch, command, flags, patch):
    patch(monkeypatch)
    out = tmp_path / "o"
    assert run([command, *flags, "--out", str(out)]) == 1
    verdict = (out / command / "verdict.txt").read_text().strip()
    assert verdict == "FAIL max_violation=nan"


@pytest.mark.parametrize("series", ["sup_cross", "gap_to_limit"])
def test_a_rising_refinement_trace_fails_iterate(tmp_path, monkeypatch, series):
    refine = wt.run_refinement

    def rising(*args, **kwargs):
        trace = refine(*args, **kwargs)
        values = getattr(trace, series).copy()
        values[5] = 2.0 * values[4]  # one step up, every other step down
        return replace(trace, **{series: values})

    monkeypatch.setattr(wt, "run_refinement", rising)
    out = tmp_path / "o"
    assert run(["iterate", "--K", "10", "--out", str(out)]) == 1
    assert (out / "iterate" / "verdict.txt").read_text().startswith("FAIL max_violation=")


def test_iterate_trace_rises_read_zero_at_the_defaults():
    checks, _, _ = cli.run_iterate.__wrapped__(ScenarioConfig())
    assert [(c.name, c.value, c.bound) for c in checks[1:3]] == [
        ("sup_b_rise", 0.0, 0.0), ("gap_rise", 0.0, 0.0)
    ]


def test_iterate_checks_the_last_rate_margin(tmp_path):
    out = tmp_path / "o"
    assert run(["iterate", "--out", str(out)]) == 0
    trace = wt.run_refinement(3.0, 50)
    manifest = (out / "iterate" / "manifest.txt").read_text().splitlines()
    assert f"rate_margin = {trace.rate_margin[-1]:.12g}" in manifest
    checks, info, _ = cli.run_iterate.__wrapped__(ScenarioConfig())
    assert checks[-1] == Check("rate_margin", -info["rate_margin"], 1e-4)
    assert info["rate_margin"] == trace.rate_margin[-1] > 0.0


def test_a_negative_rate_margin_fails_iterate(tmp_path, monkeypatch):
    refine = wt.run_refinement

    def dipping(*args, **kwargs):
        trace = refine(*args, **kwargs)
        margins = trace.rate_margin.copy()
        margins[-1] = -1.0  # the last iterate breaks a' + 4a^2 >= 0
        return replace(trace, rate_margin=margins)

    monkeypatch.setattr(wt, "run_refinement", dipping)
    out = tmp_path / "o"
    assert run(["iterate", "--K", "10", "--out", str(out)]) == 1
    assert (out / "iterate" / "verdict.txt").read_text() == "FAIL max_violation=1\n"
    assert "rate_margin = -1" in (out / "iterate" / "manifest.txt").read_text().splitlines()


def test_certification_error_is_a_named_fail(tmp_path, monkeypatch):
    def failing(self, *args, **kwargs):
        raise CertificationError("b changes sign")

    monkeypatch.setattr(wt.WeightFamily, "validate", failing)
    out = tmp_path / "cw"
    assert run(["construct-weights", "--out", str(out)]) == 1
    scenario = out / "construct-weights"
    assert (scenario / "verdict.txt").read_text().strip() == "FAIL max_violation=nan CertificationError"
    assert "error = b changes sign" in (scenario / "manifest.txt").read_text().splitlines()


def test_chain_certificate_failure_reports_its_numbers(tmp_path):
    # at M = 64 the route gap of step 30 outgrows DEFAULT_RECERT_TOL times the curvature scale
    out = tmp_path / "o"
    assert run(["iterate", "--grid-M", "64", "--out", str(out)]) == 1
    scenario = out / "iterate"
    assert (scenario / "verdict.txt").read_text().strip() == "FAIL max_violation=nan CertificationError"
    manifest = (scenario / "manifest.txt").read_text().splitlines()
    error = next(line for line in manifest if line.startswith("error = "))
    assert error.startswith("error = convexity certificate failed at step 30: failed (")
    found = re.search(
        r"route gap (\S+), interior minimum (\S+), bound DEFAULT_RECERT_TOL x scale = (\S+)\)$",
        error,
    )
    gap, minimum, bound = (float(value) for value in found.groups())
    assert bound >= wt.DEFAULT_RECERT_TOL  # the curvature scale is at least 1
    assert gap > bound and minimum > bound  # the routes disagree; the curvature is positive


def test_correction_term_residual_is_a_named_fail(tmp_path, monkeypatch):
    derivative = fn.fd_derivative
    monkeypatch.setattr(fn, "fd_derivative", lambda *args: derivative(*args) + 1e-3)
    out = tmp_path / "vc"
    assert run(["verify-convexity", "--potential", "none", "--out", str(out)]) == 1
    scenario = out / "verify-convexity"
    assert (scenario / "verdict.txt").read_text().strip() == "FAIL max_violation=nan ResidualError"
    manifest = (scenario / "manifest.txt").read_text().splitlines()
    assert any(line.startswith("error = correction-term residual") for line in manifest)


def test_floating_point_error_is_reported_not_raised(tmp_path, monkeypatch, capsys):
    def overflowing(cfg):
        return bool(np.exp(np.array([1000.0]))[0] > 0.0)

    monkeypatch.setitem(cli.RUNNERS, "sharpness", overflowing)
    # the CLI must install the raising policy itself, whatever the caller's
    with np.errstate(over="ignore", invalid="ignore"):
        code = run(["sharpness", "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("numerical error: overflow")


@pytest.mark.parametrize("command", ["verify-convexity", "all"])
def test_convexity_grid_is_validated_before_any_scenario_runs(tmp_path, command, capsys):
    out = tmp_path / "o"
    assert run([command, "--grid-M", "320", "--out", str(out)]) == 2
    assert not out.exists()
    assert "grid_M must be a multiple of 256" in capsys.readouterr().err
    ScenarioConfig(grid_M=320).validate("iterate")  # the other scenarios take any grid_M >= 64


@pytest.mark.parametrize(
    "flags",
    [["--steps", "1"], ["--steps", "4"], ["--steps", "64"], ["--potential", "gauss-imag", "--steps", "8"]],
    ids=["steps1", "steps4", "steps64", "imag-steps8"],
)
def test_evolve_stores_251_frames_at_any_steps(tmp_path, flags):
    # --steps is a target that evolve rounds up to whole steps per frame interval
    out = tmp_path / "o"
    assert run(["evolve", *flags, "--out", str(out)]) == 0
    frames = out / "evolve" / "frames"
    assert len((frames / "frames.csv").read_text().splitlines()) == 1 + 251
    assert len(list(frames.iterdir())) == 1 + 251
    assert (out / "evolve" / "verdict.txt").read_text().startswith("PASS")


@pytest.mark.parametrize(
    "factor, check, bound",
    [(2.0, "energy_slack", 1e-6), (np.exp(1e-3j), "closed_form_gap", 1e-6)],
    ids=["doubled", "rotated"],
)
def test_a_wrong_last_frame_fails_evolve(tmp_path, monkeypatch, factor, check, bound):
    evolve = cli.evolve

    def scaled_last_frame(*args, **kwargs):
        traj = evolve(*args, **kwargs)
        traj.frames[-1] *= factor
        return traj

    monkeypatch.setattr(cli, "evolve", scaled_last_frame)
    out = tmp_path / "o"
    assert run(["evolve", "--out", str(out)]) == 1
    assert (out / "evolve" / "verdict.txt").read_text().startswith("FAIL max_violation=")
    manifest = (out / "evolve" / "manifest.txt").read_text()
    assert float(re.search(rf"^{check} = (\S+)$", manifest, re.M).group(1)) > bound


def test_floating_point_error_in_a_scenario_is_a_named_fail(tmp_path, monkeypatch):
    def overflowing(*args, **kwargs):
        return np.exp(np.array([1000.0]))

    monkeypatch.setattr(fn, "sharpness_probe", overflowing)
    out = tmp_path / "o"
    assert run(["all", *SMALL, "--out", str(out)]) == 1
    summary = dict(line.split(" = ") for line in (out / "summary.txt").read_text().splitlines())
    failed = {"sharpness-0.5", "sharpness-1", "sharpness-1.1"}
    assert {name for name, tag in summary.items() if tag == "FAIL"} == failed
    assert len(summary) == 9
    scenario = out / "sharpness-1" / "sharpness"
    assert (scenario / "verdict.txt").read_text().strip() == "FAIL max_violation=nan FloatingPointError"
    assert "error = overflow encountered in exp" in (scenario / "manifest.txt").read_text().splitlines()


def corrupt(owner, name, change):
    """A patch that passes each result of ``owner.name(*args)`` through ``change(result, *args)``."""
    original = getattr(owner, name)

    def patch(monkeypatch):
        monkeypatch.setattr(owner, name, lambda *args, **kw: change(original(*args, **kw), *args))

    return patch


def refined_only(change):
    """``change`` applied to verify-bound's refined report, whose run has twice the points."""
    return lambda report, traj, *_: change(report) if traj.grid.n == 2 * ScenarioConfig.grid_N else report


def with_residual_offset(which):
    def change(residuals, *_):
        r = list(residuals)
        r[which] = r[which].with_values(r[which].values + 1e-3)
        return tuple(r)

    return change


# one corruption per named check, each breaking that check alone: (scenario, check) -> (flags, patch)
LIVENESS = {
    ("construct-weights", "bvp_gap"): (
        [], corrupt(wt, "solve_cross_bvp", lambda b, *_: b.with_values(1.01 * b.values))
    ),
    ("construct-weights", "sup_r1"): ([], corrupt(wt, "coefficient_residuals", with_residual_offset(0))),
    ("construct-weights", "sup_r2"): ([], corrupt(wt, "coefficient_residuals", with_residual_offset(1))),
    ("construct-weights", "curvature"): (
        [], corrupt(wt.WeightFamily, "certificate", lambda c, *_: replace(c, verdict="nonnegative"))
    ),
    ("verify-convexity", "slack"): (
        [], corrupt(fn, "check_log_convexity", lambda r, *_: replace(r, slack=r.slack - 1e-3 * r.h_scale))
    ),
    ("verify-convexity", "curvature"): (
        [], corrupt(wt.WeightFamily, "certificate", lambda c, *_: replace(c, verdict="nonnegative"))
    ),
    ("verify-bound", "finite"): (
        [], corrupt(fn, "verify_interior_bound", refined_only(lambda r: replace(r, finite=False)))
    ),
    ("verify-bound", "ratio_drift"): (
        [], corrupt(fn, "verify_interior_bound", refined_only(lambda r: replace(r, ratio=1.02 * r.ratio)))
    ),
    ("sharpness", "expected_verdict"): (
        ["--gamma-factor", "1.0"],
        corrupt(fn, "sharpness_probe", lambda r, *_: replace(r, verdict="convergent")),
    ),
}


@pytest.mark.parametrize("scenario_name, check", list(LIVENESS), ids=[f"{s}-{c}" for s, c in LIVENESS])
def test_each_named_check_can_fail_alone(tmp_path, monkeypatch, scenario_name, check):
    flags, patch = LIVENESS[scenario_name, check]
    patch(monkeypatch)
    args = [scenario_name, *flags, "--out", str(tmp_path / "o")]
    assert run(args) == 1
    scenario = tmp_path / "o" / scenario_name
    assert (scenario / "verdict.txt").read_text().startswith("FAIL max_violation=")
    checks = getattr(cli, "run_" + scenario_name.replace("-", "_")).__wrapped__(
        cli.build_config(cli.build_parser().parse_args(args))
    )[0]
    failed = [c for c in checks if not c.passed]
    assert [c.name for c in failed] == [check] and failed[0].value > failed[0].bound
    # a check whose value is a manifest line reports the same failing value there
    found = re.search(rf"^{check} = (\S+)$", (scenario / "manifest.txt").read_text(), re.M)
    if found:
        assert float(found.group(1)) == pytest.approx(failed[0].value, rel=1e-11)


# named checks that other tests of this module corrupt, with the test that does it
COVERED_ELSEWHERE = {
    ("iterate", "finite_sup_b"): "test_nan_residual_propagates_into_verdict",
    ("iterate", "sup_b_rise"): "test_a_rising_refinement_trace_fails_iterate",
    ("iterate", "gap_rise"): "test_a_rising_refinement_trace_fails_iterate",
    ("iterate", "rate_margin"): "test_a_negative_rate_margin_fails_iterate",
    ("evolve", "tails_ok"): "test_evolve_command_fails_a_tail_above_the_config_tail_tol",
    ("evolve", "pde_residual"): "test_nan_residual_propagates_into_verdict",
    ("evolve", "energy_slack"): "test_a_wrong_last_frame_fails_evolve",
    ("evolve", "closed_form_gap"): "test_a_wrong_last_frame_fails_evolve",
    ("verify-bound", "closed_form_gap"): "test_verify_bound_closed_form_gap_can_fail",
}


def test_every_named_check_has_a_liveness_corruption():
    # V = 0 adds the closed-form checks, so the default potential names every check
    cheap = ScenarioConfig(grid_M=256, K=5, grid_N=256, steps=256)
    named = set()
    for command, runner in cli.RUNNERS.items():
        if command != "all":
            named |= {(command, c.name) for c in runner.__wrapped__(cheap)[0]}
    assert all(callable(globals().get(test)) for test in COVERED_ELSEWHERE.values())
    assert named - LIVENESS.keys() - COVERED_ELSEWHERE.keys() == set()
    assert LIVENESS.keys() | COVERED_ELSEWHERE.keys() <= named  # no entry names a lost check


def parsed_config(argv):
    return cli.build_config(cli.build_parser().parse_args(argv))


def test_a_flag_not_given_keeps_the_config_file_value(tmp_path):
    cfg = tmp_path / "base.cfg"
    cfg.write_text("plot = true\namplitude = 0.7\nK = 4\n")
    kept = parsed_config(["sharpness", "--config", str(cfg)])
    assert (kept.plot, kept.amplitude, kept.K) == (True, 0.7, 4)
    # 0 is a given value, not an absent flag
    zeroed = parsed_config(["sharpness", "--config", str(cfg), "--amplitude", "0"])
    assert (zeroed.plot, zeroed.amplitude, zeroed.K) == (True, 0.0, 4)
    assert vars(cli.build_parser().parse_args(["sharpness"])) == {"command": "sharpness"}


def test_an_empty_config_path_exits_2_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "o"
    assert run(["sharpness", "--config", "", "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err.startswith("config error: cannot read")


@pytest.mark.parametrize(
    "key, raw", [("K", "7"), ("delta", "4.5"), ("potential", "gauss-imag"), ("plot", "true")]
)
def test_a_file_and_a_flag_parse_a_field_alike(tmp_path, key, raw):
    cfg = tmp_path / "one.cfg"
    cfg.write_text(f"{key} = {raw}\n")
    flag = ["--plot"] if key == "plot" else ["--" + key.replace("_", "-"), raw]
    from_file = parsed_config(["iterate", "--config", str(cfg)])
    from_flag = parsed_config(["iterate", *flag])
    assert from_file == from_flag != ScenarioConfig()
    assert type(getattr(from_file, key)) is type(getattr(ScenarioConfig(), key))


def test_a_fractional_count_exits_2_from_a_file_and_from_a_flag(tmp_path):
    cfg = tmp_path / "half.cfg"
    cfg.write_text("K = 1.5\n")
    out = tmp_path / "o"
    assert run(["iterate", "--config", str(cfg), "--out", str(out)]) == 2
    with pytest.raises(SystemExit) as stop:
        run(["iterate", "--K", "1.5", "--out", str(out)])
    assert stop.value.code == 2
    assert not out.exists()


def test_a_failed_scenario_writes_the_config_echo_then_its_error(tmp_path, monkeypatch):
    def failing(self, *args, **kwargs):
        raise CertificationError("b changes sign")

    monkeypatch.setattr(wt.WeightFamily, "validate", failing)
    out = tmp_path / "cw"
    assert run(["construct-weights", "--out", str(out)]) == 1
    scenario = out / "construct-weights"
    assert sorted(p.name for p in scenario.iterdir()) == ["manifest.txt", "verdict.txt"]
    assert (scenario / "verdict.txt").read_bytes() == b"FAIL max_violation=nan CertificationError\n"
    echo = [
        "command = construct-weights", f"heatlab_version = {heatlab.__version__}",
        f"numpy_version = {np.__version__}", "delta = 3", "R = 1", "K = 50", "tol = 1e-05",
        "residual_tol = 1e-06", "slack_tol = 0.0001", "tail_tol = 1e-08", "grid_M = 512",
        "box_L = 12", "grid_N = 1024", "steps = 1024", "potential = none", "amplitude = 0.5",
        "xi = 1", "gamma_factor = 1", "epsilon = 1e-06", f"out = {out}", "plot = false",
        "error = b changes sign",
    ]
    assert (scenario / "manifest.txt").read_text() == "\n".join(echo) + "\n"


def test_a_python_float_overflow_outside_a_scenario_is_reported(tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(cli.RUNNERS, "sharpness", lambda cfg: 1e300**2 > 0.0)
    assert run(["sharpness", "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == "numerical error: (34, 'Numerical result out of range')\n"


def test_all_at_an_overflowing_delta_still_writes_its_summary(tmp_path):
    out = tmp_path / "o"
    assert run(["all", *SMALL, "--delta", "1e300", "--out", str(out)]) == 1
    summary = dict(line.split(" = ") for line in (out / "summary.txt").read_text().splitlines())
    assert summary["iterate"] == "FAIL" and len(summary) == 9
    verdict = (out / "iterate" / "verdict.txt").read_text()
    assert verdict == "FAIL max_violation=nan OverflowError\n"
    assert (out / "verdict.txt").read_text() == "FAIL max_violation=1 suite\n"


# 2^50 points: 8 PiB of float64, which numpy refuses before it allocates anything
HUGE = str(2**50)


def test_all_at_an_unallocatable_grid_still_writes_its_summary(tmp_path):
    out = tmp_path / "o"
    assert run(["all", *SMALL, "--grid-N", HUGE, "--out", str(out)]) == 1
    summary = dict(line.split(" = ") for line in (out / "summary.txt").read_text().splitlines())
    failed = {name for name, verdict in summary.items() if verdict == "FAIL"}
    assert failed == {"evolve", "verify-bound", "verify-convexity-free", "verify-convexity-imag"}
    assert len(summary) == 9
    for scenario in ("evolve", "verify-bound"):
        verdict = (out / scenario / "verdict.txt").read_text()
        assert verdict == "FAIL max_violation=nan MemoryError\n"
    assert (out / "verdict.txt").read_text() == "FAIL max_violation=1 suite\n"


# the float settings each command reads, besides a potential's amplitude, and the cheap
# sizes it runs at; verify-convexity needs grid_M a multiple of 256
READS = {
    "construct-weights": (("delta", "residual_tol"), ["--grid-M", "256"]),
    "iterate": (("delta", "tol"), ["--K", "2"]),
    "evolve": (("box_L", "tail_tol"), ["--grid-N", "256", "--steps", "8"]),
    "verify-convexity": (
        ("delta", "residual_tol", "slack_tol", "tail_tol", "box_L", "xi", "epsilon"),
        ["--grid-M", "256", "--grid-N", "256", "--steps", "256"],
    ),
    "verify-bound": (("R", "box_L", "tail_tol"), ["--grid-N", "256", "--steps", "8"]),
    "sharpness": (("R", "gamma_factor"), []),
}
# the extremes validate admits: delta must exceed 2, xi may take either sign, the rest are positive
EXTREMES = {"delta": ("2.000001", "1e300"), "xi": ("-1e300", "1e300")}
# the grid sizes each command reads, each set alone to HUGE
GRIDS = {
    "construct-weights": ("grid_M",), "iterate": ("grid_M",), "evolve": ("grid_N",),
    "verify-convexity": ("grid_M", "grid_N"), "verify-bound": ("grid_N",),
}
AMPLITUDES = [
    {"potential": potential, "amplitude": amplitude}
    for potential in ("none", "gauss-imag")
    for amplitude in ("0", "1e300")
]
BOUNDARY = [
    (command, setting)
    for command, (names, _) in READS.items()
    for setting in [
        *({name: value} for name in names for value in EXTREMES.get(name, ("1e-300", "1e300"))),
        *({name: HUGE} for name in GRIDS.get(command, ())),
        *(AMPLITUDES if command in ("evolve", "verify-convexity", "verify-bound") else []),
    ]
]


@pytest.mark.parametrize(
    "command, setting",
    BOUNDARY,
    ids=[f"{c}-" + "-".join(f"{k}={v}" for k, v in s.items()) for c, s in BOUNDARY],
)
def test_no_admitted_config_ends_in_a_traceback(tmp_path, command, setting):
    # a flag sets what it can; residual_tol, slack_tol, tail_tol, xi and epsilon only a file can
    flags, lines = [], []
    for key, value in setting.items():
        if key in cli.FLAGS:
            flags += ["--" + key.replace("_", "-"), value]
        else:
            lines.append(f"{key} = {value}\n")
    cfg = tmp_path / "extreme.cfg"
    cfg.write_text("".join(lines))
    out = tmp_path / "o"
    assert run([command, "--config", str(cfg), *READS[command][1], *flags, "--out", str(out)]) in (0, 1)
    written = {p.name for p in (out / command).iterdir()}
    verdict = (out / command / "verdict.txt").read_text()
    assert re.fullmatch(r"(PASS|FAIL) max_violation=\S+( \w+)?\n", verdict)
    assert {"manifest.txt", "verdict.txt"} <= written
    if "max_violation=nan " in verdict:  # a named error writes no other file
        assert written == {"manifest.txt", "verdict.txt"}
