import numpy as np
import pytest

from heatlab import cli
from heatlab.cli import ScenarioConfig, load_config_file, main


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


def test_verify_bound_command(tmp_path):
    out = tmp_path / "vb"
    assert run(["verify-bound", "--R", "2.5", "--steps", "400", "--out", str(out)]) == 0
    assert (out / "verify-bound" / "bound.csv").exists()


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


def test_out_of_range_flag_is_exit_2(tmp_path):
    assert run(["iterate", "--delta", "1.5", "--out", str(tmp_path / "o")]) == 2
    assert run(["evolve", "--grid-N", "1000", "--out", str(tmp_path / "o")]) == 2


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


def test_verdict_file_contains_max_violation(tmp_path):
    out = tmp_path / "cw"
    run(["construct-weights", "--out", str(out)])
    verdict = (out / "construct-weights" / "verdict.txt").read_text().strip()
    head, violation = verdict.split(" ", 1)
    assert head == "PASS"
    assert violation.startswith("max_violation=")
    float(violation.split("=")[1])


def test_nan_residual_propagates_into_verdict(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "pde_residual", lambda traj: float("nan"))
    out = tmp_path / "ev"
    assert run(["evolve", "--potential", "none", "--steps", "500", "--out", str(out)]) == 1
    verdict = (out / "evolve" / "verdict.txt").read_text().strip()
    assert verdict == "FAIL max_violation=nan"


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
