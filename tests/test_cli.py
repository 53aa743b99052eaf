"""Configuration parsing, simulation artifacts, CLI exit codes."""

import json


import pytest

from capwave import evolution
from capwave.cli import (
    EXIT_ASSERTION,
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_VALIDATION,
    ConfigError,
    RunConfig,
    main,
    parse_config,
    run_simulate,
)

BASE_CONFIG = """
# comment line
grid.n = 64
grid.length = 6.283185307179586
geometry.kind = flat_bottom
geometry.depth = 1.0
init.profile = cosine
init.amplitude = 1e-4
init.mode = 2
evolution.scheme = etdrk4
evolution.dt = 0.01
evolution.T = 0.5
evolution.nz = 32
diagnostics.sample_stride = 2
output.snapshot_stride = 5
seed = 0
"""


def write_config(tmp_path, text, name="run.cfg", out_dir=None):
    cfg = text
    if out_dir is not None:
        cfg += f"\noutput.dir = {out_dir}\n"
    path = tmp_path / name
    path.write_text(cfg)
    return path


def test_parse_config_round_trip(tmp_path):
    path = write_config(tmp_path, BASE_CONFIG, out_dir=tmp_path / "out")
    cfg = parse_config(path)
    assert cfg.n == 64
    assert cfg.mode == 2
    assert cfg.scheme == "etdrk4"
    assert cfg.sample_stride == 2


def test_parse_config_rejects_unknown_key(tmp_path):
    path = write_config(tmp_path, BASE_CONFIG + "\nbogus.key = 3\n")
    with pytest.raises(ConfigError):
        parse_config(path)


def test_parse_config_rejects_bad_values(tmp_path):
    path = write_config(tmp_path, BASE_CONFIG + "\ngrid.n = 63\n")
    with pytest.raises(ConfigError):
        parse_config(path)
    path = write_config(tmp_path, BASE_CONFIG + "\nevolution.dt = -1\n", "b.cfg")
    with pytest.raises(ConfigError):
        parse_config(path)
    path = write_config(tmp_path, BASE_CONFIG + "\ngrid.n = not_a_number\n", "c.cfg")
    with pytest.raises(ConfigError):
        parse_config(path)


def test_zero_profile_produces_zero_trajectory(tmp_path):
    out = tmp_path / "out"
    path = write_config(
        tmp_path,
        BASE_CONFIG.replace("init.profile = cosine", "init.profile = zero"),
        out_dir=out)
    cfg = parse_config(path)
    run_simulate(cfg)
    rows = (out / "trajectory.csv").read_text().strip().split("\n")[1:]
    for row in rows:
        vals = [float(v) for v in row.split(",")[1:]]
        assert all(v == 0.0 for v in vals)


def test_simulate_artifacts_and_dispersion(tmp_path):
    out = tmp_path / "out"
    path = write_config(tmp_path, BASE_CONFIG.replace(
        "evolution.T = 0.5", "evolution.T = 4.0"), out_dir=out)
    cfg = parse_config(path)
    summary = run_simulate(cfg)
    assert (out / "trajectory.csv").exists()
    assert (out / "summary.json").exists()
    assert (out / "smoothing_report.json").exists()
    assert list(out.glob("snapshot_*.json"))
    assert summary["dispersion"]["rel_err"] < 1e-4
    smoothing = json.loads((out / "smoothing_report.json").read_text())
    assert smoothing["K_measured"] > 0
    assert smoothing["kato_integral"] >= 0


def test_simulate_deterministic(tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        path = write_config(tmp_path, BASE_CONFIG, name=f"{tag}.cfg", out_dir=out)
        run_simulate(parse_config(path))
        outs.append((out / "trajectory.csv").read_bytes())
    assert outs[0] == outs[1]


def test_cli_verify_unknown_suite():
    assert main(["verify", "nonsense"]) == EXIT_VALIDATION


def test_cli_verify_dno(tmp_path, capsys):
    code = main(["verify", "dno", "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    assert "dno.flat_oracle_rel" in captured.out
    assert "timing dno.flat_oracle_runtime_s:" in captured.out
    assert "] dno.flat_oracle_runtime_s" not in captured.out
    report = json.loads((tmp_path / "verify_dno.json").read_text())
    assert report["passed"] is True
    assert report["timings"]["dno.flat_oracle_runtime_s"]["budget_s"] == 5.0


def test_cli_simulate_missing_config():
    assert main(["simulate", "/nonexistent/path.cfg"]) == EXIT_VALIDATION


def test_report_exit_codes(tmp_path, capsys):
    # plain directory with a valid run
    out = tmp_path / "ok"
    path = write_config(tmp_path, BASE_CONFIG, out_dir=out)
    run_simulate(parse_config(path))
    assert main(["report", str(out)]) == EXIT_OK
    capsys.readouterr()

    # aborted run directory
    bad = tmp_path / "aborted"
    bad.mkdir()
    (bad / "abort.marker").write_text("step aborted at t=0.1: degenerate layer\n")
    assert main(["report", str(bad)]) == EXIT_RUNTIME
    capsys.readouterr()

    # missing directory
    assert main(["report", str(tmp_path / "missing")]) == EXIT_VALIDATION

    # failed verify report
    failed = tmp_path / "failed"
    failed.mkdir()
    (failed / "verify_dno.json").write_text(json.dumps(
        {"suite": "dno", "passed": False, "checks": [], "failures": ["x"]}))
    assert main(["report", str(failed)]) == EXIT_ASSERTION
    capsys.readouterr()

    # a timing over its budget does not fail a passed verify report
    slow = tmp_path / "slow"
    slow.mkdir()
    (slow / "verify_dno.json").write_text(json.dumps(
        {"suite": "dno", "passed": True, "checks": [], "failures": [],
         "timings": {"dno.flat_oracle_runtime_s": {"seconds": 9.0, "budget_s": 5.0}}}))
    assert main(["report", str(slow)]) == EXIT_OK
    capsys.readouterr()


def test_runconfig_validation_direct():
    cfg = RunConfig(n=64, profile="cosine")
    cfg.validate()
    with pytest.raises(ConfigError):
        RunConfig(kind="slanted").validate()
    with pytest.raises(ConfigError):
        RunConfig(delta=0.0).validate()


@pytest.mark.parametrize("mode", [0, 32, 60, -32])
def test_out_of_band_mode_rejected_before_any_step(tmp_path, monkeypatch, mode):
    steps = []
    monkeypatch.setattr(evolution, "step", lambda *a, **k: steps.append(a))
    path = write_config(tmp_path, BASE_CONFIG.replace("init.mode = 2", f"init.mode = {mode}"),
                        out_dir=tmp_path / "out")
    assert main(["simulate", str(path)]) == EXIT_VALIDATION
    assert steps == []
    assert not (tmp_path / "out" / "summary.json").exists()
