"""Configuration parsing, simulation artifacts, CLI exit codes."""

import json
import re

import numpy as np
import pytest

from capwave import evolution, verify
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
from capwave.dno import GeometryError

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
    path = write_config(tmp_path, BASE_CONFIG + "\ninit.phase = 0.5\n", "b.cfg")
    with pytest.raises(ConfigError, match="unknown key"):
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
    assert not (out / "smoothing_report.json").exists()  # summary.json holds the report
    assert list(out.glob("snapshot_*.json"))
    assert summary["dispersion"]["rel_err"] < 1e-4
    smoothing = json.loads((out / "summary.json").read_text())["smoothing"]
    assert sorted(smoothing) == ["K_measured", "garding", "kato_integral",
                                 "unweighted_integral"]
    assert smoothing["K_measured"] > 0
    assert smoothing["kato_integral"] >= 0


def _reject_constant(name):
    raise ValueError(f"not JSON: {name}")


def test_cosine_run_without_snapshots_writes_valid_json(tmp_path, capsys):
    # one state past t = 0 is too few for a dispersion fit: the block is left
    # out rather than written as bare NaN
    out = tmp_path / "out"
    path = write_config(tmp_path, BASE_CONFIG.replace("output.snapshot_stride = 5", ""),
                        out_dir=out)
    run_simulate(parse_config(path))
    summary = json.loads((out / "summary.json").read_text(), parse_constant=_reject_constant)
    assert "dispersion" not in summary
    assert summary["smoothing"]["unweighted_integral"] > 0
    assert main(["report", str(out)]) == EXIT_OK
    assert "nan" not in capsys.readouterr().out


def test_simulate_deterministic(tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        path = write_config(tmp_path, BASE_CONFIG, name=f"{tag}.cfg", out_dir=out)
        run_simulate(parse_config(path))
        outs.append((out / "trajectory.csv").read_bytes())
    assert outs[0] == outs[1]


def test_cli_verify_unknown_suite(monkeypatch, capsys):
    ran = []
    for name in verify.SUITES:
        monkeypatch.setattr(verify, f"_suite_{name}", lambda name=name: ran.append(name))
    assert main(["verify", "nonsense"]) == EXIT_VALIDATION
    assert "usage error: unknown suite 'nonsense'" in capsys.readouterr().err
    assert ran == []


def test_cli_verify_fault_inside_a_suite_is_a_runtime_abort(monkeypatch, capsys):
    def degenerate():
        raise GeometryError("fluid layer degenerate")
    monkeypatch.setattr(verify, "_suite_symbols", degenerate)
    assert main(["verify", "symbols"]) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert "runtime abort: GeometryError: fluid layer degenerate" in err
    assert "usage error" not in err


def test_cli_verify_takes_no_seed(capsys):
    # the suites draw every probe from the fixed seed their bounds were set on
    with pytest.raises(SystemExit) as err:
        main(["verify", "dno", "--seed", "1"])
    assert err.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
    with pytest.raises(SystemExit) as err:
        main(["verify", "--help"])
    assert err.value.code == 0
    assert "--seed" not in capsys.readouterr().out


def test_cli_verify_dno(tmp_path, capsys):
    code = main(["verify", "dno", "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    assert "dno.flat_oracle_rel" in captured.out
    timing = [line for line in captured.out.splitlines() if line.startswith("timing")]
    assert len(timing) == 1 and re.fullmatch(r"timing dno: \d+\.\d{3} s", timing[0])
    report = json.loads((tmp_path / "verify_dno.json").read_text())
    assert report["passed"] is True
    assert list(report["timings"]) == ["dno"]


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


def test_report_reads_trajectory_columns_by_name(tmp_path, capsys):
    out = tmp_path / "out"
    run_simulate(parse_config(write_config(tmp_path, BASE_CONFIG, out_dir=out)))
    csv_path = out / "trajectory.csv"
    assert main(["report", str(out)]) == EXIT_OK
    expected = capsys.readouterr().out
    rows = [line.split(",") for line in csv_path.read_text().splitlines()]
    order = [6, 4, 2, 0, 5, 3, 1]  # every column moves
    csv_path.write_text("".join(",".join(row[i] for i in order) + "\n" for row in rows))
    assert main(["report", str(out)]) == EXIT_OK
    assert capsys.readouterr().out == expected
    assert "  monitor M: " in expected and "  hamiltonian: " in expected


def test_runconfig_validation_direct():
    cfg = RunConfig(n=64, profile="cosine")
    cfg.validate()
    with pytest.raises(ConfigError):
        RunConfig(kind="slanted").validate()
    with pytest.raises(ConfigError):
        RunConfig(delta=0.0).validate()
    # one record at t = 0 and three steps: the fewest the Kato integral takes
    RunConfig(n=64, dt=0.01, t_final=0.03).validate()
    with pytest.raises(ConfigError):
        RunConfig(n=64, dt=0.01, t_final=0.02).validate()
    # the stride message states both rules; snapshot_stride = 0 stores no snapshots
    for bad in ({"sample_stride": 0}, {"snapshot_stride": -1}):
        with pytest.raises(ConfigError, match="sample_stride must be at least 1 and "
                                              "output.snapshot_stride at least 0"):
            RunConfig(n=64, **bad).validate()
    RunConfig(n=64, snapshot_stride=0).validate()


def test_final_time_off_the_step_grid_rejected_before_any_step(tmp_path, monkeypatch, capsys):
    # 1.0 / 0.03 steps would round to 33 and end the run at t = 0.99
    with pytest.raises(ConfigError, match="evolution.T = 1.0 is not a whole number of "
                                          "evolution.dt = 0.03 steps"):
        RunConfig(n=64, dt=0.03, t_final=1.0).validate()
    steps = []
    monkeypatch.setattr(evolution, "step", lambda *a, **k: steps.append(a))
    text = BASE_CONFIG.replace("evolution.dt = 0.01", "evolution.dt = 0.03")
    path = write_config(tmp_path, text, out_dir=tmp_path / "out")
    assert main(["simulate", str(path)]) == EXIT_VALIDATION
    assert "configuration error: evolution.T = 0.5" in capsys.readouterr().err
    assert steps == []


@pytest.mark.parametrize("mode", [0, 32, 60, -32])
def test_out_of_band_mode_rejected_before_any_step(tmp_path, monkeypatch, mode):
    steps = []
    monkeypatch.setattr(evolution, "step", lambda *a, **k: steps.append(a))
    path = write_config(tmp_path, BASE_CONFIG.replace("init.mode = 2", f"init.mode = {mode}"),
                        out_dir=tmp_path / "out")
    assert main(["simulate", str(path)]) == EXIT_VALIDATION
    assert steps == []
    assert not (tmp_path / "out" / "summary.json").exists()


@pytest.mark.parametrize("t_final, stride", [("0.02", 1), ("0.03", 2), ("0.004", 1)])
def test_run_too_short_for_the_kato_integral_rejected_before_any_step(
        tmp_path, monkeypatch, t_final, stride):
    # fewer than KATO_MIN_RECORDS records: kato_integral would raise after the run
    steps = []
    monkeypatch.setattr(evolution, "step", lambda *a, **k: steps.append(a))
    text = (BASE_CONFIG.replace("evolution.T = 0.5", f"evolution.T = {t_final}")
            .replace("diagnostics.sample_stride = 2", f"diagnostics.sample_stride = {stride}"))
    path = write_config(tmp_path, text, out_dir=tmp_path / "out")
    assert main(["simulate", str(path)]) == EXIT_VALIDATION
    assert steps == []
    assert not (tmp_path / "out" / "trajectory.csv").exists()


@pytest.mark.parametrize("width", ["0", "-1.5", "inf", "nan"])
def test_packet_width_rejected_by_name(tmp_path, monkeypatch, capsys, width):
    steps = []
    monkeypatch.setattr(evolution, "step", lambda *a, **k: steps.append(a))
    path = write_config(tmp_path, BASE_CONFIG + f"init.profile = packet\ninit.width = {width}\n",
                        out_dir=tmp_path / "out")
    with np.errstate(all="raise"):  # rejected before the packet is built
        assert main(["simulate", str(path)]) == EXIT_VALIDATION
    assert "configuration error: init.width must be" in capsys.readouterr().err
    assert steps == []
    assert not (tmp_path / "out" / "trajectory.csv").exists()


def test_scheme_other_than_etdrk4_rejected_before_any_step(tmp_path, monkeypatch):
    steps = []
    monkeypatch.setattr(evolution, "step", lambda *a, **k: steps.append(a))
    path = write_config(tmp_path, BASE_CONFIG.replace("evolution.scheme = etdrk4",
                                                      "evolution.scheme = rk4"),
                        out_dir=tmp_path / "out")
    assert main(["simulate", str(path)]) == EXIT_VALIDATION
    assert steps == []
    assert not (tmp_path / "out" / "summary.json").exists()


@pytest.mark.parametrize("override", [
    "init.amplitude = nan",
    "geometry.kappa = inf",
    "init.profile = packet\ninit.width = 0",
    "evolution.dt = nan",
    "evolution.T = inf",
    "grid.length = nan",
])
def test_non_finite_values_rejected_before_any_step(tmp_path, monkeypatch, capsys, override):
    # a NaN passes every "<= 0" test; each case is a configuration error, not a
    # one-step run that aborts, and not a traceback from the step count
    steps = []
    monkeypatch.setattr(evolution, "step", lambda *a, **k: steps.append(a))
    out = tmp_path / "out"
    path = write_config(tmp_path, BASE_CONFIG + override + "\n", out_dir=out)
    with np.errstate(divide="ignore", invalid="ignore"):
        assert main(["simulate", str(path)]) == EXIT_VALIDATION
    assert "configuration error" in capsys.readouterr().err
    assert steps == []
    assert not (out / "trajectory.csv").exists()
    assert not (out / "abort.marker").exists()
