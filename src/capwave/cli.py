"""Batch runner: configuration parsing, simulation artifacts, verify suites.

Config files are flat UTF-8 ``key = value`` text with dotted keys; ``#``
starts a comment.  Subcommands: ``simulate <config>``, ``verify <suite>``,
``report <dir>``.  Exit codes: 0 pass, 1 validation error, 2 runtime abort,
3 assertion failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .corpus import gaussian_packet
from .dno import Geometry
from .evolution import EvolutionAbort, WaveState, dispersion_fit, run, shared_quantizer
from .field import Field, Grid
from .smoothing import KATO_MIN_RECORDS, bound_check, build_escape, garding_fit, \
    kato_integral, unweighted_integral
from .verify import SUITES, run_suite

__all__ = ["RunConfig", "parse_config", "run_simulate", "run_verify", "main"]

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
EXIT_ASSERTION = 3


class ConfigError(ValueError):
    pass


def _key(key: str, default):
    """A RunConfig field read from the dotted config ``key``, cast to the type of ``default``."""
    return field(default=default, metadata={"key": key})


@dataclass
class RunConfig:
    n: int = _key("grid.n", 128)
    length: float = _key("grid.length", 2 * np.pi)
    kind: str = _key("geometry.kind", "flat_bottom")
    depth: float = _key("geometry.depth", 1.0)
    g: float = _key("geometry.g", 1.0)
    kappa: float = _key("geometry.kappa", 1.0)
    profile: str = _key("init.profile", "cosine")  # cosine | packet | zero
    amplitude: float = _key("init.amplitude", 1e-4)
    mode: int = _key("init.mode", 1)
    sigma_eta: float = _key("init.sigma_eta", 3.85)
    sigma_psi: float = _key("init.sigma_psi", 3.35)
    width: float = _key("init.width", 1.5)
    scheme: str = _key("evolution.scheme", "etdrk4")
    dt: float = _key("evolution.dt", 5e-3)
    t_final: float = _key("evolution.T", 1.0)
    epsilon: float = _key("evolution.epsilon", 0.0)
    nz: int = _key("evolution.nz", 32)
    s: float = _key("diagnostics.s", 2.6)
    delta: float = _key("diagnostics.delta", 0.1)
    sample_stride: int = _key("diagnostics.sample_stride", 1)
    snapshot_stride: int = _key("output.snapshot_stride", 0)
    tail_tol: float = _key("diagnostics.tail_tol", 1e-6)
    out_dir: str = _key("output.dir", "out")
    seed: int = _key("seed", 0)

    def validate(self) -> None:
        for key, f in _KEYMAP.items():
            value = getattr(self, f.name)
            if isinstance(f.default, float) and not math.isfinite(value):
                raise ConfigError(f"{key} must be finite, got {value}")
        try:  # Grid and Geometry check their own values
            self.grid()
            self.geometry
        except ValueError as exc:  # GeometryError is a ValueError
            raise ConfigError(str(exc)) from exc
        if self.profile not in ("cosine", "packet", "zero"):
            raise ConfigError(f"unknown init.profile {self.profile!r}")
        if self.profile == "packet" and not self.width > 0:
            raise ConfigError(f"init.width must be positive for the packet profile, "
                              f"got {self.width}")
        if self.profile == "cosine" and not 1 <= abs(self.mode) < self.n // 2:
            raise ConfigError(f"init.mode must satisfy 1 <= |mode| < grid.n/2 = "
                              f"{self.n // 2} for the cosine profile")
        # perfbench still sets the key, so it stays; etdrk4 is the one integrator
        if self.scheme != "etdrk4":
            raise ConfigError(f"unknown evolution.scheme {self.scheme!r}")
        if self.dt <= 0 or self.t_final <= 0:
            raise ConfigError("evolution.dt and evolution.T must be positive")
        steps = round(self.t_final / self.dt)
        if abs(self.t_final / self.dt - steps) > 1e-9 * steps:
            raise ConfigError(f"evolution.T = {self.t_final} is not a whole number of "
                              f"evolution.dt = {self.dt} steps")
        if self.epsilon < 0:
            raise ConfigError("evolution.epsilon must be nonnegative")
        if self.nz < 8:
            raise ConfigError("evolution.nz must be at least 8")
        if self.delta <= 0:
            raise ConfigError("diagnostics.delta must be positive")
        if self.sample_stride < 1 or self.snapshot_stride < 0:
            raise ConfigError("diagnostics.sample_stride must be at least 1 and "
                              "output.snapshot_stride at least 0")
        # one record at t = 0, then one per sample_stride steps and the last
        if 1 + math.ceil(self.n_steps / self.sample_stride) < KATO_MIN_RECORDS:
            raise ConfigError(f"{self.n_steps} steps at this sample_stride give fewer than "
                              f"the {KATO_MIN_RECORDS} records the Kato integral needs")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_final / self.dt))

    @property
    def geometry(self) -> Geometry:
        return Geometry(self.kind, self.depth, self.g, self.kappa)

    def grid(self) -> Grid:
        return Grid(self.n, self.length)

    def initial_state(self) -> WaveState:
        grid = self.grid()
        if self.profile == "zero":
            eta = Field.zeros(grid)
            psi = Field.zeros(grid)
        elif self.profile == "cosine":
            eta = Field(grid, self.amplitude * np.cos(self.mode * 2 * np.pi
                                                      * grid.x / grid.length))
            psi = Field.zeros(grid)
        else:  # packet
            eta = gaussian_packet(grid, self.sigma_eta, self.seed + 41,
                                  self.amplitude, self.width)
            psi = gaussian_packet(grid, self.sigma_psi, self.seed + 42,
                                  self.amplitude, self.width)
        return WaveState(0.0, eta, psi, self.geometry, nz=self.nz,
                         tail_tol=self.tail_tol)


# dotted config key -> RunConfig field
_KEYMAP = {f.metadata["key"]: f for f in fields(RunConfig)}


def parse_config(path) -> RunConfig:
    cfg = RunConfig()
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KEYMAP:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        f = _KEYMAP[key]
        try:
            setattr(cfg, f.name, type(f.default)(value))
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}")
    cfg.validate()
    return cfg


def run_simulate(cfg: RunConfig) -> dict:
    """Integrate per config and write trajectory.csv, snapshots and summary.json."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    state = cfg.initial_state()
    n_steps = cfg.n_steps
    t0 = time.time()
    try:
        traj = run(state, cfg.dt, n_steps, eps=cfg.epsilon,
                   s=cfg.s, delta=cfg.delta, sample_stride=cfg.sample_stride,
                   state_stride=cfg.snapshot_stride or None)
    except EvolutionAbort as exc:
        (out / "abort.marker").write_text(str(exc) + "\n")
        if exc.trajectory is not None:
            exc.trajectory.to_csv(out / "trajectory.csv")
        raise
    traj.to_csv(out / "trajectory.csv")
    if cfg.snapshot_stride:
        for i, st in enumerate(traj.states):
            snap = {"t": st.t, "eta": st.eta.to_json(), "psi": st.psi.to_json()}
            with open(out / f"snapshot_{i:04d}.json", "w") as fh:
                json.dump(snap, fh)

    summary = {
        "config": {k: getattr(cfg, f.name) for k, f in _KEYMAP.items()},
        "steps": n_steps,
        "elapsed_s": round(time.time() - t0, 3),
        "final_monitor": traj.records[-1].monitor,
    }
    if cfg.profile == "cosine" and cfg.amplitude > 0:
        fit = dispersion_fit([st for st in traj.states if st.t != 0.0], cfg.mode)
        if fit is not None:
            summary["dispersion"] = fit
    summary["smoothing"] = _smoothing_report(cfg, traj)
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    return summary


def _smoothing_report(cfg: RunConfig, traj) -> dict:
    grid = traj.states[0].grid
    final_eta = traj.states[-1].eta
    esc = build_escape(cfg.delta, grid)
    doi = bound_check(final_eta, esc)
    quant = shared_quantizer(grid)
    samples = [gaussian_packet(grid, 2.0, cfg.seed + 60 + i, 1.0) for i in range(4)]
    try:
        fit = garding_fit(doi["bracket"], cfg.delta, samples, quant)
        garding = {"a": fit["a"], "A": fit["A"]}
    except ValueError as exc:
        garding = {"error": str(exc)}
    return {
        "K_measured": doi["K_measured"],
        "kato_integral": kato_integral(traj),
        "unweighted_integral": unweighted_integral(traj),
        "garding": garding,
    }


def run_verify(suite: str, out_dir: str | None = None) -> dict:
    report = run_suite(suite)
    for c in report["checks"]:
        flag = "PASS" if c["pass"] else "FAIL"
        print(f"[{flag}] {c['name']}: measured {c['measured']:.6g} "
              f"{c['comparator']} {c['threshold']:.6g}")
    for name, seconds in report["timings"].items():
        print(f"timing {name}: {seconds:.3f} s")
    print(f"suite {report['suite']}: "
          + ("all checks passed" if report["passed"]
             else f"FAILURES: {', '.join(report['failures'])}"))
    if out_dir:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / f"verify_{suite}.json", "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
    return report


def run_report(directory: str) -> int:
    path = Path(directory)
    if not path.is_dir():
        print(f"report: {directory} is not a directory", file=sys.stderr)
        return EXIT_VALIDATION
    code = EXIT_OK
    marker = path / "abort.marker"
    if marker.exists():
        print(f"run aborted: {marker.read_text().strip()}")
        code = EXIT_RUNTIME
    trajectory = path / "trajectory.csv"
    if trajectory.exists():
        with open(trajectory, newline="") as fh:
            rows = list(csv.DictReader(fh))
        print(f"trajectory: {len(rows)} samples")
        if rows:
            first, last = rows[0], rows[-1]
            print(f"  t = {first['t']} .. {last['t']}")
            print(f"  monitor M: {first['monitor']} -> {last['monitor']}")
            print(f"  hamiltonian: {first['hamiltonian']} -> {last['hamiltonian']}")
    for vf in sorted(path.glob("verify_*.json")):
        rep = json.loads(vf.read_text())
        status = "pass" if rep.get("passed") else "FAIL"
        print(f"{vf.name}: {status} ({len(rep.get('checks', []))} checks)")
        if not rep.get("passed"):
            code = max(code, EXIT_ASSERTION)
    summary = path / "summary.json"
    if summary.exists():
        rep = json.loads(summary.read_text())
        if "dispersion" in rep:
            d = rep["dispersion"]
            print(f"dispersion fit: {d['fitted']:.8g} vs {d['predicted']:.8g} "
                  f"(rel {d['rel_err']:.2e})")
        sm = rep.get("smoothing", {})
        if sm:
            print(f"smoothing: K = {sm['K_measured']:.4g}, "
                  f"kato integral = {sm['kato_integral']:.4g}")
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="capwave",
        description="Gravity-capillary water-wave laboratory")
    sub = parser.add_subparsers(dest="command", required=True)
    p_sim = sub.add_parser("simulate", help="run a configured evolution")
    p_sim.add_argument("config")
    p_ver = sub.add_parser("verify", help="run an oracle suite")
    p_ver.add_argument("suite", help=f"one of {', '.join(SUITES)} or 'all'")
    p_ver.add_argument("--out", default=None, help="directory for the JSON report")
    p_rep = sub.add_parser("report", help="summarize an output directory")
    p_rep.add_argument("directory")
    args = parser.parse_args(argv)

    if args.command == "simulate":
        try:
            cfg = parse_config(args.config)
        except (ConfigError, FileNotFoundError) as exc:
            print(f"configuration error: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
        try:
            summary = run_simulate(cfg)
        except EvolutionAbort as exc:
            print(f"runtime abort: {exc}", file=sys.stderr)
            return EXIT_RUNTIME
        except ValueError as exc:
            print(f"configuration error: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
        print(json.dumps(summary, indent=1, sort_keys=True))
        return EXIT_OK

    if args.command == "verify":
        if args.suite not in (*SUITES, "all"):
            print(f"usage error: unknown suite {args.suite!r}", file=sys.stderr)
            return EXIT_VALIDATION
        try:
            report = run_verify(args.suite, out_dir=args.out)
        except Exception as exc:  # a fault inside a suite, not a usage error
            print(f"runtime abort: {type(exc).__name__}: {exc}", file=sys.stderr)
            return EXIT_RUNTIME
        return EXIT_OK if report["passed"] else EXIT_ASSERTION

    if args.command == "report":
        return run_report(args.directory)

    return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
