"""Batch runner: configuration parsing, simulation artifacts, verify suites.

Config files are flat UTF-8 ``key = value`` text with dotted keys; ``#``
starts a comment.  Subcommands: ``simulate <config>``, ``verify <suite>``,
``report <dir>``.  Exit codes: 0 pass, 1 validation error, 2 runtime abort,
3 assertion failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import gaussian_packet
from .dno import Geometry, GeometryError
from .evolution import EvolutionAbort, WaveState, dispersion_fit, run, shared_quantizer
from .field import Field, Grid
from .smoothing import bound_check, build_escape, garding_fit, kato_integral
from .verify import SUITES, run_suite

__all__ = ["RunConfig", "parse_config", "run_simulate", "run_verify", "main"]

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
EXIT_ASSERTION = 3


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    n: int = 128
    length: float = 2 * np.pi
    kind: str = "flat_bottom"
    depth: float = 1.0
    g: float = 1.0
    kappa: float = 1.0
    profile: str = "cosine"  # cosine | packet | zero
    amplitude: float = 1e-4
    mode: int = 1
    phase: float = 0.0
    sigma_eta: float = 3.85
    sigma_psi: float = 3.35
    width: float = 1.5
    scheme: str = "etdrk4"
    dt: float = 5e-3
    t_final: float = 1.0
    epsilon: float = 0.0
    nz: int = 32
    s: float = 2.6
    delta: float = 0.1
    sample_stride: int = 1
    snapshot_stride: int = 0
    tail_tol: float = 1e-6
    out_dir: str = "out"
    seed: int = 0

    def validate(self) -> None:
        if self.n < 8 or self.n % 2:
            raise ConfigError("grid.n must be even and >= 8")
        if self.length <= 0:
            raise ConfigError("grid.length must be positive")
        if self.kind not in ("flat_bottom", "parallel_strip"):
            raise ConfigError(f"unknown geometry.kind {self.kind!r}")
        if self.depth <= 0:
            raise ConfigError("geometry.depth must be positive")
        if self.g < 0 or self.kappa < 0:
            raise ConfigError("geometry.g and geometry.kappa must be nonnegative")
        if self.profile not in ("cosine", "packet", "zero"):
            raise ConfigError(f"unknown init.profile {self.profile!r}")
        if self.profile == "cosine" and not 1 <= abs(self.mode) < self.n // 2:
            raise ConfigError(f"init.mode must satisfy 1 <= |mode| < grid.n/2 = "
                              f"{self.n // 2} for the cosine profile")
        if self.scheme not in ("rk4", "etdrk4"):
            raise ConfigError(f"unknown evolution.scheme {self.scheme!r}")
        if self.dt <= 0 or self.t_final <= 0:
            raise ConfigError("evolution.dt and evolution.T must be positive")
        if self.epsilon < 0:
            raise ConfigError("evolution.epsilon must be nonnegative")
        if self.nz < 8:
            raise ConfigError("evolution.nz must be at least 8")
        if self.delta <= 0:
            raise ConfigError("diagnostics.delta must be positive")
        if self.sample_stride < 1 or self.snapshot_stride < 0:
            raise ConfigError("strides must be positive")

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
                                                      * grid.x / grid.length
                                                      + self.phase))
            psi = Field.zeros(grid)
        else:  # packet
            eta = gaussian_packet(grid, self.sigma_eta, self.seed + 41,
                                  self.amplitude, self.width)
            psi = gaussian_packet(grid, self.sigma_psi, self.seed + 42,
                                  self.amplitude, self.width)
        return WaveState(0.0, eta, psi, self.geometry, nz=self.nz,
                         tail_tol=self.tail_tol)


_KEYMAP = {
    "grid.n": ("n", int),
    "grid.length": ("length", float),
    "geometry.kind": ("kind", str),
    "geometry.depth": ("depth", float),
    "geometry.g": ("g", float),
    "geometry.kappa": ("kappa", float),
    "init.profile": ("profile", str),
    "init.amplitude": ("amplitude", float),
    "init.mode": ("mode", int),
    "init.phase": ("phase", float),
    "init.sigma_eta": ("sigma_eta", float),
    "init.sigma_psi": ("sigma_psi", float),
    "init.width": ("width", float),
    "evolution.scheme": ("scheme", str),
    "evolution.dt": ("dt", float),
    "evolution.T": ("t_final", float),
    "evolution.epsilon": ("epsilon", float),
    "evolution.nz": ("nz", int),
    "diagnostics.s": ("s", float),
    "diagnostics.delta": ("delta", float),
    "diagnostics.sample_stride": ("sample_stride", int),
    "diagnostics.tail_tol": ("tail_tol", float),
    "output.dir": ("out_dir", str),
    "output.snapshot_stride": ("snapshot_stride", int),
    "seed": ("seed", int),
}


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
        attr, cast = _KEYMAP[key]
        try:
            setattr(cfg, attr, cast(value))
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}")
    cfg.validate()
    return cfg


def run_simulate(cfg: RunConfig) -> dict:
    """Integrate per config and write trajectory, snapshots, and reports."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    state = cfg.initial_state()
    n_steps = int(round(cfg.t_final / cfg.dt))
    t0 = time.time()
    try:
        traj = run(state, cfg.dt, n_steps, eps=cfg.epsilon, scheme=cfg.scheme,
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
        "config": {k: getattr(cfg, attr) for k, (attr, _) in _KEYMAP.items()},
        "steps": n_steps,
        "elapsed_s": round(time.time() - t0, 3),
        "final_monitor": traj.records[-1].monitor,
    }
    if cfg.profile == "cosine" and cfg.amplitude > 0:
        summary["dispersion"] = dispersion_fit(
            [st for st in traj.states if st.t != 0.0], cfg.mode)
    summary["smoothing"] = _smoothing_report(cfg, traj)
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    with open(out / "smoothing_report.json", "w") as fh:
        json.dump(summary["smoothing"], fh, indent=1, sort_keys=True)
    return summary


def _smoothing_report(cfg: RunConfig, traj) -> dict:
    grid = traj.states[0].grid
    final_eta = traj.states[-1].eta
    esc = build_escape(cfg.delta, 0.05, grid)
    doi = bound_check(final_eta, esc)
    d_sym = esc.doi_bracket(final_eta)
    quant = shared_quantizer(grid)
    samples = [gaussian_packet(grid, 2.0, cfg.seed + 60 + i, 1.0) for i in range(4)]
    try:
        fit = garding_fit(d_sym, cfg.delta, samples, quant)
        garding = {"a": fit["a"], "A": fit["A"]}
    except ValueError as exc:
        garding = {"error": str(exc)}
    kato = kato_integral(traj, cfg.s, cfg.delta)
    sweep = [{"n": cfg.n, "weighted": kato}]
    if len(traj.states) == len(traj.records):
        from .smoothing import unweighted_integral
        sweep[0]["unweighted"] = unweighted_integral(traj, cfg.s)
    return {
        "delta": cfg.delta,
        "eps_doi": doi["eps_doi"],
        "K_measured": doi["K_measured"],
        "kato_integral": kato,
        "resolution_sweep": sweep,
        "garding": garding,
    }


def run_verify(suite: str, out_dir: str | None = None, seed: int = 0) -> dict:
    report = run_suite(suite, seed=seed)
    for c in report["checks"]:
        flag = "PASS" if c["pass"] else "FAIL"
        print(f"[{flag}] {c['name']}: measured {c['measured']:.6g} "
              f"{c['comparator']} {c['threshold']:.6g}")
    for name, t in report["timings"].items():
        note = ""
        if "budget_s" in t:
            over = ", exceeded" if t["seconds"] >= t["budget_s"] else ""
            note = f" (budget {t['budget_s']:.6g} s{over})"
        print(f"timing {name}: {t['seconds']:.3f} s{note}")
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
    csv = path / "trajectory.csv"
    if csv.exists():
        rows = csv.read_text().strip().split("\n")
        print(f"trajectory: {len(rows) - 1} samples")
        if len(rows) > 1:
            first = rows[1].split(",")
            last = rows[-1].split(",")
            print(f"  t = {first[0]} .. {last[0]}")
            print(f"  monitor M: {first[3]} -> {last[3]}")
            print(f"  hamiltonian: {first[4]} -> {last[4]}")
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
    p_ver.add_argument("--seed", type=int, default=0)
    p_rep = sub.add_parser("report", help="summarize an output directory")
    p_rep.add_argument("directory")
    args = parser.parse_args(argv)

    if args.command == "simulate":
        try:
            cfg = parse_config(args.config)
        except (ConfigError, FileNotFoundError, GeometryError) as exc:
            print(f"configuration error: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
        try:
            summary = run_simulate(cfg)
        except EvolutionAbort as exc:
            print(f"runtime abort: {exc}", file=sys.stderr)
            return EXIT_RUNTIME
        except (ValueError, GeometryError) as exc:
            print(f"configuration error: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
        print(json.dumps(summary, indent=1, sort_keys=True))
        return EXIT_OK

    if args.command == "verify":
        try:
            report = run_verify(args.suite, out_dir=args.out, seed=args.seed)
        except ValueError as exc:
            print(f"usage error: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
        return EXIT_OK if report["passed"] else EXIT_ASSERTION

    if args.command == "report":
        return run_report(args.directory)

    return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
