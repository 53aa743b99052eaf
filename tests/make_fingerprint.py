"""Write ``fingerprint.npz``: the numbers a performance change must not move.

Run from the repository root:

    PYTHONPATH=src python tests/make_fingerprint.py

It recomputes every entry, prints each entry's largest relative deviation
from the stored file (if there is one), and then overwrites the file.
A change that moves numbers on purpose regenerates the file in the same
commit and lists the moved entries with their old and new values; a change
that must not move numbers leaves the file alone, and
``test_fingerprint.py`` holds it to the stored values.

The entries:

- ``monitor_eps_<eps>``: eta and psi after each of two ETDRK4 steps from the
  ``monitor-eps`` initial state, at eps = 0.01 (mollified right-hand side)
  and at eps = 0 (raw), shape (step, field, x);
- ``dn_ladder_g`` and ``dn_ladder_iterations``: G(eta)psi and the GMRES
  iteration count of the first 4 ``dn-ladder`` base draws on all 5 rungs
  (n = 128, nz = 48, eta = a cos(x + phase), psi of power law 2), shape
  (draw, rung, x) and (draw, rung);
- ``quantizer_p`` and ``quantizer_mollifier``: ``Quantizer.matrix`` of the
  symmetrizer's p and of Mollifier(gamma, 0.01, -1) on the state after the
  first eps = 0.01 step;
- ``trajectory_<config>``: ``trajectory.csv`` of ``capwave simulate`` on
  each bundled config with evolution.T = 0.1.
"""

from __future__ import annotations

import dataclasses
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
FINGERPRINT = Path(__file__).with_name("fingerprint.npz")

MONITOR_EPS = (0.01, 0.0)
LADDER_DRAWS = 4
LADDER_RUNGS = (0.1, 0.3, 0.5, 0.7, 0.9)
LADDER_N, LADDER_NZ, LADDER_SEED, LADDER_SIGMA = 128, 48, 0, 2.0
CONFIGS = ("conservation", "kato", "linear-mode", "monitor-eps")
T_FINAL = 0.1


def _monitor_eps_entries() -> dict:
    from capwave.cli import parse_config
    from capwave.evolution import step
    from capwave.paradiff import Quantizer
    from capwave.symbols import Mollifier

    cfg = parse_config(ROOT / "configs" / "monitor-eps.cfg")
    out = {}
    for eps in MONITOR_EPS:
        state, steps = cfg.initial_state(), []
        for _ in range(2):
            state = step(state, cfg.dt, eps=eps)
            steps.append([state.eta.values, state.psi.values])
            if eps > 0 and len(steps) == 1:
                p, _, gamma = state.symmetrizer_symbols
                quant = Quantizer(state.grid)
                out["quantizer_p"] = quant.matrix(p)
                out["quantizer_mollifier"] = quant.matrix(Mollifier(gamma, eps, -1.0))
        out[f"monitor_eps_{eps:g}"] = np.array(steps)
    return out


def _dn_ladder_entries() -> dict:
    """The benchmark's dn-ladder base draws (its fixed rng seed 0), psi unscaled."""
    from capwave.corpus import power_law_field
    from capwave.dno import Geometry, solve_strip
    from capwave.field import Field, Grid

    grid = Grid(LADDER_N, 2 * np.pi)
    geo = Geometry("flat_bottom", 1.0, 1.0, 1.0)
    rng = np.random.default_rng(LADDER_SEED)
    phases = rng.uniform(0.0, 2 * np.pi, 12)
    psi_seeds = rng.integers(0, 2**31 - 1, 12)
    g = np.empty((LADDER_DRAWS, len(LADDER_RUNGS), grid.n))
    iterations = np.empty((LADDER_DRAWS, len(LADDER_RUNGS)), dtype=np.int64)
    for j in range(LADDER_DRAWS):
        psi = power_law_field(grid, LADDER_SIGMA, int(psi_seeds[j]))
        psi = Field(grid, psi.values.real)
        for r, a in enumerate(LADDER_RUNGS):
            eta = Field(grid, a * geo.depth * np.cos(grid.x + phases[j]))
            sol = solve_strip(eta, psi, geo, LADDER_NZ)
            g[j, r] = sol.trace_dn().values
            iterations[j, r] = sol.iterations
    return {"dn_ladder_g": g, "dn_ladder_iterations": iterations}


def _trajectory_entries() -> dict:
    from capwave.cli import parse_config, run_simulate

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in CONFIGS:
            cfg = parse_config(ROOT / "configs" / f"{name}.cfg")
            cfg = dataclasses.replace(cfg, t_final=T_FINAL, out_dir=str(Path(tmp) / name))
            run_simulate(cfg)
            out[f"trajectory_{name}"] = np.loadtxt(
                Path(cfg.out_dir) / "trajectory.csv", delimiter=",", skiprows=1)
    return out


def compute() -> dict:
    """Every fingerprint entry, recomputed from the program."""
    return {**_monitor_eps_entries(), **_dn_ladder_entries(), **_trajectory_entries()}


def deviation(name: str, got: np.ndarray, ref: np.ndarray) -> float:
    """Largest |got - ref| over the size of ref; inf on a shape change.

    A trajectory's columns have different units, so each column is scaled
    by its own largest |ref|; every other entry by its overall largest.
    """
    if got.shape != ref.shape:
        return float("inf")
    axis = 0 if name.startswith("trajectory_") else None
    scale = np.max(np.abs(ref), axis=axis)
    diff = np.max(np.abs(got - ref), axis=axis)
    return float(np.max(np.where(scale > 0, diff / np.where(scale > 0, scale, 1.0), diff)))


def main() -> int:
    entries = compute()
    if FINGERPRINT.exists():
        with np.load(FINGERPRINT) as old:
            print("| entry | largest relative deviation from the stored file |")
            print("|---|---|")
            for name in sorted(set(entries) | set(old.files)):
                if name not in old.files or name not in entries:
                    print(f"| {name} | {'new' if name in entries else 'removed'} |")
                else:
                    print(f"| {name} | {deviation(name, entries[name], old[name]):.3e} |")
    np.savez_compressed(FINGERPRINT, **entries)
    print(f"wrote {FINGERPRINT} ({len(entries)} entries)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
