"""Seeded inputs, warm-up, closed-loop runners and correctness gates.

Each workload turns ``--seed`` into inputs (capwave sees only the generated
fields), fills capwave's caches with a short untimed warm-up on the same
grid, dt and eps, then runs ops one after another from a single caller.
Correctness is judged after the timed phase from the outputs kept during it.
"""

from __future__ import annotations

import hashlib
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from capwave import cli, dno, evolution
from capwave.corpus import gaussian_packet, power_law_field
from capwave.field import Field, Grid

from tracing import Patch

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

# Simulate workloads: relative L2 error of the final-state increment
# (final minus initial eta, psi) and relative error of each value of the last
# diagnostic record, against the stored reference of the seed.
SIM_RTOL = 1e-8
# Without a stored reference, SIM_RTOL applies between the episodes of one
# run, and the first episode must keep the Hamiltonian within the workload's
# energy_drift_tol.
#
# dn-ladder: relative L2 distance of G(eta)psi between each timed solve and
# the stored base solution times the seed's psi scale, between the GMRES
# path and the dense-assembly oracle on the reduced grid, and between
# repeats of one input.
DN_RTOL = 1e-9
ORACLE_RTOL = 1e-9
REPEAT_RTOL = 1e-12


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    scale = np.linalg.norm(b)
    return float(np.linalg.norm(a - b) / scale) if scale > 0 else float(np.linalg.norm(a))


def input_digest(workload, seed: int) -> str:
    """SHA-256 of every generated input array of a workload at a seed."""
    fields = workload.inputs(seed)
    h = hashlib.sha256()
    for key in sorted(fields):
        h.update(key.encode())
        h.update(np.ascontiguousarray(fields[key].values).tobytes())
    return h.hexdigest()


# The host probe's time at the reference speed: its fast-state median on the
# 2-vCPU Xeon VM the bounds were set on.  Any constant would do; it only
# fixes the units of the scaled timings.
HOST_PROBE_REF_S = 0.005


class _HostProbe:
    """A fixed numpy kernel that runs no capwave code; its time tracks the
    host's speed.  On a shared 2-vCPU VM the speed flips between two states
    about 1.45x apart every few seconds to minutes, so every op's time is
    scaled by the probes run just before and just after it.  The kernel
    mixes what capwave's ops spend time on: Python-driven Gram-Schmidt
    sweeps over a 1.6 MB basis, FFTs along x of an (nz, n) strip and small
    dense matrix products.  About 5 ms."""

    def __init__(self):
        rng = np.random.default_rng(12345)
        self.basis = rng.standard_normal((32, 6144))
        self.strip = rng.standard_normal((48, 128)) + 1j * rng.standard_normal((48, 128))
        self.mat = rng.standard_normal((128, 128))
        self()  # the first call in a process is slower

    def __call__(self) -> float:
        t0 = time.perf_counter()
        basis = self.basis
        w = basis[-1].copy()
        for k in range(len(basis) - 1):
            for i in range(k + 1):
                w -= 1e-3 * np.vdot(basis[i], w) * basis[i]
        for _ in range(5):
            np.fft.ifft(np.fft.fft(self.strip, axis=-1), axis=-1)
            self.mat @ self.mat
        return time.perf_counter() - t0


host_probe = _HostProbe()


@dataclass
class LoopResult:
    latencies: list = field(default_factory=list)  # seconds per completed op
    # per completed op: the host's slowdown against the reference speed, the
    # mean of the probes run just before and just after the op
    host_factors: list = field(default_factory=list)
    labels: list = field(default_factory=list)  # workload-specific op label
    timed_s: float = 0.0
    scaled_s: float = 0.0  # timed_s at the reference host speed
    attempted: int = 0
    failed: int = 0
    notes: dict = field(default_factory=dict)
    outputs: list = field(default_factory=list)  # kept for verify()

    def scaled_latencies(self) -> np.ndarray:
        return np.asarray(self.latencies) / np.asarray(self.host_factors)

    def ops_per_s(self) -> float:
        """Completed ops per second of the timed phase, at the reference speed."""
        return len(self.latencies) / self.scaled_s


# -- simulate workloads -------------------------------------------------------


class _GeneratedConfig(cli.RunConfig):
    """RunConfig whose initial state is the benchmark's generated (eta, psi)."""

    fields = None

    def initial_state(self):
        eta, psi = self.fields
        return evolution.WaveState(0.0, eta, psi, self.geometry, nz=self.nz,
                                   tail_tol=self.tail_tol)


class SimulateWorkload:
    """``cli.run_simulate`` episodes of a fixed step count; op = one step.

    The timed phase is the sum of the ``run_simulate`` calls, including
    diagnostics records, the smoothing report and file writes.
    """

    def __init__(self, name: str, params: dict, episode_steps: int, tail_tol: float,
                 energy_drift_tol: float):
        self.name = name
        self.params = dict(params, tail_tol=tail_tol)
        self.episode_steps = episode_steps
        self.tail_tol = tail_tol
        self.energy_drift_tol = energy_drift_tol

    def grid(self) -> Grid:
        return Grid(self.params["n"], self.params["length"])

    def inputs(self, seed: int) -> dict:
        raise NotImplementedError

    def states(self, seed: int):
        f = self.inputs(seed)
        cfg = self.config(seed, f, out_dir="")
        return [cfg.initial_state()]

    def config(self, seed: int, fields: dict, out_dir) -> _GeneratedConfig:
        cfg = _GeneratedConfig(**self.params, seed=seed, out_dir=str(out_dir),
                               t_final=self.episode_steps * self.params["dt"])
        cfg.fields = (fields["eta"], fields["psi"])
        cfg.validate()
        return cfg

    def setup(self, seed: int, work_dir: Path) -> None:
        self.fields = self.inputs(seed)
        self.work_dir = work_dir
        self.cfg = self.config(seed, self.fields, work_dir)
        state = self.cfg.initial_state()
        # warm-up: preconditioner inverse, ETDRK4 coefficients, quantizer
        evolution.step(state, self.cfg.dt, eps=self.cfg.epsilon, scheme=self.cfg.scheme)
        self.reference = load_reference(self.name, seed, ("eta", "psi", "record"))

    def run(self, seconds: float, min_ops: int, tracer=None) -> LoopResult:
        res = LoopResult()
        latencies = res.latencies
        last = {}
        clock = time.perf_counter
        original = evolution.step

        def timed_step(*args, **kwargs):
            t_probe = clock()
            before = host_probe()
            if tracer is not None:
                tracer.op_id = len(latencies)
            t0 = clock()
            try:
                out = original(*args, **kwargs)
            finally:
                if tracer is not None:
                    tracer.op_id = -1
            latencies.append(clock() - t0)
            t1 = clock()
            res.host_factors.append((before + host_probe()) / (2 * HOST_PROBE_REF_S))
            last["probe_s"] += clock() - t1 + t0 - t_probe  # both probes, untimed
            last["state"] = out
            return out

        patch = Patch()
        patch.replace({original: timed_step})
        try:
            while True:
                before = len(latencies)
                last.clear()
                last["probe_s"] = 0.0
                t0 = clock()
                try:
                    cli.run_simulate(self.cfg)
                    ok = True
                except evolution.EvolutionAbort:
                    ok = False
                spent = clock() - t0 - last["probe_s"]
                res.timed_s += spent
                done = len(latencies) - before
                # each step at its own factor, the rest of the episode at their mean
                steps = latencies[before:]
                factors = res.host_factors[before:]
                rest = (spent - sum(steps)) / (np.mean(factors) if done else 1.0)
                res.scaled_s += sum(x / f for x, f in zip(steps, factors)) + rest
                res.attempted += done if ok else done + 1
                res.outputs.append((ok, done, self._episode_output(last) if ok else None))
                if res.timed_s >= seconds and len(latencies) >= min_ops:
                    break
        finally:
            patch.undo()
        return res

    def _episode_output(self, last: dict) -> dict:
        st = last["state"]
        rows = (self.work_dir / "trajectory.csv").read_text().strip().splitlines()
        return {"eta": st.eta.values.real.copy(), "psi": st.psi.values.real.copy(),
                "record": np.array([float(v) for v in rows[-1].split(",")]),
                "first_record": np.array([float(v) for v in rows[1].split(",")])}

    def compare(self, out: dict, ref: dict) -> float:
        """Largest relative error of increments and last-record values."""
        eta0 = self.fields["eta"].values.real
        psi0 = self.fields["psi"].values.real
        errs = [rel_err(out["eta"] - eta0, ref["eta"] - eta0),
                rel_err(out["psi"] - psi0, ref["psi"] - psi0)]
        errs += [abs(a - b) / abs(b) if b != 0 else abs(a)
                 for a, b in zip(out["record"], ref["record"])]
        return max(errs)

    def verify(self, res: LoopResult) -> None:
        """Count the steps of every episode whose output is wrong as failed."""
        ref = self.reference
        res.notes["reference"] = "stored" if ref is not None else "first-episode"
        worst = 0.0
        for ok, done, out in res.outputs:
            bad = not ok
            if ok:
                finite = all(np.all(np.isfinite(out[k])) for k in ("eta", "psi", "record"))
                if ref is None:
                    # column 4 of trajectory.csv is the Hamiltonian
                    h0, h1 = out["first_record"][4], out["record"][4]
                    drift = abs(h1 - h0) / abs(h0)
                    res.notes["energy_drift"] = drift
                    bad = not finite or drift > self.energy_drift_tol
                    ref = out
                else:
                    err = self.compare(out, ref)
                    worst = max(worst, err)
                    bad = not finite or err > SIM_RTOL
            if bad:
                res.failed += done if ok else done + 1
        res.notes["max_rel_err"] = worst
        res.notes["rtol"] = SIM_RTOL
        res.notes["episodes"] = len(res.outputs)

    def episode_output(self, seed: int, work_dir: Path) -> dict:
        """One untimed episode's output (used to write the stored reference)."""
        self.setup(seed, work_dir)
        return self.run(0.0, 0).outputs[0][2]


# frozen copy of configs/kato.cfg (grid, geometry, integrator, diagnostics)
KATO = dict(n=256, length=16 * np.pi, kind="flat_bottom", depth=1.0, g=1.0,
            kappa=1.0, profile="packet", amplitude=1e-3, sigma_eta=3.85,
            sigma_psi=3.35, width=1.5, scheme="etdrk4", dt=2.5e-3, nz=48,
            s=2.6, delta=0.1, sample_stride=4, snapshot_stride=0)
# frozen copy of configs/monitor-eps.cfg
MONITOR_EPS = dict(n=128, length=2 * np.pi, kind="flat_bottom", depth=1.0,
                   g=1.0, kappa=1.0, profile="cosine", amplitude=0.02, mode=1,
                   scheme="etdrk4", dt=4e-3, epsilon=0.01, nz=32, s=2.6,
                   delta=0.1, sample_stride=5)


class RawPacket(SimulateWorkload):
    def __init__(self):
        super().__init__("raw-packet", KATO, episode_steps=40, tail_tol=0.05,
                         energy_drift_tol=1e-7)

    def inputs(self, seed: int) -> dict:
        # seed 0 reproduces configs/kato.cfg (corpus seeds 41 and 42)
        p, grid = self.params, self.grid()
        eta = gaussian_packet(grid, p["sigma_eta"], 2 * seed + 41, p["amplitude"], p["width"])
        psi = gaussian_packet(grid, p["sigma_psi"], 2 * seed + 42, p["amplitude"], p["width"])
        return {"eta": eta, "psi": psi}


class MollifiedEps(SimulateWorkload):
    def __init__(self):
        # the mollified system is not exactly Hamiltonian: drift ~1e-5 per episode
        super().__init__("mollified-eps", MONITOR_EPS, episode_steps=15, tail_tol=1e-6,
                         energy_drift_tol=2e-4)

    def inputs(self, seed: int) -> dict:
        # modes 1..3 with seeded phases; max |eta| = 0.02, max |psi| = 0.01
        grid = self.grid()
        eta = power_law_field(grid, 1.0, 2 * seed + 1, kmax=3).values.real
        psi = power_law_field(grid, 1.0, 2 * seed + 2, kmax=3).values.real
        eta = self.params["amplitude"] * eta / np.max(np.abs(eta))
        psi = 0.5 * self.params["amplitude"] * psi / np.max(np.abs(psi))
        return {"eta": Field(grid, eta), "psi": Field(grid, psi)}


def load_reference(name: str, seed: int, keys):
    """The stored arrays ``keys`` of a workload at a seed, or None."""
    path = REFERENCE_DIR / f"{name}.npz"
    if not path.exists():
        return None
    with np.load(path) as data:
        hit = np.nonzero(data["seeds"] == seed)[0]
        if len(hit) == 0:
            return None
        i = int(hit[0])
        return {k: data[k][i] for k in keys}


# -- dn-ladder ----------------------------------------------------------------


class DnLadder:
    """Repeated ``dno.dirichlet_neumann`` on an amplitude ladder; op = one solve.

    Twelve fixed base draws (phase, psi) each give a ladder of eta amplitudes.
    The seed scales each draw's psi by a signed power of two.  G(eta)psi is
    linear in psi and a power of two scales exactly in floating point, so
    every seed gets its own inputs while the solver does the same work, bit
    for bit, and the stored base solutions, scaled the same way, are the
    truth each timed solve is checked against.  (A seeded phase would not do:
    the GMRES residual after two restart cycles sits at the tolerance on some
    draws, so rounding alone decides whether a third cycle, +50% time, runs.)
    Ops climb the rungs of one draw, then of the next, cycling through the
    draws; the timed phase ends at the top of a ladder.  Base draw 0 needs
    that third cycle at the 0.9 rung.
    """

    name = "dn-ladder"
    rungs = (0.1, 0.3, 0.5, 0.7, 0.9)  # eta amplitude as a share of the depth
    draws = 12  # base (phase, psi) pairs
    base_seed = 0  # rng seed of the base draws, fixed for every benchmark seed
    n, nz, length = 128, 48, 2 * np.pi
    psi_sigma = 2.0  # |c_k| ~ <xi>^-2: psi on the boundary of H^1.5
    tail_tol = 1e-2
    oracle_n, oracle_nz = 32, 16  # dense assembly at (n * nz)^2 stays small

    def __init__(self):
        self.geo = dno.Geometry("flat_bottom", 1.0, 1.0, 1.0)

    def grid(self) -> Grid:
        return Grid(self.n, self.length)

    def base_params(self):
        rng = np.random.default_rng(self.base_seed)
        phases = rng.uniform(0.0, 2 * np.pi, self.draws)
        psi_seeds = rng.integers(0, 2**31 - 1, self.draws)
        return list(zip(phases, (int(s) for s in psi_seeds)))

    def psi_scales(self, seed: int) -> np.ndarray:
        """Per draw: +-2^k, k in -2..2, from the seed."""
        rng = np.random.default_rng(seed)
        return rng.choice((-1.0, 1.0), self.draws) * 2.0 ** rng.integers(-2, 3, self.draws)

    def fields_on(self, grid: Grid, base, scale: float = 1.0):
        """The ladder of one draw on ``grid``, with psi scaled by ``scale``."""
        phase, psi_seed = base
        etas = [Field(grid, a * self.geo.depth * np.cos(grid.x + phase)) for a in self.rungs]
        psi = power_law_field(grid, self.psi_sigma, psi_seed)
        return etas, Field(grid, scale * psi.values.real)

    def inputs(self, seed: int) -> dict:
        grid = self.grid()
        out = {}
        for j, (base, scale) in enumerate(zip(self.base_params(), self.psi_scales(seed))):
            etas, psi = self.fields_on(grid, base, scale)
            out[f"psi{j}"] = psi
            for a, eta in zip(self.rungs, etas):
                out[f"eta{j}_{a}"] = eta
        return out

    def states(self, seed: int):
        f = self.inputs(seed)
        return [evolution.WaveState(0.0, f[f"eta{j}_{a}"], f[f"psi{j}"], self.geo,
                                    nz=self.nz, tail_tol=self.tail_tol)
                for j in range(self.draws) for a in self.rungs]

    def setup(self, seed: int, work_dir: Path) -> None:
        self.scales = self.psi_scales(seed)
        grid = self.grid()
        self.cases = []  # (draw, rung index, eta, psi)
        for j, (base, scale) in enumerate(zip(self.base_params(), self.scales)):
            etas, psi = self.fields_on(grid, base, scale)
            self.cases += [(j, r, eta, psi) for r, eta in enumerate(etas)]
        # warm-up: flat preconditioner for (grid, nz, geometry)
        dno.dirichlet_neumann(self.cases[0][2], self.cases[0][3], self.geo, self.nz)
        self.reference = None
        path = REFERENCE_DIR / f"{self.name}.npz"
        if path.exists():
            with np.load(path) as data:
                # G(eta)(c psi) = c G(eta)psi
                self.reference = self.scales[:, None, None] * data["g"]  # [draw, rung, x]

    def run(self, seconds: float, min_ops: int, tracer=None) -> LoopResult:
        res = LoopResult()
        clock = time.perf_counter
        before = host_probe()  # each probe closes one op and opens the next
        while True:
            i = res.attempted
            j, r, eta, psi = self.cases[i % len(self.cases)]
            res.attempted += 1
            if tracer is not None:
                tracer.op_id = i
            t0 = clock()
            try:
                g = dno.dirichlet_neumann(eta, psi, self.geo, self.nz)
            except dno.SolverError:
                g = None
            dt = clock() - t0
            if tracer is not None:
                tracer.op_id = -1
            after = host_probe()
            factor = (before + after) / (2 * HOST_PROBE_REF_S)
            before = after
            res.timed_s += dt
            res.scaled_s += dt / factor
            if g is not None:
                res.latencies.append(dt)
                res.host_factors.append(factor)
                res.labels.append(self.rungs[r])
            res.outputs.append((j, r, None if g is None else g.values.real))
            if res.attempted % len(self.rungs) == 0 and res.timed_s >= seconds \
                    and res.attempted >= min_ops:
                break
        res.notes["ladders"] = res.attempted // len(self.rungs)
        return res

    def verify(self, res: LoopResult) -> None:
        """Count failed solves, mismatches with the stored reference, repeats
        that differ, and rungs the oracle rejects."""
        ref = self.reference
        first = {}
        failed = set()
        worst = 0.0
        for i, (j, r, vals) in enumerate(res.outputs):
            if vals is None or not np.all(np.isfinite(vals)):
                failed.add(i)
                continue
            if ref is not None:
                err = rel_err(vals, ref[j, r])
                worst = max(worst, err)
                if not err <= DN_RTOL:
                    failed.add(i)
            if (j, r) not in first:
                first[j, r] = vals
            elif rel_err(vals, first[j, r]) > REPEAT_RTOL:
                failed.add(i)
        res.notes.update(reference="stored base, scaled" if ref is not None else "none",
                         max_rel_err=worst, rtol=DN_RTOL)
        for r in self._oracle_failures(res):
            # the solver is wrong at this amplitude: every op on the rung fails
            failed.update(i for i, out in enumerate(res.outputs) if out[1] == r)
        res.failed = len(failed)

    def _oracle_failures(self, res: LoopResult) -> list:
        """Dense-assembly oracle on the reduced grid for every rung of draw 0."""
        grid = Grid(self.oracle_n, self.length)
        etas, psi = self.fields_on(grid, self.base_params()[0], self.scales[0])
        errs = []
        for eta in etas:
            g_it = dno.dirichlet_neumann(eta, psi, self.geo, self.oracle_nz)
            g_dense = dno.dirichlet_neumann(eta, psi, self.geo, self.oracle_nz,
                                            method="dense")
            errs.append(rel_err(g_it.values.real, g_dense.values.real))
        res.notes.update(oracle_rel_err=errs, oracle_rtol=ORACLE_RTOL,
                         oracle_grid=[self.oracle_n, self.oracle_nz],
                         repeat_rtol=REPEAT_RTOL)
        return [r for r, err in enumerate(errs) if not err <= ORACLE_RTOL]

    def base_output(self) -> np.ndarray:
        """G(eta)psi of every (base draw, rung), psi unscaled: the stored reference."""
        grid = self.grid()
        g = np.empty((self.draws, len(self.rungs), self.n))
        for j, base in enumerate(self.base_params()):
            etas, psi = self.fields_on(grid, base)
            for r, eta in enumerate(etas):
                g[j, r] = dno.dirichlet_neumann(eta, psi, self.geo, self.nz).values.real
        return g


WORKLOADS = {w.name: w for w in (RawPacket(), MollifiedEps(), DnLadder())}


def fresh_dir(root: Path, name: str) -> Path:
    path = root / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path
