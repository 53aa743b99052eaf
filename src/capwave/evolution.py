"""Time evolution of the water-wave system and its reduced forms.

The same (eta, psi) dynamics is available in three algebraically equivalent
shapes: the raw evolution (kinematic + dynamic boundary conditions), the
paralinearized system driven by the good unknown U = psi - T_B eta, and the
mollified approximate system.  The mollifier enters as J_eps = I + T_(j_eps-1)
and the parametrix sandwich as S = I + T_wp J' T_p (resp. with 1/q, q), so
that the eps = 0 system coincides with the raw one identically, not just to
leading order; for eps > 0 the same uniform commutation identities hold as
for the plain paradifferential mollifier.

Integrators: classical RK4 and an exponential RK4 whose integrating factor
is the flat-interface linearization, diagonalized per mode by the canonical
(eta, psi) -> (w+, w-) transform.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from functools import cached_property, lru_cache

import numpy as np

from .dno import Geometry, GeometryError, SolverError, compute_B_V, dirichlet_neumann, \
    flat_dn_multiplier
from .field import (
    CACHE_MAXSIZE,
    Field,
    Grid,
    band_tail_fraction,
    dealiased_product,
    evaluate_refined,
    l2_inner,
    sobolev_norm,
    weighted_norm,
    x_derivative,
)
from .paradiff import DenseOp, Quantizer
from .symbols import Mollifier, Symbol, curvature_symbol, dn_symbol, parametrix, \
    symmetrizer

__all__ = [
    "WaveState",
    "DiagnosticRecord",
    "Trajectory",
    "EvolutionAbort",
    "zakharov_rhs",
    "paralinear_residuals",
    "mollified_rhs",
    "hamiltonian",
    "diagonalize",
    "dispersion_fit",
    "step",
    "run",
    "monitor",
    "time_derivatives",
    "symmetrized_residuals",
]

@lru_cache(maxsize=CACHE_MAXSIZE)
def shared_quantizer(grid: Grid) -> Quantizer:
    """The default-cutoff quantizer of a grid, built once per grid."""
    return Quantizer(grid)


class EvolutionAbort(RuntimeError):
    """Evolution stopped; carries the last valid state."""

    def __init__(self, message, state=None, trajectory=None):
        super().__init__(message)
        self.state = state
        self.trajectory = trajectory


class WaveState:
    """Instantaneous (eta, psi) with lazily cached derived quantities.

    Everything the right-hand sides derive from the state alone (G(eta)psi,
    B and V, the symbols lambda, h, p, q and gamma, the paraproducts T_B and
    T_V) is built here once, on first use.
    """

    def __init__(self, t: float, eta: Field, psi: Field, geo: Geometry,
                 nz: int = 32, tail_tol: float = 1e-6, check: bool = True):
        if eta.grid != psi.grid:
            raise ValueError("eta and psi must share a grid")
        self.t = float(t)
        self.eta = eta.real() if not eta.is_real else eta
        self.psi = psi.real() if not psi.is_real else psi
        self.geo = geo
        self.nz = nz
        self.tail_tol = tail_tol
        if check:
            self.validate()

    def validate(self):
        if self.geo.kind == "flat_bottom":
            depth = self.geo.depth + np.min(self.eta.values.real)
            if depth <= 0:
                raise GeometryError(f"fluid layer degenerate (min depth {depth:.3e})")
        for name, f in (("eta", self.eta), ("psi", self.psi)):
            frac = band_tail_fraction(f)
            if frac > self.tail_tol:
                raise ValueError(
                    f"{name} spectral tail {frac:.2e} above the dealiasing "
                    f"threshold {self.tail_tol:.1e}")

    @property
    def grid(self) -> Grid:
        return self.eta.grid

    @property
    def quantizer(self) -> Quantizer:
        return shared_quantizer(self.grid)

    @cached_property
    def g_psi(self) -> Field:
        return dirichlet_neumann(self.eta, self.psi, self.geo, self.nz)

    @cached_property
    def _b_v(self) -> tuple[Field, Field]:
        return compute_B_V(self.eta, self.psi, self.g_psi)

    @property
    def b_field(self) -> Field:
        return self._b_v[0]

    @property
    def v_field(self) -> Field:
        return self._b_v[1]

    @cached_property
    def t_b(self) -> DenseOp:
        """The paraproduct T_B, built once per state."""
        return self.quantizer.operator(Symbol.from_field(self.b_field, name="B"))

    @cached_property
    def t_v(self) -> DenseOp:
        """The paraproduct T_V, built once per state."""
        return self.quantizer.operator(Symbol.from_field(self.v_field, name="V"))

    @cached_property
    def u_good(self) -> Field:
        return (self.psi - self.t_b(self.eta)).real()

    @cached_property
    def lam(self) -> Symbol:
        """Dirichlet-Neumann symbol lambda of eta."""
        return dn_symbol(self.eta)

    @cached_property
    def curv(self) -> Symbol:
        """Mean-curvature symbol h of eta."""
        return curvature_symbol(self.eta)

    @cached_property
    def symmetrizer_symbols(self):
        return symmetrizer(self.eta, self.lam, self.curv)

    def replace(self, t=None, eta=None, psi=None, check=False) -> "WaveState":
        return WaveState(self.t if t is None else t,
                         self.eta if eta is None else eta,
                         self.psi if psi is None else psi,
                         self.geo, self.nz, self.tail_tol, check=check)


def curvature(eta: Field) -> Field:
    """Mean curvature d/dx ( eta_x / sqrt(1 + eta_x^2) )."""
    ex = x_derivative(eta)
    slope = Field(eta.grid, ex.values / np.sqrt(1.0 + ex.values**2))
    return x_derivative(slope)


def zakharov_rhs(state: WaveState) -> tuple[Field, Field]:
    """Right-hand sides of the raw surface evolution."""
    return state.g_psi, _raw_psi_t(state, x_derivative(state.eta), x_derivative(state.psi))


def _raw_psi_t(state: WaveState, ex: Field, px: Field) -> Field:
    """psi_t of the raw system, given eta_x and psi_x.

    :func:`paralinear_residuals` shares it without calling
    :func:`zakharov_rhs`, so that each zakharov_rhs call is one raw
    right-hand side (the benchmark's span tracer counts them by name).
    """
    geo = state.geo
    eta = state.eta
    num = dealiased_product(ex, px) + state.g_psi
    quad = dealiased_product(num, num)
    return (
        -geo.g * eta
        + geo.kappa * curvature(eta)
        - 0.5 * dealiased_product(px, px)
        + Field(eta.grid, 0.5 * quad.values / (1.0 + ex.values**2))
    )


def paralinear_residuals(state: WaveState) -> tuple[Field, Field]:
    """Paralinearization residuals of the two equations (smoothing terms)."""
    quant = state.quantizer
    ex = x_derivative(state.eta)
    px = x_derivative(state.psi)
    g_psi = state.g_psi
    t_b, t_v = state.t_b, state.t_v

    f1 = g_psi - quant.quantize(state.lam, state.u_good) + t_v(ex)
    f2 = (
        _raw_psi_t(state, ex, px)
        + t_v(px)
        - t_b(t_v(ex))
        - t_b(g_psi)
        + state.geo.kappa * quant.quantize(state.curv, state.eta)
    )
    return f1.real(), f2.real()


def mollified_rhs(state: WaveState, eps: float) -> tuple[Field, Field]:
    """Right-hand side of the approximate system with mollifier strength eps.

    At eps = 0 this reduces operator-by-operator to :func:`zakharov_rhs`.
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    geo = state.geo
    quant = state.quantizer
    eta, psi = state.eta, state.psi

    p, q, gam = state.symmetrizer_symbols
    wp = parametrix(eta, p)
    jm1 = Mollifier(gam, eps, -1.0, name=f"j(eps={eps:g})-1")

    t_lam = quant.operator(state.lam)
    t_h = quant.operator(state.curv)
    t_p = quant.operator(p)
    t_q = quant.operator(q)
    t_wp = quant.operator(wp)
    t_invq = quant.operator(Symbol.from_field(
        Field(eta.grid, 1.0 / q.principal[:, 0].real), name="1/q"))
    t_jm1 = quant.operator(jm1)
    t_b, t_v = state.t_b, state.t_v

    def j_eps(u: Field) -> Field:
        return u + t_jm1(u)

    def s_q(u: Field) -> Field:
        return u + t_invq(t_jm1(t_q(u)))

    def s_p(u: Field) -> Field:
        return u + t_wp(t_jm1(t_p(u)))

    u_good = state.u_good
    eta_m = j_eps(eta).real()
    psi_m = j_eps(psi).real()
    state_m = state.replace(eta=eta_m, psi=psi_m)
    f1_m, f2_m = paralinear_residuals(state_m)

    sq_u = t_lam(s_q(u_good))
    eta_t = -t_v(x_derivative(j_eps(eta))) + sq_u + f1_m
    psi_t = (
        -t_v(x_derivative(j_eps(psi)))
        + t_b(sq_u)
        - geo.kappa * t_h(s_p(eta))
        + t_b(f1_m)
        + f2_m
    )
    return eta_t.real(), psi_t.real()


def hamiltonian(state: WaveState) -> tuple[float, float]:
    """Total Zakharov energy and its quadratic (flat-linearization) part."""
    geo = state.geo
    eta, psi = state.eta, state.psi
    grid = state.grid
    kinetic = 0.5 * l2_inner(psi, state.g_psi).real
    potential = 0.5 * geo.g * l2_inner(eta, eta).real
    _, ex_fine = evaluate_refined(x_derivative(eta), 2)
    capillary = geo.kappa * grid.length * float(
        np.mean(np.sqrt(1.0 + ex_fine**2) - 1.0))
    total = kinetic + potential + capillary

    omega_g = flat_dn_multiplier(geo, grid.xi)
    stiff = geo.g + geo.kappa * grid.xi**2
    quadratic = 0.5 * grid.length * float(
        np.sum(omega_g * np.abs(psi.spectrum) ** 2
               + stiff * np.abs(eta.spectrum) ** 2))
    return total, quadratic


def diagonalize(state: WaveState) -> Field:
    """Complex normal variable of the flat linearization (depth-corrected).

    The weights use the finite-depth dispersion factor |xi| tanh(depth |xi|)
    in place of the infinite-depth |xi|; the xi = 0 mode is dropped.
    """
    grid = state.grid
    geo = state.geo
    omega_g = flat_dn_multiplier(geo, grid.xi)
    stiff = geo.g + geo.kappa * grid.xi**2
    safe = np.where(omega_g > 0, omega_g, 1.0)
    alpha = (stiff / safe) ** 0.25
    beta = (safe / stiff) ** 0.25
    a_hat = (alpha * state.eta.spectrum - 1j * beta * state.psi.spectrum) / np.sqrt(2.0)
    a_hat[omega_g == 0] = 0.0
    return Field.from_spectrum(grid, a_hat)


def dispersion_fit(states: list, mode: int) -> dict:
    """Frequency of grid mode ``mode`` fitted from sampled states.

    The phase of the mode in the normal variable (:func:`diagonalize`) is
    fitted linearly in time and compared with the linear dispersion relation
    omega^2 = (g + kappa xi^2) xi tanh(depth xi).  Fewer than four states
    give NaN values and a note.
    """
    if len(states) < 4:
        return {"fitted": float("nan"), "predicted": float("nan"),
                "rel_err": float("nan"), "note": "too few snapshots"}
    grid, geo = states[0].grid, states[0].geo
    idx = int(np.where(grid.k == mode)[0][0])
    xi = grid.xi[idx]
    omega = float(np.sqrt((geo.g + geo.kappa * xi**2) * xi * np.tanh(xi * geo.depth)))
    phases = [diagonalize(st).spectrum[idx] for st in states]
    times = [st.t for st in states]
    slope = np.polyfit(times, np.unwrap(np.angle(np.array(phases))), 1)[0]
    fitted = float(abs(slope))
    return {"fitted": fitted, "predicted": omega,
            "rel_err": abs(fitted - omega) / omega}


# -- integrators ------------------------------------------------------------

_ENVELOPE = {"rk4": 2.8, "etdrk4": 40.0}
# points on the Kassam-Trefethen contour of the phi-function averages
_N_CONTOUR = 32


class _Etdrk4Coefficients:
    """Per-mode exponential coefficients for the diagonalized linear flow."""

    def __init__(self, grid: Grid, geo: Geometry, dt: float, eps: float):
        self.grid = grid
        omega_g = flat_dn_multiplier(geo, grid.xi)
        # the discrete curvature operator is built from first derivatives and
        # therefore annihilates the Nyquist mode; the linear model must match
        # or the mismatch is integrated explicitly and blows up
        xi2 = grid.xi**2
        xi2 = np.where(np.arange(grid.n) == grid.n // 2, 0.0, xi2)
        stiff = geo.g + geo.kappa * xi2
        self.omega = np.sqrt(omega_g * stiff)
        # mollified flat linearization: rotation slowed by the symbol factor
        quant = shared_quantizer(grid)
        psi_c = quant.psi_cut(grid.xi)
        slow = 1.0 + (np.exp(-eps * np.abs(grid.xi) ** 1.5) - 1.0) * psi_c
        self.omega_eff = self.omega * slow
        self.linear_mask = (omega_g > 0) & (stiff > 0)
        safe_g = np.where(self.linear_mask, omega_g, 1.0)
        safe_s = np.where(self.linear_mask, stiff, 1.0)
        self.alpha = np.where(self.linear_mask, (safe_s / safe_g) ** 0.25, 1.0)
        self.beta = np.where(self.linear_mask, (safe_g / safe_s) ** 0.25, 1.0)

        lam = np.concatenate([1j * self.omega_eff * self.linear_mask,
                              -1j * self.omega_eff * self.linear_mask])
        z = dt * lam
        theta = np.pi * (np.arange(_N_CONTOUR) + 0.5) / _N_CONTOUR
        ring = np.exp(1j * theta)
        zr = z[:, None] + ring[None, :]
        # Kassam-Trefethen contour averages of the phi functions
        self.E = np.exp(z)
        self.E2 = np.exp(z / 2.0)
        self.Q = dt * np.mean((np.exp(zr / 2.0) - 1.0) / zr, axis=1)
        self.f1 = dt * np.mean(
            (-4.0 - zr + np.exp(zr) * (4.0 - 3.0 * zr + zr**2)) / zr**3, axis=1)
        self.f2 = dt * np.mean(
            (2.0 + zr + np.exp(zr) * (zr - 2.0)) / zr**3, axis=1)
        self.f3 = dt * np.mean(
            (-4.0 - 3.0 * zr - zr**2 + np.exp(zr) * (4.0 - zr)) / zr**3, axis=1)
        self.lam = lam

    def to_w(self, eta_c: np.ndarray, psi_c: np.ndarray) -> np.ndarray:
        wp = np.where(self.linear_mask,
                      self.alpha * eta_c - 1j * self.beta * psi_c, eta_c)
        wm = np.where(self.linear_mask,
                      self.alpha * eta_c + 1j * self.beta * psi_c, psi_c)
        return np.concatenate([wp, wm])

    def from_w(self, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        n = self.grid.n
        wp, wm = w[:n], w[n:]
        eta_c = np.where(self.linear_mask, (wp + wm) / (2.0 * self.alpha), wp)
        psi_c = np.where(self.linear_mask, (wm - wp) / (2j * self.beta), wm)
        return eta_c, psi_c


@lru_cache(maxsize=CACHE_MAXSIZE)
def _etdrk4_coefficients(grid, geo, dt, eps):
    return _Etdrk4Coefficients(grid, geo, dt, eps)


def _rhs_for(state: WaveState, eps: float) -> tuple[Field, Field]:
    """The raw system at eps = 0, where the mollified one equals it exactly."""
    if eps == 0.0:
        return zakharov_rhs(state)
    return mollified_rhs(state, eps)


def _check_envelope(state: WaveState, dt: float, scheme: str, eps: float):
    coeff = _etdrk4_coefficients(state.grid, state.geo, dt, eps)
    fastest = float(np.max(np.abs(coeff.omega_eff)))
    if dt * fastest > _ENVELOPE[scheme]:
        raise ValueError(
            f"dt * max omega = {dt * fastest:.2f} outside the {scheme} "
            f"stability envelope {_ENVELOPE[scheme]}")


def step(state: WaveState, dt: float, eps: float = 0.0,
         scheme: str = "etdrk4") -> WaveState:
    """Advance one step; aborts with the last valid state on NaN or geometry loss."""
    if scheme not in _ENVELOPE:
        raise ValueError(f"unknown scheme {scheme!r}")
    _check_envelope(state, dt, scheme, eps)
    try:
        if scheme == "rk4":
            new = _rk4_step(state, dt, eps)
        else:
            new = _etdrk4_step(state, dt, eps)
    except (GeometryError, SolverError, FloatingPointError) as exc:
        raise EvolutionAbort(f"step aborted at t={state.t:g}: {exc}", state=state)
    if not (np.all(np.isfinite(new.eta.values)) and np.all(np.isfinite(new.psi.values))):
        raise EvolutionAbort(f"non-finite state at t={new.t:g}", state=state)
    return new


def _rk4_step(state, dt, eps):
    def rhs(s):
        return _rhs_for(s, eps)

    k1e, k1p = rhs(state)
    s2 = state.replace(t=state.t + dt / 2, eta=state.eta + k1e * (dt / 2),
                       psi=state.psi + k1p * (dt / 2))
    k2e, k2p = rhs(s2)
    s3 = state.replace(t=state.t + dt / 2, eta=state.eta + k2e * (dt / 2),
                       psi=state.psi + k2p * (dt / 2))
    k3e, k3p = rhs(s3)
    s4 = state.replace(t=state.t + dt, eta=state.eta + k3e * dt,
                       psi=state.psi + k3p * dt)
    k4e, k4p = rhs(s4)
    eta = state.eta + (k1e + 2 * k2e + 2 * k3e + k4e) * (dt / 6)
    psi = state.psi + (k1p + 2 * k2p + 2 * k3p + k4p) * (dt / 6)
    return state.replace(t=state.t + dt, eta=eta.real(), psi=psi.real())


def _etdrk4_step(state, dt, eps):
    grid = state.grid
    coeff = _etdrk4_coefficients(grid, state.geo, dt, eps)

    def nonlinear(s: WaveState) -> np.ndarray:
        fe, fp = _rhs_for(s, eps)
        full = coeff.to_w(fe.spectrum, fp.spectrum)
        base = coeff.to_w(s.eta.spectrum, s.psi.spectrum)
        return full - coeff.lam * base

    def to_state(w: np.ndarray, t: float) -> WaveState:
        eta_c, psi_c = coeff.from_w(w)
        return state.replace(t=t, eta=Field.from_spectrum(grid, eta_c).real(),
                             psi=Field.from_spectrum(grid, psi_c).real())

    t = state.t
    w0 = coeff.to_w(state.eta.spectrum, state.psi.spectrum)
    n0 = nonlinear(state)
    a = coeff.E2 * w0 + coeff.Q * n0
    na = nonlinear(to_state(a, t + dt / 2))
    b = coeff.E2 * w0 + coeff.Q * na
    nb = nonlinear(to_state(b, t + dt / 2))
    c = coeff.E2 * a + coeff.Q * (2.0 * nb - n0)
    nc = nonlinear(to_state(c, t + dt))
    w1 = coeff.E * w0 + coeff.f1 * n0 + 2.0 * coeff.f2 * (na + nb) + coeff.f3 * nc
    return to_state(w1, t + dt)


# -- diagnostics and trajectories -------------------------------------------


@dataclass
class DiagnosticRecord:
    t: float
    eta_norm: float  # H^(s+1/2)
    psi_norm: float  # H^s
    monitor: float  # running sup of the pair norm
    hamiltonian: float
    quadratic: float
    smoothing: float  # weighted-norm integrand w(t)
    mass: float  # integral of eta (kept in memory, not in the CSV schema)


@dataclass
class Trajectory:
    s: float
    delta: float
    records: list = dataclass_field(default_factory=list)
    states: list = dataclass_field(default_factory=list)

    @property
    def times(self):
        return np.array([r.t for r in self.records])

    def monitor_series(self):
        return np.array([r.monitor for r in self.records])

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("t,eta_norm,psi_norm,monitor,hamiltonian,quadratic,smoothing\n")
            for r in self.records:
                fh.write(",".join(f"{v:.17g}" for v in (
                    r.t, r.eta_norm, r.psi_norm, r.monitor, r.hamiltonian,
                    r.quadratic, r.smoothing)) + "\n")


def _record(state: WaveState, s: float, delta: float, running: float) \
        -> tuple[DiagnosticRecord, float]:
    en = sobolev_norm(state.eta, s + 0.5)
    pn = sobolev_norm(state.psi, s)
    pair = np.hypot(en, pn)
    running = max(running, pair)
    total, quad = hamiltonian(state)
    w = weighted_norm(state.eta, s + 0.75, delta) ** 2 \
        + weighted_norm(state.psi, s + 0.25, delta) ** 2
    mass = state.grid.length * float(np.mean(state.eta.values.real))
    return DiagnosticRecord(state.t, en, pn, running, total, quad, w, mass), running


def run(state: WaveState, dt: float, n_steps: int, eps: float = 0.0,
        scheme: str = "etdrk4", s: float = 2.6,
        delta: float = 0.1, sample_stride: int = 1,
        state_stride: int | None = None) -> Trajectory:
    """Integrate n_steps and collect diagnostics every sample_stride steps."""
    traj = Trajectory(s=s, delta=delta)
    running = 0.0
    rec, running = _record(state, s, delta, running)
    traj.records.append(rec)
    traj.states.append(state)
    for i in range(1, n_steps + 1):
        try:
            state = step(state, dt, eps=eps, scheme=scheme)
        except EvolutionAbort as exc:
            exc.trajectory = traj
            raise
        if i % sample_stride == 0 or i == n_steps:
            rec, running = _record(state, s, delta, running)
            traj.records.append(rec)
        if state_stride and (i % state_stride == 0 or i == n_steps):
            traj.states.append(state)
    if not state_stride:
        traj.states.append(state)
    return traj


def monitor(traj: Trajectory, jump_tol: float = 0.10) -> dict:
    """A priori growth diagnostics of M(t) = running sup of the pair norm."""
    t = traj.times
    m = traj.monitor_series()
    if len(t) < 2:
        raise ValueError("trajectory too short to monitor")
    # affine envelope fit M(t) ~ intercept + rate * t
    coeffs = np.polyfit(t, m, 1)
    rate, intercept = float(coeffs[0]), float(coeffs[1])
    dt_pos = t[1:] - t[0]
    growth = (m[1:] - m[0]) / np.where(dt_pos > 0, dt_pos, 1.0)
    jumps = np.abs(np.diff(m)) > jump_tol * np.maximum(m[:-1], 1e-300)
    return {
        "m0": float(m[0]),
        "m_final": float(m[-1]),
        "intercept": intercept,
        "rate": rate,
        "max_growth_rate": float(np.max(growth)) if len(growth) else 0.0,
        "jump_flags": int(np.count_nonzero(jumps)),
    }


# -- exact time derivatives (for residual diagnostics) ----------------------


def time_derivatives(state: WaveState) -> dict:
    """Exact spatial-spectral time derivatives of the surface quantities.

    d/dt of G(eta)psi follows from the shape-derivative identity applied
    along the flow, so no time differencing is involved.
    """
    eta_t, psi_t = zakharov_rhs(state)
    b, v = state.b_field, state.v_field
    arg = (psi_t - dealiased_product(b, eta_t)).real()
    g_term = dirichlet_neumann(state.eta, arg, state.geo, state.nz)
    g_psi_t = g_term - x_derivative(dealiased_product(v, eta_t))
    ex = x_derivative(state.eta)
    px = x_derivative(state.psi)
    ex_t = x_derivative(eta_t)
    px_t = x_derivative(psi_t)
    w = 1.0 + ex.values**2
    b_t = Field(state.grid,
                (ex_t.values * px.values + ex.values * px_t.values
                 + g_psi_t.values
                 - b.values * 2.0 * ex.values * ex_t.values) / w)
    v_t = px_t - dealiased_product(b_t, ex) - dealiased_product(b, ex_t)
    return {"eta_t": eta_t, "psi_t": psi_t, "g_psi_t": g_psi_t,
            "b_t": b_t, "v_t": v_t}


def _symbol_time_derivative(build, eta: Field, eta_t: Field, tau: float = 1e-5):
    """Centered difference of a symbol construction along the flow direction."""
    sym_p = build(eta + eta_t * tau)
    sym_m = build(eta + eta_t * (-tau))
    sub = None
    if sym_p.subprincipal is not None:
        sub = (sym_p.subprincipal - sym_m.subprincipal) / (2.0 * tau)
    return Symbol(eta.grid, sym_p.order, (sym_p.principal - sym_m.principal) / (2.0 * tau),
                  sub, name=f"dt[{sym_p.name}]")


def symmetrized_residuals(state: WaveState) -> dict:
    """Residuals F1, F2 of the symmetrized system (and the scalar F).

    Uses exact time derivatives of (eta, psi, B) and flow derivatives of the
    symbols p, q, so the result reflects spatial structure only.
    """
    quant = state.quantizer
    der = time_derivatives(state)
    p, q, gam = state.symmetrizer_symbols
    dt_p = _symbol_time_derivative(lambda e: symmetrizer(e)[0], state.eta, der["eta_t"])
    dt_q = _symbol_time_derivative(lambda e: symmetrizer(e)[1], state.eta, der["eta_t"])

    u_t = (der["psi_t"]
           - state.t_b(der["eta_t"])
           - quant.quantize(Symbol.from_field(der["b_t"]), state.eta)).real()
    phi1_t = (quant.quantize(p, der["eta_t"]) + quant.quantize(dt_p, state.eta)).real()
    phi2_t = (quant.quantize(q, u_t) + quant.quantize(dt_q, state.u_good)).real()

    t_v = state.t_v
    t_g = quant.operator(gam)
    phi1 = quant.quantize(p, state.eta).real()
    phi2 = quant.quantize(q, state.u_good).real()
    f1 = (phi1_t + t_v(x_derivative(phi1)) - t_g(phi2)).real()
    f2 = (phi2_t + t_v(x_derivative(phi2)) + t_g(phi1)).real()
    return {
        "phi1": phi1, "phi2": phi2,
        "phi1_t": phi1_t, "phi2_t": phi2_t,
        "f1": f1, "f2": f2,
        "phi": phi1 + phi2 * 1j,
        "f": f1 + f2 * 1j,
    }
