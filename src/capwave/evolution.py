"""Time evolution of the water-wave system and its reduced forms.

The same (eta, psi) dynamics is available in three algebraically equivalent
shapes: the raw evolution (kinematic + dynamic boundary conditions), the
paralinearized system driven by the good unknown U = psi - T_B eta, and the
mollified approximate system.  The mollifier enters as J_eps = I + T_(j_eps-1)
and the parametrix sandwich as S = I + T_wp J' T_p (resp. with 1/q, q), so
that the eps = 0 system coincides with the raw one identically, not just to
leading order; for eps > 0 the same uniform commutation identities hold as
for the plain paradifferential mollifier.

One integrator, ETDRK4 (Cox & Matthews 2002, with Kassam & Trefethen 2005
contour averages over the full circle, as z = i omega dt is imaginary), solves
the flat-interface linearization exactly.  That linearization is
diagonalized per mode by the normal variable w+ = alpha eta^ - i beta psi^;
w-(xi) = conj w+(-xi) for every real state, so the step advances w+ alone.
The step, :func:`diagonalize` and :func:`dispersion_fit` all read the one
flat-mode table class.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from functools import cached_property, lru_cache

import numpy as np

from .cutoffs import psi_cut
from .dno import Geometry, GeometryError, SolverError, compute_B_V, dirichlet_neumann, \
    flat_dn_multiplier, surface_flux
from .field import (
    CACHE_MAXSIZE,
    Field,
    Grid,
    band_tail_fraction,
    dealiased_product,
    derivative_symbol,
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
    the surface flux eta_x psi_x + G(eta)psi, B and V, the symbols lambda,
    h, p, q and gamma, the paraproducts T_B and T_V, and T_gamma) is built
    here once, on first use.
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
        self.geo.local_depth(self.eta)  # raises GeometryError on a degenerate layer
        for name, f in (("eta", self.eta), ("psi", self.psi)):
            frac = band_tail_fraction(f)
            if not frac <= self.tail_tol:  # NaN fails too
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
    def flux(self) -> Field:
        """eta_x psi_x + G(eta)psi, shared by B and the raw psi_t."""
        return surface_flux(self.eta, self.psi, self.g_psi)

    @cached_property
    def _b_v(self) -> tuple[Field, Field]:
        return compute_B_V(self.eta, self.psi, self.g_psi, self.flux)

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
    def t_gamma(self) -> DenseOp:
        """The symmetrizer's T_gamma, built once per state."""
        return self.quantizer.operator(self.symmetrizer_symbols[2])

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

    def replace(self, t=None, eta=None, psi=None) -> "WaveState":
        return WaveState(self.t if t is None else t,
                         self.eta if eta is None else eta,
                         self.psi if psi is None else psi,
                         self.geo, self.nz, self.tail_tol, check=False)


def curvature(eta: Field) -> Field:
    """Mean curvature d/dx ( eta_x / sqrt(1 + eta_x^2) )."""
    ex = x_derivative(eta)
    slope = Field(eta.grid, ex.values / np.sqrt(1.0 + ex.values**2))
    return x_derivative(slope)


def zakharov_rhs(state: WaveState) -> tuple[Field, Field]:
    """Right-hand sides of the raw surface evolution."""
    return state.g_psi, _raw_psi_t(state)


def _raw_psi_t(state: WaveState) -> Field:
    """psi_t of the raw system.

    :func:`paralinear_residuals` shares it without calling
    :func:`zakharov_rhs`, so that each zakharov_rhs call is one raw
    right-hand side (the benchmark's span tracer counts them by name).
    """
    geo = state.geo
    eta = state.eta
    ex, px = x_derivative(eta), x_derivative(state.psi)
    quad = dealiased_product(state.flux, state.flux)
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
        _raw_psi_t(state)
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
    if not 0 <= eps < np.inf:  # NaN fails too
        raise ValueError(f"eps must be nonnegative and finite, got {eps}")
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
    t_invq = quant.operator(Symbol(eta.grid, 0.0, 1.0 / q.principal.real, name="1/q"))
    t_jm1 = quant.operator(jm1)
    t_b, t_v = state.t_b, state.t_v

    def j_eps(u: Field) -> Field:
        return u + t_jm1(u)

    def s_q(u: Field) -> Field:
        return u + t_invq(t_jm1(t_q(u)))

    def s_p(u: Field) -> Field:
        return u + t_wp(t_jm1(t_p(u)))

    u_good = state.u_good
    eta_m, psi_m = j_eps(eta), j_eps(psi)
    state_m = state.replace(eta=eta_m, psi=psi_m)  # keeps their real parts
    f1_m, f2_m = paralinear_residuals(state_m)

    sq_u = t_lam(s_q(u_good))
    eta_t = -t_v(x_derivative(eta_m)) + sq_u + f1_m
    psi_t = (
        -t_v(x_derivative(psi_m))
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
    _, ex_fine = evaluate_refined(x_derivative(eta))
    capillary = geo.kappa * grid.length * float(
        np.mean(np.sqrt(1.0 + ex_fine**2) - 1.0))
    total = kinetic + potential + capillary

    omega_g = flat_dn_multiplier(geo, grid.xi)
    stiff = geo.g + geo.kappa * grid.xi**2
    quadratic = 0.5 * grid.length * float(
        np.sum(omega_g * np.abs(psi.spectrum) ** 2
               + stiff * np.abs(eta.spectrum) ** 2))
    return total, quadratic


class _FlatModes:
    """The flat-interface linearization per grid mode of a grid and geometry.

    Mode xi rotates at omega = sqrt(|xi| tanh(depth |xi|) (g + kappa xi^2)).
    The state is w = w+ = alpha eta^ - i beta psi^, one value per mode, with
    alpha = (stiff / omega_g)^(1/4) and beta = 1 / alpha; its partner
    w-(xi) = alpha eta^ + i beta psi^ = conj w+(-xi) is read off w+.  Modes
    outside ``linear_mask`` (xi = 0, and any mode without stiffness) take
    alpha = beta = 1 and omega = 0, so they need no branch.
    """

    def __init__(self, grid: Grid, geo: Geometry):
        omega_g = flat_dn_multiplier(geo, grid.xi)
        # xi^2 = -D1^2: the discrete curvature is built from first derivatives,
        # so the linear model takes their Nyquist rule, or the mismatch is
        # integrated explicitly and blows up
        xi2 = -(derivative_symbol(grid, 1) ** 2).real
        stiff = geo.g + geo.kappa * xi2
        self.omega = np.sqrt(omega_g * stiff)
        self.linear_mask = (omega_g > 0) & (stiff > 0)
        safe_g = np.where(self.linear_mask, omega_g, 1.0)
        safe_s = np.where(self.linear_mask, stiff, 1.0)
        self.alpha = (safe_s / safe_g) ** 0.25
        self.beta = (safe_g / safe_s) ** 0.25
        # index of the mode -xi, for w-(xi) = conj w(-xi)
        self.flip = (-grid.k) % grid.n

    def to_w(self, eta_c: np.ndarray, psi_c: np.ndarray) -> np.ndarray:
        return self.alpha * eta_c - 1j * self.beta * psi_c

    def from_w(self, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Spectra of eta and psi, Hermitian for any complex w."""
        w_minus = np.conj(w[self.flip])
        return (w + w_minus) / (2.0 * self.alpha), (w_minus - w) / (2j * self.beta)


def diagonalize(state: WaveState) -> Field:
    """Complex normal variable w+ / sqrt(2) of the flat linearization.

    The weights use the finite-depth dispersion factor |xi| tanh(depth |xi|)
    in place of the infinite-depth |xi|; modes outside the linear mask
    (xi = 0 among them) are dropped.
    """
    modes = _FlatModes(state.grid, state.geo)
    wp = modes.to_w(state.eta.spectrum, state.psi.spectrum)
    return Field.from_spectrum(state.grid,
                               np.where(modes.linear_mask, wp / np.sqrt(2.0), 0.0))


def dispersion_fit(states: list, mode: int) -> dict | None:
    """Frequency of grid mode ``mode`` fitted from sampled states.

    The phase of the mode in the normal variable (:func:`diagonalize`) is
    fitted linearly in time and compared with the flat-mode table's linear
    dispersion relation omega^2 = (g + kappa xi^2) xi tanh(depth xi).  Fewer
    than four states give None: no fit is made.
    """
    if len(states) < 4:
        return None
    grid = states[0].grid
    idx = int(np.where(grid.k == mode)[0][0])
    omega = float(_FlatModes(grid, states[0].geo).omega[idx])
    phases = [diagonalize(st).spectrum[idx] for st in states]
    times = [st.t for st in states]
    slope = np.polyfit(times, np.unwrap(np.angle(np.array(phases))), 1)[0]
    fitted = float(abs(slope))
    return {"fitted": fitted, "predicted": omega,
            "rel_err": abs(fitted - omega) / omega}


# -- the ETDRK4 integrator --------------------------------------------------

# largest dt * max omega a step accepts; the linear part is integrated exactly
_ENVELOPE = 40.0
# points on the Kassam-Trefethen contour of the phi-function averages
_N_CONTOUR = 32


class _Etdrk4Coefficients:
    """Per-mode exponential coefficients of the linear flow dw/dt = i omega_eff w.

    z = i omega_eff dt is imaginary, so the phi-function averages run over the
    full circle around z; the upper half circle with a real part holds only
    for a real linear part.
    """

    def __init__(self, grid: Grid, geo: Geometry, dt: float, eps: float):
        self.modes = modes = _FlatModes(grid, geo)
        # mollified flat linearization: rotation slowed by the symbol factor
        slow = 1.0 + (np.exp(-eps * np.abs(grid.xi) ** 1.5) - 1.0) * psi_cut(grid.xi)
        self.omega_eff = modes.omega * slow
        self.lam = 1j * self.omega_eff
        z = dt * self.lam
        theta = 2.0 * np.pi * (np.arange(_N_CONTOUR) + 0.5) / _N_CONTOUR
        zr = z[:, None] + np.exp(1j * theta)[None, :]
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


@lru_cache(maxsize=CACHE_MAXSIZE)
def _etdrk4_coefficients(grid, geo, dt, eps):
    return _Etdrk4Coefficients(grid, geo, dt, eps)


# perfbench/workloads.py still passes scheme=, so the keyword stays; only etdrk4 exists
def step(state: WaveState, dt: float, eps: float = 0.0,
         scheme: str = "etdrk4") -> WaveState:
    """Advance one ETDRK4 step; aborts with the last valid state on NaN or geometry loss."""
    if scheme != "etdrk4":
        raise ValueError(f"unknown scheme {scheme!r}")
    if not 0 < dt < np.inf:  # negated comparisons: NaN fails them
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if not 0 <= eps < np.inf:
        raise ValueError(f"eps must be nonnegative and finite, got {eps}")
    coeff = _etdrk4_coefficients(state.grid, state.geo, dt, eps)
    fastest = float(np.max(np.abs(coeff.omega_eff)))
    if dt * fastest > _ENVELOPE:
        raise ValueError(
            f"dt * max omega = {dt * fastest:.2f} outside the etdrk4 "
            f"stability envelope {_ENVELOPE}")
    try:
        new = _etdrk4_step(state, dt, eps, coeff)
    except (GeometryError, SolverError, FloatingPointError) as exc:
        raise EvolutionAbort(f"step aborted at t={state.t:g}: {exc}", state=state)
    if not (np.all(np.isfinite(new.eta.values)) and np.all(np.isfinite(new.psi.values))):
        raise EvolutionAbort(f"non-finite state at t={new.t:g}", state=state)
    return new


def _etdrk4_step(state, dt, eps, coeff):
    grid = state.grid
    modes = coeff.modes

    def nonlinear(s: WaveState, w: np.ndarray) -> np.ndarray:
        # the raw system at eps = 0, where the mollified one equals it exactly
        fe, fp = zakharov_rhs(s) if eps == 0.0 else mollified_rhs(s, eps)
        return modes.to_w(fe.spectrum, fp.spectrum) - coeff.lam * w

    def to_state(w: np.ndarray, t: float) -> WaveState:
        eta_c, psi_c = modes.from_w(w)
        return state.replace(t=t, eta=Field.from_spectrum(grid, eta_c),
                             psi=Field.from_spectrum(grid, psi_c))

    t = state.t
    w0 = modes.to_w(state.eta.spectrum, state.psi.spectrum)
    n0 = nonlinear(state, w0)
    a = coeff.E2 * w0 + coeff.Q * n0
    na = nonlinear(to_state(a, t + dt / 2), a)
    b = coeff.E2 * w0 + coeff.Q * na
    nb = nonlinear(to_state(b, t + dt / 2), b)
    c = coeff.E2 * a + coeff.Q * (2.0 * nb - n0)
    nc = nonlinear(to_state(c, t + dt), c)
    w1 = coeff.E * w0 + coeff.f1 * n0 + 2.0 * coeff.f2 * (na + nb) + coeff.f3 * nc
    return to_state(w1, t + dt)


# -- diagnostics and trajectories -------------------------------------------


@dataclass
class DiagnosticRecord:
    """One diagnostics sample; it carries both integrands of the smoothing pair."""

    t: float
    eta_norm: float  # H^(s+1/2)
    psi_norm: float  # H^s
    monitor: float  # running sup of the pair norm
    hamiltonian: float
    quadratic: float
    smoothing: float  # weighted-norm integrand w(t) of the Kato integral
    unweighted: float  # its companion ||eta||^2 in H^(s+3/4); in memory only
    mass: float  # integral of eta; in memory only, not in the CSV schema


@dataclass
class Trajectory:
    records: list = dataclass_field(default_factory=list)
    states: list = dataclass_field(default_factory=list)

    @property
    def times(self):
        return np.array([r.t for r in self.records])

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
    unweighted = sobolev_norm(state.eta, s + 0.75) ** 2
    mass = state.grid.length * float(np.mean(state.eta.values.real))
    return DiagnosticRecord(state.t, en, pn, running, total, quad, w, unweighted,
                            mass), running


def run(state: WaveState, dt: float, n_steps: int, eps: float = 0.0,
        s: float = 2.6, delta: float = 0.1, sample_stride: int = 1,
        state_stride: int | None = None) -> Trajectory:
    """Integrate n_steps and collect diagnostics every sample_stride steps."""
    traj = Trajectory()
    running = 0.0
    rec, running = _record(state, s, delta, running)
    traj.records.append(rec)
    # stored states keep only t, eta and psi, not the right-hand side's caches
    traj.states.append(state.replace())
    for i in range(1, n_steps + 1):
        try:
            state = step(state, dt, eps=eps)
        except EvolutionAbort as exc:
            exc.trajectory = traj
            raise
        if i % sample_stride == 0 or i == n_steps:
            rec, running = _record(state, s, delta, running)
            traj.records.append(rec)
        if state_stride and (i % state_stride == 0 or i == n_steps):
            traj.states.append(state.replace())
    if not state_stride:
        traj.states.append(state.replace())
    return traj


# a record-to-record change of M above this share of M is flagged as a jump
_JUMP_TOL = 0.10


def monitor(traj: Trajectory) -> dict:
    """A priori growth of M(t) = running sup of the pair norm: M at both ends,
    the largest mean rate (M(t) - M(0)) / t, and the jumps above _JUMP_TOL."""
    t = traj.times
    m = np.array([r.monitor for r in traj.records])
    if len(t) < 2:
        raise ValueError("trajectory too short to monitor")
    dt_pos = t[1:] - t[0]
    growth = (m[1:] - m[0]) / np.where(dt_pos > 0, dt_pos, 1.0)
    jumps = np.abs(np.diff(m)) > _JUMP_TOL * np.maximum(m[:-1], 1e-300)
    return {
        "m0": float(m[0]),
        "m_final": float(m[-1]),
        "max_growth_rate": float(np.max(growth)) if len(growth) else 0.0,
        "jump_flags": int(np.count_nonzero(jumps)),
    }


# -- exact time derivatives (for residual diagnostics) ----------------------


def time_derivatives(state: WaveState) -> dict:
    """Exact spatial-spectral time derivatives of eta, psi, G(eta)psi and B.

    d/dt of G(eta)psi follows from the fixed-bottom shape-derivative
    identity applied along the flow, so no time differencing is involved.
    """
    if not state.geo.fixed_bottom:
        raise GeometryError("time derivatives require a fixed bottom (flat_bottom)")
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
    return {"eta_t": eta_t, "psi_t": psi_t, "g_psi_t": g_psi_t, "b_t": b_t}


# step of the centered flow differences in _symbol_time_derivative
_FLOW_STEP = 1e-5


def _symbol_time_derivative(eta: Field, eta_t: Field):
    """Centered differences of the symmetrizer's p and q along the flow
    direction, with step _FLOW_STEP.

    One :func:`symmetrizer` call on each side serves both symbols.
    """
    plus = symmetrizer(eta + eta_t * _FLOW_STEP)[:2]
    minus = symmetrizer(eta + eta_t * (-_FLOW_STEP))[:2]
    return tuple(Symbol(eta.grid, sym_p.order,
                        (sym_p.principal - sym_m.principal) / (2.0 * _FLOW_STEP),
                        (sym_p.subprincipal - sym_m.subprincipal) / (2.0 * _FLOW_STEP),
                        name=f"dt[{sym_p.name}]")
                 for sym_p, sym_m in zip(plus, minus))


def symmetrized_residuals(state: WaveState) -> dict:
    """The scalar reduction ``phi`` = Phi1 + i Phi2 of the symmetrized system
    and its residual ``f`` = F1 + i F2; the real and imaginary parts of the
    values are exactly the real fields Phi1, Phi2 and F1, F2.

    Uses exact time derivatives of (eta, psi, B) and flow derivatives of the
    symbols p, q, so the result reflects spatial structure only.
    """
    quant = state.quantizer
    der = time_derivatives(state)
    p, q, _ = state.symmetrizer_symbols
    dt_p, dt_q = _symbol_time_derivative(state.eta, der["eta_t"])
    t_p, t_q = quant.operator(p), quant.operator(q)

    u_t = (der["psi_t"]
           - state.t_b(der["eta_t"])
           - quant.quantize(Symbol.from_field(der["b_t"]), state.eta)).real()
    phi1_t = (t_p(der["eta_t"]) + quant.quantize(dt_p, state.eta)).real()
    phi2_t = (t_q(u_t) + quant.quantize(dt_q, state.u_good)).real()

    t_v, t_g = state.t_v, state.t_gamma
    phi1 = t_p(state.eta).real()
    phi2 = t_q(state.u_good).real()
    f1 = (phi1_t + t_v(x_derivative(phi1)) - t_g(phi2)).real()
    f2 = (phi2_t + t_v(x_derivative(phi2)) + t_g(phi1)).real()
    return {"phi": phi1 + phi2 * 1j, "f": f1 + f2 * 1j}
