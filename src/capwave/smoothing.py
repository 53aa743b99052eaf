"""Escape-function construction and the local-smoothing diagnostics.

The escape symbol is assembled from smooth sign cutoffs and the bounded
primitive f(sigma) = int_0^sigma <y>^(-1-delta) dy; its Poisson bracket with
the dispersive principal symbol c(x)|xi|^(3/2) is evaluated in closed form
(the symbol depends on xi only through sgn xi, so the bracket reduces to the
xi-derivative of the dispersive symbol times the exact x-derivative of the
escape function).  The smoothing effect itself is probed through the
weighted time integral of a trajectory and a fitted sharp-lower-bound pair
for the commutator quadratic form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gamma, hyp2f1

from .cutoffs import smooth_step, smooth_step_derivative

from .evolution import WaveState, symmetrized_residuals
from .field import Field, Grid, l2_inner, sobolev_norm, weighted_norm, x_derivative
from .paradiff import Quantizer
from .symbols import Symbol

__all__ = [
    "EscapeSymbol",
    "build_escape",
    "bound_check",
    "kato_integral",
    "garding_fit",
    "af_identity_check",
]


def _phi(y):
    """Increasing C-infinity step: 0 for y <= 1, 1 for y >= 2."""
    return smooth_step(np.asarray(y, dtype=float) - 1.0)


def _phi_prime(y):
    return smooth_step_derivative(np.asarray(y, dtype=float) - 1.0)


@dataclass
class EscapeSymbol:
    """Bounded symbol a(x, sgn xi) with a positive dispersive bracket."""

    delta: float
    eps_doi: float
    grid: Grid

    def __post_init__(self):
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        if not 0 < self.eps_doi < 0.5:
            raise ValueError("eps_doi must lie in (0, 1/2)")
        x = self.grid.x
        self._f_vals = _f_primitive(np.abs(x), self.delta)
        self._f_inf = _f_limit(self.delta)

    # building blocks on the grid, for xi > 0 (odd continuation in sgn xi)
    def blocks(self):
        x = self.grid.x
        bracket_x = np.hypot(1.0, x)  # <x>
        y = x / bracket_x
        eps = self.eps_doi
        psi_p = _phi(y / eps)
        psi_m = _phi(-y / eps)
        psi_0 = 1.0 - psi_p - psi_m
        return {"x": x, "jx": bracket_x, "y": y, "psi0": psi_0,
                "psip": psi_p, "psim": psi_m, "f": self._f_vals}

    def values(self, sign: float = 1.0) -> np.ndarray:
        """Samples of a(x, xi) for the given sgn xi."""
        b = self.blocks()
        a_plus = b["y"] * b["psi0"] \
            + (2.0 * self.eps_doi + b["f"]) * (b["psip"] - b["psim"])
        return np.sign(sign) * a_plus

    def x_derivative(self, sign: float = 1.0) -> np.ndarray:
        """Exact d/dx of the escape function (the weight is not periodic,
        so no spectral differentiation here)."""
        b = self.blocks()
        x, jx, y = b["x"], b["jx"], b["y"]
        eps = self.eps_doi
        yprime = jx**-3.0
        # phi±'(y) = ±(1/eps) phi'(±y/eps) and phi0' = -(phi+' + phi-')
        phip_p = _phi_prime(y / eps) / eps
        phim_p = -_phi_prime(-y / eps) / eps
        phi0p = -(phip_p + phim_p)
        term1 = (b["psi0"] + y * phi0p) * yprime
        fprime = jx ** (-1.0 - self.delta) * np.sign(x)
        term2 = fprime * (b["psip"] - b["psim"])
        term3 = (2.0 * eps + b["f"]) * (phip_p - phim_p) * yprime
        return np.sign(sign) * (term1 + term2 + term3)

    def far_field_limit(self) -> float:
        """Limit of a(x, xi>0) as x -> +infinity."""
        return 2.0 * self.eps_doi + self._f_inf

    def symbol(self) -> Symbol:
        """Paradifferential adapter (order zero, odd in sgn xi)."""
        vals = self.values(1.0)
        return Symbol(self.grid, 0.0, np.stack([vals, -vals], axis=1), name="escape")

    def doi_bracket(self, eta: Field) -> Symbol:
        """The dispersive bracket (3/2) c a_x |xi|^(1/2), c = (1 + eta_x^2)^(-3/4),
        as an order-1/2 symbol even in sgn xi."""
        ex = x_derivative(eta).values.real
        c = (1.0 + ex**2) ** -0.75
        return Symbol(self.grid, 0.5, (1.5 * c * self.x_derivative(1.0))[:, None],
                      name="doi-bracket")


def _f_primitive(sigma: np.ndarray, delta: float) -> np.ndarray:
    """f(sigma) = int_0^sigma <y>^(-1-delta) dy, in closed form
    sigma 2F1(1/2, (1+delta)/2; 3/2; -sigma^2)."""
    sigma = np.asarray(sigma, dtype=float)
    return sigma * hyp2f1(0.5, 0.5 * (1.0 + delta), 1.5, -sigma**2)


def _f_limit(delta: float) -> float:
    """f(infinity) = sqrt(pi) Gamma(delta/2) / (2 Gamma((1+delta)/2))."""
    return float(np.sqrt(np.pi) * gamma(0.5 * delta)
                 / (2.0 * gamma(0.5 * (1.0 + delta))))


def build_escape(delta: float, eps_doi: float, grid: Grid) -> EscapeSymbol:
    return EscapeSymbol(delta, eps_doi, grid)


def bound_check(eta: Field, esc: EscapeSymbol, xi_samples=None) -> dict:
    """Evaluate the dispersive bracket against its weighted lower bound.

    Returns K_measured = min over the (x, xi) sample of
    {c |xi|^(3/2), a} <x>^(1+delta) |xi|^(-1/2) together with the
    term-by-term decomposition checks.  If the minimum is nonpositive the
    partition parameter is halved and the check repeated.
    """
    if xi_samples is None:
        xi_samples = np.concatenate([
            np.geomspace(0.5, max(2.0, esc.grid.xi_max), 50),
            -np.geomspace(0.5, max(2.0, esc.grid.xi_max), 50)])
    ex = x_derivative(eta).values.real
    c = (1.0 + ex**2) ** -0.75
    grid = esc.grid

    attempts = 0
    current = esc
    while True:
        report = _bracket_report(c, current, xi_samples)
        if report["K_measured"] > 0 or attempts >= 8:
            report["eps_doi"] = current.eps_doi
            report["delta"] = current.delta
            report["attempts"] = attempts
            if report["K_measured"] <= 0:
                report["witness"] = report.pop("argmin")
            return report
        attempts += 1
        current = EscapeSymbol(current.delta, current.eps_doi / 2.0, grid)


def _bracket_report(c: np.ndarray, esc: EscapeSymbol, xi_samples) -> dict:
    b = esc.blocks()
    jx, y = b["jx"], b["y"]
    eps = esc.eps_doi
    ax = esc.x_derivative(1.0)
    # bracket for xi > 0 equals (3/2) c |xi|^(1/2) d/dx a; even in sgn xi
    xi = np.asarray(xi_samples, dtype=float)
    root = np.abs(xi) ** 0.5
    bracket = 1.5 * c[:, None] * root[None, :] * ax[:, None]
    weight = (jx ** (1.0 + esc.delta))[:, None] / root[None, :]
    ratio = bracket * weight
    k_measured = float(np.min(ratio))
    argmin = np.unravel_index(np.argmin(ratio), ratio.shape)

    # closed-form decomposition (xi-independent after the |xi|^(1/2) scaling)
    base = 1.5 * c
    i1 = base / jx * b["psi0"]
    i2 = -base * (b["x"] ** 2) * jx**-3.0 * b["psi0"]
    br0 = base * jx**-3.0  # {c, a0/<x>} scaled by |xi|^(-1/2)
    phi_abs = _phi_prime(np.abs(y) / eps) / eps
    i3 = -np.abs(y) * br0 * phi_abs
    i4 = base * jx ** (-1.0 - esc.delta) * (b["psip"] + b["psim"])
    i5 = (2.0 * eps + b["f"]) * br0 * phi_abs
    direct = 1.5 * c * ax
    return {
        "K_measured": k_measured,
        "argmin": (float(esc.grid.x[argmin[0]]), float(xi[argmin[1]])),
        "sum_vs_direct": float(np.max(np.abs(i1 + i2 + i3 + i4 + i5 - direct))),
        "i3_plus_i5_min": float(np.min(i3 + i5)),
        "i1": i1, "i2": i2, "i4": i4,
    }


def kato_integral(traj, s: float, delta: float, omega_cutoff: float | None = None) -> float:
    """Trapezoidal time integral of the weighted smoothing integrand.

    Uses the per-record integrand when (s, delta) match the trajectory
    configuration, otherwise recomputes from stored states.  Flags
    trajectories whose sampling cannot resolve the retained oscillations.
    """
    t = traj.times
    if len(t) < 4:
        raise ValueError("trajectory too short for a time integral")
    dt = np.diff(t)
    if omega_cutoff is not None and np.max(dt) * omega_cutoff > np.pi:
        raise ValueError(
            f"trajectory undersampled: dt*omega = {np.max(dt) * omega_cutoff:.2f} > pi")
    if (s, delta) == (traj.s, traj.delta):
        w = np.array([r.smoothing for r in traj.records])
    else:
        if len(traj.states) != len(traj.records):
            raise ValueError("need stored states to re-weight the integrand")
        w = np.array([
            weighted_norm(st.eta, s + 0.75, delta) ** 2
            + weighted_norm(st.psi, s + 0.25, delta) ** 2
            for st in traj.states])
    return float(np.trapezoid(w, t))


def unweighted_integral(traj, s: float) -> float:
    """Companion quantity int ||eta||_{H^(s+3/4)}^2 dt without the weight."""
    if len(traj.states) != len(traj.records):
        raise ValueError("need stored states for the unweighted integral")
    t = traj.times
    w = np.array([sobolev_norm(st.eta, s + 0.75) ** 2 for st in traj.states])
    return float(np.trapezoid(w, t))


def garding_fit(d_symbol: Symbol, delta: float, samples, quantizer: Quantizer) -> dict:
    """Fit the sharp constants in <T_d u, u> >= a ||<x>^(-1/2-delta) u||_{H^1/4}^2 - A ||u||^2.

    Over the sample family the largest feasible ``a`` is computed subject to
    a capped lower-order constant, then the smallest ``A`` realizing it.
    """
    xi = np.array([1.0, 2.0, 4.0, -1.0, -2.0])
    vals = d_symbol.total_at(xi).real
    bound = (np.hypot(1.0, quantizer.grid.x) ** (-1.0 - 2.0 * delta))[:, None] \
        * (np.abs(xi) ** 0.5)[None, :]
    if np.min(vals / bound) <= 0:
        raise ValueError("d does not satisfy the weighted lower bound")
    op = quantizer.operator(d_symbol)
    q_vals, w_vals, n_vals = [], [], []
    for u in samples:
        q_vals.append(l2_inner(op(u), u).real)
        w_vals.append(weighted_norm(u, 0.25, delta) ** 2)
        n_vals.append(sobolev_norm(u, 0.0) ** 2)
    q_vals = np.array(q_vals)
    w_vals = np.array(w_vals)
    n_vals = np.array(n_vals)
    a_cap = 10.0 * max(np.max(np.abs(q_vals) / n_vals), 1e-12)
    a_fit = float(np.min((q_vals + a_cap * n_vals) / w_vals))
    big_a = float(max(0.0, np.max((a_fit * w_vals - q_vals) / n_vals)))
    report = {"a": a_fit, "A": big_a, "samples": len(q_vals), "A_cap": a_cap}
    if a_fit <= 0:
        worst = int(np.argmin((q_vals + a_cap * n_vals) / w_vals))
        report["witness"] = worst
    return report


def af_identity_check(states: list[WaveState], esc: EscapeSymbol) -> dict:
    """A posteriori energy identity for the scalar reduction.

    Integrates d/dt <T_a Phi, Phi> along the sampled trajectory and compares
    with the commutator + boundary decomposition evaluated with exact matrix
    adjoints; the defect is pure time-quadrature error.  Also reports the
    coercive commutator integral against the data bound.
    """
    if len(states) < 3:
        raise ValueError("need at least three sampled states")
    grid = states[0].grid
    quant = states[0].quantizer
    t_a = quant.operator(esc.symbol())
    times, pairing, rhs_terms, coercive = [], [], [], []
    phi_norms, f_norms = [], []
    for st in states:
        # the complex scalar reduction Phi = Phi1 + i Phi2 and its residual
        res = symmetrized_residuals(st)
        phi, f_res = res["phi"], res["f"]
        t_g = quant.operator(st.symmetrizer_symbols[2])
        t_v = st.t_v
        c_op_phi = (t_g(t_a(phi)) - t_a(t_g(phi))) * 1j
        term_c = l2_inner(c_op_phi, phi).real
        adj_defect = l2_inner((t_g.adjoint()(t_a(phi)) - t_g(t_a(phi))) * 1j, phi).real
        # transport with the exact adjoint of T_V (the approximate identity
        # T_V* ~ T_V holds only modulo order 0 and would leave a systematic
        # defect in an exact bookkeeping)
        transport = (l2_inner(x_derivative(t_v.adjoint()(t_a(phi))), phi).real
                     - l2_inner(t_a(t_v(x_derivative(phi))), phi).real)
        forcing = (l2_inner(t_a(f_res), phi) + l2_inner(t_a(phi), f_res)).real
        times.append(st.t)
        pairing.append(l2_inner(t_a(phi), phi).real)
        rhs_terms.append(term_c + adj_defect + transport + forcing)
        coercive.append(term_c)
        phi_norms.append(sobolev_norm(phi, 0.0) ** 2)
        f_norms.append(sobolev_norm(f_res, 0.0) ** 2)
    times = np.array(times)
    lhs = pairing[-1] - pairing[0]
    rhs = float(np.trapezoid(rhs_terms, times))
    coercive_int = float(np.trapezoid(coercive, times))
    data_bound = (phi_norms[0] + phi_norms[-1]
                  + float(np.trapezoid(np.array(phi_norms) + np.array(f_norms), times)))
    return {
        "lhs": float(lhs),
        "rhs": rhs,
        "defect": float(abs(lhs - rhs)),
        "coercive_integral": coercive_int,
        "data_bound": float(data_bound),
        "bound_ratio": float(abs(coercive_int) / max(data_bound, 1e-300)),
    }
