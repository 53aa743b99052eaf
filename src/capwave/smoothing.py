"""Escape-function construction and the local-smoothing diagnostics.

The escape symbol is assembled from smooth sign cutoffs and the bounded
primitive f(sigma) = int_0^sigma <y>^(-1-delta) dy; its Poisson bracket with
the dispersive principal symbol c(x)|xi|^(3/2) is evaluated in closed form
(the symbol depends on xi only through sgn xi, so the bracket reduces to the
xi-derivative of the dispersive symbol times the exact x-derivative of the
escape function).  The smoothing effect itself is probed through the
weighted time integral of a trajectory and a fitted sharp-lower-bound pair
for the commutator quadratic form.

The Doi bound is evaluated once, for the escape symbol it is given, with no
retry at another partition parameter: every term of the bracket is
nonnegative and psi_0 + psi_+ + psi_- = 1, so K > 0 for every partition
parameter in (0, 1/2), and a K <= 0 is a defect that the report shows.  The
parameter is the constant EPS_DOI.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cutoffs import smooth_step, smooth_step_derivative

from .evolution import WaveState, symmetrized_residuals
from .field import Field, Grid, l2_inner, sobolev_norm, spatial_weight, weighted_norm, \
    x_derivative
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

# the fewest trajectory records kato_integral integrates
KATO_MIN_RECORDS = 4
# the partition parameter of the escape function's sign cutoffs, in (0, 1/2)
EPS_DOI = 0.05

# 20-point Gauss-Legendre rule on [0, 1], for _f_primitive's unit panels
_PANEL_NODES, _PANEL_WEIGHTS = np.polynomial.legendre.leggauss(20)
_PANEL_NODES = 0.5 * (_PANEL_NODES + 1.0)
_PANEL_WEIGHTS = 0.5 * _PANEL_WEIGHTS


def _phi(y):
    """Increasing C-infinity step: 0 for y <= 1, 1 for y >= 2."""
    return smooth_step(np.asarray(y, dtype=float) - 1.0)


def _phi_prime(y):
    return smooth_step_derivative(np.asarray(y, dtype=float) - 1.0)


@dataclass
class EscapeSymbol:
    """Bounded symbol a(x, sgn xi) with a positive dispersive bracket."""

    delta: float
    grid: Grid

    def __post_init__(self):
        if not 0 < self.delta < np.inf:  # NaN fails too
            raise ValueError(f"delta must be positive and finite, got {self.delta}")
        self._f_vals = _f_primitive(np.abs(self.grid.x), self.delta)

    # building blocks on the grid, for xi > 0 (odd continuation in sgn xi)
    def blocks(self):
        x = self.grid.x
        bracket_x = np.hypot(1.0, x)  # <x>
        y = x / bracket_x
        psi_p = _phi(y / EPS_DOI)
        psi_m = _phi(-y / EPS_DOI)
        psi_0 = 1.0 - psi_p - psi_m
        return {"x": x, "jx": bracket_x, "y": y, "psi0": psi_0,
                "psip": psi_p, "psim": psi_m, "f": self._f_vals}

    def values(self) -> np.ndarray:
        """Samples of a(x, xi) for xi > 0."""
        b = self.blocks()
        return b["y"] * b["psi0"] + (2.0 * EPS_DOI + b["f"]) * (b["psip"] - b["psim"])

    def x_derivative(self) -> np.ndarray:
        """Exact d/dx of the escape function for xi > 0 (the weight is not
        periodic, so no spectral differentiation here)."""
        b = self.blocks()
        x, jx, y = b["x"], b["jx"], b["y"]
        eps = EPS_DOI
        yprime = jx**-3.0
        # phi±'(y) = ±(1/eps) phi'(±y/eps) and phi0' = -(phi+' + phi-')
        phip_p = _phi_prime(y / eps) / eps
        phim_p = -_phi_prime(-y / eps) / eps
        phi0p = -(phip_p + phim_p)
        term1 = (b["psi0"] + y * phi0p) * yprime
        fprime = jx ** (-1.0 - self.delta) * np.sign(x)
        term2 = fprime * (b["psip"] - b["psim"])
        term3 = (2.0 * eps + b["f"]) * (phip_p - phim_p) * yprime
        return term1 + term2 + term3

    def symbol(self) -> Symbol:
        """Paradifferential adapter (order zero, odd in sgn xi)."""
        vals = self.values()
        return Symbol(self.grid, 0.0, np.stack([vals, -vals], axis=1), name="escape")

    def doi_bracket(self, eta: Field) -> Symbol:
        """The dispersive bracket (3/2) c a_x |xi|^(1/2), c = (1 + eta_x^2)^(-3/4),
        as an order-1/2 symbol even in sgn xi."""
        ex = x_derivative(eta).values.real
        c = (1.0 + ex**2) ** -0.75
        return Symbol(self.grid, 0.5, (1.5 * c * self.x_derivative())[:, None],
                      name="doi-bracket")


def _f_primitive(sigma: np.ndarray, delta: float) -> np.ndarray:
    """f(sigma) = int_0^sigma <y>^(-1-delta) dy for sigma >= 0.

    With y = sinh u, f(sigma) = int_0^asinh(sigma) cosh(u)^(-delta) du.  The
    integrand is analytic in the strip |Im u| < pi/2, so Gauss-Legendre on
    unit-width panels in u converges geometrically: the whole panels below
    asinh(sigma) are summed once and shared, the partial panel is one rule
    per point.  Equals sigma 2F1(1/2, (1+delta)/2; 3/2; -sigma^2) to rounding.
    """
    u = np.arcsinh(np.asarray(sigma, dtype=float))
    whole = np.floor(u)
    panels = np.arange(np.max(whole, initial=0.0))[:, None] + _PANEL_NODES
    below = np.concatenate(([0.0], np.cumsum(np.cosh(panels) ** -delta @ _PANEL_WEIGHTS)))
    rest = u - whole
    partial = np.cosh(whole[..., None] + rest[..., None] * _PANEL_NODES) ** -delta
    return below[whole.astype(np.intp)] + rest * (partial @ _PANEL_WEIGHTS)


def build_escape(delta: float, grid: Grid) -> EscapeSymbol:
    return EscapeSymbol(delta, grid)


def bound_check(eta: Field, esc: EscapeSymbol) -> dict:
    """Evaluate the dispersive bracket against its weighted lower bound.

    Returns K_measured = min over the grid of
    {c |xi|^(3/2), a} <x>^(1+delta) |xi|^(-1/2), which does not depend on
    xi: the bracket scales as |xi|^(1/2), even in sgn xi.  With it come the
    term-by-term decomposition checks of ``bracket`` = ``esc.doi_bracket(eta)``,
    evaluated once for ``esc`` at EPS_DOI, and the closed-form terms ``i1``
    and ``i4``.
    """
    ex = x_derivative(eta).values.real
    c = (1.0 + ex**2) ** -0.75
    b = esc.blocks()
    jx, y = b["jx"], b["y"]
    eps = EPS_DOI
    # the bracket (3/2) c |xi|^(1/2) d/dx a over |xi|^(1/2)
    bracket = esc.doi_bracket(eta)
    direct = bracket.principal[:, 0]
    ratio = direct * jx ** (1.0 + esc.delta)

    # closed-form decomposition (xi-independent after the |xi|^(1/2) scaling)
    base = 1.5 * c
    i1 = base / jx * b["psi0"]
    i2 = -base * (b["x"] ** 2) * jx**-3.0 * b["psi0"]
    br0 = base * jx**-3.0  # {c, a0/<x>} scaled by |xi|^(-1/2)
    phi_abs = _phi_prime(np.abs(y) / eps) / eps
    i3 = -np.abs(y) * br0 * phi_abs
    i4 = base * jx ** (-1.0 - esc.delta) * (b["psip"] + b["psim"])
    i5 = (2.0 * eps + b["f"]) * br0 * phi_abs
    return {
        "K_measured": float(np.min(ratio)),
        "sum_vs_direct": float(np.max(np.abs(i1 + i2 + i3 + i4 + i5 - direct))),
        "i3_plus_i5_min": float(np.min(i3 + i5)),
        "i1": i1, "i4": i4,
        "bracket": bracket,
    }


def _record_integral(traj, integrand: str) -> float:
    """Trapezoidal time integral of one integrand that every record carries."""
    t = traj.times
    if len(t) < KATO_MIN_RECORDS:
        raise ValueError("trajectory too short for a time integral")
    return float(np.trapezoid([getattr(r, integrand) for r in traj.records], t))


def kato_integral(traj) -> float:
    """int w(t) dt of the weighted integrand the records carry, at the run's (s, delta)."""
    return _record_integral(traj, "smoothing")


def unweighted_integral(traj) -> float:
    """Companion int ||eta||_{H^(s+3/4)}^2 dt without the weight, from the records alone."""
    return _record_integral(traj, "unweighted")


def garding_fit(d_symbol: Symbol, delta: float, samples, quantizer: Quantizer) -> dict:
    """Fit the sharp constants in <T_d u, u> >= a ||<x>^(-1/2-delta) u||_{H^1/4}^2 - A ||u||^2.

    Over the sample family the largest feasible ``a`` is computed subject to
    a capped lower-order constant, then the smallest ``A`` realizing it.
    """
    xi = np.array([1.0, 2.0, 4.0, -1.0, -2.0])
    vals = d_symbol.total_at(xi).real
    bound = (spatial_weight(quantizer.grid, delta) ** 2)[:, None] \
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
    report = {"a": a_fit, "A": big_a}
    if a_fit <= 0:
        worst = int(np.argmin((q_vals + a_cap * n_vals) / w_vals))
        report["witness"] = worst
    return report


def af_identity_check(states: list[WaveState], esc: EscapeSymbol) -> dict:
    """A posteriori energy identity for the scalar reduction.

    Integrates d/dt <T_a Phi, Phi> along the sampled trajectory and compares
    with the commutator + boundary decomposition evaluated with exact matrix
    adjoints; the defect is pure time-quadrature error.  Also reports the
    ratio of the coercive commutator integral to the data bound.
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
        t_g, t_v = st.t_gamma, st.t_v
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
        "defect": float(abs(lhs - rhs)),
        "bound_ratio": float(abs(coercive_int) / max(data_bound, 1e-300)),
    }
