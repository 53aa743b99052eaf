"""Symbols of the water-wave calculus as explicit functions of (x, xi).

A symbol is stored as callables evaluated on the full spatial grid: a part
maps an array of frequencies (m,) to samples of shape (n, m).  Parts carry
their exact xi-derivative whenever the construction provides one; a centered
difference with relative step 1e-3 in log|xi| is the fallback.  Spatial
derivatives of sampled parts are spectral.

All constructions are written from the general-dimension formulas
specialized to one dimension, where the Dirichlet-Neumann principal symbol
collapses to |xi| and its sub-principal part vanishes identically.
"""

from __future__ import annotations

import numpy as np

from .field import Field, Grid, spectral_derivative, x_derivative

__all__ = [
    "Symbol",
    "dn_symbol",
    "curvature_symbol",
    "symmetrizer",
    "parametrix",
    "factorization",
    "mollifier_symbol",
    "elliptic_weight",
    "seminorm",
    "poisson_bracket",
    "SamplingError",
]

_FD_STEP = 1e-3  # relative step in log|xi| for fallback xi-differences


class SamplingError(ValueError):
    """Not enough samples to evaluate the requested quantity."""


def _complex_rows(values: np.ndarray) -> list:
    arr = np.asarray(values, dtype=complex)
    return [[[v.real, v.imag] for v in row] for row in arr]


def _as_xi_array(xi):
    return np.atleast_1d(np.asarray(xi, dtype=float))


def eval_part(part, xi):
    """Evaluate a part on frequencies, forcing the xi = 0 column to zero."""
    xi = _as_xi_array(xi)
    safe = np.where(xi == 0.0, 1.0, xi)
    out = np.asarray(part(safe))
    if np.any(xi == 0.0):
        out = out.astype(complex) if np.iscomplexobj(out) else out.copy()
        out[:, xi == 0.0] = 0.0
    return out


def numeric_dxi(part):
    """Centered xi-difference of a part, relative step in log|xi|."""

    def dxi(xi):
        xi = _as_xi_array(xi)
        hi = part(xi * (1.0 + _FD_STEP))
        lo = part(xi * (1.0 - _FD_STEP))
        return (hi - lo) / (2.0 * _FD_STEP * xi)[None, :]

    return dxi


def _memo_part(fn):
    """Small per-part cache; symbol closures form deep evaluation trees and
    the quantizer re-evaluates them on the same frequency arrays."""
    cache: dict = {}

    def wrapped(xi):
        xi = _as_xi_array(xi)
        key = (xi.shape[0], hash(xi.tobytes()))
        hit = cache.get(key)
        if hit is None:
            hit = fn(xi)
            if len(cache) > 8:
                cache.clear()
            cache[key] = hit
        return hit

    return wrapped


class Symbol:
    """Poly-homogeneous symbol: principal part plus optional sub-principal.

    ``homogeneous`` declares that the principal part is positively
    homogeneous of degree ``order`` in xi and the sub-principal part of
    degree ``order - 1``; the quantizer then builds the symbol from its
    traces at xi = +-1.  Declare any other symbol ``homogeneous=False``.
    """

    def __init__(self, grid, order, principal, subprincipal=None,
                 dxi_principal=None, dxi_subprincipal=None,
                 homogeneous=True, name=""):
        self.grid = grid
        self.order = float(order)
        self.principal = _memo_part(principal)
        self.subprincipal = _memo_part(subprincipal) if subprincipal is not None else None
        self.dxi_principal = _memo_part(dxi_principal or numeric_dxi(self.principal))
        if self.subprincipal is not None and dxi_subprincipal is None:
            dxi_subprincipal = numeric_dxi(self.subprincipal)
        self.dxi_subprincipal = (
            _memo_part(dxi_subprincipal) if dxi_subprincipal is not None else None)
        self.homogeneous = homogeneous
        self.name = name
        self._grid_sample = None

    def principal_at(self, xi):
        return eval_part(self.principal, xi)

    def subprincipal_at(self, xi):
        if self.subprincipal is None:
            xi = _as_xi_array(xi)
            return np.zeros((self.grid.n, xi.size))
        return eval_part(self.subprincipal, xi)

    def total_at(self, xi):
        out = self.principal_at(xi)
        if self.subprincipal is not None:
            out = out + self.subprincipal_at(xi)
        return out

    def sample_grid(self) -> np.ndarray:
        """Total symbol on (grid x) x (grid xi), cached."""
        if self._grid_sample is None:
            self._grid_sample = self.total_at(self.grid.xi)
        return self._grid_sample

    # -- structural checks -------------------------------------------------
    def homogeneity_defect(self, radii=(1.0, 2.0)) -> float:
        """Max relative defect of degree-``order`` homogeneity on test rays."""
        if not self.homogeneous:
            raise ValueError(f"symbol {self.name!r} is not declared homogeneous")
        worst = 0.0
        for r in radii:
            for sign in (1.0, -1.0):
                base = self.principal_at(np.array([sign * r]))
                double = self.principal_at(np.array([sign * 2 * r]))
                scale = np.max(np.abs(double))
                if scale == 0:
                    continue
                defect = np.max(np.abs(double - 2.0**self.order * base)) / scale
                worst = max(worst, float(defect))
        return worst

    def reality_defect(self, xi_samples=None) -> float:
        """Max |conj a(x, xi) - a(x, -xi)| over samples (real-to-real test)."""
        if xi_samples is None:
            xi_samples = np.array([0.5, 1.0, 2.0, 5.0])
        a_pos = self.total_at(xi_samples)
        a_neg = self.total_at(-xi_samples)
        scale = max(np.max(np.abs(a_pos)), 1e-300)
        return float(np.max(np.abs(np.conj(a_pos) - a_neg)) / scale)

    def __repr__(self):
        return f"Symbol({self.name or 'anonymous'}, order={self.order:g})"

    def to_json(self, xi=None) -> dict:
        """JSON tensor of the sampled symbol (grid frequencies by default)."""
        xi = self.grid.xi if xi is None else np.asarray(xi, dtype=float)
        principal = self.principal_at(xi)
        record = {
            "order": self.order,
            "name": self.name,
            "x": [float(v) for v in self.grid.x],
            "xi": [float(v) for v in xi],
            "principal": _complex_rows(principal),
        }
        if self.subprincipal is not None:
            record["subprincipal"] = _complex_rows(self.subprincipal_at(xi))
        return record

    # -- constructors -------------------------------------------------------
    @classmethod
    def from_field(cls, field: Field, name="") -> "Symbol":
        """Order-zero paraproduct symbol a(x) with no xi dependence."""
        vals = field.values

        def principal(xi):
            xi = _as_xi_array(xi)
            return np.repeat(vals[:, None], xi.size, axis=1)

        def dxi(xi):
            xi = _as_xi_array(xi)
            return np.zeros((field.grid.n, xi.size))

        return cls(field.grid, 0.0, principal, dxi_principal=dxi,
                   homogeneous=True, name=name or "paraproduct")

    @classmethod
    def from_multiplier(cls, grid: Grid, order, fn, dfn=None, name="") -> "Symbol":
        """x-independent symbol a(xi)."""

        def principal(xi):
            xi = _as_xi_array(xi)
            return np.repeat(np.asarray(fn(xi))[None, :], grid.n, axis=0)

        dxi = None
        if dfn is not None:
            def dxi(xi):  # noqa: E306
                xi = _as_xi_array(xi)
                return np.repeat(np.asarray(dfn(xi))[None, :], grid.n, axis=0)

        return cls(grid, order, principal, dxi_principal=dxi, name=name)


def _slope_fields(eta: Field):
    ex1 = x_derivative(eta).values.real
    ex2 = x_derivative(eta, 2).values.real
    return ex1[:, None], ex2[:, None]


def dn_symbol(eta: Field) -> Symbol:
    """Dirichlet-Neumann symbol, principal + sub-principal parts.

    Written from the general formulas; in one dimension the principal part
    equals |xi| and the sub-principal part cancels to zero identically.
    """
    grid = eta.grid
    e1, _ = _slope_fields(eta)
    w = 1.0 + e1**2

    def lam1(xi):
        xi = _as_xi_array(xi)[None, :]
        return np.sqrt(w * xi**2 - (e1 * xi) ** 2)

    def dxi_lam1(xi):
        xi = _as_xi_array(xi)[None, :]
        return (w * xi - e1**2 * xi) / np.sqrt(w * xi**2 - (e1 * xi) ** 2)

    def alpha1(xi):
        xi = _as_xi_array(xi)[None, :]
        return (lam1(xi[0]) + 1j * e1 * xi) / w

    def lam0(xi):
        xi = _as_xi_array(xi)
        a1 = alpha1(xi)
        div_term = spectral_derivative(a1 * e1, grid.xi, axis=0)
        grad_term = 1j * dxi_lam1(xi) * spectral_derivative(a1, grid.xi, axis=0)
        return (w / (2.0 * lam1(xi))) * (div_term + grad_term)

    return Symbol(grid, 1.0, lam1, subprincipal=lam0, dxi_principal=dxi_lam1,
                  name="dn")


def curvature_symbol(eta: Field) -> Symbol:
    """Paralinearized mean-curvature symbol h = h2 + h1."""
    grid = eta.grid
    e1, _ = _slope_fields(eta)
    w = 1.0 + e1**2

    def h2(xi):
        xi = _as_xi_array(xi)[None, :]
        return w**-0.5 * (xi**2 - (e1 * xi) ** 2 / w)

    def dxi_h2(xi):
        xi = _as_xi_array(xi)[None, :]
        return w**-0.5 * (2.0 * xi - 2.0 * e1**2 * xi / w)

    def h1(xi):
        xi = _as_xi_array(xi)
        return -0.5j * spectral_derivative(dxi_h2(xi), grid.xi, axis=0)

    return Symbol(grid, 2.0, h2, subprincipal=h1, dxi_principal=dxi_h2,
                  name="curvature")


def symmetrizer(eta: Field) -> tuple[Symbol, Symbol, Symbol]:
    """Symbols (p, q, gamma) conjugating the linearized system to skew form.

    gamma^(3/2) = sqrt(h^(2) lambda^(1)) and Im gamma^(1/2) is fixed by the
    self-adjointness constraint.  The zeroth/half-order amplitudes are the
    compatible pair q^(0) = (1+eta_x^2)^(1/4), p^(1/2) = q^(0) c sqrt(lambda),
    the unique xi-independent q making the two conjugation identities hold
    simultaneously at both retained orders.
    """
    grid = eta.grid
    lam = dn_symbol(eta)
    curv = curvature_symbol(eta)
    e1, _ = _slope_fields(eta)
    c = (1.0 + e1**2) ** -0.75
    q0 = c ** (-1.0 / 3.0)  # = (1 + eta_x^2)^(1/4)

    def g32(xi):
        return np.sqrt(curv.principal(xi) * lam.principal(xi))

    def dxi_g32(xi):
        num = (curv.dxi_principal(xi) * lam.principal(xi)
               + curv.principal(xi) * lam.dxi_principal(xi))
        return num / (2.0 * g32(xi))

    def g12(xi):
        xi = _as_xi_array(xi)
        re = np.sqrt(curv.principal(xi) / lam.principal(xi)) \
            * np.real(lam.subprincipal_at(xi)) / 2.0
        im = -0.5 * spectral_derivative(dxi_g32(xi), grid.xi, axis=0)
        return re + 1j * im

    def q_part(xi):
        xi = _as_xi_array(xi)
        return np.repeat(q0, xi.size, axis=1)

    def q_dxi(xi):
        xi = _as_xi_array(xi)
        return np.zeros((grid.n, xi.size))

    def p12(xi):
        return q0 * g32(xi) / lam.principal(xi)

    def dxi_p12(xi):
        return q0 * (dxi_g32(xi) * lam.principal(xi)
                     - g32(xi) * lam.dxi_principal(xi)) / lam.principal(xi) ** 2

    def pm12(xi):
        xi = _as_xi_array(xi)
        term = (q0 * curv.subprincipal_at(xi)
                - g12(xi) * p12(xi)
                + 1j * dxi_g32(xi) * spectral_derivative(p12(xi), grid.xi, axis=0))
        return term / g32(xi)

    q_sym = Symbol(grid, 0.0, q_part, dxi_principal=q_dxi, name="q")
    p_sym = Symbol(grid, 0.5, p12, subprincipal=pm12, dxi_principal=dxi_p12,
                   name="p")
    g_sym = Symbol(grid, 1.5, g32, subprincipal=g12, dxi_principal=dxi_g32,
                   name="gamma")
    return p_sym, q_sym, g_sym


def parametrix(eta: Field, p: Symbol) -> Symbol:
    """Two-term right parametrix of p: principal 1/p^(1/2) plus correction."""
    grid = eta.grid
    ray = p.principal_at(np.array([1.0, -1.0]))
    if np.min(ray.real) <= 0:
        raise ValueError("parametrix requires an elliptic p (min p^(1/2) > 0)")

    def wm12(xi):
        return 1.0 / p.principal(xi)

    def dxi_wm12(xi):
        return -p.dxi_principal(xi) / p.principal(xi) ** 2

    def wm32(xi):
        xi = _as_xi_array(xi)
        inner = (wm12(xi) * p.subprincipal_at(xi)
                 + (1.0 / 1j) * dxi_wm12(xi)
                 * spectral_derivative(p.principal(xi), grid.xi, axis=0))
        return -inner / p.principal(xi)

    return Symbol(grid, -0.5, wm12, subprincipal=wm32, dxi_principal=dxi_wm12,
                  name="parametrix")


def factorization(eta: Field, geo) -> tuple[Symbol, Symbol]:
    """Symbols (a, A) factoring the strip operator into elliptic evolutions.

    Built from the strip coefficients alpha = (1+eta_x^2)/h^2,
    beta = -2 eta_x / h, gamma = eta_xx / h.
    """
    grid = eta.grid
    h = geo.depth
    e1, e2 = _slope_fields(eta)
    al = (1.0 + e1**2) / h**2
    be = -2.0 * e1 / h
    ga = e2 / h
    if np.min(al) <= 0:
        raise ValueError("factorization requires alpha > 0")

    def disc(xi):
        xi = _as_xi_array(xi)[None, :]
        return np.sqrt(4.0 * al * xi**2 - (be * xi) ** 2)

    def dxi_disc(xi):
        xi = _as_xi_array(xi)[None, :]
        return (4.0 * al * xi - be**2 * xi) / disc(xi[0])

    def a1(xi):
        xi_r = _as_xi_array(xi)[None, :]
        return (-1j * be * xi_r - disc(xi)) / (2.0 * al)

    def A1(xi):
        xi_r = _as_xi_array(xi)[None, :]
        return (-1j * be * xi_r + disc(xi)) / (2.0 * al)

    def dxi_a1(xi):
        return (-1j * be - dxi_disc(xi)) / (2.0 * al)

    def dxi_A1(xi):
        return (-1j * be + dxi_disc(xi)) / (2.0 * al)

    def cross(xi):
        return 1j * dxi_a1(xi) * spectral_derivative(A1(xi), grid.xi, axis=0)

    def a0(xi):
        return (cross(xi) - (ga / al) * a1(xi)) / (A1(xi) - a1(xi))

    def A0(xi):
        return (cross(xi) - (ga / al) * A1(xi)) / (a1(xi) - A1(xi))

    a_sym = Symbol(grid, 1.0, a1, subprincipal=a0, dxi_principal=dxi_a1,
                   name="a")
    A_sym = Symbol(grid, 1.0, A1, subprincipal=A0, dxi_principal=dxi_A1,
                   name="A")
    return a_sym, A_sym


def mollifier_symbol(eta: Field, eps: float, gamma: Symbol | None = None) -> Symbol:
    """Regularizing symbol exp(-eps gamma^(3/2)) with its adjoint correction."""
    if eps < 0:
        raise ValueError("mollifier strength must be nonnegative")
    grid = eta.grid
    gam = gamma if gamma is not None else symmetrizer(eta)[2]

    def j0(xi):
        return np.exp(-eps * gam.principal(xi).real)

    def dxi_j0(xi):
        return -eps * gam.dxi_principal(xi).real * j0(xi)

    def jm1(xi):
        xi = _as_xi_array(xi)
        return -0.5j * spectral_derivative(dxi_j0(xi), grid.xi, axis=0)

    return Symbol(grid, 0.0, j0, subprincipal=jm1, dxi_principal=dxi_j0,
                  homogeneous=False, name=f"mollifier(eps={eps:g})")


def elliptic_weight(eta: Field, s: float) -> Symbol:
    """Order-s weight (gamma^(3/2))^(2s/3); commutes with gamma at bracket level."""
    grid = eta.grid
    _, _, gam = symmetrizer(eta)
    expo = 2.0 * s / 3.0

    def beta(xi):
        g = gam.principal(xi).real
        if np.min(g) <= 0:
            raise ValueError("elliptic weight requires gamma^(3/2) > 0")
        return g**expo

    def dxi_beta(xi):
        g = gam.principal(xi).real
        return expo * g ** (expo - 1.0) * gam.dxi_principal(xi).real

    return Symbol(grid, s, beta, dxi_principal=dxi_beta, name=f"weight(s={s:g})")


def poisson_bracket(f: Symbol, g: Symbol, which: str = "principal") -> Symbol:
    """{f, g} = dxi(f) dx(g) - dx(f) dxi(g) of the selected parts."""
    if f.grid != g.grid:
        raise ValueError("grid mismatch")
    grid = f.grid
    f_part = f.principal if which == "principal" else (lambda xi: f.total_at(xi))
    g_part = g.principal if which == "principal" else (lambda xi: g.total_at(xi))
    f_dxi = f.dxi_principal if which == "principal" else numeric_dxi(f_part)
    g_dxi = g.dxi_principal if which == "principal" else numeric_dxi(g_part)

    def bracket(xi):
        xi = _as_xi_array(xi)
        return (f_dxi(xi) * spectral_derivative(g_part(xi), grid.xi, axis=0)
                - spectral_derivative(f_part(xi), grid.xi, axis=0) * g_dxi(xi))

    return Symbol(grid, f.order + g.order - 1.0, bracket,
                  homogeneous=f.homogeneous and g.homogeneous,
                  name=f"{{{f.name},{g.name}}}")


def seminorm(a: Symbol, m: float, rho: float, xi_samples: int = 48) -> float:
    """Discrete symbol seminorm: sup over |xi| >= 1/2 of the weighted
    W^(rho,infty) size of the first few xi-derivatives.

    In one dimension derivatives up to |alpha| <= 3/2 + rho are taken;
    fractional Hoelder parts are approximated by grid difference quotients
    and reported as such.
    """
    if rho not in (0.0, 0.5, 1.0, 1.5):
        raise ValueError("rho must be one of {0, 1/2, 1, 3/2}")
    grid = a.grid
    n_alpha = int(np.floor(1.5 + rho))
    ximax = grid.xi_max
    if ximax < 2.0 or xi_samples < 8:
        raise SamplingError("too few xi samples above |xi| = 1/2")
    mags = np.geomspace(0.5, ximax, xi_samples)
    xi = np.concatenate([mags, -mags, [1.0, 2.0, -1.0, -2.0]])

    def total(z):
        return a.total_at(z)

    parts = [total(xi)]
    d1 = a.dxi_principal(xi)
    if a.dxi_subprincipal is not None:
        d1 = d1 + a.dxi_subprincipal(xi)
    elif a.subprincipal is not None:
        d1 = d1 + numeric_dxi(a.subprincipal)(xi)
    parts.append(d1)
    prev = lambda z: a.dxi_principal(z) + (  # noqa: E731
        a.dxi_subprincipal(z) if a.dxi_subprincipal is not None
        else (numeric_dxi(a.subprincipal)(z) if a.subprincipal is not None else 0.0))
    for _ in range(2, n_alpha + 1):
        cur = numeric_dxi(prev)
        parts.append(cur(xi))
        prev = cur

    worst = 0.0
    for alpha, vals in enumerate(parts):
        weight = (1.0 + np.abs(xi)) ** (alpha - m)
        wv = weight[None, :] * vals
        worst = max(worst, _w_rho_infty(grid, wv, rho))
    return float(worst)


def _w_rho_infty(grid: Grid, samples: np.ndarray, rho: float) -> float:
    out = float(np.max(np.abs(samples)))
    k = int(np.floor(rho))
    cur = samples
    for _ in range(k):
        cur = spectral_derivative(cur, grid.xi, axis=0)
        out = max(out, float(np.max(np.abs(cur))))
    frac = rho - k
    if frac > 0:
        out = max(out, _holder_quotient(grid, cur, frac))
    return out


def _holder_quotient(grid: Grid, samples: np.ndarray, sigma: float) -> float:
    # sup over grid pairs of |f(x) - f(y)| / dist(x, y)^sigma, periodic metric
    x = grid.x
    diff = np.abs(x[:, None] - x[None, :])
    dist = np.minimum(diff, grid.length - diff)
    np.fill_diagonal(dist, 1.0)
    worst = 0.0
    for col in range(samples.shape[1]):
        f = samples[:, col]
        quot = np.abs(f[:, None] - f[None, :]) / dist**sigma
        np.fill_diagonal(quot, 0.0)
        worst = max(worst, float(np.max(quot)))
    return worst
