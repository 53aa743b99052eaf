"""Symbols of the water-wave calculus as x-traces.

In one dimension each part of every symbol the paralinearization uses is
a_(sgn xi)(x) |xi|^m, fixed by an order m and its two x-traces a_+ and a_-
at xi = +1 and xi = -1.  A :class:`Symbol` stores them as an (n, 2) array,
column 0 at xi = +1 and column 1 at xi = -1: the principal part of order m
and, optionally, the sub-principal part of order m - 1.  Evaluation is
closed form, a_(sgn xi)|xi|^m with xi-derivative +-m a_(+-)|xi|^(m-1), and
the xi = 0 column is zero.  Constructors build the traces pointwise, with
spectral x-derivatives.

The mollifier exp(-eps gamma^(3/2)) is not homogeneous.  A
:class:`Mollifier` is built from gamma's principal traces and evaluated on
any set of frequencies; the quantizer gathers its full (x, xi) sample.

All constructions are written from the general-dimension formulas
specialized to one dimension, where the Dirichlet-Neumann principal symbol
collapses to |xi| and its sub-principal part vanishes identically.
"""

from __future__ import annotations

import numpy as np

from .field import Field, Grid, spectral_derivative, x_derivative

__all__ = [
    "Symbol",
    "Mollifier",
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

# sgn xi of the two trace columns
SIGNS = np.array([1.0, -1.0])


class SamplingError(ValueError):
    """Not enough samples to evaluate the requested quantity."""


def _homogeneous_at(traces, order, xi, derivatives=0):
    """dxi^derivatives of a_(sgn xi)(x)|xi|^order on frequencies xi, shape (n, len(xi)).

    The xi = 0 column is zero.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    absxi = np.where(xi == 0.0, 1.0, np.abs(xi))
    power = np.prod(order - np.arange(derivatives)) * np.sign(xi) ** derivatives \
        * absxi ** (order - derivatives)
    power[xi == 0.0] = 0.0
    return traces[:, (xi < 0).astype(np.intp)] * power


def _traces(grid: Grid, values) -> np.ndarray:
    """``values`` as an (n, 2) trace array, broadcasting an (n, 1) or (2,) one."""
    values = np.asarray(values)
    return values if values.shape == (grid.n, 2) else np.broadcast_to(values, (grid.n, 2))


def _dx(traces, grid: Grid):
    return spectral_derivative(traces, grid.xi, axis=0)


class Symbol:
    """Poly-homogeneous symbol a_(sgn xi)(x)|xi|^m + b_(sgn xi)(x)|xi|^(m-1).

    ``principal`` holds the x-traces a_(+-) of the order-``order`` part and
    ``subprincipal`` the traces b_(+-) of the order ``order - 1`` part, or
    None; each is an (n, 2) array, or broadcasts to one.
    """

    def __init__(self, grid, order, principal, subprincipal=None, *, name=""):
        self.grid = grid
        self.order = float(order)
        self.principal = _traces(grid, principal)
        self.subprincipal = None if subprincipal is None else _traces(grid, subprincipal)
        self.name = name
        self._grid_sample = None

    def principal_at(self, xi):
        return _homogeneous_at(self.principal, self.order, xi)

    def subprincipal_at(self, xi):
        if self.subprincipal is None:
            return np.zeros((self.grid.n, np.size(xi)))
        return _homogeneous_at(self.subprincipal, self.order - 1.0, xi)

    def total_at(self, xi):
        return self.principal_at(xi) + self.subprincipal_at(xi)

    def dxi_principal(self, xi):
        return _homogeneous_at(self.principal, self.order, xi, 1)

    def dxi_subprincipal(self, xi):
        if self.subprincipal is None:
            return np.zeros((self.grid.n, np.size(xi)))
        return _homogeneous_at(self.subprincipal, self.order - 1.0, xi, 1)

    def sample_grid(self) -> np.ndarray:
        """Total symbol on (grid x) x (grid xi), cached."""
        if self._grid_sample is None:
            self._grid_sample = self.total_at(self.grid.xi)
        return self._grid_sample

    # -- structural checks -------------------------------------------------
    def homogeneity_defect(self, xi) -> float:
        """Max defect of Euler's identity on frequencies xi, relative to the
        principal part's size: xi dxi a = m a on the principal part and
        xi dxi a_-1 = (m - 1) a_-1 on the sub-principal part."""
        xi = np.asarray(xi, dtype=float)
        principal = self.principal_at(xi)
        defect = np.maximum(
            np.abs(xi * self.dxi_principal(xi) - self.order * principal),
            np.abs(xi * self.dxi_subprincipal(xi)
                   - (self.order - 1.0) * self.subprincipal_at(xi)))
        return float(np.max(defect) / np.max(np.abs(principal)))

    def reality_defect(self, xi_samples=None) -> float:
        """Max |conj a(x, xi) - a(x, -xi)| over samples (real-to-real test)."""
        if xi_samples is None:
            xi_samples = np.array([0.5, 1.0, 2.0, 5.0])
        a_pos = self.total_at(xi_samples)
        a_neg = self.total_at(-xi_samples)
        scale = max(np.max(np.abs(a_pos)), 1e-300)
        return float(np.max(np.abs(np.conj(a_pos) - a_neg)) / scale)

    def __repr__(self):
        return f"{type(self).__name__}({self.name or 'anonymous'}, order={self.order:g})"

    # -- constructors -------------------------------------------------------
    @classmethod
    def from_field(cls, field: Field, name="") -> "Symbol":
        """Order-zero paraproduct symbol a(x) with no xi dependence."""
        return cls(field.grid, 0.0, field.values[:, None], name=name or "paraproduct")

    @classmethod
    def from_multiplier(cls, grid: Grid, order, name="") -> "Symbol":
        """The Fourier multiplier |xi|^order."""
        return cls(grid, order, np.ones(2), name=name)


class Mollifier(Symbol):
    """Order-zero symbol j = exp(-eps gamma^(3/2)) + shift with sub-principal
    part -(i/2) dx dxi j.

    gamma^(3/2) = g_(sgn xi)(x)|xi|^(3/2) comes from the real part of gamma's
    principal traces.  The sub-principal part is the spectral x-derivative of
    dxi j sampled at the requested frequencies.  j is not homogeneous and has
    no traces: the quantizer gathers its full (x, xi) sample.
    """

    def __init__(self, gamma: Symbol, eps: float, shift: float = 0.0, *, name=""):
        if eps < 0:
            raise ValueError("mollifier strength must be nonnegative")
        self.grid = gamma.grid
        self.order = 0.0
        self.eps = float(eps)
        self.shift = float(shift)
        self.name = name
        self._gamma = (gamma.order, gamma.principal.real)
        self._grid_sample = None

    def _gamma_at(self, xi, derivatives=0):
        order, traces = self._gamma
        return _homogeneous_at(traces, order, xi, derivatives)

    def _j_dxi_j(self, xi):
        """Samples of j and dxi j, zero in the xi = 0 column."""
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        j0 = np.exp(-self.eps * self._gamma_at(xi))
        dxi_j = -self.eps * self._gamma_at(xi, 1) * j0
        j = j0 + self.shift
        j[:, xi == 0.0] = 0.0
        return j, dxi_j

    def principal_at(self, xi):
        return self._j_dxi_j(xi)[0]

    def dxi_principal(self, xi):
        return self._j_dxi_j(xi)[1]

    def subprincipal_at(self, xi):
        return -0.5j * _dx(self.dxi_principal(xi), self.grid)

    def total_at(self, xi):
        j, dxi_j = self._j_dxi_j(xi)
        return j + -0.5j * _dx(dxi_j, self.grid)

    def dxi_subprincipal(self, xi):
        g1 = self._gamma_at(xi, 1)
        dxi2_j = (self.eps * g1**2 - self._gamma_at(xi, 2)) * self.eps \
            * np.exp(-self.eps * self._gamma_at(xi))
        return -0.5j * _dx(dxi2_j, self.grid)

    def bracket_at(self, g: Symbol, xi):
        """Principal bracket {j, g} = dxi j dx g - dx j dxi g at frequencies
        xi, with both x-derivatives taken spectrally from the samples."""
        j, dxi_j = self._j_dxi_j(xi)
        return (dxi_j * _dx(g.principal_at(xi), self.grid)
                - _dx(j, self.grid) * g.dxi_principal(xi))


def _slope_fields(eta: Field):
    ex1 = x_derivative(eta).values.real
    ex2 = x_derivative(eta, 2).values.real
    return ex1[:, None], ex2[:, None]


def sub_traces(sym: Symbol):
    """The sub-principal traces, or 0 when the symbol has none."""
    return 0.0 if sym.subprincipal is None else sym.subprincipal


def dn_symbol(eta: Field) -> Symbol:
    """Dirichlet-Neumann symbol, principal + sub-principal parts.

    Written from the general formulas; in one dimension the principal part
    equals |xi| and the sub-principal part cancels to zero identically.
    """
    grid = eta.grid
    e1, _ = _slope_fields(eta)
    w = 1.0 + e1**2
    lam1 = np.sqrt(w * SIGNS**2 - (e1 * SIGNS) ** 2)
    alpha1 = (lam1 + 1j * e1 * SIGNS) / w
    lam0 = (w / (2.0 * lam1)) * (_dx(alpha1 * e1, grid)
                                 + 1j * (SIGNS * lam1) * _dx(alpha1, grid))
    return Symbol(grid, 1.0, lam1, lam0, name="dn")


def curvature_symbol(eta: Field) -> Symbol:
    """Paralinearized mean-curvature symbol h = h2 + h1, h1 = -(i/2) dx dxi h2."""
    grid = eta.grid
    e1, _ = _slope_fields(eta)
    w = 1.0 + e1**2
    h2 = w**-0.5 * (SIGNS**2 - (e1 * SIGNS) ** 2 / w)
    h1 = -0.5j * _dx(2.0 * SIGNS * h2, grid)
    return Symbol(grid, 2.0, h2, h1, name="curvature")


def symmetrizer(eta: Field, lam: Symbol | None = None,
                curv: Symbol | None = None) -> tuple[Symbol, Symbol, Symbol]:
    """Symbols (p, q, gamma) conjugating the linearized system to skew form.

    gamma^(3/2) = sqrt(h^(2) lambda^(1)) and Im gamma^(1/2) is fixed by the
    self-adjointness constraint.  The zeroth/half-order amplitudes are the
    compatible pair q^(0) = (1+eta_x^2)^(1/4), p^(1/2) = q^(0) c sqrt(lambda),
    the unique xi-independent q making the two conjugation identities hold
    simultaneously at both retained orders.  ``lam`` and ``curv`` are
    eta's :func:`dn_symbol` and :func:`curvature_symbol`, built here when
    not given.
    """
    grid = eta.grid
    lam = lam if lam is not None else dn_symbol(eta)
    curv = curv if curv is not None else curvature_symbol(eta)
    e1, _ = _slope_fields(eta)
    c = (1.0 + e1**2) ** -0.75
    q0 = c ** (-1.0 / 3.0)  # = (1 + eta_x^2)^(1/4)

    g32 = np.sqrt(curv.principal * lam.principal)
    dxi_g32 = 1.5 * SIGNS * g32
    g12 = (np.sqrt(curv.principal / lam.principal) * np.real(lam.subprincipal) / 2.0
           - 0.5j * _dx(dxi_g32, grid))
    p12 = q0 * g32 / lam.principal
    pm12 = (q0 * curv.subprincipal - g12 * p12
            + 1j * dxi_g32 * _dx(p12, grid)) / g32

    q_sym = Symbol(grid, 0.0, q0, name="q")
    p_sym = Symbol(grid, 0.5, p12, pm12, name="p")
    g_sym = Symbol(grid, 1.5, g32, g12, name="gamma")
    return p_sym, q_sym, g_sym


def parametrix(eta: Field, p: Symbol) -> Symbol:
    """Two-term right parametrix of p: principal 1/p^(m) plus correction."""
    if np.min(p.principal.real) <= 0:
        raise ValueError("parametrix requires an elliptic p (min p^(1/2) > 0)")
    wm = 1.0 / p.principal
    dxi_wm = -p.order * SIGNS * wm
    wm_sub = -(wm * sub_traces(p) + (1.0 / 1j) * dxi_wm * _dx(p.principal, eta.grid)) \
        / p.principal
    return Symbol(eta.grid, -p.order, wm, wm_sub, name="parametrix")


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

    disc = np.sqrt(4.0 * al * SIGNS**2 - (be * SIGNS) ** 2)
    a1 = (-1j * be * SIGNS - disc) / (2.0 * al)
    A1 = (-1j * be * SIGNS + disc) / (2.0 * al)
    cross = 1j * (SIGNS * a1) * _dx(A1, grid)
    a0 = (cross - (ga / al) * a1) / (A1 - a1)
    A0 = (cross - (ga / al) * A1) / (a1 - A1)
    return (Symbol(grid, 1.0, a1, a0, name="a"),
            Symbol(grid, 1.0, A1, A0, name="A"))


def mollifier_symbol(eta: Field, eps: float, gamma: Symbol | None = None) -> Mollifier:
    """Regularizing symbol exp(-eps gamma^(3/2)) with its adjoint correction."""
    gam = gamma if gamma is not None else symmetrizer(eta)[2]
    return Mollifier(gam, eps, name=f"mollifier(eps={eps:g})")


def elliptic_weight(eta: Field, s: float) -> Symbol:
    """Order-s weight (gamma^(3/2))^(2s/3); commutes with gamma at bracket level."""
    _, _, gam = symmetrizer(eta)
    g = gam.principal.real
    if np.min(g) <= 0:
        raise ValueError("elliptic weight requires gamma^(3/2) > 0")
    return Symbol(eta.grid, s, g ** (2.0 * s / 3.0), name=f"weight(s={s:g})")


def poisson_bracket(f: Symbol, g: Symbol) -> Symbol:
    """{f, g} = dxi(f) dx(g) - dx(f) dxi(g) of the principal parts.

    Its traces are +-(m_f f dx g - m_g g dx f), of order m_f + m_g - 1.
    """
    if f.grid != g.grid:
        raise ValueError("grid mismatch")
    grid = f.grid
    traces = SIGNS * (f.order * f.principal * _dx(g.principal, grid)
                      - g.order * g.principal * _dx(f.principal, grid))
    return Symbol(grid, f.order + g.order - 1.0, traces, name=f"{{{f.name},{g.name}}}")


def seminorm(a: Symbol, m: float, rho: float, xi_samples: int = 48) -> float:
    """Discrete symbol seminorm M^m_0: sup over x and |xi| >= 1/2 of
    (1 + |xi|)^(alpha - m) |dxi^alpha a| for alpha = 0, 1, on the total
    symbol.  Only rho = 0 is sampled.
    """
    if rho != 0.0:
        raise ValueError("only rho = 0 is sampled")
    ximax = a.grid.xi_max
    if ximax < 2.0 or xi_samples < 8:
        raise SamplingError("too few xi samples above |xi| = 1/2")
    mags = np.geomspace(0.5, ximax, xi_samples)
    xi = np.concatenate([mags, -mags, [1.0, 2.0, -1.0, -2.0]])
    parts = (a.total_at(xi), a.dxi_principal(xi) + a.dxi_subprincipal(xi))
    return float(max(np.max((1.0 + np.abs(xi)) ** (alpha - m) * np.abs(vals))
                     for alpha, vals in enumerate(parts)))
