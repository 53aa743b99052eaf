"""Discrete paradifferential quantization and its measured calculus.

The quantizer realizes

    (T_a u)^(xi_k) = sum_k' chi(xi_k - xi_k', xi_k') ahat(xi_k - xi_k', xi_k')
                     psi(xi_k') u^(xi_k')

in Fourier-series coefficients, where ahat(., eta) is the spatial transform
of the symbol frozen at frequency eta.  A :class:`Symbol` part of order m is
a_(sgn xi)(x) |xi|^m, so ahat(theta, eta) is the transform of one of its
two x-traces times |eta|^m: the matrix is one FFT along x of the principal
and sub-principal traces, an (n, 2) array each, then a gather of the
transforms into the dense n x n coefficient matrix, on the support of
chi psi only.  A :class:`Mollifier` is not homogeneous; it is sampled on the
full (x, xi) grid and goes through the same gather, one column per frozen
frequency.  All operator probes (remainder orders, boundedness constants)
are driven through the dense matrix.  Symbolic composition and adjoints
follow the two-order truncation appropriate for principal + sub-principal
symbols and are exact algebra on the traces.
"""

from __future__ import annotations

import numpy as np

from .cutoffs import smooth_step
from .field import Field, Grid, sobolev_norm, spectral_derivative
from .symbols import SIGNS, Mollifier, Symbol, sub_traces

__all__ = [
    "Quantizer",
    "DenseOp",
    "compose",
    "adjoint_symbol",
    "remainder_order",
    "bony_residual",
    "shell_field",
    "measured_regularity",
    "ProbeError",
]


# the admissibility cutoff chi_tilde falls from one to zero over [CHI_EPS1, CHI_EPS2]
CHI_EPS1 = 0.1
CHI_EPS2 = 0.2


class ProbeError(RuntimeError):
    """Probe battery could not produce enough usable data points."""


class Quantizer:
    """Paradifferential quantization on one grid with fixed cutoffs.

    chi(theta, eta) = chi_tilde(|theta| / |eta|) with chi_tilde equal to one
    below ``CHI_EPS1`` and zero above ``CHI_EPS2``; psi vanishes for
    |eta| <= 1 and equals one for |eta| >= 2.
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        n = grid.n
        k = grid.k.astype(np.int64)
        diff = k[:, None] - k[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(k[None, :] != 0,
                             np.abs(diff) / np.maximum(np.abs(k[None, :]), 1), np.inf)
        psi = self.psi_cut(grid.xi)
        cut = self.chi_profile(ratio) * (np.abs(diff) <= n // 2) * psi[None, :]
        # T_a vanishes off the support of chi(theta, eta) psi(eta); there it
        # gathers ahat(theta, column) under one of two column plans: the
        # trace at sgn(eta) (columns xi = +1, -1) or the frequency eta itself
        self._support = np.flatnonzero(cut)
        self._cut = cut.ravel()[self._support]
        rows, self._cols = np.divmod(self._support, n)
        theta = np.mod(k[rows] - k[self._cols], n)
        self._sign_index = theta * 2 + (grid.xi[self._cols] < 0)
        self._identity_index = theta * n + self._cols
        # |eta| where psi does not vanish (|eta| > 1), so negative powers stay finite
        self._absxi = np.where(psi > 0, np.abs(grid.xi), 1.0)

    def chi_profile(self, r) -> np.ndarray:
        """Admissibility profile as a function of |theta|/|eta|."""
        return 1.0 - smooth_step((np.asarray(r) - CHI_EPS1) / (CHI_EPS2 - CHI_EPS1))

    def psi_cut(self, eta) -> np.ndarray:
        """Low-frequency cutoff: 0 for |eta| <= 1, 1 for |eta| >= 2."""
        return smooth_step(np.abs(np.asarray(eta, dtype=float)) - 1.0)

    def matrix(self, symbol: Symbol) -> np.ndarray:
        """Dense coefficient-space matrix of T_symbol.

        A :class:`Symbol` is built from its x-traces at xi = +-1, with no
        (x, xi) sample: column eta gathers the transform of the principal
        trace at sgn(eta) times |eta|^order, plus that of the sub-principal
        trace times |eta|^(order - 1).  A :class:`Mollifier` is sampled on
        the full grid (``sample_grid``) and gathered with the identity
        column plan (column eta, weight 1).  Only entries inside the support
        of chi(theta, eta) psi(eta) are computed.
        """
        if symbol.grid != self.grid:
            raise ValueError("symbol and quantizer live on different grids")
        if isinstance(symbol, Mollifier):
            plan = [(symbol.sample_grid(), 1.0)]
            index = self._identity_index
        else:
            plan = [(symbol.principal, self._column_weight(symbol.order))]
            if symbol.subprincipal is not None:
                plan.append((symbol.subprincipal, self._column_weight(symbol.order - 1.0)))
            index = self._sign_index
        entries = 0.0
        for sample, weight in plan:
            # x-transform of each sampled column (series coefficients)
            ahat = np.fft.fft(sample, axis=0) * self.grid._phase[:, None] / self.grid.n
            entries = entries + np.take(ahat, index) * weight
        out = np.zeros((self.grid.n, self.grid.n), dtype=complex)
        out.flat[self._support] = self._cut * entries
        return out

    def _column_weight(self, order: float) -> np.ndarray:
        """|eta|^order on each support entry."""
        return (self._absxi ** order)[self._cols]

    def quantize(self, symbol: Symbol, u: Field) -> Field:
        return self.operator(symbol).apply(u)

    def operator(self, symbol: Symbol) -> "DenseOp":
        return DenseOp(self.grid, self.matrix(symbol), name=symbol.name)


class DenseOp:
    """Matrix-backed operator acting on fields in coefficient space."""

    def __init__(self, grid: Grid, matrix: np.ndarray, name: str = ""):
        self.grid = grid
        self.matrix = matrix
        self.name = name

    def apply(self, u: Field) -> Field:
        if u.grid != self.grid:
            raise ValueError("grid mismatch")
        return Field.from_spectrum(self.grid, self.matrix @ u.spectrum)

    __call__ = apply

    def adjoint(self) -> "DenseOp":
        """Exact L^2 adjoint (conjugate transpose in coefficient space)."""
        return DenseOp(self.grid, np.conj(self.matrix.T), name=f"{self.name}*")

    def compose_with(self, other: "DenseOp") -> "DenseOp":
        return DenseOp(self.grid, self.matrix @ other.matrix,
                       name=f"{self.name}{other.name}")

    def __sub__(self, other: "DenseOp") -> "DenseOp":
        return DenseOp(self.grid, self.matrix - other.matrix,
                       name=f"{self.name}-{other.name}")


def compose(a: Symbol, b: Symbol, rho: float = 1.5) -> Symbol:
    """Truncated composition a#b at the orders resolved by rho.

    For rho <= 1 only the product of principal parts is kept; for
    rho = 3/2 the sub-principal corrections and the first Leibniz term
    (1/i) dxi(a) dx(b) are retained.
    """
    if a.grid != b.grid:
        raise ValueError("grid mismatch")
    if rho not in (0.5, 1.0, 1.5):
        raise ValueError("rho must be one of {1/2, 1, 3/2}")
    sub = None
    if rho > 1.0:
        sub = (a.principal * sub_traces(b) + sub_traces(a) * b.principal
               + (1.0 / 1j) * (a.order * SIGNS * a.principal)
               * spectral_derivative(b.principal, a.grid.xi, axis=0))
    return Symbol(a.grid, a.order + b.order, a.principal * b.principal, sub,
                  name=f"{a.name}#{b.name}")


def adjoint_symbol(a: Symbol, rho: float = 1.5) -> Symbol:
    """Adjoint symbol a*: conj(a) plus (1/i) dxi dx conj(a^(m)) when rho > 1."""
    if rho not in (0.5, 1.0, 1.5):
        raise ValueError("rho must be one of {1/2, 1, 3/2}")
    sub = None
    if rho > 1.0:
        sub = np.conj(sub_traces(a)) + (1.0 / 1j) * spectral_derivative(
            np.conj(a.order * SIGNS * a.principal), a.grid.xi, axis=0)
    return Symbol(a.grid, a.order, np.conj(a.principal), sub, name=f"{a.name}*")


def shell_field(grid: Grid, j: int, mu: float, rng) -> Field:
    """Unit-H^mu field with spectrum in the dyadic shell 2^j <= |xi| < 2^(j+1)."""
    lo, hi = 2.0**j, 2.0 ** (j + 1)
    if hi > grid.xi_max:
        raise ProbeError(f"shell {j} exceeds the grid band (ximax={grid.xi_max:g})")
    absxi = np.abs(grid.xi)
    window = smooth_step((absxi - lo) / (0.25 * lo)) \
        * (1.0 - smooth_step((absxi - 0.7 * hi) / (0.25 * lo)))
    phases = np.exp(2j * np.pi * rng.random(grid.n))
    coeffs = window * phases
    # hermitian symmetry -> real field (positive half mirrored)
    n = grid.n
    c_sym = np.zeros(n, dtype=complex)
    c_sym[1:n // 2] = coeffs[1:n // 2]
    c_sym[n // 2 + 1:] = np.conj(coeffs[1:n // 2][::-1])
    u = Field.from_spectrum(grid, c_sym)
    nrm = sobolev_norm(u, mu)
    if nrm == 0:
        raise ProbeError(f"empty shell {j}")
    return Field.from_spectrum(grid, c_sym / nrm)


def remainder_order(op_a, op_b, mu: float, naive_order: float, grid: Grid,
                    shells=range(3, 9), seed: int = 0,
                    floor: float = 1e-12, claim: float | None = None) -> dict:
    """Measured decay order of (A - B) on dyadic shell bumps.

    Errors are taken in H^(mu - naive_order); on unit-H^mu shell data the
    norm ideally decays like 2^(-j gain) where ``gain`` is the order gained
    over the naive composition order.  Returns the fitted gain and the raw
    shell data; shells at the noise floor are excluded from the fit.  When a
    ``claim`` is given the report carries the pass verdict at the standard
    quarter-order slack.
    """
    rng = np.random.default_rng(seed)
    js, errs = [], []
    for j in shells:
        u = shell_field(grid, j, mu, rng)
        diff = op_a(u) - op_b(u)
        errs.append(sobolev_norm(diff, mu - naive_order))
        js.append(j)
    js = np.array(js, dtype=float)
    errs = np.array(errs)
    usable = errs > floor
    report = {
        "shells": [int(j) for j in js],
        "errors": [float(e) for e in errs],
        "floor": floor,
    }
    if np.count_nonzero(usable) < 3:
        # everything at machine floor: infinite measured gain (A == B)
        report["gain"] = float("inf")
        report["slope"] = float("-inf")
        report["at_floor"] = True
    else:
        slope = float(np.polyfit(js[usable], np.log2(errs[usable]), 1)[0])
        report["gain"] = -slope
        report["slope"] = slope
        report["at_floor"] = False
    if claim is not None:
        report["claim"] = float(claim)
        report["pass"] = bool(report["gain"] >= claim - 0.25)
    return report


def bony_residual(fn, dfn, a: Field, quantizer: Quantizer) -> Field:
    """F(a) - F(0) - T_{F'(a)} a, the paralinearization defect of F."""
    f0 = float(fn(np.zeros(1))[0])
    fa = Field(a.grid, fn(a.values) - f0)
    sym = Symbol.from_field(Field(a.grid, dfn(a.values)), name="F'(a)")
    return fa - quantizer.quantize(sym, a)


def paraproduct_defect(a: Field, b: Field, quantizer: Quantizer) -> Field:
    """ab - T_a b - T_b a (smoother than either factor)."""
    ab = Field(a.grid, a.values * b.values)
    t_ab = quantizer.quantize(Symbol.from_field(a), b)
    t_ba = quantizer.quantize(Symbol.from_field(b), a)
    return ab - t_ab - t_ba


def shell_energies(u: Field, jmin: int = 0, jmax: int | None = None):
    """Dyadic shell energies L * sum_{2^j <= |xi| < 2^(j+1)} |c_k|^2."""
    grid = u.grid
    if jmax is None:
        jmax = int(np.floor(np.log2(grid.xi_max))) - 1
    absxi = np.abs(grid.xi)
    c2 = np.abs(u.spectrum) ** 2
    js, energies = [], []
    for j in range(jmin, jmax + 1):
        mask = (absxi >= 2.0**j) & (absxi < 2.0 ** (j + 1))
        e = grid.length * np.sum(c2[mask])
        js.append(j)
        energies.append(float(e))
    return np.array(js), np.array(energies)


def measured_regularity(u: Field, jmin: int = 1, jmax: int | None = None,
                        floor: float = 1e-28) -> float:
    """Sobolev regularity estimated from the dyadic energy slope.

    For |c_k| ~ |k|^(-sigma) the shell energy scales like 2^(j(1-2 sigma)),
    i.e. u sits on the boundary of H^s for s = sigma - 1/2; the fitted slope
    is converted accordingly.
    """
    js, energies = shell_energies(u, jmin, jmax)
    usable = energies > floor * max(energies.max(), 1e-300)
    if np.count_nonzero(usable) < 3:
        raise ProbeError("too few energetic shells to fit a regularity slope")
    slope = np.polyfit(js[usable], np.log2(energies[usable]), 1)[0]
    sigma = (1.0 - slope) / 2.0
    return float(sigma - 0.5)
