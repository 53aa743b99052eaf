"""Discrete paradifferential quantization and its measured calculus.

The quantizer realizes

    (T_a u)^(xi_k) = sum_k' chi(xi_k - xi_k', xi_k') ahat(xi_k - xi_k', xi_k')
                     psi(xi_k') u^(xi_k')

in Fourier-series coefficients, where ahat(., eta) is the spatial transform
of the symbol frozen at frequency eta.  A :class:`Symbol` part of order m is
a_(sgn xi)(x) |xi|^m, so ahat(theta, eta) is the transform of one of its
two x-traces times |eta|^m: the matrix is one FFT along x of the four trace
columns (principal and sub-principal, at xi = +1 and -1), then a gather of
the transforms into the dense n x n coefficient matrix, on the support of
chi psi only.  A :class:`Mollifier` is not homogeneous; it is sampled on the
full (x, xi) grid and goes through the same gather, one column per frozen
frequency.  All operator probes (remainder orders, boundedness constants)
are driven through the dense matrix.  The symbol algebra (composition,
adjoints, brackets) lives in :mod:`capwave.symbols`; this module only
quantizes and probes.
"""

from __future__ import annotations

import numpy as np

from .cutoffs import chi_profile, psi_cut, smooth_step
from .field import Field, Grid, series_coefficients, sobolev_norm
from .symbols import Mollifier, Symbol

__all__ = [
    "Quantizer",
    "DenseOp",
    "remainder_order",
    "bony_residual",
    "shell_field",
    "measured_regularity",
    "ProbeError",
]


class ProbeError(RuntimeError):
    """Probe battery could not produce enough usable data points."""


class Quantizer:
    """Paradifferential quantization on one grid with fixed cutoffs.

    chi(theta, eta) = chi_tilde(|theta| / |eta|) and psi(eta) are the
    cutoffs :func:`~capwave.cutoffs.chi_profile` and
    :func:`~capwave.cutoffs.psi_cut`.
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        n = grid.n
        k = grid.k.astype(np.int64)
        diff = k[:, None] - k[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(k[None, :] != 0,
                             np.abs(diff) / np.maximum(np.abs(k[None, :]), 1), np.inf)
        psi = psi_cut(grid.xi)
        cut = chi_profile(ratio) * (np.abs(diff) <= n // 2) * psi[None, :]
        # T_a vanishes off the support of chi(theta, eta) psi(eta); there it
        # gathers ahat(theta, column) from the four trace columns (principal
        # at xi = +1, -1, then sub-principal) at sgn(eta), or from the
        # frequency eta itself for a sampled symbol
        self._support = np.flatnonzero(cut)
        self._cut = cut.ravel()[self._support]
        rows, self._cols = np.divmod(self._support, n)
        theta = np.mod(k[rows] - k[self._cols], n)
        sign = grid.xi[self._cols] < 0
        self._sign_index = theta * 4 + sign
        self._sub_index = self._sign_index + 2
        self._principal_index = theta * 2 + sign  # principal traces alone
        self._identity_index = theta * n + self._cols
        # |eta| where psi does not vanish (|eta| > 1), so negative powers stay finite
        self._absxi = np.where(psi > 0, np.abs(grid.xi), 1.0)

    def matrix(self, symbol: Symbol) -> np.ndarray:
        """Dense coefficient-space matrix of T_symbol.

        A :class:`Symbol` is built from its x-traces at xi = +-1, with no
        (x, xi) sample: one transform of the (n, 4) stack of principal and
        sub-principal traces, then column eta gathers the principal
        transform at sgn(eta) times |eta|^order plus the sub-principal one
        times |eta|^(order - 1).  A symbol whose sub-principal part is all
        zero transforms and gathers its principal traces alone.  A
        :class:`Mollifier` is sampled on the full grid (``sample_grid``) and
        gathered at column eta itself.  Only entries inside the support of
        chi(theta, eta) psi(eta) are computed.
        """
        if symbol.grid != self.grid:
            raise ValueError("symbol and quantizer live on different grids")
        if isinstance(symbol, Mollifier):
            ahat = series_coefficients(symbol.sample_grid(), self.grid, axis=0)
            entries = np.take(ahat, self._identity_index)
        elif not symbol.subprincipal.any():  # q, 1/q, T_B, T_V: no transform of zeros
            ahat = series_coefficients(symbol.principal, self.grid, axis=0)
            entries = np.take(ahat, self._principal_index) * self._column_weight(symbol.order)
        else:
            ahat = series_coefficients(
                np.concatenate([symbol.principal, symbol.subprincipal], axis=1),
                self.grid, axis=0)
            entries = (np.take(ahat, self._sign_index) * self._column_weight(symbol.order)
                       + np.take(ahat, self._sub_index)
                       * self._column_weight(symbol.order - 1.0))
        out = np.zeros((self.grid.n, self.grid.n), dtype=complex)
        out.reshape(-1)[self._support] = self._cut * entries
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


# shell errors at or below this are rounding noise, left out of the fit
PROBE_FLOOR = 1e-12


def remainder_order(op_a, op_b, mu: float, naive_order: float, grid: Grid,
                    shells=range(3, 9), seed: int = 0) -> dict:
    """Measured decay order of (A - B) on dyadic shell bumps.

    Errors are taken in H^(mu - naive_order); on unit-H^mu shell data the
    norm ideally decays like 2^(-j gain) where ``gain`` is the order gained
    over the naive composition order.  Returns the fitted gain and the raw
    shell data; shells at the noise floor ``PROBE_FLOOR`` (reported as
    ``floor``) are excluded from the fit.  With fewer than 3 shells left
    (``at_floor``, e.g. A == B) the gain is NaN, which fails every check
    comparison, where inf would pass ">=".
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
    usable = errs > PROBE_FLOOR
    at_floor = np.count_nonzero(usable) < 3
    return {
        "shells": [int(j) for j in js],
        "errors": [float(e) for e in errs],
        "floor": PROBE_FLOOR,
        "at_floor": bool(at_floor),
        "gain": float("nan") if at_floor
        else -float(np.polyfit(js[usable], np.log2(errs[usable]), 1)[0]),
    }


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


def measured_regularity(u: Field, jmin: int = 1, jmax: int | None = None) -> float:
    """Sobolev regularity estimated from the dyadic energy slope.

    For |c_k| ~ |k|^(-sigma) the shell energy scales like 2^(j(1-2 sigma)),
    i.e. u sits on the boundary of H^s for s = sigma - 1/2; the fitted slope
    is converted accordingly.  Shells below 1e-28 of the largest shell
    energy are left out of the fit.
    """
    js, energies = shell_energies(u, jmin, jmax)
    usable = energies > 1e-28 * max(energies.max(), 1e-300)
    if np.count_nonzero(usable) < 3:
        raise ProbeError("too few energetic shells to fit a regularity slope")
    slope = np.polyfit(js[usable], np.log2(energies[usable]), 1)[0]
    sigma = (1.0 - slope) / 2.0
    return float(sigma - 0.5)
