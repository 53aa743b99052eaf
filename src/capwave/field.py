"""Periodic spectral fields on a uniform 1D grid.

Conventions
-----------
Grid points are x_j = -L/2 + j*L/n and frequencies xi_k = 2*pi*k/L in the
symmetric integer band (numpy fft ordering).  A field is immutable: it is
built from collocation values or from a spectrum, and its values, spectrum
and first derivative are each computed once, on first read.  The spectrum
holds the Fourier-series coefficients c_k defined by

    u(x) = sum_k c_k exp(i xi_k x),

so that the discrete Parseval identity reads  sum_j |u_j|^2 * (L/n)
= L * sum_k |c_k|^2.  The H^s norm is

    sobolev_norm(u, s)^2 = L * sum_k (1 + xi_k^2)^s |c_k|^2,

which for s = 0 coincides with the trapezoidal L^2 quadrature on the grid.
Every spectral reader takes the transform to c_k from
:func:`series_coefficients` and the symbol of d^k/dx^k from
:func:`derivative_symbol`.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "Grid",
    "Field",
    "multiplier",
    "sobolev_norm",
    "weighted_norm",
    "x_derivative",
    "spectral_derivative",
    "dealiased_product",
    "band_tail_fraction",
]

# maxsize of the package's lru caches (the derivative symbol, one per grid
# and order; the DN strip table, one per nz; the shared quantizer, one per
# grid; the flat-mode table, one per grid and geometry; the ETDRK4
# coefficients): every key a simulate run or a single verify suite reuses
# stays resident
CACHE_MAXSIZE = 16


class Grid:
    """Uniform periodic grid with n points on [-L/2, L/2)."""

    def __init__(self, n: int, length: float):
        if n < 8 or n % 2 != 0:
            raise ValueError(f"grid size must be even and >= 8, got {n}")
        if not 0 < length < np.inf:  # NaN fails too
            raise ValueError(f"period must be positive and finite, got {length}")
        self.n = int(n)
        self.length = float(length)
        self.x = -self.length / 2 + np.arange(self.n) * (self.length / self.n)
        # frequencies 2*pi*k/L in numpy fft ordering
        self.k = np.fft.fftfreq(self.n, d=1.0 / self.n).astype(np.int64)
        self.xi = 2 * np.pi * self.k / self.length
        # phase factor relating numpy fft output to series coefficients
        # (x_0 = -L/2 shifts the transform by exp(i*pi*k) = (-1)^k)
        self._phase = np.where(self.k % 2 == 0, 1.0, -1.0)

    @property
    def xi_max(self) -> float:
        return np.pi * self.n / self.length

    def __eq__(self, other):
        return (
            isinstance(other, Grid)
            and self.n == other.n
            and self.length == other.length
        )

    def __hash__(self):
        return hash((self.n, self.length))

    def __repr__(self):
        return f"Grid(n={self.n}, length={self.length:g})"


class Field:
    """Immutable grid function; its values, spectrum and first derivative are
    each computed once, on first read.

    A field built from values transforms them to the spectrum on the first
    read of :attr:`spectrum`; one built by :meth:`from_spectrum` runs the
    inverse transform on the first read of :attr:`values`.  No code changes
    a field after it is built, so every cached representation stays valid.
    """

    __slots__ = ("grid", "_values", "_spectrum", "_derivative")

    def __init__(self, grid: Grid, values: np.ndarray):
        values = np.asarray(values)
        if values.shape != (grid.n,):
            raise ValueError(f"values shape {values.shape} incompatible with {grid}")
        self.grid = grid
        self._values = values
        self._spectrum = None  # transformed on first read
        self._derivative = None  # the first derivative, stored by x_derivative

    @classmethod
    def from_spectrum(cls, grid: Grid, coeffs) -> "Field":
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.shape != (grid.n,):
            raise ValueError("spectrum length must equal grid size")
        out = cls.__new__(cls)
        out.grid = grid
        out._values = None  # synthesized on first read
        out._spectrum = coeffs
        out._derivative = None
        return out

    @classmethod
    def zeros(cls, grid: Grid) -> "Field":
        return cls(grid, np.zeros(grid.n))

    @property
    def values(self) -> np.ndarray:
        """Collocation values.  Synthesized from the spectrum on first read,
        they are real unless their imaginary part exceeds 1e-13 of the real
        part's size."""
        if self._values is None:
            grid = self.grid
            vals = np.fft.ifft(self._spectrum / grid._phase * grid.n)
            if np.max(np.abs(vals.imag)) <= 1e-13 * max(np.max(np.abs(vals.real)), 1e-300):
                vals = vals.real
            self._values = vals
        return self._values

    @property
    def spectrum(self) -> np.ndarray:
        """Fourier-series coefficients c_k (numpy fft ordering)."""
        if self._spectrum is None:
            self._spectrum = series_coefficients(self._values, self.grid)
        return self._spectrum

    @property
    def is_real(self) -> bool:
        return not np.iscomplexobj(self.values)

    def real(self) -> "Field":
        if self.is_real:
            return self
        return Field(self.grid, self.values.real)

    # -- arithmetic (pointwise, no dealiasing; use dealiased_product for
    #    quadratic nonlinearities) --------------------------------------
    def _coerce(self, other):
        if isinstance(other, Field):
            if other.grid != self.grid:
                raise ValueError("grid mismatch")
            return other.values
        return other

    def __add__(self, other):
        return Field(self.grid, self.values + self._coerce(other))

    __radd__ = __add__

    def __sub__(self, other):
        return Field(self.grid, self.values - self._coerce(other))

    def __rsub__(self, other):
        return Field(self.grid, self._coerce(other) - self.values)

    def __mul__(self, other):
        return Field(self.grid, self.values * self._coerce(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return Field(self.grid, self.values / self._coerce(other))

    def __neg__(self):
        return Field(self.grid, -self.values)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))

    # -- serialization --------------------------------------------------
    def to_json(self) -> dict:
        spec = np.asarray(self.spectrum, dtype=complex)
        return {
            "grid": {"n": self.grid.n, "length": self.grid.length},
            "spectrum": [[c.real, c.imag] for c in spec],
        }


def multiplier(u: Field, m) -> Field:
    """Apply the Fourier multiplier m(xi) to u.

    ``m`` is a callable evaluated on the grid frequencies (the value at
    xi = 0 must be supplied by the callable itself).  Non-finite multiplier
    values are rejected.
    """
    mv = np.asarray(m(u.grid.xi), dtype=complex)
    if mv.shape != (u.grid.n,):
        raise ValueError("multiplier must return one value per grid frequency")
    if not np.all(np.isfinite(mv)):
        raise ValueError("multiplier is not finite at some grid frequency")
    return Field.from_spectrum(u.grid, mv * u.spectrum)


def series_coefficients(samples: np.ndarray, grid: Grid, axis: int = -1) -> np.ndarray:
    """Fourier-series coefficients c_k of periodic samples along ``axis``.

    The numpy transform times (-1)^k (the grid starts at x_0 = -L/2) over n.
    """
    shape = [1] * np.ndim(samples)
    shape[axis] = grid.n
    return np.fft.fft(samples, axis=axis) * grid._phase.reshape(shape) / grid.n


@lru_cache(maxsize=CACHE_MAXSIZE)
def derivative_symbol(grid: Grid, order: int) -> np.ndarray:
    """The symbol (i xi)^order of d^order/dx^order, real for even orders.

    One read-only array per (grid, order), on the grid frequencies in numpy
    fft ordering.  Odd orders zero the Nyquist mode, whose derivative has no
    real representation on the grid.
    """
    sym = (1j * grid.xi) ** order
    if order % 2 == 0:
        sym = sym.real.copy()
    else:
        sym[grid.n // 2] = 0.0
    sym.setflags(write=False)
    return sym


def spectral_derivative(samples: np.ndarray, grid: Grid, order: int = 1,
                        axis: int = -1) -> np.ndarray:
    """d^order/dx^order of periodic samples on ``grid`` along ``axis``; real
    samples give a real result."""
    shape = [1] * np.ndim(samples)
    shape[axis] = grid.n
    sym = derivative_symbol(grid, order).reshape(shape)
    out = np.fft.ifft(np.fft.fft(samples, axis=axis) * sym, axis=axis)
    return out.real if np.isrealobj(samples) else out


def x_derivative(u: Field, order: int = 1) -> Field:
    """Spectral d^order/dx^order of a field (see :func:`spectral_derivative`).

    The first derivative is computed once per field and stored on it.
    """
    if order != 1:
        return Field(u.grid, spectral_derivative(u.values, u.grid, order))
    if u._derivative is None:
        u._derivative = Field(u.grid, spectral_derivative(u.values, u.grid, 1))
    return u._derivative


def sobolev_norm(u: Field, s: float) -> float:
    """Discrete H^s norm, (L * sum_k (1+xi_k^2)^s |c_k|^2)^(1/2)."""
    w = (1.0 + u.grid.xi**2) ** s
    return float(np.sqrt(u.grid.length * np.sum(w * np.abs(u.spectrum) ** 2)))


def weighted_norm(u: Field, s: float, delta: float) -> float:
    """H^s norm of <x>^(-1/2-delta) u, with <x> on the fundamental domain."""
    if not 0 < delta < np.inf:  # NaN fails too
        raise ValueError(f"delta must be positive and finite, got {delta}")
    w = (1.0 + u.grid.x**2) ** (-(0.5 + delta) / 2.0)
    return sobolev_norm(Field(u.grid, w * u.values), s)


def l2_inner(u: Field, v: Field) -> complex:
    """L^2 inner product integral conj(u) v dx (spectrally exact)."""
    if u.grid != v.grid:
        raise ValueError("grid mismatch")
    return complex(u.grid.length * np.sum(np.conj(u.spectrum) * v.spectrum))


def dealiased_product(u: Field, v: Field) -> Field:
    """Pointwise product with 2/3-rule zero padding of both spectra.

    The product of series coefficients is their linear convolution; padding
    to 2n leaves room for the full quadratic interaction band, so the
    retained coefficients are alias-free.
    """
    if u.grid != v.grid:
        raise ValueError("grid mismatch")
    n = u.grid.n
    m = 2 * n  # >= 3n/2, keeps indexing simple
    pu = _pad_spectrum(u.spectrum, n, m)
    pv = _pad_spectrum(v.spectrum, n, m)
    wu = np.fft.ifft(pu) * m
    wv = np.fft.ifft(pv) * m
    pw = np.fft.fft(wu * wv) / m
    out = Field.from_spectrum(u.grid, _truncate_spectrum(pw, m, n))
    if u.is_real and v.is_real:
        return Field(u.grid, np.asarray(out.values.real))
    return out


def _pad_spectrum(c: np.ndarray, n: int, m: int) -> np.ndarray:
    out = np.zeros(m, dtype=complex)
    h = n // 2
    out[:h] = c[:h]
    out[m - h:] = c[h:]
    return out


def _truncate_spectrum(c: np.ndarray, m: int, n: int) -> np.ndarray:
    h = n // 2
    out = np.empty(n, dtype=complex)
    out[:h] = c[:h]
    out[h:] = c[m - h:]
    return out


def evaluate_refined(u: Field) -> tuple[np.ndarray, np.ndarray]:
    """Values of the trigonometric interpolant on the 2x refined grid (x, u(x))."""
    n = u.grid.n
    m = 2 * n
    fine = Field.from_spectrum(Grid(m, u.grid.length), _pad_spectrum(u.spectrum, n, m))
    return fine.grid.x, fine.values.real if u.is_real else fine.values


def band_tail_fraction(u: Field) -> float:
    """Relative spectral mass in the top third of the frequency band."""
    c = np.abs(u.spectrum)
    total = np.sqrt(np.sum(c**2))
    if total == 0:
        return 0.0
    cutoff = (1.0 - 1.0 / 3.0) * u.grid.xi_max
    tail = np.sqrt(np.sum(c[np.abs(u.grid.xi) >= cutoff] ** 2))
    return float(tail / total)
