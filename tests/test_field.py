"""Field module: transforms, norms, multipliers against direct DFT oracles."""

import numpy as np
import pytest

from capwave.field import (
    Field,
    Grid,
    band_tail_fraction,
    dealiased_product,
    derivative_symbol,
    multiplier,
    series_coefficients,
    sobolev_norm,
    spectral_derivative,
    weighted_norm,
    x_derivative,
)


def direct_series_coefficients(grid, values):
    """O(n^2) direct evaluation of the series coefficients (oracle path)."""
    out = np.empty(grid.n, dtype=complex)
    for i, k in enumerate(grid.k):
        out[i] = np.sum(values * np.exp(-1j * grid.xi[i] * grid.x)) / grid.n
    return out


def direct_synthesis(grid, coeffs):
    """O(n^2) direct evaluation of sum_k c_k exp(i xi_k x_j) (oracle path)."""
    out = np.zeros(grid.n, dtype=complex)
    for c, xi in zip(coeffs, grid.xi):
        out += c * np.exp(1j * xi * grid.x)
    return out


def random_band_limited(grid, rng, kmax=None, decay=3.0):
    kmax = kmax or grid.n // 4
    c = np.zeros(grid.n, dtype=complex)
    for i, k in enumerate(grid.k):
        if 0 < abs(k) <= kmax:
            c[i] = (abs(k) ** -decay) * np.exp(2j * np.pi * rng.random())
    # hermitian symmetry for a real field
    for i, k in enumerate(grid.k):
        if k > 0:
            c[np.where(grid.k == -k)[0][0]] = np.conj(c[i])
    return Field.from_spectrum(grid, c)


@pytest.fixture
def grid():
    return Grid(64, 2 * np.pi)


def test_grid_invariants(grid):
    assert grid.x[0] == -np.pi
    assert np.isclose(grid.x[1] - grid.x[0], grid.length / grid.n)
    assert set(grid.k) == set(range(-32, 32))


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(7, 1.0)
    with pytest.raises(ValueError):
        Grid(64, -1.0)
    for length in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="period must be positive and finite"):
            Grid(64, length)


def test_transform_round_trip(grid):
    rng = np.random.default_rng(0)
    u = random_band_limited(grid, rng)
    v = Field.from_spectrum(grid, u.spectrum)
    assert np.max(np.abs(v.values - u.values)) <= 1e-12 * u.max_abs()


def test_spectrum_matches_direct_dft(grid):
    rng = np.random.default_rng(1)
    u = random_band_limited(grid, rng)
    ref = direct_series_coefficients(grid, u.values)
    assert np.max(np.abs(u.spectrum - ref)) < 1e-13


def test_multiplier_identity(grid):
    rng = np.random.default_rng(2)
    u = random_band_limited(grid, rng)
    v = multiplier(u, lambda xi: np.ones_like(xi))
    assert np.max(np.abs(v.values - u.values)) < 1e-14


def test_multiplier_single_mode_eigenfunction(grid):
    # |xi| multiplier on cos(2 pi x / L) returns (2 pi / L) cos(2 pi x / L)
    u = Field(grid, np.cos(2 * np.pi * grid.x / grid.length))
    v = multiplier(u, np.abs)
    expected = (2 * np.pi / grid.length) * np.cos(2 * np.pi * grid.x / grid.length)
    assert np.max(np.abs(v.values - expected)) < 1e-13


def test_multiplier_against_direct_summation(grid):
    # oracle: apply |xi|^(3/2) in a hand-rolled O(n^2) transform pair
    rng = np.random.default_rng(3)
    u = random_band_limited(grid, rng)
    mv = np.abs(grid.xi) ** 1.5
    got = multiplier(u, lambda xi: np.abs(xi) ** 1.5)
    ref_coeffs = mv * direct_series_coefficients(grid, u.values)
    ref_vals = direct_synthesis(grid, ref_coeffs)
    scale = np.max(np.abs(ref_coeffs))
    assert np.max(np.abs(got.values - ref_vals)) < 1e-11
    assert np.max(np.abs(got.spectrum - ref_coeffs)) < 1e-12 * scale


def test_multiplier_rejects_nonfinite(grid):
    u = Field(grid, np.cos(grid.x))
    with pytest.raises(ValueError), np.errstate(divide="ignore"):
        multiplier(u, lambda xi: 1.0 / xi)  # infinite at xi = 0


def test_multiplier_composition_exact_in_spectrum(grid):
    rng = np.random.default_rng(4)
    u = random_band_limited(grid, rng)
    m1 = lambda xi: 1.0 + xi**2
    m2 = lambda xi: np.exp(-0.01 * np.abs(xi))
    once = multiplier(multiplier(u, m1), m2)
    both = multiplier(u, lambda xi: m1(xi) * m2(xi))
    # no transform round-trip in between: agreement to the last few ulps
    scale = np.max(np.abs(both.spectrum))
    assert np.max(np.abs(once.spectrum - both.spectrum)) <= 5e-16 * scale


def test_sobolev_norm_zero(grid):
    assert sobolev_norm(Field.zeros(grid), 1.5) == 0.0


def test_sobolev_norm_sin_mode(grid):
    # || sin(2 pi x / L) ||_{L^2}^2 = L/2 by direct quadrature
    u = Field(grid, np.sin(2 * np.pi * grid.x / grid.length))
    expected = np.sqrt(grid.length / 2)  # = sqrt(pi) for L = 2 pi
    assert abs(sobolev_norm(u, 0.0) - expected) < 1e-12
    quadrature = np.sqrt(np.sum(u.values**2) * (grid.length / grid.n))
    assert abs(sobolev_norm(u, 0.0) - quadrature) < 1e-12


def test_parseval(grid):
    rng = np.random.default_rng(5)
    u = random_band_limited(grid, rng)
    quadrature = np.sum(np.abs(u.values) ** 2) * (grid.length / grid.n)
    assert abs(sobolev_norm(u, 0.0) ** 2 - quadrature) <= 1e-10 * quadrature


def test_weighted_norm_zero_and_validation(grid):
    assert weighted_norm(Field.zeros(grid), 1.0, 0.3) == 0.0
    u = Field(grid, np.cos(grid.x))
    with pytest.raises(ValueError):
        weighted_norm(u, 0.0, 0.0)


@pytest.mark.parametrize("delta", [0.0, -0.1, np.nan, np.inf])
def test_weighted_norm_rejects_a_bad_delta(delta):
    grid = Grid(64, 2 * np.pi)
    u = Field(grid, np.cos(grid.x))
    with pytest.raises(ValueError, match="delta must be positive and finite"):
        weighted_norm(u, 0.5, delta)


def test_weighted_norm_monotone_in_delta():
    grid = Grid(128, 16 * np.pi)
    u = Field(grid, np.exp(-(grid.x**2)))
    norms = [weighted_norm(u, 0.0, d) for d in (0.1, 0.5, 2.0)]
    assert norms[0] > norms[1] > norms[2] > 0


def test_weighted_norm_gaussian_quadrature_oracle():
    grid = Grid(256, 16 * np.pi)
    u = Field(grid, np.exp(-(grid.x**2) / 2))
    delta = 0.25
    # oracle: direct quadrature of <x>^(-1-2 delta) |u|^2
    w2 = (1 + grid.x**2) ** (-(0.5 + delta))
    expected = np.sqrt(np.sum(w2 * u.values**2) * (grid.length / grid.n))
    assert abs(weighted_norm(u, 0.0, delta) - expected) <= 1e-10 * expected


def test_x_derivative_mode(grid):
    u = Field(grid, np.sin(3 * grid.x))
    du = x_derivative(u)
    assert np.max(np.abs(du.values - 3 * np.cos(3 * grid.x))) < 1e-11


def trig_columns(grid, ks=(1, 3, 7), phases=(0.3, -1.1, 2.0)):
    """Columns cos(k x + phase), one per wavenumber, with their derivatives."""
    kx = np.outer(grid.x, ks) + np.array(phases)

    def derivative(order):
        return np.array(ks, dtype=float) ** order * np.cos(kx + order * np.pi / 2)

    return np.cos(kx), derivative


@pytest.mark.parametrize("order", [1, 2, 3])
def test_spectral_derivative_of_trigonometric_polynomials(grid, order):
    cols, derivative = trig_columns(grid)
    expected = derivative(order)
    tol = 1e-12 * 7.0**order
    along_0 = spectral_derivative(cols, grid, order, axis=0)
    along_last = spectral_derivative(cols.T, grid, order, axis=-1)
    assert not np.iscomplexobj(along_0) and not np.iscomplexobj(along_last)
    assert np.max(np.abs(along_0 - expected)) < tol
    assert np.max(np.abs(along_last - expected.T)) < tol
    # complex samples: exp(i k x) -> (i k)^order exp(i k x)
    ks = np.array([1, -4, 9])
    waves = np.exp(1j * np.outer(grid.x, ks))
    out = spectral_derivative(waves, grid, order, axis=0)
    assert np.iscomplexobj(out)
    assert np.max(np.abs(out - (1j * ks) ** order * waves)) < 1e-12 * 9.0**order


@pytest.mark.parametrize("order", [1, 2, 3])
def test_derivative_symbol_is_built_once_per_grid_and_order(grid, order):
    derivative_symbol.cache_clear()
    sym = derivative_symbol(grid, order)
    assert derivative_symbol(Grid(grid.n, grid.length), order) is sym
    assert derivative_symbol.cache_info().misses == 1
    assert not sym.flags.writeable
    expected = (1j * grid.xi) ** order
    if order % 2:
        expected[grid.n // 2] = 0.0
    else:
        expected = expected.real
    assert np.array_equal(sym, expected) and sym.dtype == expected.dtype


@pytest.mark.parametrize("order", [1, 2, 3])
def test_spectral_derivative_nyquist_mode(grid, order):
    nyquist = np.cos(grid.n // 2 * grid.x)
    out = spectral_derivative(nyquist, grid, order)
    if order % 2:
        assert np.max(np.abs(out)) < 1e-12
    else:
        assert np.max(np.abs(out - (-(grid.n // 2) ** 2) ** (order // 2) * nyquist)) \
            < 1e-12 * (grid.n // 2) ** order


@pytest.mark.parametrize("order", [1, 2, 3])
def test_x_derivative_is_the_kernel_on_fields(grid, order):
    rng = np.random.default_rng(order)
    real = random_band_limited(grid, rng)
    cplx = Field(grid, real.values + 1j * random_band_limited(grid, rng).values)
    for u in (real, cplx):
        du = x_derivative(u, order)
        col = spectral_derivative(np.stack([u.values, u.values], axis=1), grid,
                                  order, axis=0)[:, 1]
        assert du.is_real == u.is_real
        assert np.max(np.abs(du.values - col)) <= 1e-15 * max(np.max(np.abs(col)), 1.0)


def test_dealiased_product_matches_exact_convolution(grid):
    # two band-limited fields whose product still fits in the band: the
    # dealiased product must agree with the plain pointwise product
    u = Field(grid, np.cos(3 * grid.x))
    v = Field(grid, np.sin(5 * grid.x))
    w = dealiased_product(u, v)
    assert np.max(np.abs(w.values - u.values * v.values)) < 1e-13


def test_dealiased_product_kills_aliasing():
    grid = Grid(32, 2 * np.pi)
    k = 12  # k + k = 24 > n/2 = 16 would alias to -8 in a naive product
    u = Field(grid, np.cos(k * grid.x))
    w = dealiased_product(u, u)
    alias_idx = np.where(grid.k == -8)[0][0]
    naive = Field(grid, u.values * u.values)
    assert abs(naive.spectrum[alias_idx]) > 0.2  # aliased energy present
    assert abs(w.spectrum[alias_idx]) < 1e-14  # removed by padding


def test_band_tail_fraction(grid):
    smooth = Field(grid, np.cos(grid.x))
    assert band_tail_fraction(smooth) < 1e-14
    rough = Field.from_spectrum(
        grid, np.where(np.abs(grid.k) == grid.n // 2 - 1, 1.0, 0.0).astype(complex)
    )
    assert band_tail_fraction(rough) > 0.9


def test_json_round_trip(grid):
    rng = np.random.default_rng(6)
    u = random_band_limited(grid, rng)
    record = u.to_json()
    spec = np.array([complex(re, im) for re, im in record["spectrum"]])
    v = Field.from_spectrum(Grid(record["grid"]["n"], record["grid"]["length"]), spec)
    assert np.max(np.abs(v.values - u.values)) < 1e-13


def eager_values(grid, coeffs):
    """The values Field.from_spectrum computed eagerly before they were deferred."""
    vals = np.fft.ifft(coeffs / grid._phase * grid.n)
    if np.max(np.abs(vals.imag)) <= 1e-13 * max(np.max(np.abs(vals.real)), 1e-300):
        vals = vals.real
    return vals


def threshold_spectra(grid):
    """Spectra whose values carry an imaginary part of 0.99e-13 and of 1.01e-13
    times their real part: the first is real, the second stays complex."""
    return [series_coefficients(np.cos(grid.x) + 1j * r * np.sin(2 * grid.x), grid)
            for r in (0.99e-13, 1.01e-13)]


def test_from_spectrum_values_are_deferred_and_bit_identical(grid, fft_calls):
    real = random_band_limited(grid, np.random.default_rng(7)).spectrum
    cplx = real + 1j * random_band_limited(grid, np.random.default_rng(8)).spectrum
    below, above = threshold_spectra(grid)
    expected_real = {"real": True, "complex": False, "below": True, "above": False}
    for name, coeffs in zip(expected_real, (real, cplx, below, above)):
        ref = eager_values(grid, coeffs)
        fft_calls.clear()
        u = Field.from_spectrum(grid, coeffs)
        assert fft_calls == {}, name  # no inverse transform until values are read
        assert np.array_equal(u.values, ref) and u.values.dtype == ref.dtype, name
        assert u.is_real == expected_real[name], name
        assert u.values is u.values and fft_calls == {"ifft": 1}, name


def test_a_field_read_through_its_spectrum_runs_no_inverse_fft(grid, fft_calls):
    c = random_band_limited(grid, np.random.default_rng(9)).spectrum
    fft_calls.clear()
    u = multiplier(multiplier(Field.from_spectrum(grid, c), np.abs), np.abs)
    sobolev_norm(u, 1.0)
    band_tail_fraction(u)
    assert fft_calls == {}


def test_first_derivative_is_computed_once_per_field(grid, fft_calls):
    u = Field(grid, np.sin(3 * grid.x))
    fft_calls.clear()
    du = x_derivative(u)
    assert x_derivative(u) is du and x_derivative(u, 1) is du
    assert fft_calls == {"fft": 1, "ifft": 1}
    assert np.array_equal(du.values, spectral_derivative(u.values, grid, 1))
