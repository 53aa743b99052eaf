"""Quantizer against a direct-summation oracle, plus measured calculus orders."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capwave.dno import Geometry
from capwave.field import Field, Grid, sobolev_norm
from capwave.paradiff import (
    DenseOp,
    ProbeError,
    Quantizer,
    adjoint_symbol,
    bony_residual,
    compose,
    measured_regularity,
    paraproduct_defect,
    remainder_order,
    shell_field,
)
from capwave.smoothing import build_escape
from capwave.symbols import (
    Mollifier,
    Symbol,
    curvature_symbol,
    dn_symbol,
    elliptic_weight,
    factorization,
    mollifier_symbol,
    parametrix,
    symmetrizer,
)

GRID = Grid(64, 2 * np.pi)
Q = Quantizer(GRID)
ETA = Field(GRID, 0.1 * np.cos(GRID.x) + 0.05 * np.cos(2 * GRID.x + 0.7))


def direct_quantize(quantizer, symbol, u):
    """O(n^2) direct summation over output/input frequencies (oracle path)."""
    grid = u.grid
    n = grid.n
    sample = symbol.sample_grid()
    # symbol x-transform by direct summation, one column per frozen frequency
    ahat = np.empty((n, n), dtype=complex)
    for m in range(n):
        ahat[m, :] = np.sum(
            sample * np.exp(-1j * grid.xi[m] * grid.x)[:, None], axis=0) / n
    c_in = u.spectrum
    c_out = np.zeros(n, dtype=complex)
    for i_out in range(n):
        for i_in in range(n):
            d = grid.k[i_out] - grid.k[i_in]
            if abs(d) > n // 2 or grid.k[i_in] == 0:
                continue
            eta_f = grid.xi[i_in]
            chi = quantizer.chi_profile(
                abs(grid.xi[i_out] - eta_f) / abs(eta_f))
            psi = quantizer.psi_cut(np.array([eta_f]))[0]
            m_idx = int(d % n)
            c_out[i_out] += chi * ahat[m_idx, i_in] * psi * c_in[i_in]
    return c_out


def sampled_matrix(quantizer, symbol):
    """Dense matrix from the full (x, xi) sample of the symbol (oracle path)."""
    grid = quantizer.grid
    k = grid.k
    diff = k[:, None] - k[None, :]
    ahat = np.fft.fft(symbol.sample_grid(), axis=0) * grid._phase[:, None] / grid.n
    gathered = np.take_along_axis(ahat, np.mod(diff, grid.n), axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(k[None, :] != 0, np.abs(diff) / np.abs(k)[None, :], np.inf)
    chi = quantizer.chi_profile(ratio) * (np.abs(diff) <= grid.n // 2)
    return chi * gathered * quantizer.psi_cut(grid.xi)[None, :]


def trace_constructors(eta):
    """Every trace-symbol constructor, built on eta."""
    grid = eta.grid
    lam = dn_symbol(eta)
    h = curvature_symbol(eta)
    p, q, gam = symmetrizer(eta)
    a_s, A_s = factorization(eta, Geometry("parallel_strip", 1.0))
    return [lam, h, p, q, gam, parametrix(eta, p), a_s, A_s,
            elliptic_weight(eta, 2.6), compose(p, lam, 1.5), compose(q, h, 1.5),
            adjoint_symbol(gam, 1.5), Symbol.from_field(eta),
            Symbol.from_multiplier(grid, 1.5), build_escape(0.1, 0.05, grid).symbol(),
            build_escape(0.1, 0.05, grid).doi_bracket(eta)]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(n=st.sampled_from([64, 128]), periods=st.sampled_from([1.0, 8.0]),
       amps=st.lists(st.floats(-0.1, 0.1), min_size=3, max_size=3),
       phases=st.lists(st.floats(0.0, 2 * np.pi), min_size=3, max_size=3))
def test_factored_matrix_matches_sampled_path(n, periods, amps, phases):
    # L = 16 pi puts grid frequencies |xi| < 1 under negative orders
    grid = Grid(n, 2 * np.pi * periods)
    quant = Quantizer(grid)
    wave = 2 * np.pi / grid.length
    eta = Field(grid, sum(a * np.cos((j + 1) * wave * grid.x + ph)
                          for j, (a, ph) in enumerate(zip(amps, phases))))
    for sym in trace_constructors(eta):
        assert not isinstance(sym, Mollifier), sym.name
        got = quant.matrix(sym)
        assert np.all(np.isfinite(got)), sym.name
        ref = sampled_matrix(quant, sym)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref)), sym.name


def test_nonhomogeneous_symbol_uses_full_sample(monkeypatch):
    # the mollifier is not homogeneous: it is sampled, not factored
    _, _, gam = symmetrizer(ETA)
    sampled = []
    sample_grid = Symbol.sample_grid
    monkeypatch.setattr(Symbol, "sample_grid",
                        lambda self: sampled.append(self.name) or sample_grid(self))
    for sym in (mollifier_symbol(ETA, 0.1, gam), Mollifier(gam, 0.01, -1.0, name="j-1")):
        got = Q.matrix(sym)
        ref = sampled_matrix(Q, sym)
        assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))
    assert sampled == ["mollifier(eps=0.1)"] * 2 + ["j-1"] * 2


def power_law_field(grid, sigma, seed, amplitude=1.0):
    rng = np.random.default_rng(seed)
    n = grid.n
    kk = np.abs(grid.k).astype(float)
    c = np.zeros(n, dtype=complex)
    mask = kk > 0
    c[mask] = kk[mask] ** -sigma * np.exp(2j * np.pi * rng.random(mask.sum()))
    c[n // 2 + 1:] = np.conj(c[1:n // 2][::-1])
    c[n // 2] = 0.0
    return Field.from_spectrum(grid, amplitude * c)


def test_cutoff_profiles():
    r = np.array([0.05, 0.1, 0.15, 0.2, 0.5])
    chi = Q.chi_profile(r)
    assert chi[0] == 1.0 and chi[1] == 1.0
    assert chi[3] == 0.0 and chi[4] == 0.0
    assert 0.0 < chi[2] < 1.0
    eta_f = np.array([0.5, 1.0, 1.5, 2.0, 8.0])
    psi = Q.psi_cut(eta_f)
    assert psi[0] == 0.0 and psi[1] == 0.0
    assert psi[3] == 1.0 and psi[4] == 1.0


def test_dense_matches_direct_summation_oracle():
    gam = symmetrizer(ETA)[2]
    rng = np.random.default_rng(0)
    u = shell_field(GRID, 3, 0.0, rng)
    got = Q.quantize(gam, u).spectrum
    ref = direct_quantize(Q, gam, u)
    assert np.max(np.abs(got - ref)) < 1e-13


def test_constant_symbol_is_high_pass():
    one = Symbol.from_multiplier(GRID, 0.0)
    rng = np.random.default_rng(1)
    u = shell_field(GRID, 3, 0.0, rng)
    got = Q.quantize(one, u).spectrum
    assert np.max(np.abs(got - Q.psi_cut(GRID.xi) * u.spectrum)) == 0.0


def test_multiplier_symbol_exact():
    sym = Symbol.from_multiplier(GRID, 1.5)
    rng = np.random.default_rng(2)
    u = shell_field(GRID, 3, 0.0, rng)
    got = Q.quantize(sym, u).spectrum
    ref = np.abs(GRID.xi) ** 1.5 * Q.psi_cut(GRID.xi) * u.spectrum
    assert np.max(np.abs(got - ref)) < 1e-15


def test_paraproduct_on_high_mode():
    a = Field(GRID, 1.0 + 0.2 * np.cos(GRID.x))
    u = Field(GRID, np.cos(20 * GRID.x))
    got = Q.quantize(Symbol.from_field(a), u)
    assert np.max(np.abs(got.values - a.values * u.values)) < 1e-12


def test_low_frequency_annihilation():
    gam = symmetrizer(ETA)[2]
    low = Field.from_spectrum(
        GRID, np.where(np.abs(GRID.k) <= 0, 0.7, 0.0).astype(complex))
    assert Q.quantize(gam, low).max_abs() == 0.0


def test_reality_preservation():
    gam = symmetrizer(ETA)[2]
    rng = np.random.default_rng(3)
    u = shell_field(GRID, 3, 0.0, rng)
    out = Q.quantize(gam, u)
    assert np.max(np.abs(np.asarray(out.values, dtype=complex).imag)) \
        <= 1e-12 * out.max_abs()


def test_operator_norm_bounded_across_shells():
    # sc0-type probe: H^mu -> H^(mu-m) ratios show no growth trend in j
    gam = symmetrizer(ETA)[2]
    op = Q.operator(gam)
    mu = 2.0
    rng = np.random.default_rng(4)
    ratios = []
    for j in range(2, 5):
        u = shell_field(GRID, j, mu, rng)
        ratios.append(sobolev_norm(op(u), mu - gam.order))
    assert max(ratios) <= 2.0 * min(ratios)


def test_paraproduct_with_rough_symbol():
    # shifted boundedness survives a low-regularity paraproduct function
    a = power_law_field(GRID, 0.55, seed=11)  # barely L^2
    op = Q.operator(Symbol.from_field(a, name="rough"))
    mu, m = 2.0, 0.5
    rng = np.random.default_rng(5)
    ratios = []
    for j in range(2, 5):
        u = shell_field(GRID, j, mu, rng)
        ratios.append(sobolev_norm(op(u), mu - m))
    # boundedness is one-sided: no upward trend across shells, and the
    # constant stays comparable to ||a||_{L^2}
    assert ratios[-1] <= 2.0 * max(ratios[:-1])
    assert max(ratios) <= 5.0 * sobolev_norm(a, 0.0)


# -- composition and adjoint ----------------------------------------------


def test_compose_with_one_is_identity():
    gam = symmetrizer(ETA)[2]
    one = Symbol.from_multiplier(GRID, 0.0)
    xi = np.array([1.0, 2.0, -5.0])
    comp = compose(gam, one, 1.5)
    assert np.max(np.abs(comp.principal_at(xi) - gam.principal_at(xi))) < 1e-14
    assert np.max(np.abs(comp.subprincipal_at(xi) - gam.subprincipal_at(xi))) < 1e-14


def test_compose_one_term_leibniz():
    # a = |xi|, b = q(x): a#b = |xi| q + (1/i) sgn(xi) q_x
    qvals = 1.0 + 0.1 * np.sin(GRID.x)
    b = Symbol.from_field(Field(GRID, qvals), name="q")
    a = Symbol.from_multiplier(GRID, 1.0, name="|xi|")
    comp = compose(a, b, 1.5)
    xi = np.array([1.0, 2.0, -3.0])
    qx = 0.1 * np.cos(GRID.x)
    expected_sub = (1.0 / 1j) * np.sign(xi)[None, :] * qx[:, None]
    assert np.max(np.abs(comp.principal_at(xi)
                         - np.abs(xi)[None, :] * qvals[:, None])) < 1e-13
    assert np.max(np.abs(comp.subprincipal_at(xi) - expected_sub)) < 1e-12


def test_symmetrizer_compositions_agree():
    # p#lambda and gamma#q agree at both retained orders
    lam = dn_symbol(ETA)
    p, q, gam = symmetrizer(ETA)
    left = compose(p, lam, 1.5)
    right = compose(gam, q, 1.5)
    xi = np.array([1.0, 2.0, -1.0, -2.0, 6.0])
    assert np.max(np.abs(left.principal_at(xi) - right.principal_at(xi))) < 1e-10
    assert np.max(np.abs(left.subprincipal_at(xi) - right.subprincipal_at(xi))) < 1e-10


def test_adjoint_real_multiplier():
    a = Symbol.from_multiplier(GRID, 1.0)
    astar = adjoint_symbol(a, 1.5)
    xi = np.array([1.0, -2.0, 4.0])
    assert np.max(np.abs(astar.total_at(xi) - a.total_at(xi))) < 1e-14


def test_gamma_self_adjoint_at_symbol_level():
    _, _, gam = symmetrizer(ETA)
    gstar = adjoint_symbol(gam, 1.5)
    xi = np.array([1.0, 2.0, -1.0, -2.0, 5.0])
    assert np.max(np.abs(gstar.total_at(xi) - gam.total_at(xi))) < 1e-8


def test_double_adjoint_returns_symbol():
    _, _, gam = symmetrizer(ETA)
    back = adjoint_symbol(adjoint_symbol(gam, 1.5), 1.5)
    xi = np.array([1.0, 2.0, -3.0])
    assert np.max(np.abs(back.total_at(xi) - gam.total_at(xi))) < 1e-10


# -- measured remainder orders ---------------------------------------------


@pytest.fixture(scope="module")
def probe_setup():
    grid = Grid(512, 2 * np.pi)
    quant = Quantizer(grid)
    eta = Field(grid, 0.1 * np.cos(grid.x) + 0.05 * np.cos(2 * grid.x + 0.7))
    return grid, quant, eta


def test_composition_remainder_order(probe_setup):
    grid, quant, eta = probe_setup
    q = symmetrizer(eta)[1]
    h = curvature_symbol(eta)
    Tq, Th = quant.operator(q), quant.operator(h)
    Tqh = quant.operator(compose(q, h, 1.5))
    rep = remainder_order(lambda f: Tq(Th(f)), Tqh.apply, 2.0,
                          q.order + h.order, grid, shells=range(3, 8), seed=1)
    assert rep["gain"] >= 1.25, rep


def test_adjoint_remainder_order(probe_setup):
    grid, quant, eta = probe_setup
    gam = symmetrizer(eta)[2]
    Tg = quant.operator(gam)
    Tgs = quant.operator(adjoint_symbol(gam, 1.5))
    rep = remainder_order(Tg.adjoint().apply, Tgs.apply, 2.0, gam.order,
                          grid, shells=range(3, 8), seed=2)
    assert rep["gain"] >= 1.25, rep


def test_equal_operators_saturate_at_floor(probe_setup):
    grid, quant, eta = probe_setup
    gam = symmetrizer(eta)[2]
    Tg = quant.operator(gam)
    rep = remainder_order(Tg.apply, Tg.apply, 2.0, gam.order, grid,
                          shells=range(3, 8), seed=3)
    assert rep["at_floor"] and rep["gain"] == float("inf")


def test_shell_out_of_band_rejected():
    rng = np.random.default_rng(0)
    with pytest.raises(ProbeError):
        shell_field(GRID, 6, 0.0, rng)  # 2^7 > ximax = 32


# -- Bony paralinearization -------------------------------------------------


def test_bony_linear_function_residual_zero():
    a = power_law_field(GRID, 2.5, seed=21)
    res = bony_residual(lambda v: 3.0 * v, lambda v: 3.0 * np.ones_like(v), a, Q)
    # linear F: residual = 3a - T_3 a = 3 (a - psi(D) a): low modes only
    tail = Field.from_spectrum(
        GRID, res.spectrum * (np.abs(GRID.xi) >= 4.0))
    assert sobolev_norm(tail, 0.0) < 1e-13


def test_bony_square_two_paths_agree():
    a = power_law_field(GRID, 2.5, seed=22)
    res1 = bony_residual(lambda v: v**2, lambda v: 2.0 * v, a, Q)
    res2 = paraproduct_defect(a, a, Q)
    assert np.max(np.abs(res1.values - res2.values)) < 1e-13


def test_bony_residual_is_smoother():
    grid = Grid(512, 2 * np.pi)
    quant = Quantizer(grid)
    a = power_law_field(grid, 2.0, seed=23)  # regularity ~ 1.5
    res = bony_residual(lambda v: 1.0 / np.sqrt(1.0 + v**2),
                        lambda v: -v / (1.0 + v**2) ** 1.5, a, quant)
    s_a = measured_regularity(a, 3, 7)
    s_res = measured_regularity(res, 3, 7)
    assert s_res >= s_a + 0.75, (s_a, s_res)


def test_measured_regularity_power_law():
    grid = Grid(512, 2 * np.pi)
    u = power_law_field(grid, 2.5, seed=24)
    s = measured_regularity(u, 2, 7)
    assert abs(s - 2.0) < 0.2
