"""Escape function, Doi bound, Kato integral, and quadratic-form fits."""

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gamma, hyp2f1

from capwave.corpus import gaussian_packet, power_law_field
from capwave.cutoffs import psi_cut
from capwave.dno import Geometry
from capwave.evolution import WaveState, run, symmetrized_residuals
from capwave.field import Field, Grid, sobolev_norm
from capwave.paradiff import Quantizer
from capwave.smoothing import (
    EPS_DOI,
    EscapeSymbol,
    _f_primitive,
    _phi,
    af_identity_check,
    bound_check,
    build_escape,
    garding_fit,
    kato_integral,
    unweighted_integral,
)
from capwave.symbols import Symbol
from capwave.verify import run_suite

GRID = Grid(128, 16 * np.pi)
GEO = Geometry("flat_bottom", 1.0)
DELTA = 0.1
ESC = build_escape(DELTA, GRID)


def quad_primitive(sigma, delta):
    """f(sigma) = int_0^sigma <y>^(-1-delta) dy by adaptive quadrature (oracle path)."""
    return np.array([quad(lambda y: np.hypot(1.0, y) ** (-1.0 - delta), 0.0, s,
                          epsabs=1e-12, epsrel=1e-12)[0] for s in sigma])


def f_limit(delta):
    """f(infinity) = sqrt(pi) Gamma(delta/2) / (2 Gamma((1+delta)/2)), closed form."""
    return float(np.sqrt(np.pi) * gamma(0.5 * delta) / (2.0 * gamma(0.5 * (1.0 + delta))))


def reference_escape_values(xv, eps, delta):
    """Independent re-evaluation of the escape assembly (oracle path)."""
    jx = np.hypot(1.0, xv)
    y = xv / jx
    pp = _phi(y / eps)
    pm = _phi(-y / eps)
    p0 = 1.0 - pp - pm
    f = quad_primitive(np.abs(xv), delta)
    return y * p0 + (2.0 * eps + f) * (pp - pm)


@pytest.mark.parametrize("grid", [Grid(128, 2 * np.pi), Grid(256, 16 * np.pi),
                                  Grid(512, 16 * np.pi)], ids=str)
@pytest.mark.parametrize("delta", [0.1, 0.4])
def test_f_primitive_closed_form_matches_quadrature(grid, delta):
    sigma = np.abs(grid.x)
    assert np.max(np.abs(_f_primitive(sigma, delta) - quad_primitive(sigma, delta))) < 1e-12
    assert abs(f_limit(delta) - quad_primitive([np.inf], delta)[0]) < 1e-12


@pytest.mark.parametrize("delta", [0.05, 0.1, 0.4, 1.0])
def test_f_primitive_matches_the_hypergeometric_closed_form(delta):
    # sigma 2F1(1/2, (1+delta)/2; 3/2; -sigma^2), far past the largest grid
    # half-length in use (8 pi), on both sides of every panel edge asinh(sigma) = k
    edges = np.sinh(np.arange(1, 8))
    sigma = np.concatenate([np.linspace(0.0, 30.0, 3001), np.geomspace(1e-8, 1e3, 2001),
                            edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)])
    closed = sigma * hyp2f1(0.5, 0.5 * (1.0 + delta), 1.5, -sigma**2)
    got = _f_primitive(sigma, delta)
    assert got[0] == 0.0
    assert np.max(np.abs(got[1:] - closed[1:]) / closed[1:]) <= 1e-13
    assert _f_primitive(0.0, delta) == 0.0 and np.shape(_f_primitive(2.0, delta)) == ()


def test_escape_validation():
    with pytest.raises(ValueError):
        build_escape(0.0, GRID)


@pytest.mark.parametrize("delta", [0.0, -0.1, np.nan, np.inf])
def test_escape_rejects_a_bad_delta(delta):
    with pytest.raises(ValueError, match="delta must be positive and finite"):
        build_escape(delta, GRID)


def test_escape_at_origin():
    idx = np.argmin(np.abs(GRID.x))
    b = ESC.blocks()
    assert abs(b["psi0"][idx] - 1.0) < 1e-15
    assert abs(ESC.values()[idx]) < 1e-15


def test_escape_far_field_monotone_to_limit():
    # as x -> +inf (xi > 0) the symbol increases to 2 eps + f(inf), which the
    # f-quadrature gives in closed approximation; on the truncated domain the
    # value is below the limit but already far above the transition scale
    vals = ESC.values()
    limit = 2.0 * EPS_DOI + f_limit(DELTA)
    right = vals[GRID.x > 1.0]
    assert np.all(np.diff(right) >= -1e-12)
    assert right[-1] < limit
    assert right[-1] > 2.0 * EPS_DOI
    # quadrature oracle for the limit: trapezoid integral of <y>^(-1-delta)
    # plus the analytic power-law tail (slowly decaying for small delta)
    y0 = 4000.0
    ys = np.linspace(0.0, y0, 400001)
    riemann = np.trapezoid(np.hypot(1.0, ys) ** (-1.0 - DELTA), ys)
    tail = y0**-DELTA / DELTA
    assert abs(limit - (2.0 * EPS_DOI + riemann + tail)) < 1e-3


def test_escape_partition_and_sign_structure():
    rng = np.random.default_rng(0)
    xv = rng.uniform(-20, 20, 20)
    eps = EPS_DOI
    jx = np.hypot(1.0, xv)
    y = xv / jx
    pp, pm = _phi(y / eps), _phi(-y / eps)
    p0 = 1.0 - pp - pm
    assert np.max(np.abs(p0 + pp + pm - 1.0)) < 1e-12
    # phi+(y) - phi-(y) = sgn(y) phi+(|y|)
    lhs = pp - pm
    rhs = np.sign(y) * _phi(np.abs(y) / eps)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_escape_odd_in_sign():
    traces = ESC.symbol().principal
    assert np.max(np.abs(traces[:, 0] - ESC.values())) == 0.0
    assert np.max(np.abs(traces[:, 0] + traces[:, 1])) == 0.0


def test_escape_values_match_reference():
    ref = reference_escape_values(GRID.x, EPS_DOI, DELTA)
    assert np.max(np.abs(ESC.values() - ref)) < 1e-12


def test_escape_x_derivative_fd_oracle():
    h = 1e-6
    fd = (reference_escape_values(GRID.x + h, EPS_DOI, DELTA)
          - reference_escape_values(GRID.x - h, EPS_DOI, DELTA)) / (2 * h)
    assert np.max(np.abs(ESC.x_derivative() - fd)) < 1e-8


def test_bound_check_flat_surface():
    rep = bound_check(Field.zeros(GRID), ESC)
    assert set(rep) == {"K_measured", "sum_vs_direct", "i3_plus_i5_min", "i1", "i4", "bracket"}
    assert rep["K_measured"] > 0
    assert rep["sum_vs_direct"] < 1e-12
    assert rep["i3_plus_i5_min"] >= -1e-14
    # I1 = (3/2) c <x>^(-1) psi0 with c = 1 inside the psi0 region
    b = ESC.blocks()
    core = b["psi0"] > 0.999
    assert np.max(np.abs(rep["i1"][core] - 1.5 / b["jx"][core])) < 1e-12
    # I4 = (3/2) c <x>^(-1-delta) in the farfield region
    far = b["psip"] > 0.999
    assert np.max(np.abs(rep["i4"][far] - 1.5 * b["jx"][far] ** (-1.0 - DELTA))) < 1e-12


def test_bound_check_reports_a_planted_negative_bracket(monkeypatch):
    # one negated entry of a_x makes the bracket negative there: the bound is
    # evaluated once, at EPS_DOI, and reports K <= 0
    x_derivative = EscapeSymbol.x_derivative
    calls = []

    def planted(self):
        calls.append(self)
        ax = x_derivative(self).copy()
        ax[len(ax) // 2] *= -1.0
        return ax

    monkeypatch.setattr(EscapeSymbol, "x_derivative", planted)
    rep = bound_check(Field.zeros(GRID), ESC)
    assert len(calls) == 1
    assert rep["K_measured"] <= 0
    assert "smoothing.doi_K_min" in run_suite("smoothing")["failures"]


def test_bound_check_decomposes_the_bracket_that_doi_bracket_builds(monkeypatch):
    # the decomposition is held against esc.doi_bracket, the symbol the
    # Garding fit quantizes: a bracket planted 1e-6 too large shows in it
    eta = Field(GRID, 0.05 * np.cos(2 * np.pi * GRID.x / GRID.length))
    assert bound_check(eta, ESC)["sum_vs_direct"] <= 1e-12
    doi_bracket = EscapeSymbol.doi_bracket

    def planted(self, eta):
        sym = doi_bracket(self, eta)
        return Symbol(sym.grid, sym.order, sym.principal * (1.0 + 1e-6), name=sym.name)

    monkeypatch.setattr(EscapeSymbol, "doi_bracket", planted)
    assert bound_check(eta, ESC)["sum_vs_direct"] > 1e-12


def test_bound_check_on_eta_corpus():
    for amp, seed in ((0.02, 3), (0.05, 4), (0.1, 5)):
        eta = gaussian_packet(GRID, 4.0, seed, amp)
        rep = bound_check(eta, ESC)
        assert rep["K_measured"] > 0, (amp, seed)
        assert rep["i3_plus_i5_min"] >= -1e-14


def test_scalar_reduce_zero_state():
    st = WaveState(0.0, Field.zeros(GRID), Field.zeros(GRID), GEO, nz=24)
    res = symmetrized_residuals(st)
    assert set(res) == {"phi", "f"}
    assert res["phi"].max_abs() == 0.0


def test_scalar_reduce_linear_regime():
    # at a nearly flat interface T_gamma acts like |D|^(3/2) on Phi
    grid = Grid(64, 2 * np.pi)
    st = WaveState(0.0, Field(grid, 1e-5 * np.cos(2 * grid.x)),
                   Field(grid, 1e-5 * np.sin(3 * grid.x)), GEO, nz=32)
    quant = st.quantizer
    phi = symmetrized_residuals(st)["phi"]
    lhs = quant.operator(st.symmetrizer_symbols[2])(phi)
    rhs = Field.from_spectrum(grid, np.abs(grid.xi) ** 1.5 * psi_cut(grid.xi) * phi.spectrum)
    num = sobolev_norm(lhs - rhs, 0.0)
    den = sobolev_norm(rhs, 0.0)
    assert num <= 1e-3 * den  # O(amplitude) symbol correction


def test_kato_integral_zero_trajectory():
    st = WaveState(0.0, Field.zeros(GRID), Field.zeros(GRID), GEO, nz=24)
    traj = run(st, 1e-3, 4, s=2.6, delta=DELTA)
    assert kato_integral(traj) == 0.0


def test_kato_integral_linear_mode_proportional_to_time():
    grid = Grid(64, 2 * np.pi)
    st = WaveState(0.0, Field(grid, 1e-4 * np.cos(2 * grid.x)),
                   Field.zeros(grid), GEO, nz=32)
    traj = run(st, 2e-3, 100, s=2.6, delta=DELTA)
    total = kato_integral(traj)
    w0 = traj.records[0].smoothing
    t_final = traj.times[-1]
    assert total > 0
    # the weighted norm of a standing mode oscillates about a fixed level
    assert 0.3 * w0 * t_final <= total <= 1.7 * w0 * t_final


def test_garding_fit_feasible_at_exact_bound():
    quant = Quantizer(GRID)

    weight = np.hypot(1.0, GRID.x) ** (-1.0 - 2 * DELTA)
    d_sym = Symbol(GRID, 0.5, weight[:, None], name="d")
    samples = [power_law_field(GRID, 2.5, s) for s in range(4)]
    samples += [gaussian_packet(GRID, 2.0, 10 + s, 1.0) for s in range(4)]
    rep = garding_fit(d_sym, DELTA, samples, quant)
    assert set(rep) == {"a", "A"}
    assert rep["a"] > 0
    assert rep["A"] >= 0

    doubled = Symbol(GRID, 0.5, 2.0 * weight[:, None], name="2d")
    rep2 = garding_fit(doubled, DELTA, samples, quant)
    assert rep2["a"] >= rep["a"]


def test_garding_low_frequency_sample_feasible_via_lower_order_term():
    quant = Quantizer(GRID)

    weight = np.hypot(1.0, GRID.x) ** (-1.0 - 2 * DELTA)
    d_sym = Symbol(GRID, 0.5, weight[:, None], name="d")
    low = Field.from_spectrum(
        GRID, np.where(np.abs(GRID.xi) <= 0.5, 1.0, 0.0).astype(complex))
    assert quant.quantize(d_sym, low).max_abs() == 0.0
    rep = garding_fit(d_sym, DELTA, [low], quant)
    assert rep["a"] > 0
    assert rep["A"] > 0  # feasibility carried entirely by the A-term


def test_garding_rejects_symbol_below_bound():
    quant = Quantizer(GRID)
    bad = Symbol(GRID, 0.5, -np.ones(2), name="bad")
    with pytest.raises(ValueError):
        garding_fit(bad, DELTA, [power_law_field(GRID, 2.5, 0)], quant)


@pytest.fixture(scope="module")
def packet_states():
    eta0 = gaussian_packet(GRID, 3.85, 21, 1e-3)
    psi0 = gaussian_packet(GRID, 3.35, 22, 1e-3)
    st = WaveState(0.0, eta0, psi0, GEO, nz=32, tail_tol=0.05)
    coarse = run(st, 5e-3, 40, s=2.6, delta=DELTA, sample_stride=4, state_stride=4)
    fine = run(st, 2.5e-3, 80, s=2.6, delta=DELTA, sample_stride=4, state_stride=4)
    return coarse, fine


def test_af_identity_quadrature_convergence(packet_states):
    coarse, fine = packet_states
    rep_c = af_identity_check(coarse.states, ESC)
    rep_f = af_identity_check(fine.states, ESC)
    assert set(rep_c) == {"lhs", "defect", "bound_ratio"}
    assert rep_c["defect"] <= 1e-3 * abs(rep_c["lhs"]) + 1e-14
    assert rep_f["defect"] <= 0.35 * rep_c["defect"] + 1e-16
    assert rep_f["bound_ratio"] <= 10.0


def test_weighted_integral_bounded_by_sup_norms(packet_states):
    coarse, _ = packet_states
    total = kato_integral(coarse)
    sup_pair = max(r.eta_norm**2 + r.psi_norm**2 for r in coarse.records)
    t_final = coarse.times[-1]
    assert total <= 5.0 * sup_pair * t_final
    assert unweighted_integral(coarse) > 0


def test_unweighted_integral_equals_the_stored_state_formula(packet_states):
    # one stored state per record: the records' integrand is the norm the
    # stored states give, so the integral matches bit for bit
    coarse, _ = packet_states
    assert len(coarse.states) == len(coarse.records)
    w = np.array([sobolev_norm(st.eta, 2.6 + 0.75) ** 2 for st in coarse.states])
    assert unweighted_integral(coarse) == float(np.trapezoid(w, coarse.times))


def test_unweighted_integral_needs_no_stored_states():
    eta0 = gaussian_packet(GRID, 3.85, 21, 1e-3)
    psi0 = gaussian_packet(GRID, 3.35, 22, 1e-3)
    st = WaveState(0.0, eta0, psi0, GEO, nz=32, tail_tol=0.05)
    traj = run(st, 5e-3, 12, s=2.6, delta=DELTA, sample_stride=4)
    assert len(traj.states) == 2 < len(traj.records)
    total = unweighted_integral(traj)
    assert np.isfinite(total) and total > 0


def test_doi_bound_along_trajectory(packet_states):
    # the bracket bound holds at each sampled time, not just at t = 0
    coarse, _ = packet_states
    for st in coarse.states[:: max(1, len(coarse.states) // 3)]:
        rep = bound_check(st.eta, ESC)
        assert rep["K_measured"] > 0
