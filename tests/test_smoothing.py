"""Escape function, Doi bound, Kato integral, and quadratic-form fits."""

import numpy as np
import pytest
from scipy.integrate import quad

from capwave.corpus import gaussian_packet, power_law_field
from capwave.dno import Geometry
from capwave.evolution import WaveState, run, symmetrized_residuals
from capwave.field import Field, Grid, sobolev_norm
from capwave.paradiff import Quantizer
from capwave.smoothing import (
    EscapeSymbol,
    _f_limit,
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

GRID = Grid(128, 16 * np.pi)
GEO = Geometry("flat_bottom", 1.0)
DELTA = 0.1
ESC = build_escape(DELTA, 0.05, GRID)


def quad_primitive(sigma, delta):
    """f(sigma) = int_0^sigma <y>^(-1-delta) dy by adaptive quadrature (oracle path)."""
    return np.array([quad(lambda y: np.hypot(1.0, y) ** (-1.0 - delta), 0.0, s,
                          epsabs=1e-12, epsrel=1e-12)[0] for s in sigma])


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
    assert abs(_f_limit(delta) - quad_primitive([np.inf], delta)[0]) < 1e-12


def test_escape_validation():
    with pytest.raises(ValueError):
        build_escape(0.0, 0.05, GRID)
    with pytest.raises(ValueError):
        build_escape(0.1, 0.9, GRID)


def test_escape_at_origin():
    idx = np.argmin(np.abs(GRID.x))
    b = ESC.blocks()
    assert abs(b["psi0"][idx] - 1.0) < 1e-15
    assert abs(ESC.values(1.0)[idx]) < 1e-15


def test_escape_far_field_monotone_to_limit():
    # as x -> +inf (xi > 0) the symbol increases to 2 eps + f(inf), which the
    # f-quadrature gives in closed approximation; on the truncated domain the
    # value is below the limit but already far above the transition scale
    vals = ESC.values(1.0)
    limit = ESC.far_field_limit()
    right = vals[GRID.x > 1.0]
    assert np.all(np.diff(right) >= -1e-12)
    assert right[-1] < limit
    assert right[-1] > 2.0 * ESC.eps_doi
    # quadrature oracle for the limit: trapezoid integral of <y>^(-1-delta)
    # plus the analytic power-law tail (slowly decaying for small delta)
    y0 = 4000.0
    ys = np.linspace(0.0, y0, 400001)
    riemann = np.trapezoid(np.hypot(1.0, ys) ** (-1.0 - DELTA), ys)
    tail = y0**-DELTA / DELTA
    assert abs(limit - (2.0 * ESC.eps_doi + riemann + tail)) < 1e-3


def test_escape_partition_and_sign_structure():
    rng = np.random.default_rng(0)
    xv = rng.uniform(-20, 20, 20)
    eps = ESC.eps_doi
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
    assert np.max(np.abs(ESC.values(1.0) + ESC.values(-1.0))) == 0.0


def test_escape_values_match_reference():
    ref = reference_escape_values(GRID.x, ESC.eps_doi, DELTA)
    assert np.max(np.abs(ESC.values(1.0) - ref)) < 1e-12


def test_escape_x_derivative_fd_oracle():
    h = 1e-6
    fd = (reference_escape_values(GRID.x + h, ESC.eps_doi, DELTA)
          - reference_escape_values(GRID.x - h, ESC.eps_doi, DELTA)) / (2 * h)
    assert np.max(np.abs(ESC.x_derivative(1.0) - fd)) < 1e-8


def test_bound_check_flat_surface():
    rep = bound_check(Field.zeros(GRID), ESC)
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


def test_bound_check_on_eta_corpus():
    for amp, seed in ((0.02, 3), (0.05, 4), (0.1, 5)):
        eta = gaussian_packet(GRID, 4.0, seed, amp)
        rep = bound_check(eta, ESC)
        assert rep["K_measured"] > 0, (amp, seed)
        assert rep["i3_plus_i5_min"] >= -1e-14


def test_scalar_reduce_zero_state():
    st = WaveState(0.0, Field.zeros(GRID), Field.zeros(GRID), GEO, nz=24)
    assert symmetrized_residuals(st)["phi"].max_abs() == 0.0


def test_scalar_reduce_linear_regime():
    # at a nearly flat interface T_gamma acts like |D|^(3/2) on Phi
    grid = Grid(64, 2 * np.pi)
    st = WaveState(0.0, Field(grid, 1e-5 * np.cos(2 * grid.x)),
                   Field(grid, 1e-5 * np.sin(3 * grid.x)), GEO, nz=32)
    quant = st.quantizer
    phi = symmetrized_residuals(st)["phi"]
    lhs = quant.operator(st.symmetrizer_symbols[2])(phi)
    psi_c = quant.psi_cut(grid.xi)
    rhs = Field.from_spectrum(grid, np.abs(grid.xi) ** 1.5 * psi_c * phi.spectrum)
    num = sobolev_norm(lhs - rhs, 0.0)
    den = sobolev_norm(rhs, 0.0)
    assert num <= 1e-3 * den  # O(amplitude) symbol correction


def test_kato_integral_zero_trajectory():
    st = WaveState(0.0, Field.zeros(GRID), Field.zeros(GRID), GEO, nz=24)
    traj = run(st, 1e-3, 4, scheme="rk4", s=2.6, delta=DELTA)
    assert kato_integral(traj, 2.6, DELTA) == 0.0


def test_kato_integral_linear_mode_proportional_to_time():
    grid = Grid(64, 2 * np.pi)
    st = WaveState(0.0, Field(grid, 1e-4 * np.cos(2 * grid.x)),
                   Field.zeros(grid), GEO, nz=32)
    traj = run(st, 2e-3, 100, scheme="etdrk4", s=2.6, delta=DELTA)
    total = kato_integral(traj, 2.6, DELTA)
    w0 = traj.records[0].smoothing
    t_final = traj.times[-1]
    assert total > 0
    # the weighted norm of a standing mode oscillates about a fixed level
    assert 0.3 * w0 * t_final <= total <= 1.7 * w0 * t_final


def test_kato_integral_undersampling_flag():
    grid = Grid(64, 2 * np.pi)
    st = WaveState(0.0, Field(grid, 1e-4 * np.cos(2 * grid.x)),
                   Field.zeros(grid), GEO, nz=32)
    traj = run(st, 2e-3, 20, scheme="etdrk4", s=2.6, delta=DELTA, sample_stride=5)
    with pytest.raises(ValueError):
        kato_integral(traj, 2.6, DELTA, omega_cutoff=1e4)


def test_garding_fit_feasible_at_exact_bound():
    quant = Quantizer(GRID)

    weight = np.hypot(1.0, GRID.x) ** (-1.0 - 2 * DELTA)
    d_sym = Symbol(GRID, 0.5, weight[:, None], name="d")
    samples = [power_law_field(GRID, 2.5, s) for s in range(4)]
    samples += [gaussian_packet(GRID, 2.0, 10 + s, 1.0) for s in range(4)]
    rep = garding_fit(d_sym, DELTA, samples, quant)
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
    coarse = run(st, 5e-3, 40, scheme="etdrk4", s=2.6, delta=DELTA,
                 sample_stride=4, state_stride=4)
    fine = run(st, 2.5e-3, 80, scheme="etdrk4", s=2.6, delta=DELTA,
               sample_stride=4, state_stride=4)
    return coarse, fine


def test_af_identity_quadrature_convergence(packet_states):
    coarse, fine = packet_states
    rep_c = af_identity_check(coarse.states, ESC)
    rep_f = af_identity_check(fine.states, ESC)
    assert rep_c["defect"] <= 1e-3 * abs(rep_c["lhs"]) + 1e-14
    assert rep_f["defect"] <= 0.35 * rep_c["defect"] + 1e-16
    assert rep_f["bound_ratio"] <= 10.0


def test_weighted_integral_bounded_by_sup_norms(packet_states):
    coarse, _ = packet_states
    total = kato_integral(coarse, 2.6, DELTA)
    sup_pair = max(r.eta_norm**2 + r.psi_norm**2 for r in coarse.records)
    t_final = coarse.times[-1]
    assert total <= 5.0 * sup_pair * t_final
    assert unweighted_integral(coarse, 2.6) > 0


def test_doi_bound_along_trajectory(packet_states):
    # the bracket bound holds at each sampled time, not just at t = 0
    coarse, _ = packet_states
    for st in coarse.states[:: max(1, len(coarse.states) // 3)]:
        rep = bound_check(st.eta, ESC)
        assert rep["K_measured"] > 0
