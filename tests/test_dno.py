"""Dirichlet-Neumann solver against separation-of-variables, dense-assembly,
and finite-difference oracles."""

import gc
import weakref

import numpy as np
import pytest

from capwave import dno
from capwave.corpus import power_law_field
from capwave.dno import (
    Geometry,
    GeometryError,
    SolverError,
    cancellation_residual,
    compute_B_V,
    dirichlet_neumann,
    shape_derivative,
    solve_strip,
)
from capwave.field import Field, Grid, l2_inner, sobolev_norm, spectral_derivative, \
    x_derivative

GRID = Grid(64, 2 * np.pi)
FLAT = Geometry("flat_bottom", 1.0)
STRIP = Geometry("parallel_strip", 1.0)


def cos_field(grid, k, amp=1.0):
    return Field(grid, amp * np.cos(k * grid.x))


def test_geometry_validation():
    with pytest.raises(GeometryError):
        Geometry("flat_bottom", -1.0)
    with pytest.raises(GeometryError):
        Geometry("sloped", 1.0)
    for value in (float("nan"), float("inf")):
        for bad in ({"depth": value}, {"g": value}, {"kappa": value}):
            with pytest.raises(GeometryError, match="finite"):
                Geometry("flat_bottom", **{"depth": 1.0, **bad})


def test_degenerate_layer_rejected():
    eta = Field(GRID, -1.5 * np.ones(GRID.n))  # below the bottom at h0 = 1
    with pytest.raises(GeometryError):
        solve_strip(eta, cos_field(GRID, 1), FLAT, 16)


def rel_dev(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


@pytest.mark.parametrize("amp", [0.1, 0.5, 0.9])
def test_strip_coefficients_match_the_closed_forms(amp):
    """One lift, both bottoms: the coefficients each geometry used to spell out."""
    eta = Field(GRID, amp * np.cos(GRID.x + 0.3))
    ex, ex1 = eta.values, x_derivative(eta).values
    v = np.random.default_rng(0).standard_normal((16, GRID.n))

    # flat bottom, rho = (1+z) eta + z h0: bit-equal, bottom row dv/dz
    op = dno._StripOperator(eta, FLAT, 16)
    zc = op.z[:, None]
    depth = FLAT.depth + ex
    b = ex1 / depth
    bp = spectral_derivative(b, GRID)
    assert np.array_equal(op.czz, 1.0 / depth[None, :] ** 2 + (1.0 + zc) ** 2 * b[None, :] ** 2)
    assert np.array_equal(op.cxz, -2.0 * (1.0 + zc) * b[None, :])
    assert np.array_equal(op.cz, (1.0 + zc) * (b[None, :] ** 2 - bp[None, :]))
    assert np.array_equal(op.apply(v)[-1], (op.Dz @ v)[-1])

    # parallel strip, rho = h z + eta: the eta_xx form to rounding
    op = dno._StripOperator(eta, STRIP, 16)
    h, ones = STRIP.depth, np.ones((16, 1))
    assert rel_dev(op.czz, ones * (1.0 + ex1**2) / h**2) < 1e-12
    assert rel_dev(op.cxz, ones * (-2.0 * ex1 / h)) < 1e-12
    assert rel_dev(op.cz, ones * (-spectral_derivative(eta.values, GRID, 2) / h)) < 1e-12
    bottom = (1.0 + ex1**2) * (op.Dz @ v)[-1] - h * ex1 * spectral_derivative(v[-1], GRID)
    assert rel_dev(op.apply(v)[-1], bottom) < 1e-12


def test_strip_separation_of_variables_oracle():
    # eta = 0, psi = cos(kx): v = cos(kx) cosh(k h0 (1+z)) / cosh(k h0)
    k, h0 = 3, 1.0
    sol = solve_strip(Field.zeros(GRID), cos_field(GRID, k), Geometry("flat_bottom", h0), 32)
    profile = np.cosh(k * h0 * (1 + sol.operator.z)) / np.cosh(k * h0)
    exact = np.cos(k * GRID.x)[None, :] * profile[:, None]
    assert np.max(np.abs(sol.v - exact)) < 1e-12
    assert sol.residual < 1e-10


def test_constant_dirichlet_data():
    one = Field(GRID, np.ones(GRID.n))
    eta = cos_field(GRID, 1, 0.1)
    sol = solve_strip(eta, one, FLAT, 16)
    assert np.max(np.abs(sol.v - 1.0)) < 1e-11
    g = dirichlet_neumann(eta, one, FLAT, 16)
    assert g.max_abs() < 1e-11  # G(eta) annihilates constants


@pytest.mark.parametrize("geo", [FLAT, STRIP])
def test_gmres_matches_dense_assembly(geo):
    # dense linear-algebra oracle: the same discrete operator assembled and
    # solved directly must agree with the matrix-free GMRES path
    eta = Field(GRID, 0.05 * np.cos(2 * np.pi * GRID.x / GRID.length))
    psi = Field(GRID, np.sin(GRID.x))
    s_it = solve_strip(eta, psi, geo, 16, method="gmres")
    s_dn = solve_strip(eta, psi, geo, 16, method="dense")
    scale = np.max(np.abs(s_dn.v))
    assert np.max(np.abs(s_it.v - s_dn.v)) <= 1e-6 * scale


@pytest.mark.parametrize("geo", [FLAT, STRIP])
def test_gmres_matches_dense_at_large_amplitude(geo):
    # amplitude 0.9 of the depth, where the preconditioner is furthest from
    # the operator; the reported residual has one meaning on both paths
    grid = Grid(32, 2 * np.pi)
    eta = cos_field(grid, 1, 0.9)
    psi = Field(grid, np.sin(grid.x) + 0.3 * np.cos(3 * grid.x))
    s_it = solve_strip(eta, psi, geo, 16, method="gmres")
    s_dn = solve_strip(eta, psi, geo, 16, method="dense")
    assert np.max(np.abs(s_it.v - s_dn.v)) <= 1e-9 * np.max(np.abs(s_dn.v))
    g_it, g_dn = s_it.trace_dn(), s_dn.trace_dn()
    assert np.max(np.abs(g_it.values - g_dn.values)) <= 1e-9 * g_dn.max_abs()
    assert s_it.iterations > 0
    assert s_it.residual == s_it.residual_history[-1]
    assert s_dn.residual_history == () and s_dn.iterations == 0


def flat_inverse_reference(w, nz, h, xi):
    """P_h^-1 w by per-mode dense solves of the flat operator at depth h."""
    _, dz = dno.chebyshev(nz)
    flat = dz @ dz / h**2
    flat[0, :] = 0.0
    flat[0, 0] = 1.0
    flat[-1, :] = dz[-1, :]
    interior = np.diag(np.r_[0.0, np.ones(nz - 2), 0.0])
    wh = np.fft.fft(w, axis=-1)
    out = np.empty_like(wh)
    for k, x in enumerate(xi):
        mat = flat - x**2 * interior
        # equilibrated rows: unscaled, the nz^4 / h^2 interior rows cost the
        # solve about 3e-12 at nz = 48, h = 0.42
        r = 1.0 / np.max(np.abs(mat), axis=1)
        out[:, k] = np.linalg.solve(r[:, None] * mat, r * wh[:, k])
    return np.fft.ifft(out, axis=-1).real


@pytest.mark.parametrize("nz", [8, 16, 48])
@pytest.mark.parametrize("h", [0.42, 1.0, 1.9])
def test_diagonalized_preconditioner_matches_flat_solve(h, nz):
    # h0 + eta with eta = h0/2 cos x has harmonic-mean depth h0 sqrt(3)/2 = h
    h0 = h / np.sqrt(0.75)
    op = dno._StripOperator(cos_field(GRID, 1, 0.5 * h0), Geometry("flat_bottom", h0), nz)
    precond = dno._Preconditioner(op)
    assert abs(precond.depth - h) <= 1e-14 * h
    w = np.random.default_rng(3).standard_normal((nz, GRID.n))
    scaled = w.copy()
    scaled[1:-1] *= (h0 + 0.5 * h0 * np.cos(GRID.x)) / h  # S: local over h
    ref = flat_inverse_reference(scaled, nz, h, GRID.xi)
    out = precond(w)
    assert np.isrealobj(out)
    assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_parallel_strip_preconditioner_is_flat_inverse_at_strip_depth():
    nz, geo = 16, Geometry("parallel_strip", 1.3)
    op = dno._StripOperator(cos_field(GRID, 1, 0.5), geo, nz)
    precond = dno._Preconditioner(op)
    assert abs(precond.depth - geo.depth) <= 1e-15
    w = np.random.default_rng(4).standard_normal((nz, GRID.n))
    ref = flat_inverse_reference(w, nz, geo.depth, GRID.xi)
    assert np.max(np.abs(precond(w) - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_blend_stays_off_up_to_the_ratio():
    # a layer whose depth varies at most tenfold keeps M at the one depth h
    for amp in (0.3, 0.8):
        op = dno._StripOperator(cos_field(GRID, 1, amp), FLAT, 16)
        precond = dno._Preconditioner(op)
        assert precond.weights is None
        assert precond.nodes == (precond.depth,)


@pytest.mark.parametrize("nz", [16, 48])
def test_blended_preconditioner_matches_weighted_flat_solves(nz):
    # depth 0.1 .. 1.9, ratio 19: M is the l_k(log d)-weighted sum of the
    # flat inverses P_{h_k}^-1 S_k at the three nodes, S_k = d/h_k inside
    op = dno._StripOperator(cos_field(GRID, 1, 0.9), FLAT, nz)
    precond = dno._Preconditioner(op)
    d = 1.0 + 0.9 * np.cos(GRID.x)
    assert len(precond.nodes) == 3
    assert d.min() < precond.nodes[0] < precond.nodes[1] < precond.nodes[2] < d.max()
    assert abs(precond.nodes[1] - np.sqrt(d.min() * d.max())) <= 1e-14
    assert np.max(np.abs(precond.weights.sum(axis=0) - 1.0)) <= 1e-14
    w = np.random.default_rng(5).standard_normal((nz, GRID.n))
    ref = np.zeros_like(w)
    for h, weight in zip(precond.nodes, precond.weights):
        scaled = w.copy()
        scaled[1:-1] *= d / h
        ref += weight * flat_inverse_reference(scaled, nz, h, GRID.xi)
    out = precond(w)
    assert np.isrealobj(out)
    assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_preconditioner_is_freed_without_the_cycle_collector():
    # M holds no reference cycle, so each solve's arrays go with the solve
    op = dno._StripOperator(cos_field(GRID, 1, 0.3), FLAT, 16)
    precond = dno._Preconditioner(op)
    ref = weakref.ref(precond)
    gc.disable()
    try:
        del precond
        assert ref() is None
    finally:
        gc.enable()


def test_strip_table_is_built_once_per_nz(monkeypatch):
    # z, D_z, D_z^2 and the flat diagonalization of one nz come from one table
    calls = []
    chebyshev = dno.chebyshev
    monkeypatch.setattr(dno, "chebyshev", lambda nz: calls.append(nz) or chebyshev(nz))
    dno._strip_table.cache_clear()
    eta, psi = cos_field(GRID, 1, 0.3), cos_field(GRID, 2)
    first = solve_strip(eta, psi, FLAT, 16)
    second = solve_strip(eta, psi, STRIP, 16)
    assert calls == [16]
    assert first.operator.Dz2 is second.operator.Dz2
    table = dno._strip_table(16)
    assert not any(a.flags.writeable for a in (table.z, table.Dz, table.Dz2, table.left,
                                               table.lam, table.right))


@pytest.mark.parametrize("geo", [FLAT, STRIP])
def test_complex_psi_rejected(geo):
    # every surface trace of the reduction is real; the solver serves only those
    eta = cos_field(GRID, 1, 0.3)
    psi = Field(GRID, np.sin(GRID.x) + 1j * (0.5 * np.cos(2 * GRID.x) + 0.2))
    with pytest.raises(ValueError, match="psi must be real"):
        dirichlet_neumann(eta, psi, geo, 16)


def test_stagnating_solve_reports_residual_history(monkeypatch):
    monkeypatch.setattr(dno, "_MAXITER", 2)
    eta = cos_field(GRID, 1, 0.9)
    psi = Field(GRID, np.sin(GRID.x) + 0.3 * np.cos(3 * GRID.x))
    with pytest.raises(SolverError) as err:
        solve_strip(eta, psi, FLAT, 16)
    exc = err.value
    assert len(exc.residual_history) > 0
    assert exc.residual == exc.residual_history[-1] > 1e-10
    assert exc.iterations > 0
    assert "cycle residuals" in str(exc)
    assert f"preconditioner depth {np.sqrt(1 - 0.9**2):.6g}" in str(exc)
    nodes = dno._Preconditioner(dno._StripOperator(eta, FLAT, 16)).nodes
    assert "(nodes " + ", ".join(f"{h:.6g}" for h in nodes) + ")" in str(exc)


def test_dense_solve_error_names_no_cycles(monkeypatch):
    monkeypatch.setattr(dno, "_ACCEPTED_RESIDUAL", -1.0)
    eta = cos_field(GRID, 1, 0.3)
    with pytest.raises(SolverError) as err:
        solve_strip(eta, Field(GRID, np.sin(GRID.x)), FLAT, 16, method="dense")
    exc = err.value
    assert exc.residual_history == () and exc.iterations == 0
    assert str(exc).endswith(
        f"(method=dense, preconditioner depth {np.sqrt(1 - 0.3**2):.6g}, "
        "direct solve, no GMRES cycles)")


def test_large_amplitude_solve_takes_one_cycle():
    # M at the harmonic-mean depth keeps the 0.7-depth solve of rough psi
    # (depth ratio 5.7) inside one GMRES cycle in 28 iterations; at 0.9
    # (ratio 19) M blends three depths and takes 26, where the one depth
    # took 53.  At h0 with the scale d/h0 these took 39 and 109, and at 0.9
    # the flat preconditioner at h0 alone (241) and the squared scale (184)
    # need two cycles
    grid = Grid(128, 2 * np.pi)
    psi = power_law_field(grid, 2.0, 1)
    for amp, most, nodes in ((0.7, 32, 1), (0.9, 32, 3)):
        sol = solve_strip(cos_field(grid, 1, amp), psi, FLAT, 48)
        assert len(sol.residual_history) == 1
        assert sol.iterations <= most
        assert abs(sol.precond_depth - np.sqrt(1 - amp**2)) <= 1e-14
        assert len(sol.precond_nodes) == nodes


def test_thin_smooth_layer_solve_takes_one_cycle():
    # a smooth periodic trough down to depth 0.1 converges with M at the
    # harmonic-mean depth in one cycle (50 iterations, residual 2.7e-13)
    grid = Grid(128, 2 * np.pi)
    eta = Field(grid, -0.9 * np.exp(-2.0 * (1.0 - np.cos(grid.x))))
    sol = solve_strip(eta, power_law_field(grid, 2.0, 1), FLAT, 48)
    assert len(sol.residual_history) == 1
    assert sol.iterations <= 60


def test_thinner_smooth_layer_blends_and_takes_one_cycle():
    # the same trough down to depth 0.05 (ratio 19.6) took 67 iterations
    # with M at the harmonic-mean depth; the three-depth blend takes 21
    grid = Grid(128, 2 * np.pi)
    eta = Field(grid, -0.95 * np.exp(-2.0 * (1.0 - np.cos(grid.x))))
    sol = solve_strip(eta, power_law_field(grid, 2.0, 1), FLAT, 48)
    assert len(sol.precond_nodes) == 3
    assert len(sol.residual_history) == 1
    assert sol.iterations <= 30


def test_refinement_cycle_aims_at_the_solve_target(monkeypatch):
    # 20 iterations per cycle leave cycle 1 at ~3e-10, and cycle 2 only has
    # to reach the solve's own target; aiming at a further 2e-13 cut of its
    # starting residual would spend all 20 iterations again
    monkeypatch.setattr(dno, "_MAXITER", 20)
    eta = cos_field(GRID, 1, 0.9)
    psi = Field(GRID, np.sin(GRID.x) + 0.3 * np.cos(3 * GRID.x))
    sol = solve_strip(eta, psi, STRIP, 16)
    assert len(sol.residual_history) == 2
    assert sol.residual <= 1e-12
    assert sol.iterations < 2 * 20


@pytest.mark.parametrize("damping", [0.0, 0.3])
def test_stagnating_refinement_stops_after_one_cycle(monkeypatch, damping):
    # a cycle that keeps only a share of its correction cuts the residual by
    # less than 2: the solve fails at once instead of running three cycles
    pgmres = dno._pgmres

    def weak(apply_a, apply_m, z0, atol):
        dv, its = pgmres(apply_a, apply_m, z0, atol)
        return damping * dv, its

    monkeypatch.setattr(dno, "_pgmres", weak)
    eta = cos_field(GRID, 1, 0.3)
    psi = Field(GRID, np.sin(GRID.x) + 0.3 * np.cos(3 * GRID.x))
    with pytest.raises(SolverError) as err:
        solve_strip(eta, psi, FLAT, 16)
    exc = err.value
    assert len(exc.residual_history) == 1
    assert exc.residual == exc.residual_history[0] > 0.5
    assert exc.iterations > 0


def test_dn_trace_matches_dense_oracle():
    eta = cos_field(GRID, 1, 0.1)
    psi = Field(GRID, np.sin(GRID.x))
    g_it = dirichlet_neumann(eta, psi, FLAT, 16, method="gmres")
    g_dn = dirichlet_neumann(eta, psi, FLAT, 16, method="dense")
    assert np.max(np.abs(g_it.values - g_dn.values)) <= 1e-6 * g_dn.max_abs()


def test_flat_oracle_multiplier():
    # for eta = 0 the operator diagonalizes as k tanh(k h0), per mode
    h0 = 1.0
    geo = Geometry("flat_bottom", h0)
    for k in (1, 2, 5, 13, 20):
        g = dirichlet_neumann(Field.zeros(GRID), cos_field(GRID, k), geo, 48)
        expected = k * np.tanh(k * h0) * np.cos(k * GRID.x)
        rel = np.max(np.abs(g.values - expected)) / (k * np.tanh(k * h0))
        assert rel < 1e-8, f"mode {k}: {rel:.2e}"


def test_flat_strip_geometry_same_multiplier():
    # a flat parallel strip of thickness h is a flat bottom at depth h
    g = dirichlet_neumann(Field.zeros(GRID), cos_field(GRID, 4), STRIP, 32)
    expected = 4 * np.tanh(4.0) * np.cos(4 * GRID.x)
    assert np.max(np.abs(g.values - expected)) < 1e-9


def test_symmetry_and_positivity():
    eta = cos_field(GRID, 1, 0.1)
    p1 = Field(GRID, np.sin(GRID.x) + 0.3 * np.cos(2 * GRID.x))
    p2 = cos_field(GRID, 3)
    g1 = dirichlet_neumann(eta, p1, FLAT, 32)
    g2 = dirichlet_neumann(eta, p2, FLAT, 32)
    s12 = l2_inner(g1, p2).real
    s21 = l2_inner(p1, g2).real
    assert abs(s12 - s21) <= 1e-8 * max(abs(s12), 1e-30)
    assert l2_inner(g1, p1).real >= 0
    assert l2_inner(g2, p2).real >= 0


def test_boundedness_trend():
    # measured H^sigma -> H^(sigma-1) ratios stay bounded over a band family
    eta = cos_field(GRID, 1, 0.1)
    sigma = 2.0
    ratios = []
    for k in (2, 4, 8, 12):
        psi = cos_field(GRID, k)
        g = dirichlet_neumann(eta, psi, FLAT, 32)
        ratios.append(sobolev_norm(g, sigma - 1) / sobolev_norm(psi, sigma))
    assert max(ratios) <= 2.0 * min(ratios) + 1.0


def test_compute_b_v_flat_interface():
    # eta = 0: B = G psi and V = psi_x
    psi = Field(GRID, np.sin(GRID.x))
    gpsi = dirichlet_neumann(Field.zeros(GRID), psi, FLAT, 32)
    b, v = compute_B_V(Field.zeros(GRID), psi, gpsi)
    assert np.max(np.abs(b.values - gpsi.values)) < 1e-13
    assert np.max(np.abs(v.values - np.cos(GRID.x))) < 1e-12


def test_compute_b_v_constant_psi():
    eta = cos_field(GRID, 1, 0.1)
    one = Field(GRID, np.ones(GRID.n))
    gpsi = dirichlet_neumann(eta, one, FLAT, 32)
    b, v = compute_B_V(eta, one, gpsi)
    assert b.max_abs() < 1e-11
    assert v.max_abs() < 1e-11


def test_b_v_algebraic_identity():
    # V + B eta_x = psi_x pointwise (dealiased products, resolved fields)
    eta = cos_field(GRID, 1, 0.1)
    psi = Field(GRID, np.sin(GRID.x))
    gpsi = dirichlet_neumann(eta, psi, FLAT, 32)
    b, v = compute_B_V(eta, psi, gpsi)
    ex = x_derivative(eta)
    px = x_derivative(psi)
    lhs = v.values + b.values * ex.values
    assert np.max(np.abs(lhs - px.values)) < 1e-12


def test_shape_derivative_zero_direction():
    eta = cos_field(GRID, 1, 0.1)
    psi = Field(GRID, np.sin(GRID.x))
    d = shape_derivative(eta, psi, Field.zeros(GRID), FLAT, 32)
    assert d.max_abs() == 0.0


def test_shape_derivative_constant_psi():
    eta = cos_field(GRID, 1, 0.1)
    one = Field(GRID, np.ones(GRID.n))
    d = shape_derivative(eta, one, cos_field(GRID, 2), FLAT, 32)
    assert d.max_abs() < 1e-10


def test_shape_derivative_strip_rejected():
    with pytest.raises(GeometryError):
        shape_derivative(cos_field(GRID, 1, 0.1), cos_field(GRID, 1), cos_field(GRID, 2), STRIP, 16)


def test_shape_derivative_vs_finite_difference():
    # centered-difference oracle with Richardson confirmation of O(eps^2)
    eta = cos_field(GRID, 1, 0.1)
    psi = Field(GRID, np.sin(GRID.x) + 0.3 * np.cos(2 * GRID.x))
    hdir = Field(GRID, np.cos(2 * GRID.x) + 0.5 * np.sin(GRID.x))
    analytic = shape_derivative(eta, psi, hdir, FLAT, 32)

    def fd(eps):
        gp = dirichlet_neumann(eta + hdir * eps, psi, FLAT, 32)
        gm = dirichlet_neumann(eta + hdir * (-eps), psi, FLAT, 32)
        return (gp.values - gm.values) / (2 * eps)

    scale = np.max(np.abs(fd(1e-4)))
    err_large = np.max(np.abs(analytic.values - fd(2e-3))) / scale
    err_half = np.max(np.abs(analytic.values - fd(1e-3))) / scale
    err_small = np.max(np.abs(analytic.values - fd(1e-4))) / scale
    assert err_small <= 1e-5
    assert 2.5 <= err_large / err_half <= 5.5  # O(eps^2) Richardson ratio


def test_cancellation_constant_psi():
    eta = cos_field(GRID, 1, 0.1)
    one = Field(GRID, np.ones(GRID.n))
    assert cancellation_residual(eta, one, FLAT, 24) < 1e-10


def test_cancellation_flat_interface_analytic_value():
    # at eta = 0 the residual equals ||(k^2 tanh^2(k h0) - k^2) cos||_{L2}
    h0, k = 1.0, 1
    geo = Geometry("flat_bottom", h0)
    psi = cos_field(GRID, k)
    r = cancellation_residual(Field.zeros(GRID), psi, geo, 32)
    analytic = abs(k**2 * np.tanh(k * h0) ** 2 - k**2) * np.sqrt(GRID.length / 2)
    assert abs(r - analytic) <= 1e-6 * analytic


def test_cancellation_residual_refinement():
    # deep layer: residual decreases under z-refinement down to the
    # (exponentially small) finite-depth defect
    geo = Geometry("flat_bottom", 8.0)
    grid = Grid(128, 2 * np.pi)
    eta = Field(grid, 0.1 * np.cos(grid.x))
    psi = Field(grid, np.sin(grid.x))
    r16 = cancellation_residual(eta, psi, geo, 16)
    r32 = cancellation_residual(eta, psi, geo, 32)
    r64 = cancellation_residual(eta, psi, geo, 64)
    assert r32 < 0.5 * r16
    assert r64 <= r32 * 1.05
    v = compute_B_V(eta, psi, dirichlet_neumann(eta, psi, geo, 64))[1]
    assert r64 <= 1e-5 * sobolev_norm(x_derivative(v), 0.0)
