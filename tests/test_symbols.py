"""Symbol constructions: homogeneity, reality, and the calculus identities."""

import numpy as np
import pytest

from capwave.dno import Geometry, GeometryError
from capwave.field import Field, Grid, spectral_derivative, x_derivative
from capwave.smoothing import build_escape
from capwave.symbols import (
    Mollifier,
    Symbol,
    adjoint_symbol,
    compose,
    curvature_symbol,
    dn_symbol,
    elliptic_weight,
    factorization,
    parametrix,
    poisson_bracket,
    seminorm,
    symmetrizer,
)

GRID = Grid(128, 2 * np.pi)
ETA = Field(GRID, 0.1 * np.cos(GRID.x) + 0.05 * np.cos(2 * GRID.x + 0.7))
XI = np.array([0.5, 1.0, 2.0, 5.0, 17.0, -1.0, -2.0, -6.5])
SLOPE = x_derivative(ETA).values.real[:, None]


# -- Dirichlet-Neumann symbol -------------------------------------------


def test_dn_symbol_reduces_to_abs_xi_in_1d():
    lam = dn_symbol(ETA)
    assert np.max(np.abs(lam.principal_at(XI) - np.abs(XI)[None, :])) < 1e-13
    assert np.max(np.abs(lam.subprincipal_at(XI))) < 1e-12


def test_dn_symbol_flat_slope():
    lam = dn_symbol(Field.zeros(GRID))
    assert np.max(np.abs(lam.principal_at(XI) - np.abs(XI)[None, :])) == 0.0
    assert np.max(np.abs(lam.subprincipal_at(XI))) == 0.0


def test_dn_symmetry_identity():
    # Im lam0 = -(1/2) dxi dx lam1 (symbol-level symmetry of the operator)
    lam = dn_symbol(ETA)
    lhs = np.imag(lam.subprincipal_at(XI))
    rhs = -0.5 * spectral_derivative(lam.dxi_principal(XI), GRID, axis=0)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


# -- curvature symbol ----------------------------------------------------


def test_curvature_flat():
    h = curvature_symbol(Field.zeros(GRID))
    assert np.max(np.abs(h.principal_at(XI) - XI[None, :] ** 2)) < 1e-14
    assert np.max(np.abs(h.subprincipal_at(XI))) == 0.0


def test_curvature_principal_1d_form():
    h = curvature_symbol(ETA)
    expected = (1.0 + SLOPE**2) ** -1.5  # h2 / xi^2
    assert np.max(np.abs(h.principal_at(XI) / XI[None, :] ** 2 - expected)) < 1e-13


def test_curvature_subprincipal_fd_oracle():
    # h1 = -(i/2) dx dxi h2, recomputed with a centered xi-difference of h2
    h = curvature_symbol(ETA)
    step = 1e-3
    dxi = (h.principal_at(XI * (1.0 + step)) - h.principal_at(XI * (1.0 - step))) \
        / (2.0 * step * XI)[None, :]
    fd = -0.5j * spectral_derivative(dxi, GRID, axis=0)
    assert np.max(np.abs(h.subprincipal_at(XI) - fd)) < 1e-8


# -- symmetrizer ----------------------------------------------------------


def test_symmetrizer_flat():
    p, q, gam = symmetrizer(Field.zeros(GRID))
    assert np.max(np.abs(q.principal_at(XI) - 1.0)) < 1e-14
    assert np.max(np.abs(p.principal_at(XI) - np.abs(XI)[None, :] ** 0.5)) < 1e-14
    assert np.max(np.abs(gam.total_at(XI) - np.abs(XI)[None, :] ** 1.5)) < 1e-14


def test_gamma_1d_closed_form():
    _, _, gam = symmetrizer(ETA)
    c = (1.0 + SLOPE**2) ** -0.75
    cx = spectral_derivative(c, GRID, axis=0)
    expected = c * np.abs(XI)[None, :] ** 1.5 \
        - 0.75j * XI[None, :] * np.abs(XI)[None, :] ** -0.5 * cx
    assert np.max(np.abs(gam.total_at(XI) - expected)) < 1e-12


def test_gamma_imaginary_part_constraint():
    # Im gamma^(1/2) = -(1/2) dxi dx gamma^(3/2)
    _, _, gam = symmetrizer(ETA)
    lhs = np.imag(gam.subprincipal_at(XI))
    rhs = -0.5 * spectral_derivative(gam.dxi_principal(XI), GRID, axis=0)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_symmetrizer_leading_identity():
    p, q, gam = symmetrizer(ETA)
    lam = dn_symbol(ETA)
    defect = p.principal_at(XI) * lam.principal_at(XI) \
        - gam.principal_at(XI) * q.principal_at(XI)
    assert np.max(np.abs(defect)) < 1e-10


def test_q_transport_equation():
    # q0 solves (1/2){h2, lam1} q0 = {h2 lam1, q0}; this is the compatibility
    # equation for the two conjugation identities (the published display has
    # the second bracket with a flipped sign, which no q solves)
    p, q, gam = symmetrizer(ETA)
    lam = dn_symbol(ETA)
    h = curvature_symbol(ETA)
    br1 = poisson_bracket(h, lam).principal_at(XI)
    br2 = poisson_bracket(compose(h, lam), q).principal_at(XI)
    residual = 0.5 * br1 * q.principal_at(XI) - br2
    assert np.max(np.abs(residual)) < 1e-8


def test_symmetrizer_reality():
    p, q, gam = symmetrizer(ETA)
    for sym in (p, q, gam):
        assert sym.reality_defect() < 1e-12
    assert np.max(np.abs(np.imag(q.principal_at(XI)))) == 0.0


# -- parametrix -----------------------------------------------------------


def test_parametrix_flat_and_composition():
    p, _, _ = symmetrizer(ETA)
    wp = parametrix(ETA, p)
    comp = p.principal_at(XI) * wp.principal_at(XI)
    assert np.max(np.abs(comp - 1.0)) < 1e-12
    sub = (
        p.principal_at(XI) * wp.subprincipal_at(XI)
        + p.subprincipal_at(XI) * wp.principal_at(XI)
        + (1.0 / 1j) * p.dxi_principal(XI)
        * spectral_derivative(wp.principal_at(XI), GRID, axis=0)
    )
    assert np.max(np.abs(sub)) < 1e-12
    wp0 = parametrix(Field.zeros(GRID), symmetrizer(Field.zeros(GRID))[0])
    assert np.max(np.abs(wp0.principal_at(XI) - np.abs(XI)[None, :] ** -0.5)) < 1e-14


def test_parametrix_rejects_nonelliptic():
    p, _, _ = symmetrizer(ETA)
    bad = Symbol(GRID, 0.5, -p.principal, name="bad")
    with pytest.raises(ValueError):
        parametrix(ETA, bad)


# -- factorization --------------------------------------------------------


def test_factorization_identities():
    geo = Geometry("parallel_strip", 1.0)
    a_s, A_s = factorization(ETA, geo)
    al = (1.0 + SLOPE**2) / geo.depth**2
    be = -2.0 * SLOPE / geo.depth
    prod = a_s.principal_at(XI) * A_s.principal_at(XI)
    assert np.max(np.abs(prod + XI[None, :] ** 2 / al)) < 1e-10
    total = a_s.principal_at(XI) + A_s.principal_at(XI)
    assert np.max(np.abs(total + 1j * be * XI[None, :] / al)) < 1e-12


def test_factorization_flat_values():
    geo = Geometry("parallel_strip", 1.0)
    a_s, A_s = factorization(Field.zeros(GRID), geo)
    h = geo.depth
    assert np.max(np.abs(a_s.principal_at(XI) + h * np.abs(XI)[None, :])) < 1e-13
    assert np.max(np.abs(A_s.principal_at(XI) - h * np.abs(XI)[None, :])) < 1e-13


def test_factorization_ellipticity():
    # the discriminant equals (2/h)|xi| exactly in 1d, hence
    # Re a1 = -h |xi| / (1 + eta_x^2) < 0 (and symmetrically for A1)
    geo = Geometry("parallel_strip", 1.0)
    a_s, A_s = factorization(ETA, geo)
    h = geo.depth
    bound = h * np.abs(XI)[None, :] / (1.0 + SLOPE**2)
    assert np.max(a_s.principal_at(XI).real + bound) < 1e-12
    assert np.min(A_s.principal_at(XI).real - bound) > -1e-12


def test_factorization_reproduces_dn_symbol():
    # lambda = (1+eta_x^2)/h * A - i eta_x xi, cross-check of two paths
    geo = Geometry("parallel_strip", 1.0)
    _, A_s = factorization(ETA, geo)
    lam = dn_symbol(ETA)
    rebuilt = (1.0 + SLOPE**2) / geo.depth * A_s.total_at(XI) - 1j * SLOPE * XI[None, :]
    assert np.max(np.abs(rebuilt - lam.total_at(XI))) < 1e-8


def test_factorization_rejects_a_fixed_bottom():
    # the factored coefficients are the parallel strip's; a flat bottom's
    # strip operator has others
    with pytest.raises(GeometryError):
        factorization(ETA, Geometry("flat_bottom", 1.0))


# -- mollifier and elliptic weight ----------------------------------------


def test_mollifier_eps_zero_is_one():
    j = Mollifier(symmetrizer(ETA)[2], 0.0)
    assert np.max(np.abs(j.principal_at(XI) - 1.0)) == 0.0
    assert np.max(np.abs(j.subprincipal_at(XI))) == 0.0


def test_mollifier_flat_profile():
    j = Mollifier(symmetrizer(Field.zeros(GRID))[2], 0.3)
    expected = np.exp(-0.3 * np.abs(XI) ** 1.5)[None, :]
    assert np.max(np.abs(j.principal_at(XI) - expected)) < 1e-14


def test_mollifier_commutes_with_gamma():
    _, _, gam = symmetrizer(ETA)
    for eps in (0.01, 0.1):
        j = Mollifier(gam, eps)
        assert np.max(np.abs(j.bracket_at(gam, XI))) < 1e-10


def test_mollifier_principal_in_unit_interval():
    for eps in (0.0, 0.01, 0.1):
        j = Mollifier(symmetrizer(ETA)[2], eps)
        vals = j.principal_at(XI).real
        assert np.all(vals > 0) and np.all(vals <= 1.0)


def test_mollifier_seminorm_uniformly_bounded():
    # uniform boundedness in the strengths the evolution actually uses
    for eps in (0.0, 0.01, 0.1):
        j = Mollifier(symmetrizer(ETA)[2], eps)
        assert seminorm(j, 0.0) <= 1.0 + 1e-9


def test_mollifier_xi_derivatives_match_centered_difference():
    # the seminorm reads dxi of both parts; the mollifier's are closed form
    j = Mollifier(symmetrizer(ETA)[2], 0.1)
    step = 1e-4
    for part, dxi in ((j.principal_at, j.dxi_principal),
                      (j.subprincipal_at, j.dxi_subprincipal)):
        fd = (part(XI * (1.0 + step)) - part(XI * (1.0 - step))) / (2.0 * step * XI)[None, :]
        assert np.max(np.abs(dxi(XI) - fd)) <= 1e-6 * np.max(np.abs(fd))


def test_elliptic_weight():
    _, _, gam = symmetrizer(ETA)
    s = 2.6
    bw = elliptic_weight(ETA, s)
    assert np.max(np.abs(elliptic_weight(ETA, 1.5).principal_at(XI)
                         - gam.principal_at(XI))) < 1e-13
    flat = elliptic_weight(Field.zeros(GRID), s)
    assert np.max(np.abs(flat.principal_at(XI) - np.abs(XI)[None, :] ** s)) < 1e-11
    br = poisson_bracket(bw, gam).principal_at(XI)
    scale = np.max(np.abs(bw.dxi_principal(XI)
                          * spectral_derivative(gam.principal_at(XI), GRID, axis=0)))
    assert np.max(np.abs(br)) <= 1e-10 * max(scale, 1.0)


# -- seminorm and bracket -------------------------------------------------


def test_seminorm_abs_xi():
    sym = Symbol.from_multiplier(GRID, 1.0, name="|xi|")
    assert abs(seminorm(sym, 1.0) - 1.0) <= 0.05


def test_seminorm_constant():
    one = Symbol.from_multiplier(GRID, 0.0, name="1")
    assert abs(seminorm(one, 0.0) - 1.0) < 1e-12


def test_traces_must_have_two_columns():
    # a length-n array is not a pair of x-traces and must not be broadcast
    with pytest.raises(ValueError):
        Symbol(GRID, 0.5, np.ones(GRID.n), name="bad")
    with pytest.raises(ValueError):
        Symbol(GRID, 0.5, np.ones((GRID.n, 2)), np.ones((GRID.n, 3)))


def test_poisson_bracket_antisymmetry_and_diagonal():
    _, _, gam = symmetrizer(ETA)
    h = curvature_symbol(ETA)
    fg = poisson_bracket(h, gam).principal_at(XI)
    gf = poisson_bracket(gam, h).principal_at(XI)
    assert np.max(np.abs(fg + gf)) < 1e-12 * max(1.0, np.max(np.abs(fg)))
    assert np.max(np.abs(poisson_bracket(gam, gam).principal_at(XI))) < 1e-12


def test_poisson_bracket_escape_value():
    # {|xi|^{3/2}, x xi/|xi|} = (3/2)|xi|^{1/2}; the x-factor has dx = 1, so
    # the bracket reduces to dxi(|xi|^{3/2}) * sgn(xi)
    dxi32 = 1.5 * np.sign(XI) * np.abs(XI) ** 0.5
    value = dxi32 * np.sign(XI)
    assert np.max(np.abs(value - 1.5 * np.abs(XI) ** 0.5)) == 0.0


def test_homogeneity_battery():
    lam = dn_symbol(ETA)
    h = curvature_symbol(ETA)
    p, q, gam = symmetrizer(ETA)
    for sym in (lam, h, p, q, gam):
        assert sym.homogeneity_defect(XI) < 1e-10, sym.name


def subprincipal_euler_defect(sym, xi=XI):
    """Max defect of Euler's identity xi dxi a_-1 = (m - 1) a_-1 on the
    sub-principal part, relative to the principal part's size (the 1D dn
    sub-principal part vanishes identically, so its own size is no scale)."""
    defect = xi * sym.dxi_subprincipal(xi) - (sym.order - 1.0) * sym.subprincipal_at(xi)
    return float(np.max(np.abs(defect)) / np.max(np.abs(sym.principal_at(xi))))


def test_subprincipal_homogeneity(monkeypatch):
    # the quantizer builds each sub-principal part from its xi = +-1 traces
    p, _, gam = symmetrizer(ETA)
    a_s, A_s = factorization(ETA, Geometry("parallel_strip", 1.0))
    syms = (dn_symbol(ETA), curvature_symbol(ETA), p, gam, parametrix(ETA, p), a_s, A_s)
    for sym in syms:
        assert sym.subprincipal.shape == (GRID.n, 2), sym.name
        assert subprincipal_euler_defect(sym) < 1e-12, sym.name
    # a xi-derivative taken with |xi|^(m-1) in place of |xi|^(m-2) is caught
    wrong_power = Symbol.dxi_subprincipal
    monkeypatch.setattr(Symbol, "dxi_subprincipal",
                        lambda self, xi: wrong_power(self, xi) * np.abs(xi))
    assert subprincipal_euler_defect(gam) > 1e-3
    assert gam.homogeneity_defect(XI) > 1e-3


def test_every_constructor_carries_both_parts():
    # a missing part is stored as zeros, never as a missing array
    lam, h = dn_symbol(ETA), curvature_symbol(ETA)
    p, q, gam = symmetrizer(ETA)
    a_s, A_s = factorization(ETA, Geometry("parallel_strip", 1.0))
    esc = build_escape(0.1, GRID)
    syms = (lam, h, p, q, gam, parametrix(ETA, p), a_s, A_s, elliptic_weight(ETA, 2.6),
            Symbol.from_field(ETA), Symbol.from_multiplier(GRID, 1.5), esc.symbol(),
            esc.doi_bracket(ETA), poisson_bracket(h, lam), compose(p, lam),
            adjoint_symbol(gam))
    for sym in syms:
        assert sym.principal.shape == (GRID.n, 2), sym.name
        assert sym.subprincipal.shape == (GRID.n, 2), sym.name
    assert np.array_equal(q.subprincipal, np.zeros((GRID.n, 2)))


def test_paraproduct_symbol():
    f = Field(GRID, np.cos(GRID.x))
    sym = Symbol.from_field(f, name="cos")
    vals = sym.principal_at(XI)
    assert np.max(np.abs(vals - np.cos(GRID.x)[:, None])) == 0.0
    assert sym.homogeneity_defect(XI) < 1e-15
