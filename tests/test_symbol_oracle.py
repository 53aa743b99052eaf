"""Trace-built symbols against the frozen values of the closure constructors.

``symbol_oracle.npz`` holds the values that the closure-tree implementation
of every symbol constructor produced before the trace representation
(commit 5b651ac), for two fixed eta on n = 64 grids: the x-traces at
xi = +-1 and the total symbol at xi in {2, -2, 5, -6.5}; for the mollifier,
its parts at xi in {1, -1, 2, -2, 5, -6.5}.  Principal parts must agree
within 1e-13 relative, sub-principal parts and totals within 1e-12 of the
principal part's size.  A flow derivative (``dt_p``, ``dt_q``) is a
centered difference with step tau = ``evolution._FLOW_STEP``, which carries
the differenced symbol's rounding times 1/(2 tau): its sub-principal part and
its total are held to 1e-12 of that symbol's principal size over 2 tau.  Its
principal part is held like every other, to 1e-13 of its own size, which is
tighter than the difference's rounding, so that check also freezes the
rounding of the spectral x-derivative behind the slope eta_x.
Three entries (``h_lam``, ``compose_p_dn_principal``, ``adjoint_p_principal``)
froze a principal-only composition or adjoint; they are compared with the
principal part of the full one.  Where the oracle froze no sub-principal
part, the symbol's sub-principal traces must be exactly zero.
"""

from pathlib import Path

import numpy as np
import pytest

from capwave.dno import Geometry
from capwave.evolution import _FLOW_STEP, _symbol_time_derivative
from capwave.field import Field, Grid
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
    symmetrizer,
)

ORACLE = np.load(Path(__file__).with_name("symbol_oracle.npz"))
TAGS = ("a", "b")
DIFFERENCED = {"dt_p": "p", "dt_q": "q"}


def oracle_state(tag):
    grid = Grid(int(ORACLE[f"{tag}__n"]), float(ORACLE[f"{tag}__length"]))
    return Field(grid, ORACLE[f"{tag}__eta"]), Field(grid, ORACLE[f"{tag}__eta_t"])


def principal_only(sym):
    """``sym`` without its sub-principal part."""
    return Symbol(sym.grid, sym.order, sym.principal, name=sym.name)


def constructors(eta, eta_t):
    grid = eta.grid
    lam = dn_symbol(eta)
    h = curvature_symbol(eta)
    p, q, gam = symmetrizer(eta)
    a_s, A_s = factorization(eta, Geometry("parallel_strip", 1.0))
    bw = elliptic_weight(eta, 2.6)
    esc = build_escape(0.1, grid)
    hl = principal_only(compose(h, lam))
    dt_p, dt_q = _symbol_time_derivative(eta, eta_t)
    return {
        "dn": lam, "curvature": h, "p": p, "q": q, "gamma": gam,
        "parametrix": parametrix(eta, p), "factor_a": a_s, "factor_A": A_s,
        "weight": bw, "from_field": Symbol.from_field(eta),
        "from_multiplier": Symbol.from_multiplier(grid, 1.5),
        "escape": esc.symbol(),
        "doi_bracket": esc.doi_bracket(eta),
        "h_lam": hl,
        "dt_p": dt_p, "dt_q": dt_q,
        "compose_p_dn": compose(p, lam), "compose_q_curvature": compose(q, h),
        "compose_gamma_gamma": compose(gam, gam),
        "compose_p_dn_principal": principal_only(compose(p, lam)),
        "adjoint_gamma": adjoint_symbol(gam),
        "adjoint_p_principal": principal_only(adjoint_symbol(p)),
        "bracket_curvature_dn": poisson_bracket(h, lam),
        "bracket_hlam_q": poisson_bracket(hl, q),
    }


def rel(got, ref, scale):
    return float(np.max(np.abs(got - ref)) / scale)


@pytest.mark.parametrize("tag", TAGS)
def test_constructors_match_frozen_oracle(tag):
    eta, eta_t = oracle_state(tag)
    xi = ORACLE["xi"]
    syms = constructors(eta, eta_t)
    stored = {k.split("__")[1] for k in ORACLE.files if k.startswith(f"{tag}__")
              and k.endswith("__order")}
    assert stored == set(syms)
    for name, sym in syms.items():
        key = f"{tag}__{name}"
        assert sym.order == float(ORACLE[key + "__order"]), name
        ref = ORACLE[key + "__principal"]
        assert rel(sym.principal, ref, np.max(np.abs(ref))) <= 1e-13, name
        if name in DIFFERENCED:
            scale = np.max(np.abs(syms[DIFFERENCED[name]].principal)) / (2.0 * _FLOW_STEP)
            total_scale = scale * np.max(np.abs(xi)) ** sym.order
        else:
            scale = np.max(np.abs(ref))
            total_scale = np.max(np.abs(sym.principal_at(xi)))
        if key + "__sub" in ORACLE.files:
            assert rel(sym.subprincipal, ORACLE[key + "__sub"], scale) <= 1e-12, name
        else:  # the oracle froze no sub-principal part: it is exactly zero
            assert np.array_equal(sym.subprincipal, np.zeros((eta.grid.n, 2))), name
        assert rel(sym.total_at(xi), ORACLE[key + "__total"], total_scale) <= 1e-12, name


@pytest.mark.parametrize("tag", TAGS)
@pytest.mark.parametrize("eps", [0.01, 0.1])
def test_mollifier_matches_frozen_oracle(tag, eps):
    eta, _ = oracle_state(tag)
    xi = ORACLE["mollifier_xi"]
    _, _, gam = symmetrizer(eta)
    key = f"{tag}__mollifier_{eps:g}"
    j = Mollifier(gam, eps)
    assert rel(j.principal_at(xi), ORACLE[key + "__principal"], 1.0) <= 1e-13
    assert rel(j.dxi_principal(xi), ORACLE[key + "__dxi"],
               np.max(np.abs(ORACLE[key + "__dxi"]))) <= 1e-13
    assert rel(j.subprincipal_at(xi), ORACLE[key + "__sub"], 1.0) <= 1e-12
    assert rel(j.total_at(xi), ORACLE[key + "__total"], 1.0) <= 1e-12
    jm1 = Mollifier(gam, eps, -1.0)
    assert rel(jm1.total_at(xi), ORACLE[key + "__minus_one_total"], 1.0) <= 1e-12
