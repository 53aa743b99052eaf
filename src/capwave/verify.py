"""Oracle batteries: every analytic identity as a measured check.

Each suite returns a report dictionary with one entry per check carrying the
measured value, the tolerance it was held to, and the verdict.  The checks
are deterministic for a fixed seed; wall-clock readings are kept apart in a
``timings`` block and never decide the verdict.  The evolution suite gathers
the trajectory-level experiments (dispersion, conservation, reformulation
equivalence, a priori monitor, Kato sweep); the four operator suites cover
the Dirichlet-Neumann solver, the symbol constructions, the paradifferential
calculus, and the smoothing machinery.
"""

from __future__ import annotations

import time

import numpy as np

from .corpus import gaussian_packet, state_corpus
from .dno import Geometry, cancellation_residual, compute_B_V, dirichlet_neumann, \
    shape_derivative
from .evolution import WaveState, dispersion_fit, mollified_rhs, monitor, run, \
    step, zakharov_rhs
from .field import Field, Grid, l2_inner, sobolev_norm, spectral_derivative, \
    x_derivative
from .paradiff import Quantizer, adjoint_symbol, compose, remainder_order, \
    shell_field
from .smoothing import af_identity_check, bound_check, build_escape, garding_fit, \
    kato_integral, unweighted_integral
from .symbols import Symbol, curvature_symbol, dn_symbol, elliptic_weight, \
    mollifier_symbol, parametrix, poisson_bracket, seminorm, symmetrizer

SUITES = ("dno", "calculus", "symbols", "smoothing", "evolution")

__all__ = ["SUITES", "run_suite"]


def _check(name, measured, threshold, comparator="<="):
    if comparator == "<=":
        ok = measured <= threshold
    elif comparator == ">=":
        ok = measured >= threshold
    else:
        raise ValueError(comparator)
    return {"name": name, "measured": float(measured),
            "threshold": float(threshold), "comparator": comparator,
            "pass": bool(ok)}


def _timing(seconds, budget_s=None):
    entry = {"seconds": float(seconds)}
    if budget_s is not None:
        entry["budget_s"] = float(budget_s)
    return entry


def run_suite(suite: str, seed: int = 0) -> dict:
    """Run one suite, or every suite for ``"all"``, and return its report.

    ``checks`` holds only deterministic measurements, and ``passed`` and
    ``failures`` are computed from them alone.  ``timings`` maps a name to
    its wall-clock ``seconds`` (with a ``budget_s`` where one applies); the
    ``all`` report merges each suite's timings and adds its elapsed time.
    """
    started = time.perf_counter()
    if suite == "all":
        checks, timings = [], {}
        for name in SUITES:
            rep = run_suite(name, seed)
            checks.extend(rep["checks"])
            timings.update(rep["timings"])
            timings[f"{name}.elapsed_s"] = _timing(rep["elapsed_s"])
    elif suite in SUITES:
        timings = {}
        checks = globals()[f"_suite_{suite}"](seed, timings)
    else:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES} or 'all'")
    report = _finish(suite, checks, timings)
    report["elapsed_s"] = round(time.perf_counter() - started, 3)
    return report


def _finish(suite, checks, timings):
    return {
        "suite": suite,
        "checks": checks,
        "passed": all(c["pass"] for c in checks),
        "failures": [c["name"] for c in checks if not c["pass"]],
        "timings": timings,
    }


# -- dno ---------------------------------------------------------------------


def _suite_dno(seed: int, timings: dict) -> list:
    checks = []
    geo = Geometry("flat_bottom", 1.0)

    # flat oracle at production resolution, timed outside the checks
    grid = Grid(256, 2 * np.pi)
    t0 = time.perf_counter()
    worst = 0.0
    for k in range(1, 21):
        psi = Field(grid, np.cos(k * grid.x))
        g = dirichlet_neumann(Field.zeros(grid), psi, geo, 48)
        target = k * np.tanh(k)
        worst = max(worst, np.max(np.abs(g.values - target * np.cos(k * grid.x))) / target)
    checks.append(_check("dno.flat_oracle_rel", worst, 1e-8))
    timings["dno.flat_oracle_runtime_s"] = _timing(time.perf_counter() - t0, 5.0)

    # shape derivative vs centered differences with Richardson confirmation
    g128 = Grid(128, 2 * np.pi)
    eta = Field(g128, 0.1 * np.cos(g128.x))
    psi = Field(g128, np.sin(g128.x) + 0.3 * np.cos(2 * g128.x))
    hdir = Field(g128, np.cos(2 * g128.x) + 0.5 * np.sin(g128.x))
    analytic = shape_derivative(eta, psi, hdir, geo, 32)

    def fd(eps):
        gp = dirichlet_neumann(eta + hdir * eps, psi, geo, 32)
        gm = dirichlet_neumann(eta + hdir * (-eps), psi, geo, 32)
        return (gp.values - gm.values) / (2 * eps)

    scale = np.max(np.abs(analytic.values))
    err_small = np.max(np.abs(analytic.values - fd(1e-4))) / scale
    err_large = np.max(np.abs(analytic.values - fd(2e-3))) / scale
    err_half = np.max(np.abs(analytic.values - fd(1e-3))) / scale
    checks.append(_check("dno.shape_derivative_rel_at_1e-4", err_small, 1e-5))
    ratio = err_large / max(err_half, 1e-300)
    checks.append(_check("dno.shape_derivative_richardson_lo", ratio, 2.5, ">="))
    checks.append(_check("dno.shape_derivative_richardson_hi", ratio, 5.5))

    # cancellation identity in the deep-layer regime
    deep = Geometry("flat_bottom", 8.0)
    g256 = Grid(256, 2 * np.pi)
    eta_c = Field(g256, 0.1 * np.cos(g256.x))
    psi_c = Field(g256, np.sin(g256.x))
    res = {}
    for nzv in (16, 32, 64):
        res[nzv] = cancellation_residual(eta_c, psi_c, deep, nzv)
    v = compute_B_V(eta_c, psi_c, dirichlet_neumann(eta_c, psi_c, deep, 64))[1]
    dv = sobolev_norm(x_derivative(v), 0.0)
    checks.append(_check("dno.cancellation_rel", res[64] / dv, 1e-5))
    checks.append(_check("dno.cancellation_refines", res[32] / res[16], 0.5))
    checks.append(_check("dno.cancellation_floor", res[64] / res[32], 1.05))

    # symmetry / positivity / annihilation of constants
    eta_s = Field(g128, 0.1 * np.cos(g128.x))
    p1 = Field(g128, np.sin(g128.x) + 0.3 * np.cos(2 * g128.x))
    p2 = Field(g128, np.cos(3 * g128.x))
    g1 = dirichlet_neumann(eta_s, p1, geo, 32)
    g2 = dirichlet_neumann(eta_s, p2, geo, 32)
    s12 = l2_inner(g1, p2).real
    s21 = l2_inner(p1, g2).real
    checks.append(_check("dno.symmetry_rel", abs(s12 - s21) / abs(s12), 1e-8))
    checks.append(_check("dno.positivity", min(l2_inner(g1, p1).real,
                                               l2_inner(g2, p2).real), 0.0, ">="))
    one = Field(g128, np.ones(g128.n))
    checks.append(_check("dno.annihilates_constants",
                         dirichlet_neumann(eta_s, one, geo, 32).max_abs(), 1e-10))

    # boundedness trend of H^sigma -> H^(sigma-1) ratios
    ratios = []
    for k in (2, 4, 8, 16):
        pk = Field(g128, np.cos(k * g128.x))
        ratios.append(sobolev_norm(dirichlet_neumann(eta_s, pk, geo, 32), 1.0)
                      / sobolev_norm(pk, 2.0))
    checks.append(_check("dno.bounded_ratio_spread",
                         max(ratios) / (min(ratios) + 1e-300), 3.0))

    # GMRES against the dense-assembly oracle at 0.9 of the depth
    g32 = Grid(32, 2 * np.pi)
    eta_l = Field(g32, 0.9 * np.cos(g32.x))
    psi_l = Field(g32, np.sin(g32.x) + 0.3 * np.cos(3 * g32.x))
    worst = 0.0
    for kind in ("flat_bottom", "parallel_strip"):
        geo_l = Geometry(kind, 1.0)
        g_it = dirichlet_neumann(eta_l, psi_l, geo_l, 16)
        g_dn = dirichlet_neumann(eta_l, psi_l, geo_l, 16, method="dense")
        worst = max(worst, np.max(np.abs(g_it.values - g_dn.values)) / g_dn.max_abs())
    checks.append(_check("dno.large_amplitude_oracle_rel", worst, 1e-9))
    return checks


# -- symbols -----------------------------------------------------------------


def _suite_symbols(seed: int, timings: dict) -> list:
    checks = []
    grid = Grid(128, 2 * np.pi)
    eta = Field(grid, 0.1 * np.cos(grid.x) + 0.05 * np.cos(2 * grid.x + 0.7))
    xi = np.array([1.0, 2.0, -1.0, -2.0, 5.0, -6.5])
    slope = x_derivative(eta).values.real[:, None]

    lam = dn_symbol(eta)
    h = curvature_symbol(eta)
    p, q, gam = symmetrizer(eta)

    checks.append(_check("symbols.a2d_reduction",
                         np.max(np.abs(lam.total_at(xi) - np.abs(xi)[None, :])), 1e-10))
    adl = np.imag(lam.subprincipal_at(xi)) \
        + 0.5 * spectral_derivative(lam.dxi_principal(xi), grid.xi, axis=0)
    checks.append(_check("symbols.adlambda", np.max(np.abs(adl)), 1e-10))

    g12 = np.imag(gam.subprincipal_at(xi)) \
        + 0.5 * spectral_derivative(gam.dxi_principal(xi), grid.xi, axis=0)
    checks.append(_check("symbols.g12", np.max(np.abs(g12)), 1e-10))

    br1 = poisson_bracket(h, lam).principal_at(xi)
    br2 = poisson_bracket(compose(h, lam, 1.0), q).principal_at(xi)
    fre = 0.5 * br1 * q.principal_at(xi) - br2
    checks.append(_check("symbols.q_transport_equation", np.max(np.abs(fre)), 1e-8))

    lead = p.principal_at(xi) * lam.principal_at(xi) \
        - gam.principal_at(xi) * q.principal_at(xi)
    checks.append(_check("symbols.p_lambda_eq_gamma_q", np.max(np.abs(lead)), 1e-10))

    c = (1.0 + slope**2) ** -0.75
    checks.append(_check(
        "symbols.curvature_1d",
        np.max(np.abs(h.principal_at(xi) / xi[None, :] ** 2 - c**2)), 1e-12))

    homo = max(s.homogeneity_defect(xi) for s in (lam, h, p, q, gam))
    checks.append(_check("symbols.homogeneity", homo, 1e-10))
    real = max(s.reality_defect() for s in (lam, h, p, q, gam))
    checks.append(_check("symbols.reality", real, 1e-10))

    from .symbols import factorization
    geo = Geometry("parallel_strip", 1.0)
    a_s, A_s = factorization(eta, geo)
    al = (1.0 + slope**2) / geo.depth**2
    be = -2.0 * slope / geo.depth
    prod = np.max(np.abs(a_s.principal_at(xi) * A_s.principal_at(xi)
                         + xi[None, :] ** 2 / al))
    tot = np.max(np.abs(a_s.principal_at(xi) + A_s.principal_at(xi)
                        + 1j * be * xi[None, :] / al))
    checks.append(_check("symbols.factorization_product", prod, 1e-10))
    checks.append(_check("symbols.factorization_sum", tot, 1e-10))
    rebuilt = (1.0 + slope**2) / geo.depth * A_s.total_at(xi) - 1j * slope * xi[None, :]
    checks.append(_check("symbols.factorization_reproduces_dn",
                         np.max(np.abs(rebuilt - lam.total_at(xi))), 1e-8))
    bound = geo.depth * np.abs(xi)[None, :] / (1.0 + slope**2)
    checks.append(_check("symbols.factorization_ellipticity",
                         np.max(a_s.principal_at(xi).real + bound), 1e-12))

    wp = parametrix(eta, p)
    comp = p.principal_at(xi) * wp.principal_at(xi) - 1.0
    sub = (p.principal_at(xi) * wp.subprincipal_at(xi)
           + p.subprincipal_at(xi) * wp.principal_at(xi)
           + (1.0 / 1j) * p.dxi_principal(xi)
           * spectral_derivative(wp.principal_at(xi), grid.xi, axis=0))
    checks.append(_check("symbols.parametrix_principal", np.max(np.abs(comp)), 1e-12))
    checks.append(_check("symbols.parametrix_subprincipal", np.max(np.abs(sub)), 1e-12))

    worst_bracket = 0.0
    worst_semi = 0.0
    for eps in (0.01, 0.1):
        j = mollifier_symbol(eta, eps, gam)
        worst_bracket = max(worst_bracket, float(np.max(np.abs(j.bracket_at(gam, xi)))))
        worst_semi = max(worst_semi, seminorm(j, 0.0, 0.0))
    checks.append(_check("symbols.mollifier_bracket", worst_bracket, 1e-10))
    checks.append(_check("symbols.mollifier_seminorm", worst_semi, 1.0 + 1e-9))

    bw = elliptic_weight(eta, 2.6)
    br = poisson_bracket(bw, gam).principal_at(xi)
    scale = np.max(np.abs(bw.dxi_principal(xi)
                          * spectral_derivative(gam.principal_at(xi), grid.xi, axis=0)))
    checks.append(_check("symbols.weight_bracket_rel",
                         np.max(np.abs(br)) / max(scale, 1.0), 1e-10))
    return checks


# -- calculus ----------------------------------------------------------------


def _suite_calculus(seed: int, timings: dict) -> list:
    checks = []
    grid = Grid(1024, 2 * np.pi)
    quant = Quantizer(grid)
    eta = Field(grid, 0.1 * np.cos(grid.x) + 0.05 * np.cos(2 * grid.x + 0.7))
    lam = dn_symbol(eta)
    h = curvature_symbol(eta)
    p, q, gam = symmetrizer(eta)
    mu = 2.0
    shells = range(3, 9)
    ops = {s.name: quant.operator(s) for s in (p, q, gam, lam, h)}

    def probe(name, op_a, op_b, naive, claimed, sd):
        rep = remainder_order(op_a, op_b, mu, naive, grid, shells=shells, seed=sd)
        checks.append(_check(f"calculus.{name}", rep["gain"], claimed - 0.25, ">="))
        return rep

    # in 1D lambda = |xi| exactly, so T_p T_lambda = T_(p#lambda) is an
    # identity: every shell error must sit at the probe's noise floor
    rep = remainder_order(lambda f: ops["p"](ops["dn"](f)),
                          quant.operator(compose(p, lam, 1.5)).apply,
                          mu, p.order + lam.order, grid, shells=shells, seed=seed)
    checks.append(_check("calculus.compose_p_lambda", max(rep["errors"]), rep["floor"]))

    pairs = [("compose_q_h", q, h), ("compose_gamma_gamma", gam, gam)]
    for i, (name, aa, bb) in enumerate(pairs, 1):
        ta, tb = ops[aa.name], ops[bb.name]
        tab = quant.operator(compose(aa, bb, 1.5))
        probe(name, lambda f, A=ta, B=tb: A(B(f)), tab.apply,
              aa.order + bb.order, 1.5, seed + i)

    tg = ops["gamma"]
    tgs = quant.operator(adjoint_symbol(gam, 1.5))
    probe("adjoint_gamma", tg.adjoint().apply, tgs.apply, gam.order, 1.5, seed + 3)

    probe("symmetrize_p_lambda",
          lambda f: ops["p"](ops["dn"](f)),
          lambda f: ops["gamma"](ops["q"](f)), 1.5, 1.25 + 0.25, seed + 4)
    probe("symmetrize_q_h",
          lambda f: ops["q"](ops["curvature"](f)),
          lambda f: ops["gamma"](ops["p"](f)), 2.0, 1.25 + 0.25, seed + 5)

    wp = parametrix(eta, p)
    ident = quant.operator(Symbol.from_multiplier(grid, 0.0))
    twp = quant.operator(wp)
    probe("parametrix_inverse",
          lambda f: ops["p"](twp(f)), ident.apply, 0.0, 1.5, seed + 6)

    # sc0 boundedness constant across shells
    rng = np.random.default_rng(seed + 7)
    ratios = []
    for j in shells:
        u = shell_field(grid, j, mu, rng)
        ratios.append(sobolev_norm(tg(u), mu - gam.order))
    checks.append(_check("calculus.sc0_ratio_spread",
                         max(ratios) / min(ratios), 2.0))

    # annihilation and reality
    low = Field.from_spectrum(grid, np.where(np.abs(grid.xi) <= 0.5, 1.0, 0.0).astype(complex))
    checks.append(_check("calculus.low_freq_annihilation",
                         quant.quantize(gam, low).max_abs(), 0.0))
    u = shell_field(grid, 5, mu, np.random.default_rng(seed + 8))
    out = quant.quantize(gam, u)
    checks.append(_check("calculus.reality",
                         float(np.max(np.abs(np.asarray(out.values, complex).imag)))
                         / out.max_abs(), 1e-12))

    # commutator [J_eps, T_gamma] is bounded on H^mu uniformly in eps:
    # sup over eps and unit-H^mu probes of ||[J_eps, T_gamma] u|| / ||u||
    rng = np.random.default_rng(seed + 9)
    probes = [shell_field(grid, j, mu, rng) for j in (4, 6, 8)]
    worst = 0.0
    for eps in (0.01, 0.1, 0.5, 1.0):
        tj = quant.operator(mollifier_symbol(eta, eps, gam))
        for u in probes:
            comm = tj(tg(u)) - tg(tj(u))
            worst = max(worst, sobolev_norm(comm, mu) / sobolev_norm(u, mu))
    checks.append(_check("calculus.mollifier_commutator_uniform", worst, 10.0))
    return checks


# -- smoothing ---------------------------------------------------------------


def _suite_smoothing(seed: int, timings: dict) -> list:
    checks = []
    grid = Grid(128, 16 * np.pi)
    geo = Geometry("flat_bottom", 1.0)
    delta = 0.1
    esc = build_escape(delta, 0.05, grid)

    b = esc.blocks()
    checks.append(_check("smoothing.partition",
                         np.max(np.abs(b["psi0"] + b["psip"] + b["psim"] - 1.0)),
                         1e-12))
    y = b["y"]
    from .smoothing import _phi
    odd = np.max(np.abs((_phi(y / esc.eps_doi) - _phi(-y / esc.eps_doi))
                        - np.sign(y) * _phi(np.abs(y) / esc.eps_doi)))
    checks.append(_check("smoothing.sign_structure", odd, 1e-12))

    # Doi bound over the eta corpus, 1e4-point phase-space sample each
    xi_samples = np.concatenate([np.geomspace(0.5, grid.xi_max, 50),
                                 -np.geomspace(0.5, grid.xi_max, 50)])
    worst_k = np.inf
    worst_sum = 0.0
    worst_sign = 0.0
    for i, (eta, _) in enumerate(state_corpus(grid, geo, amplitude=0.05)[:5]):
        rep = bound_check(eta, esc, xi_samples=xi_samples)
        worst_k = min(worst_k, rep["K_measured"])
        worst_sum = max(worst_sum, rep["sum_vs_direct"])
        worst_sign = min(worst_sign, rep["i3_plus_i5_min"])
    checks.append(_check("smoothing.doi_K_min", worst_k, 0.0, ">="))
    checks.append(_check("smoothing.doi_sum_vs_direct", worst_sum, 1e-12))
    checks.append(_check("smoothing.doi_sign_terms", worst_sign, -1e-14, ">="))

    # Garding-type fit
    quant = Quantizer(grid)

    weight = np.hypot(1.0, grid.x) ** (-1.0 - 2 * delta)
    d_sym = Symbol(grid, 0.5, weight[:, None], name="d")
    samples = [gaussian_packet(grid, 2.0, seed + 30 + i, 1.0) for i in range(6)]
    rep = garding_fit(d_sym, delta, samples, quant)
    checks.append(_check("smoothing.garding_a", rep["a"], 0.0, ">="))
    doubled = Symbol(grid, 0.5, 2.0 * weight[:, None], name="2d")
    rep2 = garding_fit(doubled, delta, samples, quant)
    checks.append(_check("smoothing.garding_monotone", rep2["a"] - rep["a"], 0.0, ">="))

    # af identity on a short packet run
    eta0 = gaussian_packet(grid, 3.85, seed + 21, 1e-3)
    psi0 = gaussian_packet(grid, 3.35, seed + 22, 1e-3)
    st = WaveState(0.0, eta0, psi0, geo, nz=32, tail_tol=0.05)
    traj = run(st, 5e-3, 40, scheme="etdrk4", s=2.6, delta=delta,
               sample_stride=4, state_stride=4)
    rep = af_identity_check(traj.states, esc)
    checks.append(_check("smoothing.af_defect_rel",
                         rep["defect"] / max(abs(rep["lhs"]), 1e-300), 1e-2))
    checks.append(_check("smoothing.af_bound_ratio", rep["bound_ratio"], 10.0))
    checks.append(_check("smoothing.kato_finite",
                         kato_integral(traj, 2.6, delta), 1e6))
    return checks


# -- evolution ---------------------------------------------------------------


def _suite_evolution(seed: int, timings: dict) -> list:
    checks = []
    checks.extend(dispersion_battery())
    checks.extend(conservation_battery())
    checks.extend(reformulation_battery())
    checks.extend(monitor_battery())
    checks.extend(kato_battery(seed))
    return checks


def dispersion_battery(modes=(1, 2, 4), amplitude=1e-4, periods=3.0) -> list:
    """Criterion-level dispersion fit on small standing modes."""
    grid = Grid(64, 2 * np.pi)
    geo = Geometry("flat_bottom", 1.0, g=1.0, kappa=1.0)
    checks = []
    for k in modes:
        omega = np.sqrt((geo.g + geo.kappa * k**2) * k * np.tanh(k * geo.depth))
        period = 2 * np.pi / omega
        dt = period / 200
        n_steps = int(round(periods * period / dt))
        cur = WaveState(0.0, Field(grid, amplitude * np.cos(k * grid.x)),
                        Field.zeros(grid), geo, nz=48)
        states = []
        for _ in range(n_steps):
            cur = step(cur, dt, scheme="etdrk4")
            states.append(cur)
        rel = dispersion_fit(states, k)["rel_err"]
        checks.append(_check(f"evolution.dispersion_k{k}", rel, 1e-4))
    return checks


def conservation_battery(n_steps=500, dt=2e-3) -> list:
    """Mass and total-energy drift over a resolved nonlinear run."""
    grid = Grid(128, 2 * np.pi)
    geo = Geometry("flat_bottom", 1.0, g=1.0, kappa=1.0)
    eta0 = Field(grid, 0.05 * np.cos(grid.x) + 0.025)
    st = WaveState(0.0, eta0, Field.zeros(grid), geo, nz=48)
    traj = run(st, dt, n_steps, scheme="etdrk4", sample_stride=20)
    h0 = traj.records[0].hamiltonian
    m0 = traj.records[0].mass
    h_drift = max(abs(r.hamiltonian - h0) for r in traj.records) / abs(h0)
    m_drift = max(abs(r.mass - m0) for r in traj.records) / abs(m0)
    return [_check("evolution.mass_drift_rel", m_drift, 1e-10),
            _check("evolution.energy_drift_rel", h_drift, 1e-6)]


def reformulation_battery() -> list:
    """Mollified system at eps = 0 against the raw system on the corpus."""
    grid = Grid(128, 2 * np.pi)
    geo = Geometry("flat_bottom", 1.0, g=1.0, kappa=1.0)
    worst = 0.0
    for eta, psi in state_corpus(grid, geo):
        st = WaveState(0.0, eta, psi, geo, nz=32, tail_tol=0.05)
        ez, pz = zakharov_rhs(st)
        em, pm = mollified_rhs(st, 0.0)
        scale = max(ez.max_abs(), pz.max_abs(), 1e-300)
        worst = max(worst,
                    np.max(np.abs(em.values - ez.values)) / scale,
                    np.max(np.abs(pm.values - pz.values)) / scale)
    return [_check("evolution.reformulation_eps0_rel", worst, 1e-8)]


def monitor_battery(eps_values=(0.0, 0.01, 0.1), t_final=0.5, dt=4e-3) -> list:
    """Uniform-in-eps a priori growth of the running sup M(t)."""
    grid = Grid(128, 2 * np.pi)
    geo = Geometry("flat_bottom", 1.0, g=1.0, kappa=1.0)
    eta0 = Field(grid, 0.02 * np.cos(grid.x) + 0.01 * np.sin(2 * grid.x))
    psi0 = Field(grid, 0.02 * np.sin(grid.x) + 0.005 * np.cos(3 * grid.x))
    n_steps = int(round(t_final / dt))
    rates, m0 = [], None
    jumps = 0
    for eps in eps_values:
        st = WaveState(0.0, eta0, psi0, geo, nz=32)
        traj = run(st, dt, n_steps, eps=eps, scheme="etdrk4",
                   s=2.6, delta=0.1, sample_stride=5)
        rep = monitor(traj)
        rates.append(rep["max_growth_rate"])
        jumps += rep["jump_flags"]
        m0 = rep["m0"]
    c_uniform = max(rates)
    checks = [
        _check("evolution.monitor_uniform_c_times_T", c_uniform * t_final,
               0.2 * m0),
        _check("evolution.monitor_eps_spread",
               (max(rates) - min(rates)) / max(max(rates), 1e-3 * m0 / t_final),
               0.5),
        _check("evolution.monitor_jump_flags", jumps, 0.0),
    ]
    return checks


def kato_battery(seed: int = 0, resolutions=(128, 256, 512), t_final=2.0,
                 dt=2.5e-3, delta=0.4) -> list:
    """Resolution sweep of the weighted vs unweighted time integrals.

    The data has a fixed power-law envelope with resolution-shared phases at
    the critical regularity, so refining the grid extends the same rough
    packet with genuinely new high modes.  Those modes disperse out of the
    spatial window within the run, so the weighted integral stabilizes while
    the unweighted one keeps growing.  (The decay exponent delta is free in
    the smoothing statement; a moderate value keeps the window well inside
    the fundamental domain.)
    """
    geo = Geometry("flat_bottom", 1.0, g=1.0, kappa=1.0)
    s = 2.6
    length = 16 * np.pi
    weighted, unweighted = [], []
    for n in resolutions:
        grid = Grid(n, length)
        eta0 = gaussian_packet(grid, s + 1.25, seed + 41, 1e-3)
        psi0 = gaussian_packet(grid, s + 0.75, seed + 42, 1e-3)
        st = WaveState(0.0, eta0, psi0, geo, nz=48, tail_tol=0.05)
        traj = run(st, dt, int(round(t_final / dt)), scheme="etdrk4",
                   s=s, delta=delta, sample_stride=4, state_stride=4)
        weighted.append(kato_integral(traj, s, delta))
        unweighted.append(unweighted_integral(traj, s))
    w_var = (max(weighted) - min(weighted)) / min(weighted)
    growth = unweighted[-1] / unweighted[0]
    return [
        _check("evolution.kato_weighted_variation", w_var, 0.10),
        _check("evolution.kato_unweighted_growth", growth, 1.3, ">="),
        _check("evolution.kato_finite", max(weighted), 1e6),
    ]
