"""Evolution: dispersion, conservation, residual smoothness, mollifier checks."""

from pathlib import Path

import numpy as np
import pytest

from capwave import dno, evolution, symbols
from capwave.cli import parse_config
from capwave.dno import Geometry
from capwave.evolution import (
    EvolutionAbort,
    WaveState,
    diagonalize,
    hamiltonian,
    mollified_rhs,
    monitor,
    paralinear_residuals,
    run,
    step,
    symmetrized_residuals,
    time_derivatives,
    zakharov_rhs,
)
from capwave.field import CACHE_MAXSIZE, Field, Grid, sobolev_norm
from capwave.paradiff import Quantizer, measured_regularity
from capwave.smoothing import af_identity_check, build_escape
from capwave.symbols import Symbol

GRID = Grid(64, 2 * np.pi)
GEO = Geometry("flat_bottom", 1.0, g=1.0, kappa=1.0)


def mode(grid, k, amp, phase=0.0):
    return Field(grid, amp * np.cos(k * grid.x + phase))


def proj(field, k):
    idx = np.where(field.grid.k == k)[0][0]
    return field.spectrum[idx]


def test_zero_state_is_equilibrium():
    st = WaveState(0.0, Field.zeros(GRID), Field.zeros(GRID), GEO, nz=24)
    e, p = zakharov_rhs(st)
    assert e.max_abs() == 0.0 and p.max_abs() == 0.0
    nxt = step(st, 1e-3)
    assert nxt.eta.max_abs() == 0.0 and nxt.psi.max_abs() == 0.0


def test_caches_are_bounded_lrus():
    caches = (evolution.shared_quantizer, dno._flat_eigensystem,
              evolution._etdrk4_coefficients)
    assert all(c.cache_info().maxsize == CACHE_MAXSIZE for c in caches)
    grids = [Grid(8 + 2 * i, 2 * np.pi) for i in range(CACHE_MAXSIZE + 1)]
    for i, grid in enumerate(grids):
        evolution.shared_quantizer(grid)
        dno._flat_eigensystem(8 + i)
    for cache in caches[:2]:
        assert cache.cache_info().currsize == CACHE_MAXSIZE
    # least recently used goes first: the newest grid is kept, the oldest rebuilt
    misses = evolution.shared_quantizer.cache_info().misses
    evolution.shared_quantizer(grids[-1])
    evolution.shared_quantizer(grids[0])
    assert evolution.shared_quantizer.cache_info().misses == misses + 1


def test_b_and_v_share_one_compute(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return dno.compute_B_V(*args)

    monkeypatch.setattr(evolution, "compute_B_V", counting)
    st = WaveState(0.0, mode(GRID, 1, 0.01), mode(GRID, 2, 0.01, 0.4), GEO, nz=24)
    b, v = st.b_field, st.v_field
    assert st.b_field is b and st.v_field is v
    assert len(calls) == 1
    ref_b, ref_v = dno.compute_B_V(st.eta, st.psi, st.g_psi)
    assert np.array_equal(b.values, ref_b.values) and np.array_equal(v.values, ref_v.values)


def test_mollified_rhs_build_count(monkeypatch):
    # monitor-eps grid and data: 13 matrix builds per call, only the
    # mollifier j_eps - 1 is sampled on the full (x, xi) grid, and lambda and
    # h are built once for the state and once for the mollified state
    cfg = parse_config(Path(__file__).resolve().parents[1] / "configs" / "monitor-eps.cfg")
    builds, sampled, built = [], [], []
    matrix, sample_grid = Quantizer.matrix, Symbol.sample_grid

    def counting(constructor):
        def build(eta):
            built.append(constructor.__name__)
            return constructor(eta)
        return build

    for constructor in (symbols.dn_symbol, symbols.curvature_symbol):
        for module in (symbols, evolution):
            monkeypatch.setattr(module, constructor.__name__, counting(constructor))

    def counting_matrix(self, symbol):
        builds.append(symbol.name)
        return matrix(self, symbol)

    def counting_sample(self):
        sampled.append(self.name)
        return sample_grid(self)

    monkeypatch.setattr(Quantizer, "matrix", counting_matrix)
    monkeypatch.setattr(Symbol, "sample_grid", counting_sample)
    mollified_rhs(cfg.initial_state(), cfg.epsilon)
    assert len(builds) == 13, builds
    assert sampled == [f"j(eps={cfg.epsilon:g})-1"]
    assert sorted(built) == ["curvature_symbol"] * 2 + ["dn_symbol"] * 2, built


def test_t_b_is_built_once_per_state():
    st = WaveState(0.0, mode(GRID, 1, 0.01), mode(GRID, 2, 0.01, 0.4), GEO, nz=24)
    assert st.t_b is st.t_b
    ref = st.quantizer.quantize(Symbol.from_field(st.b_field), st.eta)
    assert np.array_equal(st.u_good.values, (st.psi - ref).real().values)


def test_t_v_is_built_once_per_state(monkeypatch):
    states = [WaveState(0.1 * i, mode(GRID, 1, 0.01 + 0.002 * i), mode(GRID, 2, 0.01, 0.4),
                        GEO, nz=24) for i in range(3)]
    assert states[0].t_v is states[0].t_v
    for st in states:
        symmetrized_residuals(st)
    built = []
    matrix = Quantizer.matrix

    def counting_matrix(self, symbol):
        built.append(symbol.name)
        return matrix(self, symbol)

    monkeypatch.setattr(Quantizer, "matrix", counting_matrix)
    af_identity_check(states, build_escape(0.1, 0.05, GRID))
    assert built and "V" not in built, built


@pytest.mark.parametrize("eps, called", [(0.0, "zakharov_rhs"), (0.01, "mollified_rhs")])
def test_eps_alone_picks_the_right_hand_side(monkeypatch, eps, called):
    calls = []

    def counting(name):
        rhs = getattr(evolution, name)

        def wrapped(*args):
            calls.append(name)
            return rhs(*args)
        return wrapped

    for name in ("zakharov_rhs", "mollified_rhs"):
        monkeypatch.setattr(evolution, name, counting(name))
    st = WaveState(0.0, mode(GRID, 1, 0.01), mode(GRID, 2, 0.01, 0.4), GEO, nz=24)
    for scheme in ("rk4", "etdrk4"):
        step(st, 1e-3, eps=eps, scheme=scheme)
    assert calls == [called] * 8


def test_flat_interface_plug_in():
    k = 3
    st = WaveState(0.0, Field.zeros(GRID), mode(GRID, k, 1.0), GEO, nz=32)
    e, p = zakharov_rhs(st)
    wg = k * np.tanh(k)
    exp_e = wg * np.cos(k * GRID.x)
    exp_p = -0.5 * (k * np.sin(k * GRID.x)) ** 2 + 0.5 * (wg * np.cos(k * GRID.x)) ** 2
    assert np.max(np.abs(e.values - exp_e)) < 1e-10
    assert np.max(np.abs(p.values - exp_p)) < 1e-10


def test_linearization_jacobian_dispersion():
    # finite-difference Jacobian on one mode reproduces the dispersion
    # relation omega^2 = (g + kappa k^2) k tanh(k h0)
    k, a = 2, 1e-6
    st_eta = WaveState(0.0, mode(GRID, k, a), Field.zeros(GRID), GEO, nz=32)
    st_psi = WaveState(0.0, Field.zeros(GRID), mode(GRID, k, a), GEO, nz=32)
    e1, p1 = zakharov_rhs(st_eta)
    e2, p2 = zakharov_rhs(st_psi)
    half = a / 2
    jac = np.array([
        [proj(e1, k) / half, proj(e2, k) / half],
        [proj(p1, k) / half, proj(p2, k) / half],
    ])
    eig = np.linalg.eigvals(jac)
    omega = np.sqrt((GEO.g + GEO.kappa * k**2) * k * np.tanh(k * GEO.depth))
    assert np.max(np.abs(np.sort(eig.imag) - np.array([-omega, omega]))) < 1e-5 * omega
    assert np.max(np.abs(eig.real)) < 1e-5 * omega


def test_paralinear_residual_flat_is_low_frequency():
    # at eta = 0 the residual is (G(0) - T_lambda) psi: the high-frequency
    # part carries only the exp(-2 k h0) depth correction of the multiplier
    geo = Geometry("flat_bottom", 2.0, g=1.0, kappa=1.0)
    st = WaveState(0.0, Field.zeros(GRID), mode(GRID, 8, 1.0), geo, nz=48)
    f1, _ = paralinear_residuals(st)
    hi = np.abs(GRID.xi) >= 4.0
    hi_mass = np.sqrt(np.sum(np.abs(f1.spectrum[hi]) ** 2))
    assert hi_mass < 1e-8 * sobolev_norm(st.g_psi, 0.0)


def test_paralinear_residual_zero_psi():
    # with g = 0 and psi = 0 the residual f2 is the curvature defect,
    # measurably smoother than eta
    geo = Geometry("flat_bottom", 1.0, g=0.0, kappa=1.0)
    grid = Grid(256, 2 * np.pi)
    rng = np.random.default_rng(5)
    kk = np.abs(grid.k).astype(float)
    c = np.zeros(grid.n, dtype=complex)
    mask = kk > 0
    c[mask] = kk[mask] ** -3.5 * np.exp(2j * np.pi * rng.random(mask.sum()))
    c[grid.n // 2 + 1:] = np.conj(c[1:grid.n // 2][::-1])
    c[grid.n // 2] = 0.0
    eta = Field.from_spectrum(grid, 0.2 * c)
    st = WaveState(0.0, eta, Field.zeros(grid), geo, nz=32, tail_tol=1e-3)
    f1, f2 = paralinear_residuals(st)
    assert f1.max_abs() < 1e-11
    # f2 gains over the curvature term it linearizes (order 2 gain ~ 3/2
    # at this regularity; well above the one-order claim)
    from capwave.evolution import curvature
    gain = measured_regularity(f2, 2, 6) - measured_regularity(curvature(eta), 2, 6)
    assert gain >= 1.25, gain


def test_paralinear_residual_quadratic_scaling():
    # deep water, band >= 2: the O(a) multiplier defect is exponentially
    # small, leaving the quadratic remainder
    # note the eta mode must exceed a psi mode: same or lower eta modes hit
    # the exact quadratic cancellation of deep-water mode pairs
    geo = Geometry("flat_bottom", 8.0, g=1.0, kappa=1.0)
    amps = (1e-3, 2e-3, 4e-3)
    norms = []
    for a in amps:
        eta = Field(GRID, a * (np.cos(2 * GRID.x) + np.cos(5 * GRID.x + 0.3)))
        psi = Field(GRID, a * (np.sin(2 * GRID.x) + 0.5 * np.cos(3 * GRID.x)))
        st = WaveState(0.0, eta, psi, geo, nz=48)
        f1, _ = paralinear_residuals(st)
        norms.append(sobolev_norm(f1, 0.0))
    slope = np.polyfit(np.log(amps), np.log(norms), 1)[0]
    assert 1.8 <= slope <= 2.2


def test_mollified_matches_zakharov_at_eps_zero():
    eta = Field(GRID, 0.03 * np.cos(GRID.x) + 0.02 * np.sin(2 * GRID.x))
    psi = Field(GRID, 0.04 * np.sin(GRID.x) + 0.01 * np.cos(3 * GRID.x))
    st = WaveState(0.0, eta, psi, GEO, nz=32)
    ez, pz = zakharov_rhs(st)
    em, pm = mollified_rhs(st, 0.0)
    scale = max(ez.max_abs(), pz.max_abs())
    assert np.max(np.abs(em.values - ez.values)) <= 1e-8 * scale
    assert np.max(np.abs(pm.values - pz.values)) <= 1e-8 * scale


def test_mollifier_damps_high_modes():
    k = 10
    st = WaveState(0.0, Field.zeros(GRID), mode(GRID, k, 1.0), GEO, nz=32)
    e0, _ = mollified_rhs(st, 0.0)
    e1, _ = mollified_rhs(st, 0.1)
    ratio = (proj(e1, k) / proj(e0, k)).real
    assert abs(ratio - np.exp(-0.1 * k**1.5)) < 1e-10


def test_mollifier_orders_high_band_energy():
    st = WaveState(0.0, Field.zeros(GRID), mode(GRID, 10, 1.0), GEO, nz=32)
    e1, _ = mollified_rhs(st, 0.05)
    e2, _ = mollified_rhs(st, 0.3)
    hi = np.abs(GRID.xi) >= 8.0
    assert np.sum(np.abs(e2.spectrum[hi]) ** 2) <= np.sum(np.abs(e1.spectrum[hi]) ** 2)


def test_step_envelope_check():
    st = WaveState(0.0, mode(GRID, 1, 0.01), Field.zeros(GRID), GEO, nz=24)
    with pytest.raises(ValueError):
        step(st, 1.0, scheme="rk4")  # dt * omega_max far out of envelope
    with pytest.raises(ValueError):
        step(st, 1e-3, scheme="leapfrog")


def test_rk4_linear_period_return():
    # one linear period of a small mode returns to the initial data; the
    # global error contracts at fourth order under dt halving (small grid so
    # the rk4 envelope admits a step with a measurable phase error)
    grid = Grid(32, 2 * np.pi)
    k, a = 2, 1e-7  # small enough that the O(a^2) bound harmonics sit
    # below the integrator error at these step counts
    omega = np.sqrt((1.0 + k**2) * k * np.tanh(k))
    period = 2 * np.pi / omega
    st0 = WaveState(0.0, mode(grid, k, a), Field.zeros(grid), GEO, nz=32)

    def return_error(n_steps):
        cur = st0
        dt = period / n_steps
        for _ in range(n_steps):
            cur = step(cur, dt, scheme="rk4")
        return np.max(np.abs(cur.eta.values - st0.eta.values)) / a

    e_coarse = return_error(48)
    e_fine = return_error(96)
    assert 10 <= e_coarse / e_fine <= 24  # ~16 for a fourth-order scheme
    assert e_fine < 1e-4


def test_rk4_self_convergence_nonlinear():
    # dt-halving error ratio ~ 2^4 against a dt/8 reference on a short
    # nonlinear run
    st0 = WaveState(0.0, mode(GRID, 1, 0.05),
                    Field(GRID, 0.05 * np.sin(GRID.x)), GEO, nz=32)
    t_final = 0.2

    def integrate(dt):
        cur = st0
        n = int(round(t_final / dt))
        for _ in range(n):
            cur = step(cur, dt, scheme="rk4")
        return cur.eta.values

    ref = integrate(t_final / 160)
    err1 = np.max(np.abs(integrate(t_final / 20) - ref))
    err2 = np.max(np.abs(integrate(t_final / 40) - ref))
    assert 10 <= err1 / err2 <= 24


def test_hamiltonian_zero_and_small_amplitude_limit():
    st = WaveState(0.0, Field.zeros(GRID), Field.zeros(GRID), GEO, nz=24)
    assert hamiltonian(st) == (0.0, 0.0)
    ratios = []
    for a in (1e-2, 1e-3):
        st = WaveState(0.0, mode(GRID, 2, a), Field.zeros(GRID), GEO, nz=32)
        total, quad = hamiltonian(st)
        ratios.append(total / quad)
    assert abs(ratios[0] - 1.0) < 2e-2
    assert abs(ratios[1] - 1.0) < 2e-4  # quadratic convergence in amplitude


def test_energy_and_mass_conservation_short_run():
    grid = Grid(128, 2 * np.pi)
    eta0 = Field(grid, 0.05 * np.cos(grid.x) + 0.025)
    st = WaveState(0.0, eta0, Field.zeros(grid), GEO, nz=48)
    traj = run(st, 2e-3, 60, scheme="etdrk4", sample_stride=10)
    h0 = traj.records[0].hamiltonian
    m0 = traj.records[0].mass
    assert max(abs(r.hamiltonian - h0) for r in traj.records) <= 1e-8 * abs(h0)
    assert max(abs(r.mass - m0) for r in traj.records) <= 1e-11 * abs(m0)


def test_diagonalize_zero_and_symmetry():
    st = WaveState(0.0, Field.zeros(GRID), Field.zeros(GRID), GEO, nz=24)
    assert diagonalize(st).max_abs() == 0.0
    st = WaveState(0.0, mode(GRID, 3, 1e-3), Field.zeros(GRID), GEO, nz=24)
    a_hat = diagonalize(st).spectrum
    for i, k in enumerate(GRID.k):
        if k > 0:
            j = np.where(GRID.k == -k)[0][0]
            assert abs(a_hat[j] - np.conj(a_hat[i])) < 1e-15


def test_linear_flow_preserves_action():
    k, a = 2, 1e-5
    st = WaveState(0.0, mode(GRID, k, a), Field.zeros(GRID), GEO, nz=32)
    omega = np.sqrt((1.0 + k**2) * k * np.tanh(k))
    dt = 2 * np.pi / omega / 100
    mags = []
    cur = st
    for _ in range(100):
        cur = step(cur, dt, scheme="etdrk4")
        mags.append(abs(proj(diagonalize(cur), k)))
    mags = np.array(mags)
    assert np.max(np.abs(mags - mags[0])) <= 1e-6 * mags[0]


def test_monitor_zero_and_short_run():
    st = WaveState(0.0, Field.zeros(GRID), Field.zeros(GRID), GEO, nz=24)
    traj = run(st, 1e-3, 5, scheme="rk4")
    rep = monitor(traj)
    assert rep["m0"] == 0.0 and rep["m_final"] == 0.0
    st = WaveState(0.0, mode(GRID, 1, 0.02), Field.zeros(GRID), GEO, nz=32)
    traj = run(st, 2e-3, 50, scheme="etdrk4", sample_stride=5)
    rep = monitor(traj)
    assert rep["jump_flags"] == 0
    assert rep["max_growth_rate"] * 0.1 <= 0.5 * rep["m0"]


def test_time_derivative_of_dn_matches_flow_difference():
    eta = Field(GRID, 0.05 * np.cos(GRID.x))
    psi = Field(GRID, 0.05 * np.sin(GRID.x) + 0.02 * np.cos(2 * GRID.x))
    st = WaveState(0.0, eta, psi, GEO, nz=32)
    der = time_derivatives(st)
    tau = 1e-4
    vals = []
    for sign in (1.0, -1.0):
        pert = WaveState(0.0, eta + der["eta_t"] * (sign * tau),
                         psi + der["psi_t"] * (sign * tau), GEO, nz=32)
        vals.append(pert.g_psi.values)
    fd = (vals[0] - vals[1]) / (2 * tau)
    scale = np.max(np.abs(fd))
    assert np.max(np.abs(der["g_psi_t"].values - fd)) < 1e-6 * scale


def test_symmetrized_residual_smoother_than_principal_terms():
    grid = Grid(256, 2 * np.pi)
    rng = np.random.default_rng(31)
    kk = np.abs(grid.k).astype(float)

    def rough(seed, sigma, amp):
        r = np.random.default_rng(seed)
        c = np.zeros(grid.n, dtype=complex)
        mask = kk > 0
        c[mask] = kk[mask] ** -sigma * np.exp(2j * np.pi * r.random(mask.sum()))
        c[grid.n // 2 + 1:] = np.conj(c[1:grid.n // 2][::-1])
        c[grid.n // 2] = 0.0
        return Field.from_spectrum(grid, amp * c)

    st = WaveState(0.0, rough(31, 4.1, 0.05), rough(32, 3.6, 0.05), GEO,
                   nz=48, tail_tol=1e-3)
    res = symmetrized_residuals(st)
    t_g = st.quantizer.operator(st.symmetrizer_symbols[2])
    principal = t_g(res["phi2"])
    gain = measured_regularity(res["f1"], 2, 6) - measured_regularity(principal, 2, 6)
    assert gain >= 1.0, gain


def test_trajectory_csv(tmp_path):
    st = WaveState(0.0, mode(GRID, 1, 0.01), Field.zeros(GRID), GEO, nz=24)
    traj = run(st, 2e-3, 5, scheme="rk4")
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "t,eta_norm,psi_norm,monitor,hamiltonian,quadratic,smoothing"
    assert len(lines) == len(traj.records) + 1


def test_abort_carries_last_state():
    # blow the state up by hand: depth becomes degenerate mid-step
    st = WaveState(0.0, mode(GRID, 1, 0.9), Field(GRID, 5.0 * np.sin(GRID.x)),
                   GEO, nz=24)
    with pytest.raises((EvolutionAbort, ValueError)):
        cur = st
        for _ in range(400):
            cur = step(cur, 5e-3, scheme="rk4")
