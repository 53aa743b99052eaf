"""Evolution: dispersion, conservation, residual smoothness, mollifier checks."""

import math
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
from capwave.field import CACHE_MAXSIZE, Field, Grid, derivative_symbol, sobolev_norm, \
    spectral_derivative
from capwave.paradiff import Quantizer, measured_regularity
from capwave.smoothing import af_identity_check, build_escape
from capwave.symbols import Mollifier, Symbol, symmetrizer

GRID = Grid(64, 2 * np.pi)
GEO = Geometry("flat_bottom", 1.0, g=1.0, kappa=1.0)
MONITOR_EPS = Path(__file__).resolve().parents[1] / "configs" / "monitor-eps.cfg"


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


def test_raw_run_builds_no_quantizer(monkeypatch):
    # the raw right-hand side and the ETDRK4 coefficients need no T_a; the
    # shared quantizer is swapped for an uncached one, so a request for it
    # counts even when an earlier test cached the grid's quantizer
    built = []
    init = Quantizer.__init__
    monkeypatch.setattr(Quantizer, "__init__",
                        lambda self, grid: built.append(grid) or init(self, grid))
    monkeypatch.setattr(evolution, "shared_quantizer", Quantizer)
    grid = Grid(512, 16 * np.pi)
    st = WaveState(0.0, mode(grid, 3, 1e-3), Field.zeros(grid), GEO, nz=16)
    traj = run(st, 1.7e-3, 2)
    assert traj.records[-1].t == pytest.approx(3.4e-3)
    assert built == []


def test_caches_are_bounded_lrus():
    caches = (evolution.shared_quantizer, dno._strip_table,
              evolution._flat_modes, evolution._etdrk4_coefficients, derivative_symbol)
    assert all(c.cache_info().maxsize == CACHE_MAXSIZE for c in caches)
    grids = [Grid(8 + 2 * i, 2 * np.pi) for i in range(CACHE_MAXSIZE + 1)]
    for i, grid in enumerate(grids):
        evolution.shared_quantizer(grid)
        dno._strip_table(8 + i)
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
    cfg = parse_config(MONITOR_EPS)
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


def test_mollified_step_fft_count(fft_calls):
    # one eps = 0.01 ETDRK4 step on monitor-eps data makes 740 numpy FFT
    # calls (888 when each field transformed and differentiated on every
    # read).  The first step starts from psi = 0, whose DN solve skips
    # GMRES, so the count is taken on the second step, where all four
    # stages solve.  The GMRES part, 120 rfft and 176 irfft, is unchanged.
    cfg = parse_config(MONITOR_EPS)
    first = step(cfg.initial_state(), cfg.dt, eps=0.01)
    fft_calls.clear()
    step(first, cfg.dt, eps=0.01)
    assert fft_calls == {"fft": 216, "ifft": 228, "rfft": 120, "irfft": 176}, fft_calls
    assert sum(fft_calls.values()) == 740


def test_mollified_rhs_product_count(monkeypatch):
    # 6 dealiased products per call: the state's B and V take two, and the
    # mollified state's B, V and raw psi_t share one surface flux
    # eta_x psi_x + G(eta)psi, so they take four
    products = []
    product = dno.dealiased_product

    def counting(u, v):
        products.append(u.grid)
        return product(u, v)

    for module in (dno, evolution):
        monkeypatch.setattr(module, "dealiased_product", counting)
    cfg = parse_config(MONITOR_EPS)
    mollified_rhs(cfg.initial_state(), cfg.epsilon)
    assert len(products) == 6


def test_eta_x_is_computed_once_per_right_hand_side(monkeypatch):
    # the strip operator, B and V, the symbols lambda, h, p, q and gamma
    # share one eta_x (five transforms of eta when each computed its own)
    cfg = parse_config(MONITOR_EPS)
    st = cfg.initial_state()
    of_eta = []

    def counting(samples, grid, order=1, axis=-1):
        of_eta.append(samples is st.eta.values and order == 1)
        return spectral_derivative(samples, grid, order, axis)

    monkeypatch.setattr("capwave.field.spectral_derivative", counting)
    mollified_rhs(st, cfg.epsilon)
    assert of_eta.count(True) == 1


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


def test_symmetrized_residuals_build_each_operator_once(monkeypatch):
    # T_b(t), T_p, dt T_p, T_q, dt T_q per call, plus the state's cached
    # T_B, T_V and T_gamma; af_identity_check adds T_a once and reuses
    # each state's T_gamma
    states = [WaveState(0.1 * i, mode(GRID, 1, 0.01 + 0.002 * i), mode(GRID, 2, 0.01, 0.4),
                        GEO, nz=24) for i in range(3)]
    built = []
    matrix = Quantizer.matrix

    def counting_matrix(self, symbol):
        built.append(symbol.name)
        return matrix(self, symbol)

    monkeypatch.setattr(Quantizer, "matrix", counting_matrix)
    symmetrized_residuals(states[0])
    assert len(built) == 8, built
    built.clear()
    af_identity_check([st.replace() for st in states], build_escape(0.1, 0.05, GRID))
    assert len(built) == 25, built


def test_symmetrized_residuals_build_three_symmetrizers(monkeypatch):
    # one for the state, cached, and one on each side of the flow difference
    # that serves both p and q
    calls = []
    build = evolution.symmetrizer

    def counting(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(evolution, "symmetrizer", counting)
    st = WaveState(0.0, mode(GRID, 1, 0.01), mode(GRID, 2, 0.01, 0.4), GEO, nz=24)
    symmetrized_residuals(st)
    assert len(calls) == 3


def test_stored_states_keep_no_right_hand_side_caches():
    st = WaveState(0.0, mode(GRID, 1, 0.01), mode(GRID, 2, 0.01, 0.4), GEO, nz=24)
    traj = run(st, 1e-3, 4, eps=0.01, state_stride=1)
    assert len(traj.states) == 5
    cached = ("t_b", "t_v", "g_psi", "flux", "lam", "symmetrizer_symbols")
    for stored in traj.states:
        assert not set(cached) & set(vars(stored)), sorted(vars(stored))


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
    step(st, 1e-3, eps=eps)
    assert calls == [called] * 4


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


def test_non_finite_state_fails_validation():
    # the band-tail test fails on NaN, which no comparison with the tolerance passes
    values = np.zeros(GRID.n)
    values[3] = np.nan
    eta = Field(GRID, values)
    with pytest.raises(ValueError, match="eta spectral tail nan"):
        WaveState(0.0, eta, Field.zeros(GRID), GEO, nz=24)


def test_step_envelope_check():
    st = WaveState(0.0, mode(GRID, 1, 0.01), Field.zeros(GRID), GEO, nz=24)
    with pytest.raises(ValueError):
        step(st, 1.0)  # dt * omega_max ~ 172, far out of the envelope 40
    with pytest.raises(ValueError):
        step(st, 1e-3, scheme="leapfrog")


@pytest.mark.parametrize("dt, eps", [
    (np.nan, 0.0), (-4e-3, 0.0), (0.0, 0.0), (np.inf, 0.0),
    (4e-3, np.nan), (4e-3, -0.01), (4e-3, np.inf)])
def test_step_rejects_bad_dt_and_eps_before_any_build(monkeypatch, dt, eps):
    # NaN fails every comparison, so a guard written as `dt <= 0` lets it run a step
    st = WaveState(0.0, mode(GRID, 1, 0.02), Field.zeros(GRID), GEO, nz=16)
    builds = []

    def no_build(*args):
        builds.append(args)
        raise AssertionError("built before the argument check")

    for name in ("_etdrk4_coefficients", "zakharov_rhs", "mollified_rhs"):
        monkeypatch.setattr(evolution, name, no_build)
    with pytest.raises(ValueError, match="must be (positive|nonnegative) and finite"):
        step(st, dt, eps)
    assert builds == []


@pytest.mark.parametrize("eps", [np.nan, -0.01, np.inf])
def test_mollifier_strength_must_be_nonnegative_and_finite(eps):
    st = WaveState(0.0, mode(GRID, 1, 0.02), Field.zeros(GRID), GEO, nz=16)
    with pytest.raises(ValueError, match="nonnegative and finite"):
        Mollifier(symmetrizer(st.eta)[2], eps)
    with pytest.raises(ValueError, match="nonnegative and finite"):
        mollified_rhs(st, eps)


def test_etdrk4_self_convergence_nonlinear():
    # dt-halving error ratio ~ 2^4 against a T/160 reference on a short
    # nonlinear run (errors 3.09e-11 at T/5 and 1.93e-12 at T/10, ratio 16.0)
    st0 = WaveState(0.0, mode(GRID, 1, 0.05),
                    Field(GRID, 0.05 * np.sin(GRID.x)), GEO, nz=32)
    t_final = 0.2

    def integrate(dt):
        cur = st0
        n = int(round(t_final / dt))
        for _ in range(n):
            cur = step(cur, dt)
        return cur.eta.values

    ref = integrate(t_final / 160)
    err1 = np.max(np.abs(integrate(t_final / 5) - ref))
    err2 = np.max(np.abs(integrate(t_final / 10) - ref))
    assert 10 <= err1 / err2 <= 24


def phi(k, z):
    """phi_k(z) = sum_j z^j / (j + k)!, summed to rounding for |z| <= 3."""
    return sum(z**j / math.factorial(j + k) for j in range(40))


@pytest.mark.parametrize("dt, eps", [(5e-3, 0.0), (4e-3, 0.01)])
def test_etdrk4_coefficients_match_closed_forms(dt, eps):
    # z = i omega dt is imaginary, so only the full-circle contour average meets
    # the closed forms; the upper half circle misses Q by 16% and f1 by 66% at
    # eps = 0.  Below |z| = 0.5 the closed forms lose digits to cancellation,
    # so every mode is also held to their phi-function series (at eps = 0.01
    # every mode is below: max |z| = 0.15)
    grid = Grid(128, 2 * np.pi)
    coeff = evolution._etdrk4_coefficients(grid, GEO, dt, eps)
    z = dt * 1j * coeff.omega_eff
    series = {"E": np.exp(z), "E2": np.exp(z / 2), "Q": dt / 2 * phi(1, z / 2),
              "f1": dt * (phi(1, z) - 3 * phi(2, z) + 4 * phi(3, z)),
              "f2": dt * (phi(2, z) - 2 * phi(3, z)),
              "f3": dt * (4 * phi(3, z) - phi(2, z))}
    big = np.abs(z) >= 0.5
    zb, eb = z[big], np.exp(z[big])
    closed = {"Q": dt * (np.exp(zb / 2) - 1) / zb,
              "f1": dt * (-4 - zb + eb * (4 - 3 * zb + zb**2)) / zb**3,
              "f2": dt * (2 + zb + eb * (zb - 2)) / zb**3,
              "f3": dt * (-4 - 3 * zb - zb**2 + eb * (4 - zb)) / zb**3}
    for name, want in series.items():
        got = getattr(coeff, name)
        assert got.shape == (grid.n,), name
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-12, name
        if name in closed:
            rel = np.abs(got[big] - closed[name]) / np.abs(closed[name])
            assert np.max(rel, initial=0.0) <= 1e-12, name


@pytest.mark.parametrize("geo", [GEO, Geometry("flat_bottom", 1.0, g=0.0, kappa=0.0)],
                         ids=["default", "no-stiffness"])
def test_normal_variable_round_trip(geo):
    # random real fields carry xi = 0 and Nyquist; at g = kappa = 0 no mode is linear
    modes = evolution._flat_modes(GRID, geo)
    assert modes.linear_mask.any() == (geo.g > 0)
    rng = np.random.default_rng(7)
    eta, psi = (Field(GRID, rng.standard_normal(GRID.n)) for _ in range(2))
    w = modes.to_w(eta.spectrum, psi.spectrum)
    assert w.shape == (GRID.n,)
    for got, want in zip(modes.from_w(w), (eta.spectrum, psi.spectrum)):
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    # any complex w gives exactly Hermitian spectra
    w = rng.standard_normal(GRID.n) + 1j * rng.standard_normal(GRID.n)
    flip = (-GRID.k) % GRID.n
    for spec in modes.from_w(w):
        assert np.array_equal(spec[flip], np.conj(spec))


def test_run_without_stiffness_stays_finite_and_real():
    # g = kappa = 0: omega = 0 on every mode, the step is the plain RK4 limit
    geo = Geometry("flat_bottom", 1.0, g=0.0, kappa=0.0)
    st = WaveState(0.0, mode(GRID, 1, 0.02), mode(GRID, 2, 0.02, 0.4), geo, nz=24)
    traj = run(st, 2e-3, 20, state_stride=1)
    assert len(traj.states) == 21
    for cur in traj.states:
        for f in (cur.eta, cur.psi):
            assert f.is_real and np.all(np.isfinite(f.values))
    assert np.max(np.abs(traj.states[-1].eta.values - st.eta.values)) > 1e-4
    h0 = traj.records[0].hamiltonian
    assert max(abs(r.hamiltonian - h0) for r in traj.records) <= 1e-10 * h0


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
    traj = run(st, 2e-3, 60, sample_stride=10)
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
        cur = step(cur, dt)
        mags.append(abs(proj(diagonalize(cur), k)))
    mags = np.array(mags)
    assert np.max(np.abs(mags - mags[0])) <= 1e-6 * mags[0]


def test_monitor_zero_and_short_run():
    st = WaveState(0.0, Field.zeros(GRID), Field.zeros(GRID), GEO, nz=24)
    traj = run(st, 1e-3, 5)
    rep = monitor(traj)
    assert rep["m0"] == 0.0 and rep["m_final"] == 0.0
    st = WaveState(0.0, mode(GRID, 1, 0.02), Field.zeros(GRID), GEO, nz=32)
    traj = run(st, 2e-3, 50, sample_stride=5)
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


def test_time_derivatives_reject_a_moving_bottom():
    # the shape-derivative identity behind g_psi_t holds for a fixed bottom
    # only; on the parallel strip it read 1.6e-2 off a centred difference
    eta = Field(GRID, 0.1 * np.cos(GRID.x))
    psi = Field(GRID, 0.1 * np.sin(GRID.x) + 0.05 * np.cos(2 * GRID.x))
    st = WaveState(0.0, eta, psi, Geometry("parallel_strip", 1.0), nz=32)
    with pytest.raises(dno.GeometryError):
        time_derivatives(st)


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
    traj = run(st, 2e-3, 5)
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "t,eta_norm,psi_norm,monitor,hamiltonian,quadratic,smoothing"
    assert len(lines) == len(traj.records) + 1


def test_abort_carries_last_state():
    # blow the state up by hand: depth becomes degenerate mid-step
    st = WaveState(0.0, mode(GRID, 1, 0.9), Field(GRID, 5.0 * np.sin(GRID.x)),
                   GEO, nz=24)
    cur = st
    with pytest.raises(EvolutionAbort) as err:
        for _ in range(400):
            cur = step(cur, 5e-3)
    carried = err.value.state
    assert carried is cur
    assert carried.t == pytest.approx(0.125)
    assert np.all(np.isfinite(carried.eta.values)) and np.all(np.isfinite(carried.psi.values))
