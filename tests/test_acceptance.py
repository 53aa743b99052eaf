"""Acceptance gate: the thirteen criteria, one pass/fail line each.

Heavy experiments run once in module-scoped fixtures and individual criteria
assert on the collected measurements at their stated tolerances.  Run with
``pytest -s tests/test_acceptance.py`` to see the per-criterion lines.
"""

import json
import time

import pytest

from capwave.cli import parse_config, run_simulate
from capwave.verify import (
    conservation_battery,
    dispersion_battery,
    kato_battery,
    monitor_battery,
    reformulation_battery,
    run_suite,
)

from make_fingerprint import VERIFY_RECORDS

_ELAPSED = {}

# relative deviation allowed from verify_records.json, for the records that
# round differently with BLAS on 1 and on 2 threads; every other record is
# held bit for bit.  Measured between the two: 6.8e-7 on both cancellation
# records (a floor residual), 0.34 on the dense-oracle difference (1.5e-11
# against 2.0e-11: rounding alone) and 8.2e-12 on the n <= 512 Kato sweep.
RECORD_TOLERANCE = {
    "dno.cancellation_rel": 1e-5,
    "dno.cancellation_floor": 1e-5,
    "dno.large_amplitude_oracle_rel": 0.5,
    "evolution.kato_weighted_variation": 1e-10,
    "evolution.kato_unweighted_growth": 1e-10,
    "evolution.kato_finite": 1e-10,
}


def emit(num, desc, ok, detail):
    print(f"\nACCEPTANCE {num:02d} [{'PASS' if ok else 'FAIL'}] {desc}: {detail}")
    assert ok, f"criterion {num}: {desc}: {detail}"


def by_name(checks, name):
    for c in checks:
        if c["name"] == name:
            return c
    raise KeyError(name)


def timed_suite(name):
    t0 = time.time()
    rep = run_suite(name)
    _ELAPSED[name] = time.time() - t0
    return rep


@pytest.fixture(scope="module")
def dno_suite():
    return timed_suite("dno")


@pytest.fixture(scope="module")
def symbols_suite():
    return timed_suite("symbols")


@pytest.fixture(scope="module")
def calculus_suite():
    return timed_suite("calculus")


@pytest.fixture(scope="module")
def smoothing_suite():
    return timed_suite("smoothing")


@pytest.fixture(scope="module")
def dispersion_checks():
    t0 = time.time()
    checks = dispersion_battery()
    _ELAPSED["dispersion"] = time.time() - t0
    return checks


@pytest.fixture(scope="module")
def conservation_checks():
    t0 = time.time()
    checks = conservation_battery()
    _ELAPSED["conservation"] = time.time() - t0
    return checks


@pytest.fixture(scope="module")
def reformulation_checks():
    t0 = time.time()
    checks = reformulation_battery()
    _ELAPSED["reformulation"] = time.time() - t0
    return checks


@pytest.fixture(scope="module")
def monitor_checks():
    t0 = time.time()
    checks = monitor_battery()
    _ELAPSED["monitor"] = time.time() - t0
    return checks


@pytest.fixture(scope="module")
def kato_checks():
    t0 = time.time()
    checks = kato_battery()
    _ELAPSED["kato"] = time.time() - t0
    return checks


def test_criterion_01_dn_flat_oracle(dno_suite):
    acc = by_name(dno_suite["checks"], "dno.flat_oracle_rel")
    rt = dno_suite["timings"]["dno.flat_oracle_runtime_s"]["seconds"]
    emit(1, "DN flat oracle k<=20 at n=256, nz=48",
         acc["pass"] and rt < 5.0,
         f"rel err {acc['measured']:.2e} <= 1e-8, runtime {rt:.2f}s < 5s")


def test_criterion_02_shape_derivative(dno_suite):
    small = by_name(dno_suite["checks"], "dno.shape_derivative_rel_at_1e-4")
    lo = by_name(dno_suite["checks"], "dno.shape_derivative_richardson_lo")
    hi = by_name(dno_suite["checks"], "dno.shape_derivative_richardson_hi")
    emit(2, "shape derivative vs centered differences",
         small["pass"] and lo["pass"] and hi["pass"],
         f"rel err {small['measured']:.2e} <= 1e-5 at eps=1e-4, "
         f"Richardson ratio {lo['measured']:.2f} in [2.5, 5.5]")


def test_criterion_03_cancellation(dno_suite):
    rel = by_name(dno_suite["checks"], "dno.cancellation_rel")
    refine = by_name(dno_suite["checks"], "dno.cancellation_refines")
    emit(3, "cancellation identity residual",
         rel["pass"] and refine["pass"],
         f"residual {rel['measured']:.2e} <= 1e-5 x ||dV/dx||, "
         f"nz refinement factor {refine['measured']:.2f}")


def test_criterion_04_symbol_identities(symbols_suite):
    names = ["symbols.adlambda", "symbols.q_transport_equation",
             "symbols.a2d_reduction", "symbols.g12"]
    checks = [by_name(symbols_suite["checks"], n) for n in names]
    ok = all(c["pass"] for c in checks)
    emit(4, "symbol identities (symmetry, transport, 1d reduction, g12)",
         ok, "; ".join(f"{c['name'].split('.')[1]}={c['measured']:.1e}" for c in checks))


def test_criterion_05_calculus_remainder_orders(calculus_suite):
    exact = by_name(calculus_suite["checks"], "calculus.compose_p_lambda")
    names = ["calculus.compose_q_h", "calculus.compose_gamma_gamma",
             "calculus.adjoint_gamma"]
    checks = [by_name(calculus_suite["checks"], n) for n in names]
    ok = exact["pass"] and all(c["pass"] for c in checks)
    emit(5, "T_p T_lambda = T_(p#lambda) exactly; composition/adjoint "
            "remainder orders >= 1.25",
         ok, f"compose_p_lambda identity error {exact['measured']:.1e} "
             f"<= {exact['threshold']:.0e}; "
             + "; ".join(f"{c['name'].split('.')[1]} gain {c['measured']:.2f}"
                         for c in checks))


def test_criterion_06_symmetrization_probes(calculus_suite):
    names = ["calculus.symmetrize_p_lambda", "calculus.symmetrize_q_h"]
    checks = [by_name(calculus_suite["checks"], n) for n in names]
    ok = all(c["pass"] for c in checks)
    emit(6, "symmetrizer operator probes gain >= 1.25 over naive order",
         ok, "; ".join(f"{c['name'].split('.')[1]} gain {c['measured']:.2f}"
                       for c in checks))


def test_criterion_07_dispersion(dispersion_checks):
    ok = all(c["pass"] for c in dispersion_checks)
    emit(7, "dispersion fits for k in {1, 2, 4} within 1e-4",
         ok, "; ".join(f"{c['name'].split('_')[-1]}: {c['measured']:.2e}"
                       for c in dispersion_checks))


def test_criterion_08_conservation(conservation_checks):
    mass = by_name(conservation_checks, "evolution.mass_drift_rel")
    energy = by_name(conservation_checks, "evolution.energy_drift_rel")
    emit(8, "mass <= 1e-10 and energy <= 1e-6 drift over 500 steps",
         mass["pass"] and energy["pass"],
         f"mass {mass['measured']:.2e}, energy {energy['measured']:.2e}")


def test_criterion_09_reformulation(reformulation_checks):
    c = reformulation_checks[0]
    emit(9, "mollified eps=0 rhs matches the raw system over the corpus",
         c["pass"], f"worst rel diff {c['measured']:.2e} <= 1e-8")


def test_criterion_10_monitor(monitor_checks):
    ok = all(c["pass"] for c in monitor_checks)
    vals = {c["name"].split(".")[1]: c["measured"] for c in monitor_checks}
    emit(10, "a priori monitor uniform in eps in {0, 0.01, 0.1}",
         ok, f"c*T/M0 bound {vals['monitor_uniform_c_times_T']:.3f}, "
             f"eps spread {vals['monitor_eps_spread']:.2f}, "
             f"jumps {int(vals['monitor_jump_flags'])}")


def test_criterion_11_doi_bound(smoothing_suite):
    k_min = by_name(smoothing_suite["checks"], "smoothing.doi_K_min")
    sign = by_name(smoothing_suite["checks"], "smoothing.doi_sign_terms")
    emit(11, "Doi bracket bound over the eta corpus (every grid point x)",
         k_min["pass"] and sign["pass"],
         f"K_measured {k_min['measured']:.3f} > 0, "
         f"min(I3+I5) {sign['measured']:.1e} >= 0")


def test_criterion_12_kato_surrogate(kato_checks):
    var = by_name(kato_checks, "evolution.kato_weighted_variation")
    growth = by_name(kato_checks, "evolution.kato_unweighted_growth")
    emit(12, "weighted time integral stable across n in {128, 256, 512}",
         var["pass"] and growth["pass"],
         f"weighted variation {var['measured']:.3f} <= 0.10, "
         f"unweighted growth {growth['measured']:.2f} >= 1.3")


def test_criterion_13_verify_runtime_and_determinism(
        tmp_path, dno_suite, symbols_suite, calculus_suite, smoothing_suite,
        dispersion_checks, conservation_checks, reformulation_checks,
        monitor_checks, kato_checks):
    total = sum(_ELAPSED.values())
    # determinism: an operator suite re-run reproduces every check, name and
    # measured value in order, and a short simulation writes bit-identical CSV
    rerun = run_suite("dno")
    same_suite = ([(c["name"], c["measured"]) for c in dno_suite["checks"]]
                  == [(c["name"], c["measured"]) for c in rerun["checks"]])
    cfg_text = (
        "grid.n = 64\ninit.profile = cosine\ninit.amplitude = 1e-4\n"
        "init.mode = 2\nevolution.dt = 0.01\nevolution.T = 0.2\n"
        "evolution.nz = 24\n")
    blobs = []
    for tag in ("a", "b"):
        cfg_path = tmp_path / f"{tag}.cfg"
        cfg_path.write_text(cfg_text + f"output.dir = {tmp_path / tag}\n")
        run_simulate(parse_config(cfg_path))
        blobs.append((tmp_path / tag / "trajectory.csv").read_bytes())
    ok = total < 600.0 and same_suite and blobs[0] == blobs[1]
    emit(13, "full verify suite under 10 minutes, deterministic",
         ok, f"total {total:.0f}s < 600s, suite re-run identical: {same_suite}, "
             f"CSV bit-identical: {blobs[0] == blobs[1]}")


def test_verify_records_match_the_stored_values(
        dno_suite, symbols_suite, calculus_suite, smoothing_suite,
        dispersion_checks, conservation_checks, reformulation_checks,
        monitor_checks, kato_checks):
    """Every ``capwave verify all`` check passes and measures what
    ``verify_records.json`` holds.

    Bit for bit, except the records in RECORD_TOLERANCE, which round
    differently with BLAS on 1 and on 2 threads.  A change that moves a
    record on purpose rewrites the file with ``make_fingerprint.py`` and
    lists the move in CHANGES.md.
    """
    checks = [*dno_suite["checks"], *calculus_suite["checks"], *symbols_suite["checks"],
              *smoothing_suite["checks"], *dispersion_checks, *conservation_checks,
              *reformulation_checks, *monitor_checks, *kato_checks]
    assert [c["name"] for c in checks if not c["pass"]] == []
    measured = {c["name"]: c["measured"] for c in checks}
    stored = json.loads(VERIFY_RECORDS.read_text())
    assert sorted(measured) == sorted(stored)
    moved = {name: (measured[name], ref) for name, ref in stored.items()
             if not abs(measured[name] - ref) <= RECORD_TOLERANCE.get(name, 0.0) * abs(ref)}
    assert moved == {}
