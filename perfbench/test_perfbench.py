"""Tests of the benchmark's own machinery: seeded inputs, tracing, self-checks.

Run from the checkout root::

    python3 -m pytest perfbench -q
"""

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import BenchError, check_layers, import_capwave  # noqa: E402

import_capwave()

import capwave.dno as dno  # noqa: E402
import capwave.field as field  # noqa: E402
import tracing  # noqa: E402
from workloads import DN_RTOL, WORKLOADS, input_digest, rel_err  # noqa: E402

NAMES = sorted(WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
def test_one_seed_gives_bit_identical_inputs_in_two_runs(name):
    code = (f"import sys; sys.path.insert(0, {str(HERE)!r}); "
            "from run import import_capwave; import_capwave(); "
            "from workloads import WORKLOADS, input_digest; "
            f"print(input_digest(WORKLOADS[{name!r}], 7))")
    other = subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True, check=True, timeout=120).stdout.strip()
    assert input_digest(WORKLOADS[name], 7) == other


@pytest.mark.parametrize("name", NAMES)
def test_two_seeds_give_different_inputs(name):
    wl = WORKLOADS[name]
    assert input_digest(wl, 0) != input_digest(wl, 1)


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("seed", range(5))
def test_generated_states_pass_validate_at_tail_tol(name, seed):
    wl = WORKLOADS[name]
    for state in wl.states(seed):
        assert state.tail_tol == wl.tail_tol
        state.validate()


def test_stored_dn_ladder_reference_matches_fresh_solves():
    wl = WORKLOADS["dn-ladder"]
    wl.setup(3, None)
    assert wl.reference.shape == (wl.draws, len(wl.rungs), wl.n)
    for j, r, eta, psi in wl.cases[:len(wl.rungs)]:
        g = dno.dirichlet_neumann(eta, psi, wl.geo, wl.nz).values.real
        assert rel_err(g, wl.reference[j, r]) <= DN_RTOL


def test_dn_ladder_seeds_scale_psi_by_powers_of_two():
    # the seed changes the inputs but not the solver's work: G is linear in
    # psi, and a power-of-two scale is exact, so the outputs scale exactly
    wl = WORKLOADS["dn-ladder"]
    scales = wl.psi_scales(5)
    assert np.all(np.log2(np.abs(scales)) == np.round(np.log2(np.abs(scales))))
    assert not np.all(scales == wl.psi_scales(6))
    grid = field.Grid(32, wl.length)
    etas, psi = wl.fields_on(grid, wl.base_params()[0])
    _, psi_scaled = wl.fields_on(grid, wl.base_params()[0], scales[0])
    g = dno.dirichlet_neumann(etas[-1], psi, wl.geo, 16).values.real
    g_scaled = dno.dirichlet_neumann(etas[-1], psi_scaled, wl.geo, 16).values.real
    assert np.array_equal(g_scaled, scales[0] * g)


def test_each_op_is_scaled_by_the_probes_that_bracket_it():
    wl = type(WORKLOADS["dn-ladder"])()
    wl.n, wl.nz = 32, 16
    wl.setup(0, None)
    res = wl.run(0.0, 10)
    assert len(res.latencies) == len(res.host_factors) == 10
    factors = np.asarray(res.host_factors)
    assert np.all(factors > 0)
    assert res.scaled_latencies() == pytest.approx(np.asarray(res.latencies) / factors)
    assert res.scaled_s == pytest.approx(res.scaled_latencies().sum())
    assert res.ops_per_s() == pytest.approx(10 / res.scaled_s)


def test_tracer_wraps_every_binding_and_restores_them():
    original = field.x_derivative
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # x_derivative is imported by name into dno: both bindings are wrapped
        assert dno.x_derivative is field.x_derivative is not original
        assert tracing.unwrapped_bindings(tracer.targets) == []
        grid = field.Grid(16, 2 * np.pi)
        eta = field.Field(grid, 0.1 * np.cos(grid.x))
        psi = field.Field(grid, np.sin(grid.x))
        dno.dirichlet_neumann(eta, psi, dno.Geometry("flat_bottom", 1.0), 8)
    finally:
        tracer.uninstall()
    assert dno.x_derivative is field.x_derivative is original
    table = tracing.SpanTable(tracer.arrays())
    assert table.count("dno.dirichlet_neumann") == 1
    assert table.count("dno.solve_strip") == 1
    assert table.count("field.x_derivative") >= 1
    # every x_derivative call here happens inside the DN solve
    assert table.layer_inclusive("field") <= table.layer_inclusive("dno")
    assert len(tracer.residuals) == 1


def test_self_time_subtracts_direct_children():
    spans = {
        "names": np.array(["a.outer", "b.inner", "a.leaf"]),
        # outer [0, 10] > inner [1, 4] > leaf [2, 3]; leaf [5, 7] under outer
        "name_id": np.array([0, 1, 2, 2], dtype=np.int32),
        "parent": np.array([-1, 0, 1, 0], dtype=np.int32),
        "op": np.array([0, 0, 0, -1], dtype=np.int32),
        "start": np.array([0.0, 1.0, 2.0, 5.0]),
        "end": np.array([10.0, 4.0, 3.0, 7.0]),
    }
    t = tracing.SpanTable(spans)
    assert t.self_s("a.outer") == pytest.approx(10 - 3 - 2)
    assert t.self_s("b.inner") == pytest.approx(2)
    assert t.self_s("a.leaf", outside_ops=True) == pytest.approx(2)
    # layer a: outer covers everything; the leaf inside b is nested in a
    assert t.layer_inclusive("a") == pytest.approx(10)
    assert t.inclusive("a.leaf") == pytest.approx(3)
    assert t.in_ops("a.leaf") == 1


def test_layer_self_check_fails_loudly():
    quiet = {"dno.solves": 5, "paradiff.matrix_builds": 0, "symbols.samples": 0}
    check_layers("raw-packet", quiet, builds_in_ops=0)
    with pytest.raises(BenchError):
        check_layers("raw-packet", quiet, builds_in_ops=3)
    with pytest.raises(BenchError):
        check_layers("mollified-eps", quiet, builds_in_ops=0)
    with pytest.raises(BenchError):
        check_layers("dn-ladder", dict(quiet, **{"dno.solves": 0}), builds_in_ops=0)


def test_run_fails_without_the_program_sources(tmp_path):
    # BENCHMARK.json is present, so only the missing src/ can stop the run
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "raw-packet",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3
    assert "no capwave sources" in proc.stderr
    assert '"correct"' not in proc.stdout
