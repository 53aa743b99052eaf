"""Verify-suite plumbing: structure, determinism, timings."""

import json

import pytest

from capwave import verify
from capwave.verify import SUITES, run_suite


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("spectral-unicorns")


def test_suite_names():
    assert set(SUITES) == {"dno", "calculus", "symbols", "smoothing", "evolution"}


def test_symbols_suite_structure_and_determinism():
    rep1 = run_suite("symbols")
    rep2 = run_suite("symbols")
    assert rep1["passed"] is True
    assert rep1["failures"] == []
    assert ([(c["name"], c["measured"]) for c in rep1["checks"]]
            == [(c["name"], c["measured"]) for c in rep2["checks"]])
    for c in rep1["checks"]:
        assert set(c) == {"name", "measured", "threshold", "comparator", "pass"}


def test_dno_suite_determinism_and_timings():
    rep1 = run_suite("dno")
    rep2 = run_suite("dno")
    assert rep1["passed"] is True
    assert ([(c["name"], c["measured"]) for c in rep1["checks"]]
            == [(c["name"], c["measured"]) for c in rep2["checks"]])
    oracle = next(c for c in rep1["checks"] if c["name"] == "dno.large_amplitude_oracle_rel")
    assert oracle["threshold"] == 1e-9 and oracle["pass"]
    # one clock reading per suite, and no timing carries a budget
    assert list(rep1["timings"]) == ["dno"]
    assert isinstance(rep1["timings"]["dno"], float) and rep1["timings"]["dno"] > 0.0
    assert "budget" not in json.dumps(rep1)


def test_all_merges_checks_and_timings(monkeypatch):
    for i, name in enumerate(SUITES):
        def fake(name=name, i=i):
            return [verify._check(f"{name}.c", float(i), 2.0)]
        monkeypatch.setattr(verify, f"_suite_{name}", fake)
    rep = run_suite("all")
    assert set(rep) == {"suite", "checks", "passed", "failures", "timings"}
    assert rep["suite"] == "all"
    assert [c["name"] for c in rep["checks"]] == [f"{n}.c" for n in SUITES]
    assert rep["failures"] == [f"{n}.c" for n in SUITES[3:]]
    assert rep["passed"] is False
    assert list(rep["timings"]) == list(SUITES)
    assert all(seconds >= 0.0 for seconds in rep["timings"].values())
