"""Tests of the benchmark itself: ``python3 -m pytest perfbench``.

The smoke test runs one pass of every workload with all checks on, in this
process, so cold children keep the process count at two.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from perfbench import run

run.prepare()

from perfbench import checks, reference, spans, workloads  # noqa: E402

BENCHMARK_JSON = os.path.join(run.ROOT, "BENCHMARK.json")


def test_fixed_point_matches_uniform_motion():
    t = np.linspace(5.0, 500.0, 101)
    s = reference.emission_times("constant", 0.3, 0.0, 0.1, 2.0, t)
    np.testing.assert_allclose(s, (t - 2.0) / 0.7, rtol=1e-14)


def test_fixed_point_solves_the_retarded_equation():
    t = np.linspace(5.0, 12000.0, 1001)
    s = reference.emission_times("oscillatory", 0.0, 0.2, 0.1, 5.0, t)
    residual = s - reference.boundary("oscillatory", 0.0, 0.2, 0.1, s) - (t - 5.0)
    assert np.max(np.abs(residual)) <= 4.0 * np.spacing(t.max())


def _field_op(n=200):
    p = dict(profile="oscillatory", delta=0.2, eps=0.1, x=5.0, t_min=5.5, t_max=605.5, n=n)
    return workloads.Op("field-lab-oracle", ("field",), n, "field-lab-oracle", p)


def _write_field(out, op, corrupt_row=None):
    p = op.params
    t = np.linspace(p["t_min"], p["t_max"], p["n"])
    s = reference.emission_times(p["profile"], 0.0, p["delta"], p["eps"], p["x"], t)
    v = np.exp(1j * s)
    if corrupt_row is not None:
        v[corrupt_row] *= np.exp(1e-6j)
    cols = [t, v.real, v.imag, np.abs(v), reference.fm(p["profile"], 0.0, p["delta"],
                                                        p["eps"], s), np.cos(t - p["x"])]
    with open(os.path.join(out, "field.csv"), "w", encoding="utf-8") as fh:
        fh.write("t,re,im,am,fm,reference\n")
        for row in zip(*cols):
            fh.write(",".join(f"{float(c):.17g}" for c in row) + "\n")


def test_field_check_accepts_reference_and_rejects_a_phase_error(tmp_path):
    op = _field_op()
    _write_field(tmp_path, op)
    assert checks.check(op, str(tmp_path), "", run.GOLDEN) is None
    _write_field(tmp_path, op, corrupt_row=0)
    assert "values off" in checks.check(op, str(tmp_path), "", run.GOLDEN)


@pytest.mark.parametrize("report, problem", [
    ({"max_modulus_error": 0.02, "max_phase_error": 0.1, "max_freq_rel_error": 0.01}, None),
    ({"max_modulus_error": float("nan"), "max_phase_error": 0.1, "max_freq_rel_error": 0.01},
     "not finite"),
    ({"max_modulus_error": 0.02, "max_phase_error": 0.1, "max_freq_rel_error": 0.6},
     "exceeds 5*eps"),
])
def test_compare_check_needs_finite_norms_within_five_eps(tmp_path, report, problem):
    op = workloads.Op("compare-sine", ("api",), 500, "api-compare", {"eps": 0.1}, api=True)
    with open(tmp_path / "report.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    result = checks.check(op, str(tmp_path), "", run.GOLDEN)
    assert result is None if problem is None else problem in result


def test_check_reports_missing_output(tmp_path):
    assert "unreadable output" in checks.check(_field_op(), str(tmp_path), "", run.GOLDEN)


def test_tracer_reports_absent_targets_and_restores_originals(monkeypatch):
    import dopplerlab.motion
    original = dopplerlab.motion.validate
    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + (
        ("oracle.solve", "dopplerlab._gone", "solve", None),
        ("oracle.solve", "dopplerlab.oracle", "no_such_solver", None)))
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert dopplerlab.motion.validate is not original
    finally:
        tracer.uninstall()
    assert dopplerlab.motion.validate is original
    assert tracer.absent == ["dopplerlab._gone.solve", "dopplerlab.oracle.no_such_solver"]


def test_self_time_subtracts_children():
    spans_ = [("op", 0.0, 10.0, -1, 0), ("cli.csv", 1.0, 4.0, 0, 0),
              ("asymptotics", 5.0, 9.0, 0, 0), ("asymptotics", 6.0, 7.0, 2, 0),
              ("motion.eval", 7.5, 8.0, 2, 0)]
    m = spans.layer_metrics(spans_, {"oracle.solve.points": 0})
    assert m["cli.self.s"] == pytest.approx(3.0)
    assert m["cli.csv.s"] == pytest.approx(3.0)
    assert m["asymptotics.s"] == pytest.approx(3.5)
    assert m["motion.eval.s"] == pytest.approx(0.5)
    assert m["asymptotics.calls"] == 1


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_every_workload(trace):
    for name in workloads.WORKLOADS:
        report = run.run_workload(name, seed=7, seconds=1.0, trace=trace, smoke=True)
        result = report["result"]
        assert result["correct"], report["problems"]
        # Only the long-window spectrum fails today (solver stall, exit 3).
        expected = [op["attempted"] for op in report["ops"]
                    if op["op"] == "spectrum-long-window"]
        assert result["failed"] == sum(expected)
        units = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
        assert set(result["metrics"]) == set(units)


def test_benchmark_json_matches_the_benchmark():
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(os.path.join(run.ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "paper-figures",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
