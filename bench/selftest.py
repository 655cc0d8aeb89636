"""Tests of the benchmark's own code.  Run: PYTHONPATH=src python3 -m pytest -q bench/selftest.py"""

import json
import os
from collections import Counter

import numpy as np
import pytest

import quasilin
from quasilin import model, qsde

from bench import checks, gen, metrics, run, tracing


@pytest.fixture(scope="module")
def algs():
    return {name: gen.make_algebra(name, make()) for name, make in gen.MATRICES.items()}


def test_pauli_constants_match_builtin(algs):
    pauli = algs["pauli"].constants
    builtin = model.pauli_constants()
    assert np.max(np.abs(pauli.alpha - builtin.alpha)) < 1e-15
    assert np.max(np.abs(pauli.beta - builtin.beta)) < 1e-15


def test_qutrit_constants(algs):
    qutrit = algs["qutrit"]
    assert qutrit.constants.n == 8
    assert qutrit.residual <= gen.RESIDUAL_BOUND
    # lambda_j lambda_k = (2/3) delta_jk I + (d_jkl + i f_jkl) lambda_l
    assert np.allclose(qutrit.constants.alpha, 2.0 / 3.0 * np.eye(8), atol=1e-15)
    # ordering: (s01, a01, s02, a02, s12, a12, diag1, diag2), so lambda_1 lambda_2 -> i lambda_3
    # is s01 a01 -> i * diag1 with f_123 = 1
    assert abs(qutrit.constants.beta[6, 0, 1] - 1j) < 1e-14
    assert model.validate(qutrit.constants).passed


def test_composite_35_constants(algs):
    big = algs["pauli_qutrit"]
    assert big.constants.n == 35 and big.mats.shape == (35, 6, 6)
    assert big.residual <= gen.RESIDUAL_BOUND
    expected = np.concatenate([np.ones(3), np.full(8, 2.0 / 3.0), np.full(24, 2.0 / 3.0)])
    assert np.allclose(np.diag(big.constants.alpha), expected, atol=1e-14)
    assert model.validate(big.constants).passed


def test_open_variable_set_is_refused():
    # X and Y alone are not closed: X Y = i Z lies outside span{I, X, Y}
    with pytest.raises(ValueError, match="residual"):
        gen.make_algebra("xy", gen.SIGMA[:2])


def test_draws_repeat_and_are_hurwitz(algs):
    for workload, names in gen.USES.items():
        subset = {name: algs[name] for name in names}
        cfg = gen.draw_config(workload, subset, 7, 1, 3)
        assert json.dumps(cfg) == json.dumps(gen.draw_config(workload, subset, 7, 1, 3))
        assert json.dumps(cfg) != json.dumps(gen.draw_config(workload, subset, 7, 1, 4))
        system = cfg["systems"][cfg["analysis"]["system"]]
        spec = qsde.system_spec(subset[names[0]].constants, system["E"], np.array(system["M"]), system["N"])
        assert qsde.spectral_abscissa(qsde.build_coefficients(spec).a) < -gen.HURWITZ_MARGIN


def test_tail_rule():
    value, pct, beyond = metrics.tail(list(range(100, 0, -1)))
    assert (value, pct, beyond) == (90, 90.0, 10)
    value, pct, _ = metrics.tail(range(11))
    assert value == 0 and pct == pytest.approx(100.0 / 11)
    with pytest.raises(ValueError):
        metrics.tail(range(10))


def test_failure_counting():
    tally = metrics.Tally()
    tally.add("steady", 0.001)
    tally.add("steady", 0.5, "exit 4: drift is not Hurwitz")
    tally.add("modes", 0.002)
    tally.add("modes", 0.9, "check: modes.csv: non-finite entry 'nan'")
    assert (tally.attempted, tally.failed) == (4, 2)
    assert tally.completed() == [0.001, 0.002]
    assert tally.completed("modes") == [0.002]
    assert sum(tally.reasons().values()) == 2


def test_local_speed_is_a_running_median():
    refs = [1.0, 1.0, 9.0, 1.0, 2.0, 2.0, 2.0]
    assert metrics.local_speed(refs, window=1) == [1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0]
    assert metrics.local_speed(refs, window=2) == [1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0]
    assert metrics.local_speed(refs, window=0) == refs


def test_timings_at_reference_speed():
    tally = metrics.Tally()
    # 40 cycles of (a, b); cycles 10-29 run on a machine twice as slow, which
    # doubles both the analyses and the reference; one b in cycle 9 fails
    for cycle in range(40):
        slow = 2.0 if 10 <= cycle < 30 else 1.0
        tally.add("a", 0.010 * slow, None, 0.011 * slow, (0.002 * slow,))
        tally.add("b", 0.030 * slow, "exit 4: refused" if cycle == 9 else None, 0.031 * slow, (0.002 * slow,))
    scaled = metrics.at_reference_speed(tally, 0.001)
    assert [o.seconds for o in scaled.outcomes] == pytest.approx([0.005, 0.015] * 40)
    out = metrics.loop_metrics(tally, ("a", "b"), 0.001)
    assert out["op_ms"] == {"a": pytest.approx(5.0), "b": pytest.approx(15.0)}
    assert out["analyses_per_s"] == pytest.approx(79 / 0.8)
    assert out["latency_p50_ms"] == pytest.approx(5.0)
    assert out["op_samples"] == {"a": 40, "b": 39} and out["samples"] == 79
    assert out["latency_tail_ms"] == pytest.approx(15.0) and out["tail_percentile"] == pytest.approx(6900 / 79)
    assert out["op_cpu_ms"]["a"] == pytest.approx(15.0)  # unscaled: half the cycles ran at 20 ms
    # one stray reference time does not move the scaling
    blip = metrics.Tally([metrics.Outcome("a", 0.01, None, 0.01, (0.008 if i == 5 else 0.002,)) for i in range(20)])
    assert [o.seconds for o in metrics.at_reference_speed(blip, 0.001).outcomes] == pytest.approx([0.005] * 20)
    with pytest.raises(ValueError, match="one reference time"):
        metrics.at_reference_speed(metrics.Tally([metrics.Outcome("a", 0.01)]), 0.001)


def test_benchmark_json_lists_the_reported_metrics():
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")
    if not os.path.exists(path):
        pytest.skip("no BENCHMARK.json next to the benchmark")
    with open(path) as fh:
        doc = json.load(fh)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == metrics.per_layer_names()
    assert [w["name"] for w in doc["workloads"]] == list(run.OPS)


def test_checks_reject_wrong_and_nonfinite_outputs(tmp_path, algs):
    checker = checks.Checker(algs["pauli"])
    system = {"E": [0.0, 0.0, 1.0], "M": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], "N": [0.0, 0.0]}
    # the worked qubit of the README has steady mean (0, 0, 1)
    (tmp_path / "steady.csv").write_text("component,value\n1,0\n2,0\n3,1\n")
    checker.check("steady", str(tmp_path), system)
    (tmp_path / "steady.csv").write_text("component,value\n1,0\n2,0\n3,0.9\n")
    with pytest.raises(checks.CheckFailed, match="oracle"):
        checker.check("steady", str(tmp_path), system)
    (tmp_path / "steady.csv").write_text("component,value\n1,0\n2,nan\n3,1\n")
    with pytest.raises(checks.CheckFailed, match="non-finite"):
        checker.check("steady", str(tmp_path), system)
    os.remove(tmp_path / "steady.csv")
    with pytest.raises(checks.CheckFailed):
        checker.check("steady", str(tmp_path), system)


def _span(name, start, end, parent=None):
    return tracing.Span(name, start, end, parent, analysis=1)


def test_self_time_of_nested_spans():
    spans = [
        _span("cli.main", 0.0, 10.0),
        _span("qsde.steady_mean", 1.0, 4.0, parent=0),
        _span("qsde.spectral_abscissa", 2.0, 3.0, parent=1),
        _span("decoherence.tau_star", 5.0, 6.0, parent=0),
        _span("decoherence.expm", 5.2, 5.7, parent=3),
    ]
    assert tracing.self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 0.5, 0.5])
    layers = metrics.layer_metrics(spans, Counter({"steady": 1}))
    assert layers["cli.self_s"] == pytest.approx(6.0)
    assert layers["qsde.calls"] == 2 and layers["qsde.self_s"] == pytest.approx(3.0)
    assert layers["qsde.steady_mean.total_s"] == pytest.approx(3.0)
    assert layers["decoherence.calls"] == 1 and layers["decoherence.expm.calls"] == 1
    assert layers["decoherence.tau_star.expm_per_call"] == 1.0
    assert layers["composite.augment_constants.per_analysis"] == 0.0


def test_tracer_wraps_shared_bindings_and_restores(algs):
    original = model.validate
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert quasilin.composite.validate is model.validate is quasilin.validate
        assert model.validate is not original
        model.validate(algs["pauli"].constants)  # outside an analysis: not recorded
        assert tracer.spans == []
        lossless = qsde.system_spec(algs["pauli"].constants, [0.0, 0.0, 1.0], np.zeros((2, 3)))
        tracer.begin(5)
        coeffs = qsde.build_coefficients(lossless)
        with pytest.raises(ValueError, match="not Hurwitz"):
            qsde.steady_mean(coeffs)
        tracer.end()
    finally:
        tracer.uninstall()
    assert model.validate is original and quasilin.composite.validate is original
    names = [s.name for s in tracer.spans]
    assert names[0] == "qsde.build_coefficients" and "model.diam_product" in names
    steady = names.index("qsde.steady_mean")
    assert tracer.spans[steady].error and not tracer.spans[0].error
    assert names[steady + 1] == "qsde.spectral_abscissa" and tracer.spans[steady + 1].parent == steady
    assert all(s.analysis == 5 for s in tracer.spans)
