import csv
import gc
import json
import os
import pathlib
import re

import numpy as np
import pytest

from quasilin import cli, composite, decoherence, model, modes, oracle, qsde, second_moment
from conftest import rotated_pauli_constants

REPO_CONFIG = os.path.join(os.path.dirname(__file__), "..", "configs", "pauli.json")


def qubit_config(tmp_path, **analysis):
    cfg = {
        "systems": {
            "qubit": {
                "constants": "pauli",
                "E": [0.0, 0.0, 1.0],
                "M": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
                "N": [0.0, 0.0],
            }
        },
        "analysis": {"system": "qubit", "mu0": [0.0, 0.0, 0.0], "seed": 0, **analysis},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_bundled_config_runs_all_single_system_commands(tmp_path):
    out = str(tmp_path / "out")
    for command in ("validate", "coeffs", "steady", "modes", "spectrum", "decoherence", "weak", "oracle"):
        code = cli.main([command, "--config", REPO_CONFIG, "--out", out])
        assert code == 0, command


def test_bundled_config_composite_commands(tmp_path):
    out = str(tmp_path / "out")
    assert cli.main(["composite", "--config", REPO_CONFIG, "--out", out]) == 0
    assert cli.main(["oracle", "--config", REPO_CONFIG, "--out", out, "--composite"]) == 0
    assert os.path.exists(os.path.join(out, "composite.csv"))


def test_mean_flow_grid_and_determinism(tmp_path):
    cfgpath = qubit_config(tmp_path)
    out1 = str(tmp_path / "a")
    out2 = str(tmp_path / "b")
    argv = ["mean-flow", "--config", cfgpath, "--grid", "0:2:21"]
    assert cli.main(argv + ["--out", out1]) == 0
    assert cli.main(argv + ["--out", out2]) == 0
    with open(os.path.join(out1, "mean_flow.csv"), "rb") as fh:
        first = fh.read()
    with open(os.path.join(out2, "mean_flow.csv"), "rb") as fh:
        second = fh.read()
    assert first == second
    rows = first.decode().strip().splitlines()
    assert rows[0].startswith("t,")
    assert len(rows) == 22


def test_steady_output_value(tmp_path):
    cfgpath = qubit_config(tmp_path)
    out = str(tmp_path / "out")
    assert cli.main(["steady", "--config", cfgpath, "--out", out]) == 0
    rows = pathlib.Path(out, "steady.csv").read_text().strip().splitlines()
    assert rows[0] == "component,value"
    vals = [float(r.split(",")[1]) for r in rows[1:4]]
    np.testing.assert_allclose(vals, [0.0, 0.0, 1.0], atol=1e-12)


def test_steady_writes_no_negative_zero(tmp_path, capsys):
    # the bundled qubit's solve rounds component 1 to -0.0
    out = tmp_path / "out"
    assert cli.main(["steady", "--config", REPO_CONFIG, "--out", str(out)]) == 0
    assert "steady mean [0. 0. 1.]" in capsys.readouterr().out
    assert (out / "steady.csv").read_text().split() == ["component,value", "1,0", "2,0", "3,1"]


def test_config_errors_exit_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["steady", "--config", str(bad), "--out", str(tmp_path)]) == 2
    missing = tmp_path / "missing.json"
    assert cli.main(["steady", "--config", str(missing), "--out", str(tmp_path)]) == 2
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"systems": {}}))
    assert cli.main(["validate", "--config", str(empty), "--out", str(tmp_path)]) == 2


def test_load_config_runs_no_collection(tmp_path):
    # the decoded JSON has no reference cycles, so the load pauses the cyclic
    # collector; at a threshold of 50 the 600 qcf_u rows would set off passes
    path = qubit_config(tmp_path, qcf_u=[[1.0, 0.0, 0.0]] * 600)
    generations = []

    def count(phase, info):
        if phase == "start":
            generations.append(info["generation"])

    threshold = gc.get_threshold()
    gc.set_threshold(50)
    gc.callbacks.append(count)
    try:
        cfg = cli._load_config(path)
    finally:
        gc.callbacks.remove(count)
        gc.set_threshold(*threshold)
    assert len(cfg.analysis["qcf_u"]) == 600
    assert generations == []
    assert gc.isenabled()


def test_load_config_leaves_no_cycles():
    # what the paused load allocates, systems and composites included, is
    # freed by reference counting: the collector finds nothing after it
    gc.collect()
    gc.disable()
    try:
        cfg = cli._load_config(REPO_CONFIG)
        assert cfg.composites
        del cfg
        assert gc.collect() == 0
    finally:
        gc.enable()


with open(REPO_CONFIG, encoding="utf-8") as fh:
    _REPO_TEXT = fh.read()

RAW_CONFIGS = {
    "missing file": (None, "cannot read config "),
    "malformed JSON": (b"{not json", " is not valid JSON: "),
    "leading 0xff byte": (b"\xff{}", " is not UTF-8: 'utf-8' codec can't decode byte 0xff in position 0"),
    "Latin-1 system name": (_REPO_TEXT.replace('"qubit"', '"qub\xe9t"').encode("latin-1"), " is not UTF-8: 'utf-8' codec can't decode byte 0xe9"),
    "100000 nested lists": (b"[" * 100_000 + b"]" * 100_000, " is nested too deeply"),
    "alpha nested 5000 deep": (
        _REPO_TEXT.replace('"constants": "pauli"', '"constants": {"alpha": %s1%s, "beta": [[[0]]]}' % ("[" * 5000, "]" * 5000)).encode(),
        " is nested too deeply",
    ),
    "top level a list": (b"[]", "top level of "),
}


@pytest.mark.parametrize("collector", ["enabled", "disabled"])
@pytest.mark.parametrize("case", sorted(RAW_CONFIGS))
def test_unreadable_configs_exit_two_and_keep_the_collector_state(tmp_path, capsys, case, collector):
    text, message = RAW_CONFIGS[case]
    path = tmp_path / "config.json"
    if text is not None:
        path.write_bytes(text)
    out = tmp_path / "o"
    before = gc.isenabled()
    gc.enable() if collector == "enabled" else gc.disable()
    try:
        code = cli.main(["validate", "--config", str(path), "--out", str(out)])
        after = gc.isenabled()
    finally:
        gc.enable() if before else gc.disable()
    assert code == 2
    assert after == (collector == "enabled")
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err and str(path) in err
    assert not out.exists()


def test_interrupted_load_restores_the_collector(tmp_path, monkeypatch):
    def interrupt(fh):
        raise KeyboardInterrupt

    monkeypatch.setattr(json, "load", interrupt)
    with pytest.raises(KeyboardInterrupt):
        cli._load_config(qubit_config(tmp_path))
    assert gc.isenabled()


def test_capability_limit_exits_three(tmp_path):
    n = 17
    cfg = {
        "systems": {
            "big": {
                "constants": {
                    "alpha": np.eye(n).tolist(),
                    "beta": np.zeros((n, n, n)).tolist(),
                },
                "E": [0.0] * n,
                "M": [[0.0] * n, [0.0] * n],
                "N": [0.0, 0.0],
            }
        },
        "analysis": {"system": "big"},
    }
    path = tmp_path / "big.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["spectrum", "--config", str(path), "--out", str(tmp_path / "o")]) == 3


def test_complex_coupling_refused_by_spectrum_and_decoherence(tmp_path, capsys):
    # a complex M would give a complex drift and a generator that does not
    # keep Hermitian matrices Hermitian; the config is refused before either
    # command runs, and nothing is written
    with open(REPO_CONFIG) as fh:
        cfg = json.load(fh)
    cfg["systems"]["qubit"]["M"] = [[[1, 0.3], 0, 0], [0, 1, [0, 0.2]]]
    path = tmp_path / "complex.json"
    path.write_text(json.dumps(cfg))
    for command in ("spectrum", "decoherence"):
        out = tmp_path / command
        assert cli.main([command, "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "config error: system 'qubit': coupling must be real\n"
        assert not out.exists() or os.listdir(out) == []


def test_complex_alpha_refused_by_every_analysis(tmp_path, capsys):
    # the qubit's constants written out with alpha[0, 1] = 0.3i: validate
    # reports the violations, and every command that builds a drift refuses
    # alpha before b carries its imaginary part into a result
    with open(REPO_CONFIG) as fh:
        cfg = json.load(fh)
    beta = [[[[0, x] if x else 0 for x in row] for row in section] for section in model.PAULI_THETA.tolist()]
    cfg["systems"]["qubit"]["constants"] = {"alpha": [[1, [0, 0.3], 0], [[0, -0.3], 1, 0], [0, 0, 1]], "beta": beta}
    path = tmp_path / "alpha.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["validate", "--config", str(path), "--out", str(tmp_path / "validate")]) == 4
    assert "system qubit: FAIL (18 violations" in capsys.readouterr().out
    for command in ("coeffs", "mean-flow", "steady", "qcf", "spectrum", "modes", "decoherence", "weak", "oracle"):
        out = tmp_path / command
        assert cli.main([command, "--config", str(path), "--out", str(out)]) == 4, command
        assert capsys.readouterr().err == "numeric failure: constants fail alpha-imag: alpha must be real (max imag 0.3)\n"
        assert os.listdir(out) == []


def test_composite_flag_is_refused_outside_oracle(tmp_path, capsys):
    # only oracle has a composite mode; any other command would ignore the
    # flag and report the single system, so run refuses it before reading
    # the config and writes nothing
    others = sorted(set(cli.COMMANDS) - {"oracle"})
    assert len(others) == 10
    for command in others:
        out = tmp_path / command
        assert cli.main([command, "--config", REPO_CONFIG, "--out", str(out), "--composite"]) == 2, command
        assert capsys.readouterr().err == "config error: --composite applies to oracle only, not to %s\n" % command
        assert not out.exists()
    missing = str(tmp_path / "missing.json")
    assert cli.main(["steady", "--config", missing, "--out", str(tmp_path / "m"), "--composite"]) == 2
    assert capsys.readouterr().err == "config error: --composite applies to oracle only, not to steady\n"


def test_numeric_failure_exits_four(tmp_path):
    cfg = {
        "systems": {
            "lossless": {
                "constants": "pauli",
                "E": [0.0, 0.0, 1.0],
                "M": [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
                "N": [0.0, 0.0],
            }
        },
        "analysis": {"system": "lossless"},
    }
    path = tmp_path / "lossless.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["steady", "--config", str(path), "--out", str(tmp_path / "o")]) == 4


def test_validate_reports_failure(tmp_path):
    cfg = {
        "systems": {
            "broken": {
                "constants": {
                    "alpha": [[1.0, 0.3], [0.0, 1.0]],
                    "beta": np.zeros((2, 2, 2)).tolist(),
                },
                "E": [0.0, 0.0],
                "M": [[0.0, 0.0], [0.0, 0.0]],
                "N": [0.0, 0.0],
            }
        },
        "analysis": {"system": "broken"},
    }
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(cfg))
    out = str(tmp_path / "o")
    assert cli.main(["validate", "--config", str(path), "--out", out]) == 4
    rows = pathlib.Path(out, "validate.csv").read_text().strip().splitlines()
    name, passed, violations = rows[1].split(",")[:3]
    assert name == "broken" and passed == "0" and int(violations) > 0


def test_validate_counts_violations_of_random_constants(tmp_path, capsys):
    # alpha = I and a random complex beta at n = 35: every violation is
    # counted, none is listed
    n = 35
    rng = np.random.default_rng(0)
    beta = rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))
    cfg = {
        "systems": {
            "random": {
                "constants": {"alpha": np.eye(n).tolist(), "beta": np.stack([beta.real, beta.imag], axis=-1).tolist()},
                "E": np.zeros(n).tolist(),
                "M": np.zeros((2, n)).tolist(),
                "N": [0.0, 0.0],
            }
        },
        "analysis": {"system": "random"},
    }
    path = tmp_path / "random.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert cli.main(["validate", "--config", str(path), "--out", str(out)]) == 4
    assert capsys.readouterr().out.splitlines()[0] == "system random: FAIL (1586340 violations, alpha PSD: yes)"
    assert (out / "validate.csv").read_text().splitlines()[1] == "random,0,1586340,1,1"


def test_validate_nan_constant_exits_four(tmp_path):
    beta = model.pauli_constants().beta
    sections = [[[[z.real, z.imag] if z.imag else z.real for z in row] for row in sec] for sec in beta]
    sections[0][1][2] = float("nan")
    cfg = {
        "systems": {
            "nan": {
                "constants": {"alpha": np.eye(3).tolist(), "beta": sections},
                "E": [0.0, 0.0, 1.0],
                "M": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
                "N": [0.0, 0.0],
            }
        },
        "analysis": {"system": "nan"},
    }
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(cfg))
    assert "NaN" in path.read_text()
    out = str(tmp_path / "o")
    assert cli.main(["validate", "--config", str(path), "--out", out]) == 4
    rows = pathlib.Path(out, "validate.csv").read_text().strip().splitlines()
    assert rows[1].split(",")[:2] == ["nan", "0"]


def test_qcf_direction_option(tmp_path):
    cfgpath = qubit_config(tmp_path, qcf_u=[[0.0, 0.0, 1.0]])
    out = str(tmp_path / "o")
    assert cli.main(["qcf", "--config", cfgpath, "--out", out]) == 0
    rows = pathlib.Path(out, "qcf.csv").read_text().strip().splitlines()
    assert rows[0] == "u_1,u_2,u_3,re,im"
    assert len(rows) == 2
    # along the energy axis at |u| = 1 the steady characteristic value is
    # cos(1) + i mu3 sin(1) with mu3 = 1
    fields = [float(x) for x in rows[1].split(",")]
    assert abs(fields[3] - np.cos(1.0)) < 1e-9
    assert abs(fields[4] - np.sin(1.0)) < 1e-9


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        cli.main(["frobnicate", "--config", REPO_CONFIG])


@pytest.mark.parametrize("command", ["mean-flow", "spectrum"])
@pytest.mark.parametrize("t1", ["nan", "inf"])
def test_non_finite_grid_exits_two(tmp_path, command, t1):
    out = tmp_path / "o"
    argv = [command, "--config", REPO_CONFIG, "--out", str(out), "--grid", "0:%s:5" % t1]
    assert cli.main(argv) == 2
    assert not os.listdir(out)
    cfgpath = qubit_config(tmp_path, grid=[0.0, float(t1), 5])
    assert ("NaN" if t1 == "nan" else "Infinity") in pathlib.Path(cfgpath).read_text()
    assert cli.main([command, "--config", cfgpath, "--out", str(out)]) == 2
    assert not os.listdir(out)


def test_analysis_grid_with_non_numeric_field_exits_two(tmp_path):
    cfgpath = qubit_config(tmp_path, grid=[0.0, 2.0, "many"])
    assert cli.main(["mean-flow", "--config", cfgpath, "--out", str(tmp_path / "o")]) == 2


ANALYSIS_REFUSALS = {
    "eps scalar": ("weak", {"eps": 0.1}, [], "analysis.eps"),
    "eps nested": ("weak", {"eps": [[0.1, 0.2]]}, [], "analysis.eps"),
    "eps string": ("weak", {"eps": ["a"]}, [], "analysis.eps"),
    "eps nan flag": ("weak", {}, ["--eps", "nan"], "--eps"),
    "eps inf flag": ("weak", {}, ["--eps", "inf"], "--eps"),
    "tol null": ("steady", {"tol": None}, [], "analysis.tol"),
    "tol string": ("steady", {"tol": "abc"}, [], "analysis.tol"),
    "tol negative": ("steady", {"tol": -1}, [], "analysis.tol"),
    "tol nan flag": ("steady", {}, ["--tol", "nan"], "--tol"),
    "validate tol nan flag": ("validate", {}, ["--tol", "nan"], "--tol"),
    "seed string": ("decoherence", {"seed": "x"}, [], "analysis.seed"),
    "seed negative": ("decoherence", {"seed": -1}, [], "analysis.seed"),
    "seed negative flag": ("decoherence", {}, ["--seed", "-1"], "--seed"),
    "seed fraction": ("decoherence", {"seed": 1.5}, [], "analysis.seed"),
    "composite seed fraction": ("composite", {"seed": 1.5}, [], "analysis.seed"),
    "budget null": ("decoherence", {"budget": None}, [], "analysis.budget"),
    "budget string": ("decoherence", {"budget": "x"}, [], "analysis.budget"),
    "budget zero": ("decoherence", {"budget": 0}, [], "analysis.budget"),
    "grid fractional steps": ("mean-flow", {"grid": [0, 1, 2.7]}, [], "analysis.grid"),
    "system list": ("steady", {"system": ["qubit"]}, [], "analysis.system"),
    "composite list": ("composite", {"composite": ["pair"]}, [], "analysis.composite"),
    "qcf_u wrong length": ("qcf", {"qcf_u": [[1.0, 0.0]]}, [], "qcf_u"),
    "unknown system": ("steady", {"system": "nope"}, [], "unknown system 'nope'"),
    "unknown composite": ("composite", {"composite": "nope"}, [], "unknown composite 'nope'"),
    "grid flag of two fields": ("mean-flow", {}, ["--grid", "0:1"], "--grid must be T0:T1:STEPS"),
    "grid flag with text": ("mean-flow", {}, ["--grid", "0:a:5"], "--grid must be T0:T1:STEPS with numeric fields"),
    "grid of two entries": ("mean-flow", {"grid": [0, 1]}, [], "analysis.grid must be [t0, t1, steps]"),
    "grid backwards": ("spectrum", {"grid": [1, 0, 5]}, [], "grid needs t1 > t0 and at least 2 steps"),
    "grid of one step": ("mean-flow", {"grid": [0, 1, 1]}, [], "grid needs t1 > t0 and at least 2 steps"),
    "eps flag with text": ("weak", {}, ["--eps", "a,b"], "--eps must be a comma separated float list"),
    "eps negative": ("weak", {"eps": [0.1, -0.2]}, [], "eps values must be positive"),
    "eps empty": ("weak", {"eps": []}, [], "eps values must be positive"),
    "eps square underflows flag": ("weak", {}, ["--eps", "1e-170"], "--eps: coupling strength 1e-170 is out of range"),
    "eps square overflows flag": ("weak", {}, ["--eps", "0.1,1e200"], "--eps: coupling strength 1e+200 is out of range"),
    "eps square subnormal": ("weak", {"eps": [0.2, 1e-160]}, [], "analysis.eps: coupling strength 1e-160 is out of range"),
    "eps square overflows": ("weak", {"eps": [1.5e154]}, [], "analysis.eps: coupling strength 1.5e+154 is out of range"),
}


@pytest.mark.parametrize("case", sorted(ANALYSIS_REFUSALS))
def test_analysis_value_refusals_exit_two(tmp_path, capsys, case):
    command, edits, flags, name = ANALYSIS_REFUSALS[case]
    with open(REPO_CONFIG) as fh:
        cfg = json.load(fh)
    cfg["analysis"].update(edits)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert cli.main([command, "--config", str(path), "--out", str(out)] + flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and name in err
    assert not out.exists() or os.listdir(out) == []


def _without_composites(cfg):
    del cfg["composites"], cfg["analysis"]["composite"]


def _two_composites(cfg):
    cfg["composites"]["pair_b"] = cfg["composites"]["pair"]
    del cfg["analysis"]["composite"]


def _two_systems(cfg):
    del cfg["analysis"]["system"]


PICK_REFUSALS = {
    "composite without composites": (["composite"], _without_composites, 'config has no "composites" section'),
    "oracle without composites": (["oracle", "--composite"], _without_composites, 'config has no "composites" section'),
    "composite of several": (["composite"], _two_composites, "several composites defined; set analysis.composite"),
    "oracle of several": (["oracle", "--composite"], _two_composites, "several composites defined; set analysis.composite"),
    "system of several": (["steady"], _two_systems, "several systems defined; set analysis.system"),
}


@pytest.mark.parametrize("case", sorted(PICK_REFUSALS))
def test_unselected_entries_exit_two(tmp_path, capsys, case):
    argv, edit, message = PICK_REFUSALS[case]
    with open(REPO_CONFIG) as fh:
        cfg = json.load(fh)
    edit(cfg)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert cli.main(argv[:1] + ["--config", str(path), "--out", str(out)] + argv[1:]) == 2
    assert capsys.readouterr().err == "config error: %s\n" % message
    assert not out.exists() or os.listdir(out) == []


DROP = object()

# name: (argv, path of the edited config entry, its new value or DROP, message)
STRUCTURE_REFUSALS = {
    "constants name": (["steady"], ("systems", "qubit", "constants"), "su2", 'constants must be "pauli" or {'),
    "alpha not square": (
        ["steady"], ("systems", "qubit", "constants"), {"alpha": [[1.0, 0.0]], "beta": [[[0.0]]]}, "alpha must be square"
    ),
    "system not an object": (["steady"], ("systems", "qubit"), [1.0], "system 'qubit' must be an object"),
    "system without M": (["steady"], ("systems", "qubit", "M"), DROP, "system 'qubit' is missing 'M'"),
    "top level a list": (["steady"], (), [], "top level of "),
    "composite without E12": (["composite"], ("composites", "pair", "E12"), DROP, "composite 'pair' is missing 'E12'"),
    "composite without systems": (["composite"], ("composites", "pair", "systems"), DROP, "composite 'pair' is missing 'systems'"),
    "composite not an object": (["composite"], ("composites", "pair"), ["qubit", "qubit_b"], "composite 'pair' must be an object"),
    "constants without beta": (
        ["steady"], ("systems", "qubit", "constants"), {"alpha": [[1.0]]}, "constants of system 'qubit' is missing 'beta'"
    ),
    # every object is refused at an unknown key before a missing one
    "composite with a misspelt E12": (
        ["composite"], ("composites", "pair"), {"systems": ["qubit", "qubit_b"], "e12": [[0.0]]},
        "composite 'pair' has unknown key 'e12'",
    ),
    "constants with a misspelt beta": (
        ["steady"], ("systems", "qubit", "constants"), {"alpha": [[1.0]], "bet": []}, "constants of system 'qubit' has unknown key 'bet'"
    ),
    "composite of an unknown system": (
        ["composite"], ("composites", "pair", "systems"), ["qubit", "nope"], "composite 'pair' references unknown system 'nope'"
    ),
    "analysis a list": (["steady"], ("analysis",), [1], '"analysis" must be an object'),
    # a present section that is not an object is refused, falsy or null too
    **{
        "%s %s" % (section, label): (["steady"], (section,), value, '"%s" must be an object' % section)
        for section in ("analysis", "composites")
        for label, value in (("empty list", []), ("zero", 0), ("false", False), ("empty string", ""), ("null", None))
    },
    # unknown keys, misspelt ones included, name their object
    "unknown top-level key": (["steady"], ("system",), {}, "has unknown key 'system'"),
    "unknown system key": (["steady"], ("systems", "qubit", "n"), [0, 0], "system 'qubit' has unknown key 'n'"),
    "unknown composite key": (["composite"], ("composites", "pair", "e12"), [[0.0]], "composite 'pair' has unknown key 'e12'"),
    "unknown analysis key": (["decoherence"], ("analysis", "budjet"), 16, '"analysis" has unknown key \'budjet\''),
    "unknown constants key": (
        ["steady"],
        ("systems", "qubit", "constants"),
        {"alpha": [[1.0]], "beta": [[[0.0]]], "gamma": 0},
        "constants of system 'qubit' has unknown key 'gamma'",
    ),
}


@pytest.mark.parametrize("case", sorted(STRUCTURE_REFUSALS))
def test_config_structure_refusals_exit_two(tmp_path, capsys, case):
    argv, keys, value, message = STRUCTURE_REFUSALS[case]
    with open(REPO_CONFIG) as fh:
        node = root = {"config": json.load(fh)}
    keys = ("config",) + keys
    for key in keys[:-1]:
        node = node[key]
    if value is DROP:
        del node[keys[-1]]
    else:
        node[keys[-1]] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(root["config"]))
    out = tmp_path / "o"
    assert cli.main(argv[:1] + ["--config", str(path), "--out", str(out)] + argv[1:]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert not out.exists() or os.listdir(out) == []


def test_single_entries_need_no_selection(tmp_path):
    # one system and one composite are taken without analysis.system or
    # analysis.composite, and mean-flow starts from mu0 = 0 when it is unset
    with open(REPO_CONFIG) as fh:
        cfg = json.load(fh)
    del cfg["systems"]["qubit_b"], cfg["analysis"]["system"], cfg["analysis"]["composite"], cfg["analysis"]["mu0"]
    cfg["composites"]["pair"]["systems"] = ["qubit", "qubit"]
    path = tmp_path / "single.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    for argv in (["steady"], ["mean-flow"], ["composite"], ["oracle", "--composite"]):
        assert cli.main(argv[:1] + ["--config", str(path), "--out", str(out)] + argv[1:]) == 0, argv
    assert (out / "mean_flow.csv").read_text().splitlines()[1] == "0,0,0,0"
    assert {"steady.csv", "composite.csv", "oracle.csv"} <= set(os.listdir(out))


@pytest.mark.parametrize(
    "argv,system,message",
    [
        (["oracle"], "qubit", "oracle only has representations for the builtin pauli constants"),
        (["oracle", "--composite"], "qubit_b", "oracle only has representations for pauli-based systems"),
    ],
    ids=["system", "composite"],
)
def test_oracle_needs_a_representation(tmp_path, capsys, argv, system, message):
    # Pauli's own values written out as {alpha, beta} carry no representation
    out = tmp_path / "o"
    assert cli.main(argv[:1] + ["--config", REPO_CONFIG, "--out", str(out)] + argv[1:]) == 0
    assert (out / "oracle.csv").exists()
    with open(REPO_CONFIG) as fh:
        cfg = json.load(fh)
    cfg["systems"][system]["constants"] = {"alpha": np.eye(3).tolist(), "beta": pauli_sections()}
    path = tmp_path / "explicit.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "explicit"
    assert cli.main(argv[:1] + ["--config", str(path), "--out", str(out)] + argv[1:]) == 2
    assert capsys.readouterr().err == "config error: %s\n" % message
    assert not out.exists() or os.listdir(out) == []


def test_empty_flags_fall_back_and_zero_flags_are_honoured(tmp_path):
    cfgpath = qubit_config(tmp_path, grid=[0, 1, 5], eps=[0.3, 0.15], seed=7)
    out = tmp_path / "o"
    assert cli.main(["mean-flow", "--config", cfgpath, "--out", str(out), "--grid", ""]) == 0
    assert len((out / "mean_flow.csv").read_text().splitlines()) == 6
    assert cli.main(["weak", "--config", cfgpath, "--out", str(out), "--eps", ""]) == 0
    eps = {row.split(",")[0] for row in (out / "weak_asymptotics.csv").read_text().splitlines()[1:]}
    assert eps == {"0.29999999999999999", "0.14999999999999999"}
    assert cli.main(["decoherence", "--config", cfgpath, "--out", str(out), "--seed", "0"]) == 0
    assert (out / "decoherence.csv").read_text().splitlines()[1].split(",")[4] == "0"
    assert cli.main(["composite", "--config", REPO_CONFIG, "--out", str(out), "--tol", "0"]) in (0, 4)
    assert {row.split(",")[2] for row in (out / "composite.csv").read_text().splitlines()[1:]} == {"0"}


def test_integral_floats_count_as_integers(tmp_path):
    cfgpath = qubit_config(tmp_path, seed=41.0, budget=16.0, grid=[0, 1, 5.0])
    out = tmp_path / "o"
    assert cli.main(["decoherence", "--config", cfgpath, "--out", str(out)]) == 0
    assert (out / "decoherence.csv").read_text().splitlines()[1].split(",")[4:] == ["41", "16"]
    assert cli.main(["mean-flow", "--config", cfgpath, "--out", str(out)]) == 0
    assert len((out / "mean_flow.csv").read_text().splitlines()) == 6
    big = qubit_config(tmp_path, seed=2**70)
    assert cli.main(["decoherence", "--config", big, "--out", str(out)]) == 0
    assert (out / "decoherence.csv").read_text().splitlines()[1].split(",")[4] == str(2**70)


# Reference copies of the per-entry converters the CLI used before it
# converted whole arrays at once; the new converter must agree with them.
class _RefError(Exception):
    pass


def _ref_number(x, what="number"):
    if isinstance(x, bool):
        raise _RefError("%s must be a number, got a boolean" % what)
    if isinstance(x, (int, float)):
        return float(x)
    if isinstance(x, list) and len(x) == 2 and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in x):
        return complex(x[0], x[1]) if x[1] != 0 else float(x[0])
    raise _RefError("%s must be a number or [re, im] pair, got %r" % (what, x))


def _ref_vector(x, what="vector"):
    if not isinstance(x, list):
        raise _RefError("%s must be a list" % what)
    return np.array([_ref_number(v, what) for v in x])


def _ref_matrix(x, what="matrix"):
    if not isinstance(x, list) or not x or not all(isinstance(r, list) for r in x):
        raise _RefError("%s must be a list of rows" % what)
    rows = [[_ref_number(v, what) for v in r] for r in x]
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise _RefError("%s has ragged rows" % what)
    return np.array(rows)


def _random_entry(rng, kinds):
    kind = kinds[rng.integers(len(kinds))]
    if kind == "int":
        return int(rng.integers(-5, 6))
    if kind == "float":
        return float(rng.choice([rng.normal(), -0.0, 0.0, 1e300, 5e-324]))
    if kind == "pair":
        return [float(rng.normal()), float(rng.normal())]
    if kind == "int pair":
        return [int(rng.integers(-3, 4)), int(rng.integers(1, 4))]
    return [[float(rng.normal()), int(rng.integers(-3, 4)), -0.0][rng.integers(3)], 0]


def _random_nested(rng, shape, kinds):
    if len(shape) == 1:
        return [_random_entry(rng, kinds) for _ in range(shape[0])]
    return [_random_nested(rng, shape[1:], kinds) for _ in range(shape[0])]


ENTRY_MIXES = [
    ("int",),
    ("float",),
    ("int", "float"),
    ("real pair",),
    ("int", "real pair"),
    ("int", "float", "pair", "real pair"),
    ("float", "int pair"),
]


@pytest.mark.parametrize("kinds", ENTRY_MIXES)
@pytest.mark.parametrize("shape", [(0,), (1,), (7,), (1, 0), (3, 4), (2, 1), (3, 3, 3), (2, 4, 1), (5, 2, 3)])
def test_array_matches_per_entry_reference(kinds, shape):
    rng = np.random.default_rng([len(kinds), *shape])
    for _ in range(4):
        data = _random_nested(rng, shape, kinds) if shape[0] else []
        if len(shape) == 1:
            ref = _ref_vector(data, "x")
        elif len(shape) == 2:
            ref = _ref_matrix(data, "x")
        else:
            ref = np.stack([_ref_matrix(s, "x") for s in data])
        got = cli._array(data, "x", len(shape))
        assert got.shape == ref.shape == shape
        assert got.dtype == ref.dtype
        assert got.tobytes() == ref.tobytes()
    assert cli._array([[1, 2], [3, 4]], "x", 2).dtype == np.float64
    assert cli._array([1, [2, 0]], "x", 1).dtype == np.float64
    assert cli._array([1, [2, -1]], "x", 1).dtype == np.complex128


def pauli_sections():
    beta = model.pauli_constants().beta
    return [[[[z.real, z.imag] if z.imag else z.real for z in row] for row in sec] for sec in beta]


def pair_config(**changes):
    """Two explicit-constant qubits coupled by E12; `changes` maps a path such
    as "qubit.E", "E12", "mu0", "pair.systems" or "composites" to a
    replacement value."""
    def system(energy):
        return {
            "constants": {"alpha": np.eye(3).tolist(), "beta": pauli_sections()},
            "E": energy,
            "M": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
            "N": [0.0, 0.0],
        }

    cfg = {
        "systems": {"qubit": system([0.0, 0.0, 1.0]), "qubit_b": system([0.0, 0.0, 0.5])},
        "composites": {"pair": {"systems": ["qubit", "qubit_b"], "E12": np.diag([0.2, 0.1, 0.15]).tolist()}},
        "analysis": {"system": "qubit", "composite": "pair", "mu0": [0.0, 0.0, 0.0]},
    }
    for path, value in changes.items():
        if path == "E12":
            cfg["composites"]["pair"]["E12"] = value
        elif path == "mu0":
            cfg["analysis"]["mu0"] = value
        elif path == "pair.systems":
            cfg["composites"]["pair"]["systems"] = value
        elif path == "composites":
            cfg["composites"] = value
        else:
            name, key = path.split(".")
            target = cfg["systems"][name]
            (target["constants"] if key in ("alpha", "beta") else target)[key] = value
    return cfg


def _edit(base, index, value):
    out = json.loads(json.dumps(base))
    node = out
    for i in index[:-1]:
        node = node[i]
    node[index[-1]] = value
    return out


SECTIONS = pauli_sections()
ROWS = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
REFUSALS = [
    ("bool depth 1", {"qubit.E": [0.0, True, 1.0]}, "E must be a number, got a boolean"),
    ("bool depth 2", {"qubit.M": _edit(ROWS, (1, 2), False)}, "M must be a number, got a boolean"),
    ("bool depth 3", {"qubit.beta": _edit(SECTIONS, (2, 0, 1), True)}, "beta section must be a number, got a boolean"),
    ("bool in pair", {"qubit.E": [0.0, 0.0, [1.0, True]]}, "E must be a number or [re, im] pair, got [1.0, True]"),
    ("ragged rows", {"qubit.M": [[1.0, 0.0, 0.0], [0.0, 1.0]]}, "M has ragged rows"),
    ("ragged E12", {"E12": [[0.1, 0.0, 0.0], [0.0, 0.1], [0.0, 0.0, 0.1]]}, "E12 has ragged rows"),
    ("three-element pair", {"qubit.N": [[0.0, 1.0, 2.0], 0.0]}, "N must be a number or [re, im] pair, got [0.0, 1.0, 2.0]"),
    ("nested pair", {"qubit.E": [0.0, 0.0, [[1.0, 0.0], 0.0]]}, "E must be a number or [re, im] pair, got [[1.0, 0.0], 0.0]"),
    ("string", {"qubit.E": [0.0, "1", 0.0]}, "E must be a number or [re, im] pair, got '1'"),
    ("not a list", {"qubit.E": 1.0}, "E must be a list"),
    ("empty list", {"qubit.M": []}, "M must be a list of rows"),
    ("empty vector", {"qubit.E": []}, "system 'qubit': energy vector has shape (0,), expected (3,)"),
    ("row not a list", {"qubit.M": [[1.0, 0.0, 0.0], 0.0]}, "M must be a list of rows"),
    ("ragged beta sections", {"qubit.beta": SECTIONS[:2] + [SECTIONS[2][:2]]}, "beta section has ragged rows"),
    ("ragged beta widths", {"qubit.beta": SECTIONS[:2] + [[r[:2] for r in SECTIONS[2]]]}, "beta section has ragged rows"),
    ("ragged row in a section", {"qubit.beta": _edit(SECTIONS, (1, 1), [0.0])}, "beta section has ragged rows"),
    ("empty beta section", {"qubit.beta": SECTIONS[:2] + [[]]}, "beta section must be a list of rows"),
    ("empty beta", {"qubit.beta": []}, "beta must be a non-empty list of sections"),
    ("beta not a list", {"qubit.beta": 0.0}, "beta must be a non-empty list of sections"),
    ("complex E", {"qubit.E": [0.0, 0.0, [1.0, 1.0]]}, "system 'qubit': energy vector must be real"),
    ("complex E12", {"E12": _edit(np.diag([0.2, 0.1, 0.15]).tolist(), (0, 1), [0.0, 0.3])}, "composite 'pair': direct coupling must be real"),
    ("complex mu0", {"mu0": [0.0, [0.0, 1.0], 0.0]}, "mu0 must be a finite real vector of length 3"),
    ("composites not an object", {"composites": ["pair"]}, '"composites" must be an object'),
    ("system name not a string", {"pair.systems": [["qubit"], "qubit_b"]}, "composite 'pair' must name two systems"),
    ("four-column M", {"qubit.M": [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]]}, "system 'qubit': coupling must be m x 3, got (2, 4)"),
] + [
    # a JSON integer past the float range, as a leaf or an imaginary part
    ("huge integer %s" % where, {path: _edit(value, index, 10**400)}, "%s has an integer too large for a float" % what)
    for where, path, value, index, what in (
        ("E", "qubit.E", [0.0, 0.0, 1.0], (2,), "E"),
        ("M", "qubit_b.M", ROWS, (1, 2), "M"),
        ("N", "qubit.N", [0.0, 0.0], (0,), "N"),
        ("imaginary N", "qubit.N", [[0.0, 0.0], 0.0], (0, 1), "N"),
        ("E12", "E12", np.diag([0.2, 0.1, 0.15]).tolist(), (1, 2), "E12"),
        ("alpha", "qubit.alpha", np.eye(3).tolist(), (0, 0), "alpha"),
        ("beta", "qubit.beta", SECTIONS, (1, 2, 0), "beta section"),
        ("mu0", "mu0", [0.0, 0.0, 0.0], (1,), "mu0"),
    )
] + [
    (
        "%s %s" % (bad, where),
        {path: _edit(value, index, float(bad))},
        message,
    )
    for bad in ("nan", "inf", "-inf")
    for where, path, value, index, message in (
        ("E", "qubit.E", [0.0, 0.0, 1.0], (2,), "system 'qubit': energy vector must be finite"),
        ("M", "qubit_b.M", ROWS, (0, 1), "system 'qubit_b': coupling must be finite"),
        ("complex M", "qubit.M", _edit(ROWS, (0, 0), [1.0, 0.5]), (1, 1), "system 'qubit': coupling must be real"),
        ("N", "qubit.N", [0.0, 0.0], (1,), "system 'qubit': offset must be finite"),
        ("E12", "E12", np.diag([0.2, 0.1, 0.15]).tolist(), (2, 0), "composite 'pair': direct coupling must be finite"),
        ("mu0", "mu0", [0.0, 0.0, 0.0], (0,), "mu0 must be a finite real vector of length 3"),
    )
]


@pytest.mark.parametrize("changes,message", [r[1:] for r in REFUSALS], ids=[r[0] for r in REFUSALS])
def test_config_refusals_exit_two(tmp_path, capsys, changes, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(pair_config(**changes)))
    out = tmp_path / "o"
    assert cli.main(["mean-flow", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "config error: %s\n" % message
    assert not out.exists() or not os.listdir(out)


def test_pair_config_is_accepted(tmp_path):
    path = tmp_path / "good.json"
    path.write_text(json.dumps(pair_config()))
    out = str(tmp_path / "o")
    for command in ("mean-flow", "steady", "composite"):
        assert cli.main([command, "--config", str(path), "--out", out]) == 0, command


def test_complex_coupling_and_offset_are_refused(tmp_path, capsys):
    # a complex M or N would give complex means of self-adjoint variables and
    # a GKSL generator that leaves the Hermitian matrices
    for key, value, message in (
        ("M", [[1, [0, 0.5], 0], [0, 1, 0]], "coupling must be real"),
        ("N", [[0, 0.5], 0], "offset must be real"),
    ):
        with open(REPO_CONFIG) as fh:
            cfg = json.load(fh)
        cfg["systems"]["qubit"][key] = value
        path = tmp_path / "complex.json"
        path.write_text(json.dumps(cfg))
        for command in ("steady", "mean-flow", "oracle"):
            out = tmp_path / key / command
            assert cli.main([command, "--config", str(path), "--out", str(out)]) == 2, command
            assert capsys.readouterr().err == "config error: system 'qubit': %s\n" % message
            assert not out.exists() or os.listdir(out) == []


def test_oracle_builds_one_superoperator(tmp_path, monkeypatch):
    # the generator identity, the stationary state and the two-point checks
    # at every lag share one superoperator, in both oracle forms
    real = oracle.heisenberg_superoperator
    calls = []
    monkeypatch.setattr(oracle, "heisenberg_superoperator", lambda rep, spec: calls.append(spec) or real(rep, spec))
    assert cli.main(["oracle", "--config", REPO_CONFIG, "--out", str(tmp_path)]) == 0
    assert len(calls) == 1
    assert cli.main(["oracle", "--config", REPO_CONFIG, "--out", str(tmp_path), "--composite"]) == 0
    assert len(calls) == 2


@pytest.mark.parametrize("argv", [[], ["--composite"]], ids=["single", "composite"])
def test_oracle_rows_match_unshared_calls(argv, tmp_path, monkeypatch):
    # the rows built on the shared superoperator equal those of the public
    # functions called without it, each building its own
    assert cli.main(["oracle", "--config", REPO_CONFIG, "--out", str(tmp_path / "shared")] + argv) == 0
    real_sup = oracle.heisenberg_superoperator
    calls = []
    monkeypatch.setattr(oracle, "heisenberg_superoperator", lambda rep, spec: calls.append(spec) or real_sup(rep, spec))
    for name in ("generator_identity_check", "stationary_state", "two_point_commutator"):
        monkeypatch.setattr(oracle, name, lambda *args, heisenberg, _real=getattr(oracle, name): _real(*args))
    assert cli.main(["oracle", "--config", REPO_CONFIG, "--out", str(tmp_path / "own")] + argv) == 0
    assert len(calls) == 4
    shared, own = (pathlib.Path(tmp_path, side, "oracle.csv").read_text() for side in ("shared", "own"))
    assert shared == own and shared.count("\n") == 7


def test_qcf_u_refusals_exit_two(tmp_path, capsys):
    out = tmp_path / "o"
    for qcf_u, message in (
        ([[0.0, [0.0, 1.0], 1.0]], "qcf_u entries must be real"),
        (1.0, "qcf_u must be a list of rows"),
        ([], "qcf_u must be a list of rows"),
        ([[0.0, 0.0, 1.0], [1.0, 0.0]], "qcf_u has ragged rows"),
        ([[0.0, 0.0, True]], "qcf_u must be a number, got a boolean"),
        ([[0.0, 0.0]], "qcf_u vectors must have length 3, got 2"),
        ([[float("nan"), 0.0, 0.0]], "qcf_u entries must be finite"),
        ([[float("inf"), 0.0, 0.0]], "qcf_u entries must be finite"),
        ([[0.0, 10**400, 0.0]], "qcf_u has an integer too large for a float"),
    ):
        cfgpath = qubit_config(tmp_path, qcf_u=qcf_u)
        assert cli.main(["qcf", "--config", cfgpath, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "config error: %s\n" % message
        assert not os.listdir(out)


def test_qcf_overflow_exits_four(tmp_path, capsys):
    # a finite direction whose exponential overflows is refused before anything is written
    out = tmp_path / "o"
    cfgpath = qubit_config(tmp_path, qcf_u=[[0.0, 0.0, 1.0], [1e308, 0.0, 0.0]])
    assert cli.main(["qcf", "--config", cfgpath, "--out", str(out)]) == 4
    captured = capsys.readouterr()
    assert captured.err == "numeric failure: quasicharacteristic function is not finite\n"
    assert captured.out == ""
    assert not os.listdir(out)


def test_qcf_direction_it_cannot_resolve_exits_four(tmp_path, capsys):
    # ||G_u||_1 = 1e16 > 2^52: the value's rounding allowance exceeds 1
    out = tmp_path / "o"
    cfgpath = qubit_config(tmp_path, qcf_u=[[0.0, 0.0, 1.0], [1e16, 0.0, 0.0]])
    assert cli.main(["qcf", "--config", cfgpath, "--out", str(out)]) == 4
    captured = capsys.readouterr()
    assert captured.err == (
        "numeric failure: qcf direction 1 is not resolved: ||G_u||_1 = 1e+16 exceeds 2^52,"
        " so its rounding allowance exceeds 1\n"
    )
    assert captured.out == ""
    assert not os.listdir(out)


# Reference copy of the row-by-row CSV writer the CLI used before it wrote
# whole columns; the column writer must produce the same bytes.
def _ref_fmt(v):
    if isinstance(v, (float, np.floating)):
        return "%.17g" % v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


def _ref_write_csv(out_dir, name, header, rows):
    import csv

    path = os.path.join(out_dir, name)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_ref_fmt(v) for v in row])
    return path


def test_column_writer_matches_row_writer(tmp_path):
    names = ["plain", 'has,comma and "quote"', "line\nbreak", "", " lead", "lone\rreturn"]
    floats = np.array([-0.0, float("nan"), 1.0 / 3.0, float("inf"), 5e-324, -1e300])
    ints = np.array([0, -7, 2**62, 1, 3, -(2**63)], dtype=np.int64)
    tol = np.full(6, 1e-8)
    passed = (floats <= tol).astype(int)
    rows = [
        (names[i], np.float64(floats[i]), np.int64(ints[i]), float(tol[i]), int(passed[i]))
        for i in range(len(names))
    ]
    header = ["name", 'residual, "abs"', "count", "tol", "pass"]
    ref = _ref_write_csv(str(tmp_path), "ref.csv", header, rows)
    new = cli._write_csv(str(tmp_path), "new.csv", header, [names, floats, ints, tol, passed])
    expected = pathlib.Path(ref).read_bytes()
    assert pathlib.Path(new).read_bytes() == expected
    assert expected.startswith(b'name,"residual, ""abs""",count')
    assert b'"has,comma and ""quote"""' in expected and b'"lone\rreturn"' in expected
    assert b"-0," in expected and b"nan" in expected
    empty = cli._write_csv(str(tmp_path), "empty.csv", header, [[], np.zeros(0), np.zeros(0, dtype=int), [], []])
    assert pathlib.Path(empty).read_bytes() == expected[: expected.index(b"\r\n") + 2]


def test_every_golden_table_matches_row_writer(tmp_path, monkeypatch):
    # each table of the golden runs against the row writer given the same cells
    from test_golden import RUNS, write

    written = []
    column_writer = cli._write_csv

    def capture(out_dir, name, header, columns):
        path = column_writer(out_dir, name, header, columns)
        ref = _ref_write_csv(str(tmp_path), "ref.csv", header, list(zip(*columns)))
        written.append((path, pathlib.Path(path).read_bytes() == pathlib.Path(ref).read_bytes()))
        return path

    monkeypatch.setattr(cli, "_write_csv", capture)
    for run_id, run in RUNS.items():
        write.run(run["argv"], tmp_path / run_id)
    assert len(written) == sum(len(run["csv"]) for run in RUNS.values())
    assert [path for path, same in written if not same] == []


def test_coeffs_and_modes_tables_match_row_loops(tmp_path):
    cfg = cli._load_config(REPO_CONFIG)
    name, spec, coeffs, _ = cfg.system()
    rows = []
    for label, mat in (("a", coeffs.a), ("a0", coeffs.a0), ("atilde", coeffs.atilde)):
        for i in range(coeffs.n):
            for j in range(coeffs.n):
                rows.append((label, i, j, float(np.real(mat[i, j])), float(np.imag(mat[i, j]))))
    for i in range(coeffs.n):
        rows.append(("b", i, 0, float(np.real(coeffs.b[i])), float(np.imag(coeffs.b[i]))))
    ref = _ref_write_csv(str(tmp_path), "coeffs_ref.csv", ["block", "row", "col", "re", "im"], rows)
    md = modes.eigenmodes(coeffs.a0, spec.constants.alpha)
    mrows = [
        (k, c, float(md.omegas[k]), float(md.vectors[c, k].real), float(md.vectors[c, k].imag))
        for k in range(len(md.omegas))
        for c in range(len(md.omegas))
    ]
    mref = _ref_write_csv(str(tmp_path), "modes_ref.csv", ["mode", "component", "omega", "vec_re", "vec_im"], mrows)
    out = str(tmp_path / "o")
    assert cli.main(["coeffs", "--config", REPO_CONFIG, "--out", out]) == 0
    assert cli.main(["modes", "--config", REPO_CONFIG, "--out", out]) == 0
    assert pathlib.Path(out, "coeffs.csv").read_bytes() == pathlib.Path(ref).read_bytes()
    assert pathlib.Path(out, "modes.csv").read_bytes() == pathlib.Path(mref).read_bytes()


def test_parser_is_built_once(tmp_path, monkeypatch):
    import argparse

    def refuse(*args, **kwargs):
        raise AssertionError("argument parser rebuilt")

    monkeypatch.setattr(argparse, "ArgumentParser", refuse)
    assert cli.main(["steady", "--config", REPO_CONFIG, "--out", str(tmp_path)]) == 0
    assert cli.main(["steady", "--config", REPO_CONFIG, "--out", str(tmp_path)]) == 0


def test_decoherence_writes_a_seed_beyond_int64(tmp_path):
    out = str(tmp_path / "o")
    seed = 2**70
    assert cli.main(["decoherence", "--config", REPO_CONFIG, "--out", out, "--seed", str(seed)]) == 0
    rows = pathlib.Path(out, "decoherence.csv").read_text().splitlines()
    assert rows[1].split(",")[4] == str(seed)


def repo_config_with(tmp_path, system, **entries):
    with open(REPO_CONFIG) as fh:
        cfg = json.load(fh)
    cfg["systems"][system].update(entries)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_weak_leaves_unbounded_threshold_out_of_csv(tmp_path, capsys):
    # pure dephasing: the static mode's rate vanishes, so eps_hat is infinite
    path = repo_config_with(tmp_path, "qubit", M=[[0, 0, 1], [0, 0, 0]])
    out = tmp_path / "o"
    assert cli.main(["weak", "--config", path, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "eps_hat is unbounded (a decay rate vanishes); left out of weak.csv" in stdout
    assert "invariant-mean limit not applicable: zero-mode rate vanishes" in stdout
    for name in ("weak.csv", "weak_asymptotics.csv"):
        rows = pathlib.Path(out, name).read_text().strip().splitlines()
        cells = [float(c) for row in rows[1:] for c in row.split(",")[1:]]
        assert np.isfinite(cells).all(), name
    labels = [row.split(",")[0] for row in pathlib.Path(out, "weak.csv").read_text().splitlines()]
    assert "eps_hat" not in labels and "eps_tilde" in labels


def test_oversized_grid_exits_three_before_allocating(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(np, "linspace", lambda *a, **k: pytest.fail("grid allocated"))
    out = tmp_path / "o"
    argv = ["mean-flow", "--config", REPO_CONFIG, "--out", str(out), "--grid", "0:5:1000000000000"]
    assert cli.main(argv) == 3
    assert capsys.readouterr().err == "capability limit: grid of 1000000000000 steps exceeds 100000\n"
    cfgpath = qubit_config(tmp_path, grid=[0.0, 5.0, 100001])
    assert cli.main(["spectrum", "--config", cfgpath, "--out", str(out)]) == 3
    assert capsys.readouterr().err == "capability limit: grid of 100001 steps exceeds 100000\n"
    assert not os.listdir(out)


def test_composite_with_a_broken_factor_exits_four(tmp_path, capsys):
    sections = [[[[z.real, z.imag + 1e-6] for z in row] for row in sec] for sec in model.pauli_constants().beta]
    path = tmp_path / "broken.json"
    for position, system in ((1, "qubit"), (2, "qubit_b")):
        path.write_text(json.dumps(pair_config(**{system + ".beta": sections})))
        assert cli.main(["composite", "--config", str(path), "--out", str(tmp_path / "o")]) == 4
        assert "numeric failure: factor %d constants fail validation" % position in capsys.readouterr().err


def test_composite_accepts_factors_that_validate(tmp_path, capsys):
    # rotated Pauli algebras at scale 10: each factor passes validate, while
    # the product's closure residual exceeds 1e-10 by rounding alone
    cfg = pair_config()
    for seed, name in enumerate(("qubit", "qubit_b")):
        c = rotated_pauli_constants(seed, 10.0)
        beta = [[[[z.real, z.imag] for z in row] for row in sec] for sec in c.beta]
        cfg["systems"][name]["constants"] = {"alpha": c.alpha.real.tolist(), "beta": beta}
    path = tmp_path / "rotated.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert cli.main(["validate", "--config", str(path), "--out", str(out)]) == 0
    assert cli.main(["composite", "--config", str(path), "--out", str(out)]) == 0
    rows = list(csv.DictReader((out / "composite.csv").read_text().splitlines()))
    assert len(rows) == 4 and all(row["pass"] == "1" for row in rows)
    assert capsys.readouterr().err == ""


def test_unwritable_output_exits_two(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert cli.main(["steady", "--config", REPO_CONFIG, "--out", str(blocker / "sub")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write %s: " % (blocker / "sub")) and err.count("\n") == 1
    out = tmp_path / "o"
    (out / "steady.csv").mkdir(parents=True)
    assert cli.main(["steady", "--config", REPO_CONFIG, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write %s: " % (out / "steady.csv")) and err.count("\n") == 1


def test_decoherence_refuses_a_zero_ccr_matrix(tmp_path, capsys):
    # a dephasing qubit: the steady mean is 0, so the stationary CCR matrix is 0
    path = repo_config_with(tmp_path, "qubit", M=[[1, 0, 0], [1, 0, 0]])
    assert cli.main(["decoherence", "--config", path, "--out", str(tmp_path / "o")]) == 4
    assert capsys.readouterr().err == "numeric failure: zero CCR matrix: tau* = 0 and the bound is void\n"


def test_oracle_on_lossless_qubit_skips_stationary_rows(tmp_path, capsys):
    # M = 0: the drift is not Hurwitz, so there is no stationary state to compare
    path = repo_config_with(tmp_path, "qubit", M=[[0, 0, 0], [0, 0, 0]])
    out = tmp_path / "o"
    assert cli.main(["oracle", "--config", path, "--out", str(out)]) == 0
    rows = pathlib.Path(out, "oracle.csv").read_text().strip().splitlines()
    assert [row.split(",")[0] for row in rows] == ["check", "representation", "generator_identity"]
    assert all(row.endswith(",1") for row in rows[1:])
    stdout = capsys.readouterr().out
    assert re.search(
        r"^skipped steady_mean, two_point_tau_0.5, two_point_tau_1, two_point_tau_2: "
        r"drift is not Hurwitz \(spectral abscissa \S+\), no stationary mean$",
        stdout,
        re.MULTILINE,
    )
    assert "FAIL" not in stdout


def test_decoherence_says_why_it_exits_4(tmp_path, capsys, monkeypatch):
    out = str(tmp_path / "o")
    assert cli.main(["decoherence", "--config", REPO_CONFIG, "--out", out]) == 0
    assert "FAIL" not in capsys.readouterr().out
    # a bound below tau* = 1/2 of the bundled qubit
    low = decoherence.TauBoundSearch(0.25, 1.0, np.eye(3), "identity")
    monkeypatch.setattr(decoherence, "optimize_tau_bound", lambda *args, **kwargs: low)
    assert cli.main(["decoherence", "--config", REPO_CONFIG, "--out", out]) == 4
    tau = float(pathlib.Path(out, "decoherence.csv").read_text().splitlines()[1].split(",")[0])
    assert abs(tau - 0.5) < 1e-9
    assert capsys.readouterr().out.splitlines()[-1] == "FAIL: tau_star = %r is not <= 0.25" % tau


def _wrap(monkeypatch, module, name, change):
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args, **kwargs: change(real(*args, **kwargs), *args))


# each check row pushed over its bound on the bundled config: (argv, patch, failing labels)
FAILING_ROWS = {
    "validate": (
        ["validate"],
        lambda mp: mp.setattr(model, "validate", lambda *a, **k: model.ValidationReport(False, {"alpha-sym": 1}, [("alpha-sym", (0, 1), 1.0)])),
        ["qubit", "qubit_b"],
    ),
    "steady": (["steady"], lambda mp: _wrap(mp, qsde, "steady_mean", lambda mu, coeffs: mu + 1e-3), ["steady_residual"]),
    "spectrum-sandwich": (
        ["spectrum"],
        lambda mp: _wrap(mp, second_moment, "pi_trace_flow", lambda flow, op, times: flow - 1.0),
        ["sandwich_slack"],
    ),
    # lifts the drift's eigenvalues only: the 3 x 3 drift, not the second-moment generator
    "spectrum-abscissa": (
        ["spectrum"],
        lambda mp: _wrap(mp, np.linalg, "eigvals", lambda ev, m: ev + (1.0 if m.shape == (3, 3) else 0.0)),
        ["twice_abscissa_excess"],
    ),
    "decoherence": (["decoherence"], lambda mp: mp.setattr(decoherence, "tau_star", lambda a, ccr: 100.0), ["tau_star"]),
    "composite": (
        ["composite"],
        lambda mp: _wrap(mp, composite, "composite_dispersion", lambda d, spec, x: d + 1e-3),
        ["dispersion"],
    ),
    # the last row NaN after finite ones: Python's max skips it
    "composite-nan": (
        ["composite"],
        lambda mp: _wrap(mp, composite, "composite_dispersion", lambda d, spec, x: d * np.nan),
        ["dispersion"],
    ),
    "oracle": (["oracle"], lambda mp: mp.setattr(oracle, "representation_check", lambda rep: 1.0), ["representation"]),
    "oracle-nan": (["oracle"], lambda mp: mp.setattr(oracle, "representation_check", lambda rep: np.nan), ["representation"]),
}


@pytest.mark.parametrize("case", sorted(FAILING_ROWS))
def test_every_check_row_fails_through_the_one_rule(tmp_path, capsys, monkeypatch, case):
    argv, patch, labels = FAILING_ROWS[case]
    out = tmp_path / "o"
    argv = argv + ["--config", REPO_CONFIG, "--out", str(out)]
    assert cli.main(argv) == 0
    assert "FAIL" not in capsys.readouterr().out
    patch(monkeypatch)
    assert cli.main(argv) == 4
    stdout = capsys.readouterr().out
    fails = re.findall(r"^FAIL: (\S+) = (\S+) is not <= (\S+)$", stdout, re.MULTILINE)
    assert [label for label, _, _ in fails] == labels
    assert all(not float(value) <= float(bound) for _, value, bound in fails)
    assert len([line for line in stdout.splitlines() if line.startswith("FAIL")]) == len(labels)
    if case.endswith("nan"):
        assert [value for _, value, _ in fails] == ["nan"]
    table = {"validate": "validate.csv", "composite": "composite.csv", "oracle": "oracle.csv"}.get(argv[0])
    if table:
        with open(out / table, newline="") as fh:
            rows = list(csv.DictReader(fh))
        column = "system" if argv[0] == "validate" else "check"
        verdict = "passed" if argv[0] == "validate" else "pass"
        assert [row[column] for row in rows if row[verdict] == "0"] == labels
    if case == "composite-nan":
        assert "worst path residual nan" in stdout


def test_oversized_budget_exits_three_before_any_solve(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(qsde, "steady_mean", lambda *a, **k: pytest.fail("solve ran"))
    for name in ("tau_star", "optimize_tau_bound"):
        monkeypatch.setattr(decoherence, name, lambda *a, **k: pytest.fail("search ran"))
    out = tmp_path / "o"
    for budget in (4097, 10**9):
        cfgpath = qubit_config(tmp_path, budget=budget)
        assert cli.main(["decoherence", "--config", cfgpath, "--out", str(out)]) == 3
        assert capsys.readouterr().err == "capability limit: analysis.budget of %d exceeds 4096\n" % budget
    assert not os.listdir(out)


def test_budget_at_the_cap_runs(tmp_path):
    out = tmp_path / "o"
    cfgpath = qubit_config(tmp_path, budget=4096)
    assert cli.main(["decoherence", "--config", cfgpath, "--out", str(out)]) == 0
    assert pathlib.Path(out, "decoherence.csv").read_text().splitlines()[1].endswith(",4096")


@pytest.mark.parametrize(
    "command, flags, analysis, code",
    [
        ("decoherence", [], {"budget": 10**9}, 3),
        ("weak", ["--eps", "1e-170"], {}, 2),
        ("weak", ["--eps", "1e200"], {}, 2),
        ("weak", [], {"eps": [1e-170, 1e200]}, 2),
        ("mean-flow", ["--grid", "0:1e300:3"], {}, 4),
        ("mean-flow", [], {"grid": [0, 1e300, 3]}, 4),
        ("spectrum", ["--grid", "0:1e300:3"], {}, 4),
    ],
    ids=["budget", "eps-flag-small", "eps-flag-large", "eps-config", "grid-flag", "grid-config", "spectrum-grid"],
)
def test_extreme_analysis_values_exit_cleanly(tmp_path, capsys, command, flags, analysis, code):
    # a sweep over extreme analysis values on the bundled config, with no
    # timing: each exits with a known code and no traceback (an exception
    # or warning escaping main fails the test), and every CSV cell written
    # is finite
    with open(REPO_CONFIG) as fh:
        cfg = json.load(fh)
    cfg["analysis"].update(analysis)
    path = tmp_path / "extreme.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert cli.main([command, "--config", str(path), "--out", str(out), *flags]) == code
    assert "Traceback" not in capsys.readouterr().err
    for table in out.iterdir():
        for row in list(csv.reader(table.read_text().splitlines()))[1:]:
            for cell in row:
                try:
                    value = float(cell)
                except ValueError:
                    continue
                assert np.isfinite(value), (table.name, row)


@pytest.mark.parametrize("command", ["mean-flow", "spectrum"])
def test_negative_grid_start_exits_two_before_allocating(tmp_path, capsys, monkeypatch, command):
    # flows run forward from t = 0: a grid starting below 0 is refused
    # before any grid array exists, from the flag and from the config alike
    monkeypatch.setattr(np, "linspace", lambda *a, **k: pytest.fail("grid allocated"))
    out = tmp_path / "o"
    assert cli.main([command, "--config", REPO_CONFIG, "--out", str(out), "--grid=-0.5:1:7"]) == 2
    assert capsys.readouterr().err == "config error: --grid must start at t0 >= 0, got -0.5\n"
    cfgpath = qubit_config(tmp_path, grid=[-1e-300, 1, 7])
    assert cli.main([command, "--config", cfgpath, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "config error: analysis.grid must start at t0 >= 0, got -1e-300\n"
    assert not os.listdir(out)


def test_oracle_reraises_a_linear_algebra_failure_of_the_steady_mean(tmp_path, capsys, monkeypatch):
    # LinAlgError is a ValueError, but it is a numeric failure, not a drift
    # that is not Hurwitz, so no stationary check is reported as skipped
    def singular(coeffs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(qsde, "steady_mean", singular)
    out = tmp_path / "o"
    assert cli.main(["oracle", "--config", REPO_CONFIG, "--out", str(out)]) == 4
    captured = capsys.readouterr()
    assert captured.err == "numeric failure: Singular matrix\n"
    assert "skipped" not in captured.out
    assert not os.listdir(out)


FUZZ_VALUES = [float("nan"), -1e300, [], "x", None, True, [0, 1]]
FUZZ_COMMANDS = [[command] for command in sorted(cli.COMMANDS)] + [["oracle", "--composite"]]


def _leaf_paths(node, path=()):
    """Paths of the leaves of a JSON tree: scalars and lists of scalars' entries."""
    if isinstance(node, dict):
        return [p for key, child in node.items() for p in _leaf_paths(child, path + (key,))]
    if isinstance(node, list):
        return [p for i, child in enumerate(node) for p in _leaf_paths(child, path + (i,))]
    return [path]


def fuzz_cases(count=None, seed=20):
    """(leaf path, value, argv) triples over every leaf of the bundled config,
    every value of FUZZ_VALUES and every command; all of them, or a seeded
    sample of `count`."""
    with open(REPO_CONFIG) as fh:
        leaves = _leaf_paths(json.load(fh))
    cases = [(path, value, argv) for path in leaves for value in FUZZ_VALUES for argv in FUZZ_COMMANDS]
    if count is None:
        return cases
    picks = np.random.default_rng(seed).choice(len(cases), size=count, replace=False)
    return [cases[i] for i in sorted(picks)]


def test_commands_on_mutated_configs_exit_cleanly(tmp_path, capsys):
    # one leaf of the bundled config replaced by a bad value: every command
    # exits with a known code and no traceback (an exception or warning
    # escaping main fails the test), and every CSV cell written is finite
    with open(REPO_CONFIG) as fh:
        base = json.load(fh)
    cases = fuzz_cases(count=600)
    assert len(_leaf_paths(base)) * len(FUZZ_VALUES) * len(FUZZ_COMMANDS) == 4116
    for i, (path, value, argv) in enumerate(cases):
        cfgpath = tmp_path / ("c%d.json" % i)
        cfgpath.write_text(json.dumps(_edit(base, path, value)))
        out = tmp_path / ("o%d" % i)
        code = cli.main([*argv, "--config", str(cfgpath), "--out", str(out)])
        assert code in (0, 2, 3, 4), (path, value, argv)
        assert "Traceback" not in capsys.readouterr().err
        for table in out.iterdir() if out.exists() else []:
            for row in list(csv.reader(table.read_text().splitlines()))[1:]:
                for cell in row:
                    try:
                        number = float(cell)
                    except ValueError:
                        continue
                    assert np.isfinite(number), (path, value, argv, table.name, row)


GOLDEN_CONFIGS = pathlib.Path(__file__).parent / "golden"


def _complex_alpha_one_step():
    with open(REPO_CONFIG) as fh:
        cfg = json.load(fh)
    beta = [[[[0, x] if x else 0 for x in row] for row in section] for section in model.PAULI_THETA.tolist()]
    cfg["systems"]["qubit"]["constants"] = {"alpha": [[1, [0, 0.3], 0], [[0, -0.3], 1, 0], [0, 0, 1]], "beta": beta}
    cfg["analysis"]["grid"] = [0, 5, 1]
    return cfg


def _broken_factor_bad_seed():
    cfg = pair_config()
    sections = [[[[z.real, z.imag + 1e-6] for z in row] for row in sec] for sec in model.pauli_constants().beta]
    cfg["systems"]["qubit_b"]["constants"]["beta"] = sections
    cfg["analysis"]["seed"] = "x"
    return cfg


# name: (argv, config file or builder, message); each config fails numerically too
SETTINGS_BEFORE_NUMERICS = {
    "weak eps on repeated frequencies": (
        ["weak", "--eps", "abc"], GOLDEN_CONFIGS / "gellmann-dense.json", "--eps must be a comma separated float list"
    ),
    "decoherence seed on a lossless qubit": (
        ["decoherence"], GOLDEN_CONFIGS / "refuse-lossless-seed.json", "analysis.seed must be an integer >= 0, got -1"
    ),
    "composite seed on a broken factor": (["composite"], _broken_factor_bad_seed, "analysis.seed must be an integer >= 0, got 'x'"),
    "mean-flow grid on a complex alpha": (["mean-flow"], _complex_alpha_one_step, "grid needs t1 > t0 and at least 2 steps"),
}


@pytest.mark.parametrize("case", sorted(SETTINGS_BEFORE_NUMERICS))
def test_bad_setting_exits_two_before_numeric_work(tmp_path, capsys, case):
    # every setting that does not need n is read before the system or
    # composite is built or analysed, so a bad one is a config error
    argv, path, message = SETTINGS_BEFORE_NUMERICS[case]
    if callable(path):
        cfg, path = path(), tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert cli.main(argv[:1] + ["--config", str(path), "--out", str(out)] + argv[1:]) == 2
    assert capsys.readouterr().err == "config error: %s\n" % message
    assert not out.exists() or os.listdir(out) == []
