import json
import os

import numpy as np
import pytest

from quasilin import cli, model, modes, qsde

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
    rows = open(os.path.join(out, "steady.csv")).read().strip().splitlines()
    assert rows[0] == "component,value"
    vals = [float(r.split(",")[1]) for r in rows[1:4]]
    np.testing.assert_allclose(vals, [0.0, 0.0, 1.0], atol=1e-12)


def test_config_errors_exit_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["steady", "--config", str(bad), "--out", str(tmp_path)]) == 2
    missing = tmp_path / "missing.json"
    assert cli.main(["steady", "--config", str(missing), "--out", str(tmp_path)]) == 2
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"systems": {}}))
    assert cli.main(["validate", "--config", str(empty), "--out", str(tmp_path)]) == 2


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
    rows = open(os.path.join(out, "validate.csv")).read().strip().splitlines()
    name, passed, violations = rows[1].split(",")[:3]
    assert name == "broken" and passed == "0" and int(violations) > 0


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
    rows = open(os.path.join(out, "validate.csv")).read().strip().splitlines()
    assert rows[1].split(",")[:2] == ["nan", "0"]


def test_qcf_direction_option(tmp_path):
    cfgpath = qubit_config(tmp_path, qcf_u=[[0.0, 0.0, 1.0]])
    out = str(tmp_path / "o")
    assert cli.main(["qcf", "--config", cfgpath, "--out", out]) == 0
    rows = open(os.path.join(out, "qcf.csv")).read().strip().splitlines()
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
    assert ("NaN" if t1 == "nan" else "Infinity") in open(cfgpath).read()
    assert cli.main([command, "--config", cfgpath, "--out", str(out)]) == 2
    assert not os.listdir(out)


def test_analysis_grid_with_non_numeric_field_exits_two(tmp_path):
    cfgpath = qubit_config(tmp_path, grid=[0.0, 2.0, "many"])
    assert cli.main(["mean-flow", "--config", cfgpath, "--out", str(tmp_path / "o")]) == 2


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
    as "qubit.E" or "E12" or "mu0" to a replacement value."""
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
        else:
            name, key = path.split(".")
            target = cfg["systems"][name]
            (target["constants"] if key == "beta" else target)[key] = value
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
        ("complex M", "qubit.M", _edit(ROWS, (0, 0), [1.0, 0.5]), (1, 1), "system 'qubit': coupling must be finite"),
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


def test_complex_coupling_and_offset_are_accepted(tmp_path):
    path = tmp_path / "complex.json"
    path.write_text(json.dumps(pair_config(**{"qubit.M": _edit(ROWS, (0, 2), [0.0, 0.5]), "qubit.N": [[0.1, 0.2], 0.0]})))
    assert cli.main(["steady", "--config", str(path), "--out", str(tmp_path / "o")]) == 0


def test_qcf_u_refusals_exit_two(tmp_path, capsys):
    out = tmp_path / "o"
    for qcf_u, message in (
        ([[0.0, [0.0, 1.0], 1.0]], "qcf_u entries must be real"),
        (1.0, "qcf_u must be a list of rows"),
        ([], "qcf_u must be a list of rows"),
        ([[0.0, 0.0, 1.0], [1.0, 0.0]], "qcf_u has ragged rows"),
        ([[0.0, 0.0, True]], "qcf_u must be a number, got a boolean"),
    ):
        cfgpath = qubit_config(tmp_path, qcf_u=qcf_u)
        assert cli.main(["qcf", "--config", cfgpath, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "config error: %s\n" % message
        assert not os.listdir(out)
    cfgpath = qubit_config(tmp_path, qcf_u=[[0.0, 0.0]])
    assert cli.main(["qcf", "--config", cfgpath, "--out", str(out)]) == 4


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
    names = ["plain", 'has,comma and "quote"', "line\nbreak", "", " lead"]
    floats = np.array([-0.0, float("nan"), 1.0 / 3.0, float("inf"), 5e-324])
    ints = np.array([0, -7, 2**62, 1, 3], dtype=np.int64)
    tol = np.full(5, 1e-8)
    passed = (floats <= tol).astype(int)
    rows = [
        (names[i], np.float64(floats[i]), np.int64(ints[i]), float(tol[i]), int(passed[i]))
        for i in range(len(names))
    ]
    header = ["name", "residual", "count", "tol", "pass"]
    ref = _ref_write_csv(str(tmp_path), "ref.csv", header, rows)
    new = cli._write_csv(str(tmp_path), "new.csv", header, [names, floats, ints, tol, passed])
    expected = open(ref, "rb").read()
    assert open(new, "rb").read() == expected
    assert b'"has,comma and ""quote"""' in expected and b"-0," in expected and b"nan" in expected
    empty = cli._write_csv(str(tmp_path), "empty.csv", header, [[], np.zeros(0), np.zeros(0, dtype=int), [], []])
    assert open(empty, "rb").read() == b"name,residual,count,tol,pass\r\n"


def test_coeffs_and_modes_tables_match_row_loops(tmp_path):
    cfg = cli._load_config(REPO_CONFIG)
    name, entry = cfg.system()
    coeffs = qsde.build_coefficients(entry["spec"])
    rows = []
    for label, mat in (("a", coeffs.a), ("a0", coeffs.a0), ("atilde", coeffs.atilde)):
        for i in range(coeffs.n):
            for j in range(coeffs.n):
                rows.append((label, i, j, float(np.real(mat[i, j])), float(np.imag(mat[i, j]))))
    for i in range(coeffs.n):
        rows.append(("b", i, 0, float(np.real(coeffs.b[i])), float(np.imag(coeffs.b[i]))))
    ref = _ref_write_csv(str(tmp_path), "coeffs_ref.csv", ["block", "row", "col", "re", "im"], rows)
    md = modes.eigenmodes(coeffs.a0, entry["spec"].constants.alpha)
    mrows = [
        (k, c, float(md.omegas[k]), float(md.vectors[c, k].real), float(md.vectors[c, k].imag))
        for k in range(len(md.omegas))
        for c in range(len(md.omegas))
    ]
    mref = _ref_write_csv(str(tmp_path), "modes_ref.csv", ["mode", "component", "omega", "vec_re", "vec_im"], mrows)
    out = str(tmp_path / "o")
    assert cli.main(["coeffs", "--config", REPO_CONFIG, "--out", out]) == 0
    assert cli.main(["modes", "--config", REPO_CONFIG, "--out", out]) == 0
    assert open(os.path.join(out, "coeffs.csv"), "rb").read() == open(ref, "rb").read()
    assert open(os.path.join(out, "modes.csv"), "rb").read() == open(mref, "rb").read()


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
    rows = open(os.path.join(out, "decoherence.csv")).read().splitlines()
    assert rows[1].split(",")[4] == str(seed)
