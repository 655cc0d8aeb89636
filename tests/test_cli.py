import json
import os

import numpy as np
import pytest

from quasilin import cli, model

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
