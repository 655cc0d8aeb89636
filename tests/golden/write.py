"""Golden outputs of the command line, and the script that rewrites them.

Each run is one in-process `quasilin.cli.main` call on a committed config:
the 12 commands on `configs/pauli.json`, each benchmark workload's commands
on its config here (`weak` refuses the repeated zero frequencies of the
qutrit and composite workloads), and one refusing config per exit code 2, 3
and 4, plus a bad setting on a system that fails numerically, constants that
fail `validate` (a FAIL line, exit 4), a non-Hermitian beta section that
`spectrum` and `modes` refuse, a singular alpha that `modes` refuses, and a
dephasing qubit whose `weak` run reports a vanishing zero-mode rate
(exit 0).  `manifest.json` records
each run's command line, exit code, stdout and stderr (the output directory
written as <out>), and `expected/<run>/` holds the CSV tables it wrote.
`tests/test_golden.py` reruns every run and compares.

The workload configs were drawn once, with
`bench.gen.draw_config(workload, bench.gen.algebras(workload), 1, 1, 0)`,
and are committed so that no generator change can move them unnoticed;
nothing here draws them again.  After a change that moves an output on
purpose, rewrite the expected outputs with

    PYTHONPATH=src python tests/golden/write.py

in the same commit, and name each moved file in CHANGES.md.  Entries move
in the last digits with the BLAS thread count, so the script re-executes
itself with one BLAS thread before it imports numpy, as the benchmark runs.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import pathlib
import shutil
import sys
import tempfile

ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
if __name__ == "__main__" and any(os.environ.get(k) != v for k, v in ONE_THREAD.items()):
    os.execve(sys.executable, [sys.executable] + sys.argv, {**os.environ, **ONE_THREAD})

from quasilin import cli

HERE = pathlib.Path(__file__).resolve().parent
REPO = HERE.parent.parent
EXPECTED = HERE / "expected"
MANIFEST = HERE / "manifest.json"

ALL_OPS = (
    "validate", "coeffs", "mean-flow", "steady", "qcf", "spectrum", "modes",
    "decoherence", "weak", "composite", "oracle", "oracle --composite",
)
# config (relative to the repository root) -> the commands run on it
RUNS = {
    "configs/pauli.json": ALL_OPS,
    "tests/golden/pauli-sweep.json": ALL_OPS,
    "tests/golden/gellmann-dense.json": ALL_OPS[:9],  # validate through weak
    "tests/golden/composite-35.json": ("validate", "coeffs", "mean-flow", "steady", "qcf", "modes", "decoherence", "weak"),
    "tests/golden/refuse-no-e12.json": ("composite",),
    "tests/golden/refuse-grid-steps.json": ("mean-flow",),
    "tests/golden/refuse-lossless.json": ("decoherence",),
    "tests/golden/refuse-lossless-seed.json": ("decoherence",),
    "tests/golden/refuse-complex-alpha.json": ("validate",),
    "tests/golden/refuse-theta-asym.json": ("spectrum", "modes"),
    "tests/golden/refuse-singular-alpha.json": ("modes",),
    "tests/golden/dephasing.json": ("weak",),
}


def run_id(config, op):
    """The run's name: config stem and command, e.g. pauli.oracle-composite."""
    return "%s.%s" % (pathlib.Path(config).stem, op.replace(" --", "-"))


def run(argv, out_dir):
    """(exit code, stdout, stderr) of `quasilin.cli.main` on `argv` writing into
    `out_dir`; config paths in argv are relative to the repository root, and
    the output text names them so and the output directory as <out>."""
    argv = list(argv)
    i = argv.index("--config") + 1
    argv[i] = str(REPO / argv[i])
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv + ["--out", str(out_dir)])

    def normal(text):
        return text.replace(str(out_dir), "<out>").replace(str(REPO) + os.sep, "")

    return code, normal(stdout.getvalue()), normal(stderr.getvalue())


def main():
    shutil.rmtree(EXPECTED, ignore_errors=True)
    runs = []
    with tempfile.TemporaryDirectory() as scratch:
        for config, ops in RUNS.items():
            for op in ops:
                name = run_id(config, op)
                out = pathlib.Path(scratch, name)
                argv = op.split() + ["--config", config]
                code, stdout, stderr = run(argv, out)
                tables = sorted(os.listdir(out)) if out.exists() else []
                if tables:
                    shutil.copytree(out, EXPECTED / name)
                runs.append({"id": name, "argv": argv, "exit": code, "stdout": stdout, "stderr": stderr, "csv": tables})
    with open(MANIFEST, "w") as fh:
        json.dump({"runs": runs}, fh, indent=1)
        fh.write("\n")
    print("wrote %d runs to %s" % (len(runs), MANIFEST.relative_to(REPO)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
