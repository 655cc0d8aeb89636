"""quasilin benchmark: three oracle-checked CLI workloads, end to end and per layer.

    python3 bench/run.py --workload pauli-sweep --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --all --seed 1 --seconds 20

Run from a checkout that holds src/quasilin.  One run of a workload starts
fresh worker processes (bench/worker.py) with single-threaded BLAS: with
`--trace 0` one that sets up and runs the closed loop for `--seconds`, and
one before it and one after it that only set up; `setup_s` is the median
set-up of all three.  With
`--trace 1` one worker alternates untraced and traced cycles and reports the
per-layer metrics.

Every timing is the CPU time of the single-threaded worker, scaled to
reference speed: a fixed reference computation (bench/calibrate.py) runs
after each analysis, and each time is multiplied by REFERENCE_S over the
reference times measured around it; a set-up is scaled by the reference
runs of its warm-up.  On a shared host the same work runs up to 1.7x
slower for seconds to minutes at a time; the scaling takes that out, and
CPU time leaves out the time the worker waited for a processor.  The raw
wall and CPU medians go into the record.  The last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`; the full record
(environment, sample counts, tail percentile, failure reasons, the
known-defect probe) goes to standard error and to .bench_out/.

`--all` runs every workload untraced and traced and prints each metric by
name with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

# Both are numpy-free: the orchestrator itself imports no numpy.
from bench.metrics import per_layer_names  # noqa: E402
from bench.workloads import OPS  # noqa: E402

SETUP_SAMPLES = 3
RUN_LIMIT_S = 170.0
# Workers run BLAS on one thread: on a 2-core box OpenBLAS's default threads
# made gellmann-dense's spectrum take 0.6-1.7 s instead of ~55 ms, and vary
# with every run.  A fixed hash seed keeps dict and set order repeatable.
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}

# (name, unit) of the end-to-end metrics; every workload runs these commands.
COMMAND_METRICS = {"validate": "validate_ms", "mean-flow": "mean_flow_ms", "steady": "steady_ms", "decoherence": "decoherence_ms"}
END_TO_END = [
    ("setup_s", "s"),
    ("analyses_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
] + [(name, "ms") for name in COMMAND_METRICS.values()]


class BenchError(Exception):
    """The benchmark could not run; nothing is reported."""


def _traced(run):
    """The traced run: per-layer metrics, spans kept in .bench_out."""
    rec = run("trace")
    spans = os.path.join(run.outdir, "spans-%s-seed%d.csv" % (run.workload, run.seed))
    shutil.move(rec.pop("spans_file"), spans)
    rec["spans_file"] = os.path.relpath(spans, ROOT)
    return rec, rec["layers"]


def _measured(run):
    """The measured loop plus set-up samples: end-to-end metrics.

    Half of the set-up-only workers run before the loop and half after, so
    that one slow stretch of the machine does not set the median.
    """
    before = [run("setup") for _ in range(SETUP_SAMPLES // 2)]
    rec = run("measure")
    after = [run("setup") for _ in range(SETUP_SAMPLES - 1 - SETUP_SAMPLES // 2)]
    setups = before + [rec] + after
    rec["setup_samples_s"] = [s["setup_s"] for s in setups]
    rec["setup_wall_samples_s"] = [s["setup_wall_s"] for s in setups]
    rec["warmup_failures"] = [r for s in setups for r in s["warmup_failures"]]
    values = {name: rec.get(name) for name, _ in END_TO_END}
    values["setup_s"] = statistics.median(rec["setup_samples_s"])
    for op, name in COMMAND_METRICS.items():
        values[name] = rec["op_ms"][op]
    return rec, values


class _Run:
    """Starts the worker processes of one benchmark run."""

    def __init__(self, workload, seed, seconds):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.workdir = os.path.join(ROOT, ".bench_work", "%s-%d-%d" % (workload, seed, os.getpid()))
        self.outdir = os.path.join(ROOT, ".bench_out")
        self.deadline = time.monotonic() + RUN_LIMIT_S

    def __call__(self, mode):
        cmd = [
            sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT, "--workdir", self.workdir,
            "--workload", self.workload, "--seed", str(self.seed), "--seconds", str(self.seconds), "--mode", mode,
        ]
        env = dict(os.environ, **WORKER_ENV)
        env.pop("PYTHONPATH", None)
        try:
            proc = subprocess.run(
                cmd, env=env, capture_output=True, text=True, timeout=max(1.0, self.deadline - time.monotonic())
            )
        except subprocess.TimeoutExpired:
            raise BenchError("%s worker for %s did not finish in time" % (mode, self.workload))
        if proc.returncode != 0:
            raise BenchError("%s worker for %s exited %d:\n%s" % (mode, self.workload, proc.returncode, proc.stderr[-2000:]))
        return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload, seed, seconds, trace):
    """One benchmark run: (result line, full record)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "quasilin", "__init__.py")):
        raise BenchError("no src/quasilin under %s: run from a quasilin checkout" % ROOT)
    run = _Run(workload, seed, seconds)
    subprocess.run([sys.executable, "-m", "compileall", "-q", os.path.join(ROOT, "src"), HERE], check=True)
    os.makedirs(run.outdir, exist_ok=True)
    try:
        rec, values = (_traced if trace else _measured)(run)
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)
    units = per_layer_names() if trace else END_TO_END
    probe = rec.get("probe")
    probe_ok = probe is None or not probe["failed"] or known_defect(probe)
    correct = rec["failed"] == 0 and not rec["warmup_failures"] and probe_ok
    rec.update(workload=workload, seed=seed, seconds=seconds, trace=int(trace))
    with open(os.path.join(run.outdir, "record-%s-seed%d-trace%d.json" % (workload, seed, int(trace))), "w") as fh:
        json.dump(rec, fh, indent=1)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units}
    line = {"correct": correct, "attempted": rec["attempted"], "failed": rec["failed"], "metrics": metrics}
    return line, rec


def known_defect(probe):
    """True when the probe fails the way the composite block-drift defect makes it: a numeric refusal."""
    return (probe["reason"] or "").startswith("exit 4")


def summary(line, rec):
    """Human-readable lines: every metric with its unit, sample counts, failures, the probe."""
    out = ["== %s (seed %d, %s)" % (rec["workload"], rec["seed"], "traced" if rec["trace"] else "untraced")]
    for name, m in line["metrics"].items():
        out.append("  %-44s %14.6g %s" % (name, m["value"], m["unit"]))
    if not rec["trace"]:
        out.append("  latency_tail_ms is p%.2f (%d of %d samples beyond it)" % (rec["tail_percentile"], rec["tail_beyond"], rec["samples"]))
        out.append("  command medians (ms, samples): " + ", ".join(
            "%s %.3f (%d)" % (op, ms, rec["op_samples"][op]) for op, ms in rec["op_ms"].items()))
        out.append("  command wall medians (ms): " + ", ".join("%s %.3f" % kv for kv in rec["op_wall_ms"].items()))
        out.append("  reference (ms): %s" % json.dumps(rec["reference_ms"]))
        out.append("  setup samples (s): " + " ".join("%.4f" % s for s in rec["setup_samples_s"]))
        out.append("  setup wall samples (s): " + " ".join("%.4f" % s for s in rec["setup_wall_samples_s"]))
    else:
        out.append("  %d traced and %d untraced cycles, %d spans in %s" % (rec["pairs"], rec["pairs"], rec["span_count"], rec["spans_file"]))
    out.append("  attempted %d, failed %d, failed_frac %.4g, correct %s" % (
        line["attempted"], line["failed"], line["failed"] / line["attempted"], line["correct"]))
    for reason, count in rec["reasons"].items():
        out.append("  FAILED x%d %s" % (count, reason))
    probe = rec.get("probe")
    if probe:
        if not probe["failed"]:
            out.append("  probe %s: passed its output checks (%.1f ms)" % (probe["op"], probe["ms"]))
        else:
            label = "known defect" if known_defect(probe) else "UNEXPECTED"
            out.append("  probe %s FAILED (%s), untimed, not in attempted: %s" % (probe["op"], label, probe["reason"]))
    out.append("  environment: %s" % json.dumps(rec["environment"]))
    return "\n".join(out)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=sorted(OPS))
    p.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.all == (args.workload is not None):
        p.error("give exactly one of --workload and --all")
    try:
        if args.all:
            for workload in OPS:
                for trace in (0, 1):
                    line, rec = run_workload(workload, args.seed, args.seconds, trace)
                    print(summary(line, rec), flush=True)
            return 0
        line, rec = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as e:
        print("benchmark error: %s" % e, file=sys.stderr)
        return 1
    print(summary(line, rec), file=sys.stderr)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
