"""Analysis cycles of one workload: set-up, the measured closed loop, the traced run.

A cycle draws fresh inputs, writes one config, calls `quasilin.cli.main`
once per command of the workload (each call is one timed analysis), then
checks every output against the oracle, untimed.  In the measured loop the
fixed reference computation (calibrate.py) runs once after every analysis,
also untimed, so that each analysis can be scaled to reference speed; the
warm-up cycle runs it SETUP_REFERENCES times after each analysis.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import shutil
import sys
import time
from collections import Counter

import numpy as np
import scipy
import quasilin.cli as cli

from . import calibrate, checks, gen, metrics, tracing, workloads

# The warm-up cycle has only one analysis per command, so more reference
# runs follow each.  The loop runs one: a reference run right after an
# analysis starts on caches the analysis filled, as the analyses do, and
# tracks the memory-bound analyses of composite-35 better than the faster
# back-to-back runs that follow it.
SETUP_REFERENCES = 8


class Runner:
    """Draws, runs and checks analysis cycles of one workload."""

    def __init__(self, workload, seed, workdir):
        self.workload, self.seed = workload, seed
        self.ops = workloads.OPS[workload]
        self.algs = gen.algebras(workload)
        self.checker = checks.Checker(next(iter(self.algs.values())))
        self.config = os.path.join(workdir, "config.json")
        self.out = os.path.join(workdir, "out")
        self.tracer = None
        self.references = 0
        self.analyses = 0

    def call(self, op, out_dir):
        """One analysis: (CPU seconds, wall seconds, exit code or None on a crash, its output, reference seconds).

        The worker runs one thread (BLAS included), so the CPU time of the
        call is its wall time less any time the process was not running.
        The reference seconds are a tuple of `self.references` runs.
        """
        argv = op.split() + ["--config", self.config, "--out", out_dir]
        sink = io.StringIO()
        self.analyses += 1
        if self.tracer:
            self.tracer.begin(self.analyses)
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start, cpu = time.perf_counter(), time.process_time()
            try:
                rc = cli.main(argv)
            except Exception as e:  # a crash fails this analysis, not the benchmark
                rc = None
                print("%s: %s" % (type(e).__name__, e))
            cpu, wall = time.process_time() - cpu, time.perf_counter() - start
        if self.tracer:
            self.tracer.end()
        refs = tuple(calibrate.reference() for _ in range(self.references))
        return cpu, wall, rc, sink.getvalue().strip(), refs

    def cycle(self, phase, index, ops, tally):
        """Run `ops` on the inputs of (phase, index), then check them; returns their outcomes."""
        cfg = gen.draw_config(self.workload, self.algs, self.seed, phase, index)
        with open(self.config, "w") as fh:
            json.dump(cfg, fh)
        shutil.rmtree(self.out, ignore_errors=True)
        dirs = {op: os.path.join(self.out, op.replace(" --", "-")) for op in ops}
        calls = [(op,) + self.call(op, dirs[op]) for op in ops]
        system = cfg["systems"][cfg["analysis"]["system"]]
        outcomes = []
        for op, seconds, wall, rc, output, refs in calls:
            reason = None
            if rc != 0:
                reason = "exit %s: %s" % (rc, output[-300:])
            else:
                try:
                    self.checker.check(op, dirs[op], system)
                except checks.CheckFailed as e:
                    reason = "check: %s" % e
            outcomes.append(tally.add(op, seconds, reason, wall, refs))
        return outcomes

    def warm_up(self):
        """One calibrated cycle over every command on inputs of its own; returns its Tally."""
        tally = metrics.Tally()
        self.references = SETUP_REFERENCES
        self.cycle(0, 0, self.ops, tally)
        self.references = 0
        return tally

    def probe(self):
        """The workload's known-defect probe, if it has one: one analysis on its own inputs."""
        op = workloads.PROBE.get(self.workload)
        if op is None:
            return None
        (outcome,) = self.cycle(2, 0, (op,), metrics.Tally())
        return {"op": op, "ms": 1e3 * outcome.seconds, "failed": outcome.reason is not None, "reason": outcome.reason}


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
    }


def measure(runner, seconds):
    """The closed loop with one client: whole cycles until `seconds` of wall time have passed."""
    tally = metrics.Tally()
    cycles = 0
    runner.references = 1
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        runner.cycle(1, cycles, runner.ops, tally)
        cycles += 1
    runner.references = 0
    return dict(
        metrics.loop_metrics(tally, runner.ops, calibrate.REFERENCE_S),
        cycles=cycles,
        attempted=tally.attempted,
        failed=tally.failed,
        reasons=dict(tally.reasons()),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        probe=runner.probe(),
        raw=[(o.op, o.seconds, o.wall, o.refs, o.reason is None) for o in tally.outcomes],
    )


def trace(runner, seconds, spans_path):
    """Alternate untraced and traced cycles on distinct inputs, then report per layer.

    The number of cycle pairs follows from `seconds` and the workload's
    nominal cycle time, so a seed and a duration fix every call count.
    """
    pairs = max(2, round(seconds / (2 * workloads.NOMINAL_CYCLE_S[runner.workload])))
    plain, traced = metrics.Tally(), metrics.Tally()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for i in range(pairs):
            runner.cycle(1, 2 * i, runner.ops, plain)
            runner.tracer = tracer
            runner.cycle(1, 2 * i + 1, runner.ops, traced)
            runner.tracer = None
        runner.tracer = tracer
        known = runner.probe()
    finally:
        runner.tracer = None
        tracer.uninstall()
    ops = Counter(o.op for o in traced.outcomes)
    if known:
        ops[known["op"]] += 1
    layers = metrics.layer_metrics(tracer.spans, ops)
    layers["trace.overhead_frac"] = sum(o.seconds for o in traced.outcomes) / sum(o.seconds for o in plain.outcomes) - 1.0
    write_spans(spans_path, tracer.spans)
    return {
        "pairs": pairs,
        "attempted": plain.attempted + traced.attempted,
        "failed": plain.failed + traced.failed,
        "reasons": dict(plain.reasons() + traced.reasons()),
        "layers": layers,
        "span_count": len(tracer.spans),
        "probe": known,
    }


def write_spans(path, spans):
    """Every span of the traced run as CSV, with its self time."""
    with open(path, "w") as fh:
        fh.write("id,name,analysis,parent,start_s,end_s,self_s,error\n")
        for i, (s, own) in enumerate(zip(spans, tracing.self_times(spans))):
            parent = "" if s.parent is None else s.parent
            fh.write("%d,%s,%d,%s,%.9f,%.9f,%.9f,%d\n" % (i, s.name, s.analysis, parent, s.start, s.end, own, s.error))
