"""Turning analysis outcomes and spans into the reported numbers."""

from __future__ import annotations

import statistics
from collections import Counter
from dataclasses import dataclass, field

from .tracing import EXPM_LAYERS, LAYERS, Span, is_kernel, layer_of, self_times

# Functions whose call count and total time are reported one by one.
TRACKED = (
    "model.validate",
    "composite.augment_constants",
    "composite.composite_coefficients",
    "composite.augmented_system",
    "composite.composite_dispersion",
    "qsde.build_coefficients",
    "qsde.mean_flow",
    "qsde.steady_mean",
    "qsde.qcf",
    "second_moment.lambda_operator",
    "second_moment.lambda_hermitian_abscissa",
    "second_moment.pi_trace_flow",
    "modes.eigenmodes",
    "decoherence.tau_star",
    "decoherence.optimize_tau_bound",
    "decoherence.lyapunov_G",
    "weak.stability_and_thresholds",
    "weak.eigenvalue_asymptotics_check",
    "oracle.heisenberg_superoperator",
    "oracle.stationary_state",
    "oracle.two_point_commutator",
    "oracle.lindblad_propagate",
    "oracle.generator_identity_check",
)

# Commands that assemble a composite; one augment_constants call each is all they need.
COMPOSITE_OPS = ("composite", "oracle --composite")

TAIL_BEYOND = 10

# Each analysis is scaled by the median of the reference time run right
# after it and of this many more on either side (see calibrate.py).  One
# short reference run is noisier than an analysis, so a single one is not
# enough; a wide window lets slow spells of a few seconds through.
SPEED_WINDOW = 3


def per_layer_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    names = []
    for layer in LAYERS:
        names += [(layer + ".calls", "count"), (layer + ".self_s", "s"), (layer + ".errors", "count")]
    for fn in TRACKED:
        names += [(fn + ".calls", "count"), (fn + ".total_s", "s")]
    for layer in EXPM_LAYERS:
        names += [(layer + ".expm.calls", "count"), (layer + ".expm.s", "s")]
    names += [
        ("composite.augment_constants.per_analysis", "ratio"),
        ("decoherence.tau_star.expm_per_call", "ratio"),
        ("trace.overhead_frac", "ratio"),
    ]
    return names


def tail(samples) -> tuple[float, float, int]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile, samples beyond).  With n sorted samples the
    value of rank n - TAIL_BEYOND (1-based) has TAIL_BEYOND samples above
    it; its percentile is 100 (n - TAIL_BEYOND) / n.  Needs more than
    TAIL_BEYOND samples.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        raise ValueError("a tail needs more than %d samples, got %d" % (TAIL_BEYOND, n))
    rank = n - TAIL_BEYOND
    return ordered[rank - 1], 100.0 * rank / n, TAIL_BEYOND


@dataclass
class Outcome:
    """One analysis: its command, time, and why it failed if it did.

    `seconds` is the CPU time of the call, `wall` its wall time, and `refs`
    the CPU times of the reference computations run right after it.
    """

    op: str
    seconds: float
    reason: str | None = None
    wall: float | None = None
    refs: tuple[float, ...] = ()


@dataclass
class Tally:
    """Attempted and failed analyses; failed ones are left out of every timing."""

    outcomes: list[Outcome] = field(default_factory=list)

    def add(self, op: str, seconds: float, reason: str | None = None, wall: float | None = None, refs=()) -> Outcome:
        outcome = Outcome(op, seconds, reason, wall, tuple(refs))
        self.outcomes.append(outcome)
        return outcome

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    @property
    def failed(self) -> int:
        return sum(o.reason is not None for o in self.outcomes)

    def completed(self, op: str | None = None) -> list[float]:
        return [o.seconds for o in self.outcomes if o.reason is None and op in (None, o.op)]

    def throughput(self) -> float:
        """Completed analyses per second of time spent in analyses, failed ones included."""
        return len(self.completed()) / sum(o.seconds for o in self.outcomes)

    def reasons(self) -> Counter:
        return Counter("%s: %s" % (o.op, o.reason) for o in self.outcomes if o.reason is not None)


def median_ms(samples) -> float:
    return 1e3 * statistics.median(samples)


def local_speed(refs, window: int = SPEED_WINDOW) -> list[float]:
    """For each reference time, the median of the 2 * window + 1 around it (fewer at the ends)."""
    return [statistics.median(refs[max(0, i - window) : i + window + 1]) for i in range(len(refs))]


def at_reference_speed(tally: Tally, reference_s: float) -> Tally:
    """Every analysis's CPU time scaled to a machine on which the reference takes `reference_s`.

    Each analysis must carry one reference time, the run right after it.
    """
    speeds = local_speed([ref for o in tally.outcomes for ref in o.refs])
    if len(speeds) != len(tally.outcomes):
        raise ValueError("need one reference time per analysis")
    return Tally([Outcome(o.op, o.seconds * reference_s / s, o.reason) for o, s in zip(tally.outcomes, speeds)])


def loop_metrics(tally: Tally, ops, reference_s: float) -> dict:
    """End-to-end numbers of a measured loop, with the sample counts behind them.

    Every timing is taken over the whole loop from the analyses' times at
    reference speed (at_reference_speed).  Failed analyses count in
    throughput's time but in no latency.  Needs more than TAIL_BEYOND
    completed analyses.
    """
    scaled = at_reference_speed(tally, reference_s)
    tail_s, pct, beyond = tail(scaled.completed())
    op_ms = {}
    for op in ops:
        # a command that never completed still gets a number; the run is not correct then
        op_ms[op] = median_ms(scaled.completed(op) or [o.seconds for o in scaled.outcomes if o.op == op])
    refs = [r for o in tally.outcomes for r in o.refs]
    return {
        "analyses_per_s": scaled.throughput(),
        "latency_p50_ms": median_ms(scaled.completed()),
        "latency_tail_ms": 1e3 * tail_s,
        "tail_percentile": pct,
        "tail_beyond": beyond,
        "samples": len(tally.completed()),
        "op_ms": op_ms,
        "op_samples": {op: len(tally.completed(op)) for op in ops},
        "op_wall_ms": {op: median_ms([o.wall for o in tally.outcomes if o.op == op and o.reason is None] or [0.0]) for op in ops},
        "op_cpu_ms": {op: median_ms(tally.completed(op) or [0.0]) for op in ops},
        "reference_ms": {"scale": 1e3 * reference_s, "runs": len(refs), "median": median_ms(refs), "min": 1e3 * min(refs), "max": 1e3 * max(refs)},
    }


def layer_metrics(spans: list[Span], analyses_by_op: Counter) -> dict[str, float]:
    """Per-layer totals over the traced spans; every name of per_layer_names except the overhead."""
    out = {name: 0.0 for name, _ in per_layer_names()}
    for span, own in zip(spans, self_times(spans)):
        if is_kernel(span.name):
            out[span.name + ".calls"] += 1
            out[span.name + ".s"] += span.end - span.start
            continue
        layer = layer_of(span.name)
        out[layer + ".calls"] += 1
        out[layer + ".self_s"] += own
        out[layer + ".errors"] += span.error
        if span.name in TRACKED:
            out[span.name + ".calls"] += 1
            out[span.name + ".total_s"] += span.end - span.start
    composite_analyses = sum(analyses_by_op[op] for op in COMPOSITE_OPS)
    if composite_analyses:
        out["composite.augment_constants.per_analysis"] = out["composite.augment_constants.calls"] / composite_analyses
    if out["decoherence.tau_star.calls"]:
        out["decoherence.tau_star.expm_per_call"] = out["decoherence.expm.calls"] / out["decoherence.tau_star.calls"]
    del out["trace.overhead_frac"]
    return out
