"""The benchmark's workloads: which CLI commands one analysis cycle runs, and why.

Each cycle draws fresh inputs and runs every command of its workload once,
in this order, on the config generated for it.
"""

OPS = {
    # n = 3 qubit plus the n = 15 Pauli x Pauli composite: warm analyses take
    # 1-45 ms, so per-call Python work dominates (config parsing and CSV writing
    # in cli, the expm scan and bisection of decoherence.tau_star, the
    # column-by-column oracle superoperator, repeated augment_constants).
    # Dense kernels do little; this workload must not slow down when one lands.
    "pauli-sweep": (
        "validate", "coeffs", "mean-flow", "steady", "qcf", "spectrum", "modes",
        "decoherence", "weak", "composite", "oracle", "oracle --composite",
    ),
    # Qutrit Gell-Mann algebra (n = 8), constants written explicitly: spectrum's
    # 41 dense expm calls on the 64 x 64 second-moment generator dominate.
    # weak is left out because it correctly refuses (two zero frequencies).
    "gellmann-dense": (
        "validate", "coeffs", "mean-flow", "steady", "qcf", "spectrum", "modes", "decoherence",
    ),
    # Pauli x qutrit tensor-product variables (n = 35, ~260 KB config): the n^4
    # einsums of model.validate and the 1225 x 1225 Kronecker solves of
    # decoherence.lyapunov_G dominate; the cheap commands are mostly config
    # parsing.  spectrum (n > 16) and oracle (not Pauli) refuse by design.
    "composite-35": (
        "validate", "coeffs", "mean-flow", "steady", "qcf", "modes", "decoherence",
    ),
}

# Run once per run after the timed loop, never timed: `composite` on the
# (qubit, qutrit) pair of composite-35.  composite.composite_coefficients is
# wrong when a factor is not Pauli and has field coupling, so when this
# benchmark was written the probe exited 4 every time.  Its outcome and reason
# go into every record; it is left out of `attempted` and of every timing.
PROBE = {"composite-35": "composite"}

# Which end-to-end metric a layer metric should move, and where (a change to
# one layer should show here, and leave the other workloads unchanged):
#   cli.self_s                              latency_p50_ms, analyses_per_s,
#                                           steady_ms, mean_flow_ms on pauli-sweep
#                                           and composite-35; not on gellmann-dense
#   second_moment.pi_trace_flow, .expm      analyses_per_s (spectrum) on gellmann-dense
#   decoherence.lyapunov_G                  decoherence_ms on composite-35, then
#                                           gellmann-dense; not on pauli-sweep
#   decoherence.tau_star, decoherence.expm  decoherence_ms on pauli-sweep; not composite-35
#   model.validate                          validate_ms, peak_rss_mb on composite-35
#   composite.augment_constants             pauli-sweep (composite, oracle --composite)
#   oracle.heisenberg_superoperator         analyses_per_s on pauli-sweep only
#   qsde.mean_flow, qsde.expm               mean_flow_ms everywhere, a small share

# Wall seconds of one cycle with its input generation and checks on a 2-core
# x86 box with single-threaded BLAS; sets how many cycle pairs a traced run makes.
NOMINAL_CYCLE_S = {"pauli-sweep": 0.15, "gellmann-dense": 0.15, "composite-35": 2.0}
