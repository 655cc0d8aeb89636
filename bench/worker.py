"""One workload process, started by run.py in a fresh interpreter.

Set-up is `import quasilin.cli` (numpy and scipy included) plus one warm-up
analysis per command of the workload; the benchmark's own input
generation and output checks are left out of it.  It is timed in CPU
seconds and scaled to reference speed by the reference computation run
after each warm-up analysis (calibrate.py).  With `--mode setup` the process stops there; `measure`
runs the closed loop and `trace` the traced run (see loop.py).  Prints one
JSON object on its last line of output.
"""

import argparse
import json
import os
import statistics
import sys
import time


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--root", required=True, help="checkout holding src/quasilin and bench")
    p.add_argument("--workdir", required=True, help="directory for configs, CSV output and spans")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    args = p.parse_args(argv)

    root = os.path.abspath(args.root)
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    start, cpu = time.perf_counter(), time.process_time()
    import quasilin.cli

    import_s, import_wall_s = time.process_time() - cpu, time.perf_counter() - start
    if not os.path.abspath(quasilin.cli.__file__).startswith(src + os.sep):
        raise SystemExit("quasilin was imported from %s, not from %s" % (quasilin.cli.__file__, src))

    sys.path.insert(0, root)
    from bench import calibrate, loop

    os.makedirs(args.workdir, exist_ok=True)
    runner = loop.Runner(args.workload, args.seed, args.workdir)
    warm = runner.warm_up()
    setup_cpu_s = import_s + sum(o.seconds for o in warm.outcomes)
    ref = statistics.median(r for o in warm.outcomes for r in o.refs)
    result = {
        "setup_s": setup_cpu_s * calibrate.REFERENCE_S / ref,
        "setup_cpu_s": setup_cpu_s,
        "setup_wall_s": import_wall_s + sum(o.wall for o in warm.outcomes),
        "import_s": import_s,
        "reference_s": ref,
        "warmup_failures": [o.reason for o in warm.outcomes if o.reason],
    }
    if args.mode == "measure":
        result.update(loop.measure(runner, args.seconds), environment=loop.environment())
    elif args.mode == "trace":
        spans = os.path.join(args.workdir, "spans.csv")
        result.update(loop.trace(runner, args.seconds, spans), spans_file=spans, environment=loop.environment())
    print(json.dumps(result))


if __name__ == "__main__":
    main()
