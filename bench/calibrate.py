"""A fixed reference computation that measures how fast the machine runs right now.

On a shared host the same fixed work runs up to 1.7x slower for stretches
of seconds to minutes, in wall time and in CPU time alike (other tenants
share caches, memory bandwidth and clock).  The loop runs `reference()`
after every analysis and divides each analysis's time by the reference
times around it (metrics.at_reference_speed); a set-up is divided by the
median reference time of its warm-up.  The benchmark reports times at the
reference speed `REFERENCE_S`.  The reference uses only json, numpy and
scipy, never quasilin, and mixes the kinds of work an analysis does: JSON
parsing and Python loops, small einsums and dense LAPACK kernels.
"""

from __future__ import annotations

import io
import json
import time

import numpy as np
import scipy.linalg

# CPU seconds of one reference() interleaved with analyses on a quiet 2-core
# x86 box with single-threaded OpenBLAS, so that reported times there are
# close to the measured ones.  Reported times are scaled to this speed.
REFERENCE_S = 1.5e-3

_rng = np.random.default_rng(20221013)
_DOC = json.dumps({"m%d" % i: _rng.standard_normal((6, 6)).round(12).tolist() for i in range(12)})
_T = _rng.standard_normal((8, 8, 8))
_A = _rng.standard_normal((24, 24)) / 6 - 2 * np.eye(24)
_B = _rng.standard_normal((64, 64)) / 16
_S = _rng.standard_normal((96, 96)) + 96 * np.eye(96)
_RHS = _rng.standard_normal(96)


def _work() -> float:
    doc = json.loads(_DOC)
    out = io.StringIO()
    acc = 0.0
    for key, rows in doc.items():
        for row in rows:
            out.write(",".join("%.17g" % v for v in row) + "\n")
            acc += sum(row)
    acc += float(np.einsum("ijk,jkl->il", _T, _T).sum())
    acc += float(np.einsum("ijk,lk->ijl", _T, _T[0]).sum())
    acc += float(scipy.linalg.expm(_A).trace())
    acc += float(scipy.linalg.expm(_B).trace())
    acc += float(np.linalg.solve(_S, _RHS).sum())
    return acc + len(out.getvalue())


_work()  # the first run pays for lazy set-up in json, numpy and scipy


def reference() -> float:
    """CPU seconds of one run of the fixed reference computation."""
    start = time.process_time()
    _work()
    return time.process_time() - start

