"""Machine-speed gauge for calibrated times.

On a shared virtual machine (the 2-vCPU Xeon VM of the reference figures in
README.md) the speed of the same pure-Python work drifts by up to 2x over
minutes, because other tenants share the cores. So a fixed piece of
pure-Python work, the gauge, is timed before every job and after the last
job of a round, and each job's time is reported as
    latency * REF_S / g,
where g is the median of the gauge times around the job (see run.py): the
time the job would take on a machine where the gauge takes REF_S. The gauge
mixes the operations znrank spends its time on: exact rational elimination
on big integers, float elimination in list comprehensions, and JSON text. It
runs with the garbage collector off, so that the size of the program's heap
does not change its time.
"""

import gc
import json
from fractions import Fraction
from time import perf_counter

REF_S = 0.010  # gauge time, in seconds, that calibrated figures refer to

_EXACT = [[Fraction(1, i + j + 1) + (i == j) for j in range(9)] for i in range(9)]
_FLOAT = [[1.0 / (i + j + 1) + (i == j) for j in range(40)] for i in range(40)]
_TEXT = {f"k{i}": [i, str(i), i / 7] for i in range(300)}


def _eliminate(m):
    m = [list(r) for r in m]
    n = len(m)
    for c in range(n):
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for r in range(n):
            if r != c:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return m


def gauge():
    """Seconds the fixed work takes right now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        _eliminate(_EXACT)
        _eliminate(_FLOAT)
        json.loads(json.dumps(_TEXT))
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
