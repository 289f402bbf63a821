"""
Reference kernel for speed correction.

A fixed pure-Python workload shaped like the verifier's own: the product of
two sparse polynomials with ``Fraction`` coefficients and tuple exponents
collected in a dict, followed by scattered lookups in a dict too large for
the CPU's private caches.  It uses only the standard library and imports
nothing from the program under test.  It runs with the cyclic garbage
collector paused, so no collection lands inside it; everything it allocates
is freed before it returns.

On a shared host its time follows the speed the program sees: in chunked
medians over two minutes, the times of criterion, moser-verify and holonomy
verdicts moved with an exponent of 0.97-1.11 against this kernel, against
0.76-0.86 for a tight integer loop.
"""

import gc
import time
from fractions import Fraction


def _poly(seed, n):
    terms, x = [], seed
    for _ in range(n):
        x = (x * 1103515245 + 12345) % 2147483648
        exps = (x % 3, (x >> 3) % 3, (x >> 6) % 4)
        terms.append((exps, Fraction((x >> 9) % 17 - 8, 1 + (x >> 14) % 5)))
    return terms


_A = _poly(1, 20)
_B = _poly(2, 20)
_TABLE = {(i * 7919) % 1000003: i for i in range(60000)}
_PROBES = [(j * 7919) % 1000003 for j in range(0, 60000, 20)]

# Time of one kernel run on the reference machine, in seconds.  A timed
# interval measured while the kernel took r seconds is reported as
# raw * REF / r: the time it would have taken on the reference machine.
REF = 0.003


def kernel():
    enabled = gc.isenabled()
    gc.disable()
    try:
        out = {}
        for e1, c1 in _A:
            for e2, c2 in _B:
                e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
                out[e] = out.get(e, 0) + c1 * c2
        hits = 0
        for k in _PROBES:
            hits += _TABLE.get(k, 0)
        return len(out) + hits
    finally:
        if enabled:
            gc.enable()


def measure():
    """Seconds taken by one kernel run."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
