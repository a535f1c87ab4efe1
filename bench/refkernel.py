"""A fixed reference kernel that tracks how fast the machine runs right now.

The benchmark's machine changes speed by up to 1.8x within seconds (see
METHOD.md, "Drift"), and the same work runs slower in both wall and CPU
time.  So each timed call is bracketed by runs of this kernel, and its
latency is rescaled by how long the kernel took around it:

    scaled latency = latency * NOMINAL_S / kernel time

The kernel is pure Python and independent of tsslab: a threshold cascade
with undo on a fixed random graph (list indexing, counter bumps, stack
pushes and pops, the instruction mix of the library's scans), plus a few
set and dict operations.  A change to the library cannot change its time,
so a library that gets X % faster gives scaled latencies X % lower.
Garbage collection is held off while it runs, so the heap the library
leaves behind does not change its time either.
"""

from __future__ import annotations

import gc
import random
import statistics
from time import perf_counter

# The kernel's typical time on the machine the benchmark was written on
# (2-CPU Xeon VM at 2.1 GHz, Python 3.11.7).  Scaled times are seconds of
# that machine at its typical speed.  Changing it rescales every recorded
# time, so it stays fixed.
NOMINAL_S = 0.0007

_N = 200
_rng = random.Random(20_141_203)
_ADJ = [[] for _ in range(_N)]
for _u in range(_N):
    for _w in _rng.sample(range(_N), 3):
        if _w != _u:
            _ADJ[_u].append(_w)
            _ADJ[_w].append(_u)
_THR = [1 if v % 4 == 0 else 2 for v in range(_N)]
_STARTS = _rng.sample(range(_N), 4)
_count = [0] * _N
_status = [0] * _N
_KEYS = {v: v % 7 for v in range(0, _N, 5)}


def _kernel() -> int:
    adj, thr, count, status = _ADJ, _THR, _count, _status
    total = 0
    for v in _STARTS:
        trail = []
        active = [v]
        status[v] = 1
        stack = [v]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if status[w]:
                    continue
                c = count[w] + 1
                count[w] = c
                trail.append(w)
                if c == thr[w]:
                    status[w] = 1
                    active.append(w)
                    stack.append(w)
        total += len(active)
        seen = set(active)
        total += sum(_KEYS.get(w, 0) for w in trail if w in seen)
        for w in trail:
            count[w] -= 1
        for w in active:
            status[w] = 0
    return total


EXPECTED = _kernel()


def kernel_s() -> float:
    """Run the kernel once and return its wall time in seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        got = _kernel()
        t1 = perf_counter()
    finally:
        if enabled:
            gc.enable()
    if got != EXPECTED:
        raise RuntimeError(f"reference kernel returned {got}, expected {EXPECTED}")
    return t1 - t0


def steady_kernel_s(runs: int = 5) -> float:
    """The median of `runs` kernel times: a less jittery sample of the speed
    around a longer stretch of work, such as one set-up."""
    return statistics.median(kernel_s() for _ in range(runs))
