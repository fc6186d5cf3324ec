"""Probe of the machine's current speed, to take shared-host swings out of the metrics.

On a shared 2-vCPU host the same code runs up to 2.3x slower for tens of
seconds when other tenants are busy.  Around every timed chunk the
benchmark times three fixed kernels that import nothing from wlocube, one
for each kind of work the library does: a small-int bytecode loop (the
scans), frozen-dataclass construction (TruthTable, SearchHit) and a big-int
shift-and-mask loop (from_raw, the masks).  `slowdown()` is the geometric
mean of their times relative to the nominal times below; throughputs are
multiplied by it and set-up times divided by it, which reports them at the
nominal machine speed.  Set-up is scaled by the loop kernel alone: it is
bytecode loops over small ints (wlo_bucket's per-serial loop above all),
and in a fresh interpreter under contention the other two kernels slowed
about twice as much as it did.  The garbage collector is off while the
kernels run, so that their times follow the machine and not the size of
the caller's heap.  No library change can move the probe.
"""

import gc
from dataclasses import dataclass
from time import perf_counter

# Probe times on the reference host (x86_64, 2 vCPUs, CPython 3.11) when idle.
LOOP_NOMINAL_S = 2.1e-3
CALLS_NOMINAL_S = 1.9e-3
BIG_NOMINAL_S = 0.46e-3

_BIG = (1 << 65536) - 12345
_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class _Pair:
    a: int
    b: tuple

    def __post_init__(self):
        if self.a < 0:
            raise ValueError("negative")


def _loop() -> int:
    s = 0
    for i in range(30000):
        s += (i >> 3) & 7
    return s


def _calls() -> list:
    t = (1, 2)
    return [_Pair(i, t) for i in range(3000)]


def _big() -> list:
    x = _BIG
    return [(x >> (64 * j)) & _MASK64 for j in range(256)]


KERNELS = {"loop": (_loop, LOOP_NOMINAL_S), "calls": (_calls, CALLS_NOMINAL_S), "big": (_big, BIG_NOMINAL_S)}


def slowdown(kernels=tuple(KERNELS)) -> float:
    """How many times slower than nominal this machine runs right now."""
    product = 1.0
    enabled = gc.isenabled()
    gc.disable()
    try:
        for name in kernels:
            fn, nominal = KERNELS[name]
            start = perf_counter()
            fn()
            product *= (perf_counter() - start) / nominal
    finally:
        if enabled:
            gc.enable()
    return product ** (1 / len(kernels))
