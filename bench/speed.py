"""Machine-speed reference: a fixed pure-Python kernel timed between calls.

The 2-core guest the bounds were set on changes speed under its
neighbours' load, by up to twofold and for tens of seconds at a time, and
CPU time follows wall time, so a call's wall time says as much about the
neighbours as about the program.  The benchmark times ``kernel`` right
after every call (and once before the first); it does not touch
``coinrig``, so a change to the program cannot change it.  Each call's
time is then scaled to the nominal speed at which the kernel takes
``NOMINAL_S``:

    scaled = seconds * NOMINAL_S / mean(kernel time before, kernel time after)

A program that gets slower still shows in full; a neighbour that slows
the whole machine slows the kernel too and cancels out.  The kernel is
integer elimination modulo a prime over Python lists, the same kind of
interpreter work as the program's own hot loops.
"""

from __future__ import annotations

import gc
from time import perf_counter

NOMINAL_S = 0.002         # kernel time at nominal speed, about this host's typical
_P = 2147483647
_N = 26


def _matrix() -> list[list[int]]:
    x, rows = 12345, []
    for i in range(_N):
        row = []
        for j in range(_N):
            x = x * 48271 % _P
            row.append(x % 1000003 if (7 * i + 3 * j) % 5 else 0)
        rows.append(row)
    return rows


_MATRIX = _matrix()


def kernel() -> int:
    """Rank modulo ``_P`` of a fixed 26 x 26 matrix (it is 26)."""
    m = [row[:] for row in _MATRIX]
    r = 0
    for c in range(_N):
        piv = next((i for i in range(r, _N) if m[i][c]), -1)
        if piv < 0:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], -1, _P)
        mr = m[r]
        for i in range(r + 1, _N):
            mi = m[i]
            if mi[c]:
                f = mi[c] * inv % _P
                for j in range(c, _N):
                    mi[j] = (mi[j] - f * mr[j]) % _P
        r += 1
    return r


def time_kernel() -> float:
    """Seconds one kernel run takes now, with the collector held off."""
    gc.disable()
    try:
        t0 = perf_counter()
        kernel()
        return perf_counter() - t0
    finally:
        gc.enable()


def scaled(seconds: float, before: float, after: float) -> float:
    """A call's time at nominal speed, from the kernel times around it."""
    return seconds * NOMINAL_S / ((before + after) / 2.0)
