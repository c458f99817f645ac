"""Frozen reference kernel that measures how fast the machine runs right now.

The benchmark runs this kernel between consecutive operations, with the
garbage collector off, and scales each operation's wall time by
``NOMINAL_S / (median of the neighbouring kernel times)``.  A normalised time
therefore reads as the time the operation would take on a machine where this
kernel takes exactly ``NOMINAL_S``.

The kernel uses only ``fractions.Fraction``: arithmetic on small numbers and
on numbers of roughly 600 bits, the two regimes the program's exact matrix
code spends its time in.  Changing the kernel or ``NOMINAL_S`` changes the
unit of every normalised figure, so both stay as they are.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

# Median kernel time, in seconds, on the machine the reference figures in
# README.md were taken on.  Frozen: it defines the normalised unit.
NOMINAL_S = 0.0035

_SMALL = tuple(Fraction(i % 7 + 1, i % 5 + 2) for i in range(24))
_BIG = tuple(Fraction(7**214 + 13 * i, 3**378 + 11 * i + 2) for i in range(6))


def kernel() -> Fraction:
    acc = Fraction(0)
    for a in _SMALL:
        for b in _SMALL[:10]:
            acc += a * b - b / a
    for a in _BIG:
        for b in _BIG:
            big = (a * b + b) / (a + b)
    return acc + big.numerator % 7


def timed_kernel() -> float:
    """Wall time of one kernel run, in seconds, with the collector off."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def spin(seconds: float) -> None:
    """Run the kernel for about ``seconds`` to bring the core up to speed."""
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        kernel()
