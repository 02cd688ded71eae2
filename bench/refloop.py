"""Drift normalisation with a fixed pure-Python reference loop.

On a shared two-core host the speed of the CPU a process gets drifts by
tens of percent, both between identical processes and within one
process from second to second; CPU time tracks wall time, so it is host
speed, not scheduling.  The benchmark therefore brackets every timed
stretch with `reference_loop()`, a fixed amount of interpreter work of
the kinds clgram does (calls, isinstance tests, slot reads, dict writes,
small tuples and lists), and scales raw seconds by

    REF_NOMINAL_S / mean(the WINDOW reference times before the stretch
                         and the WINDOW after it)

so a timing reads as seconds on a host where the loop takes
REF_NOMINAL_S.  The loop's mix was chosen by measurement; see README.md.
"""

from __future__ import annotations

import statistics
import time

# Median `reference_loop()` time on the host the baseline was taken on
# (two-core x86-64 container, Python 3.11).  Fixed once: changing it
# rescales every normalised time and breaks comparison with old runs.
REF_NOMINAL_S = 0.0150

# Ops are grouped into stretches of at least this much raw time between
# two reference measurements; the loop then costs about a tenth of a run.
STRETCH_S = 0.15

# A stretch is scaled by the mean of this many references on each side of
# it.  Measured over whole runs on the host above, two on each side gave
# steadier medians and tails than one (the tightest bracket), or than
# wider windows and medians of windows.
WINDOW = 2


class _Cell:
    __slots__ = ("value", "next")

    def __init__(self, value, nxt):
        self.value = value
        self.next = nxt


_CELLS = [_Cell(i, None) for i in range(64)]


def _read(cell) -> int:
    return cell.value if isinstance(cell, _Cell) else 0


def reference_loop() -> int:
    total = 0
    table = {}
    cells = _CELLS
    for i in range(40000):
        cell = cells[i & 63]
        total += _read(cell)
        table[i & 255] = cell
    for i in range(30000):
        t = (i, i + 1, (i, 2))
        pair = [t, t]
        total += len(pair) + t[2][1]
    return total


def measure_reference() -> float:
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0


class Normaliser:
    """Records reference times as a run goes and turns raw seconds into
    nominal seconds."""

    def __init__(self):
        reference_loop()  # first call pays for warming the loop itself
        self.refs = [measure_reference()]

    def mark(self) -> int:
        """Measure the reference now; returns its index."""
        self.refs.append(measure_reference())
        return len(self.refs) - 1

    def factor(self, i: int) -> float:
        """Factor for the stretch that ended at reference `i`."""
        return REF_NOMINAL_S / statistics.fmean(self.refs[max(0, i - WINDOW):i + WINDOW])

    def run_factor(self) -> float:
        """One factor for the whole run, from every reference so far."""
        return REF_NOMINAL_S / statistics.median(self.refs)
