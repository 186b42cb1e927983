"""Fixed reference work, timed to measure the machine's speed.

On a virtual machine that shares its host, the speed of a core changes by
up to 1.7x from one half-minute to the next, with what other tenants run.
Before each pass, a set-up-only child times this work for a share of the
previous pass's time, so a run samples the machine's speed all along,
and ``run.py`` reports pass time in units of it.  The work uses only the
standard library, and nothing in exthh runs inside it.
"""

from __future__ import annotations

import time
from fractions import Fraction

# The checksum of ``reference_work``; a different value means the work changed.
CHECKSUM = 180

ROWS = 25000


def reference_work() -> int:
    """About 0.3 s of pure-Python work on a 2.x GHz core; returns a checksum.

    It builds ~20 MB of small dicts, like sparse matrix rows keyed by
    column, visits them in a scattered order and takes dot products of row
    pairs, then sums Fractions.  A working set far larger than the caches
    makes it slow down with the machine as exthh's big complexes do."""
    x = 12345
    rows: dict[tuple, dict[int, int]] = {}
    for i in range(ROWS):
        row = {}
        for _ in range(6):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            row[(x >> 8) % 5000] = x % 7 - 3
        rows[(i % 211, i)] = row
    keys = list(rows)
    checksum = 0
    for _ in range(2 * ROWS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        row, other = rows[keys[x % ROWS]], rows[keys[(x >> 5) % ROWS]]
        for col, value in row.items():
            if col in other:
                checksum += value * other[col]
    total = Fraction(0)
    for i in range(1, 1500):
        total += Fraction(i % 13 + 1, i % 17 + 2)
    return checksum + total.numerator % 1000


def sample(seconds: float) -> list[float]:
    """Time ``reference_work`` again and again for about ``seconds``
    (at least once) and return each run's time.  Raises if a checksum is
    wrong."""
    times: list[float] = []
    end = time.perf_counter() + seconds
    while not times or time.perf_counter() < end:
        start = time.perf_counter()
        checksum = reference_work()
        times.append(time.perf_counter() - start)
        if checksum != CHECKSUM:
            raise RuntimeError(f"reference work checksum {checksum}, expected {CHECKSUM}")
    return times
