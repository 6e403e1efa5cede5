"""Host speed, so that latencies can be reported at one reference speed.

On a shared virtual machine the host can run the same pure-Python code at
two speeds about 1.5-1.8x apart, switching every ten seconds to a few
minutes, so a whole 30-second run can sit in either.  Run-to-run spread is
then set by the host, not by the code under test.  To take the host out, a
fixed kernel is timed between operations, and each operation's latency is
scaled by the kernel's reference time over its median time around it.

In-process workloads use a 65-point transform over GF(64) written out here
in the style of the library's own transform loop (log/exp tables, an
exponent matrix, per-coordinate sums), so that it slows with the host as the
library's code does.  A cold `gfharmonic` process is mostly interpreter
start-up and import, which slow with the host about half as much as that
kernel, so the cli workload uses a cold `python -c pass` instead.  Neither
kernel uses the library: a change to the library moves the scaled latencies
by the same factor as the raw ones.
"""

from __future__ import annotations

import bisect
import random
import statistics
import subprocess
import sys
import time

_EXP = [0] * 126
_LOG = [0] * 64
_x = 1
for _i in range(63):
    _EXP[_i] = _EXP[_i + 63] = _x
    _LOG[_x] = _i
    _x <<= 1
    if _x & 64:
        _x ^= 0b1000011  # x^6 + x + 1
_COEFFS = [[(v >> t) & 1 for t in range(6)] for v in range(64)]
_MATRIX = [[(a * b * 7 + a + b) % 65 for b in range(65)] for a in range(65)]
_CODES = [random.Random(7).randrange(1, 64) for _ in range(65)]


def _kernel() -> list[int]:
    out = []
    for row in _MATRIX:
        acc = [0] * 6
        for k, c in zip(row, _CODES):
            pc = _COEFFS[_EXP[(_LOG[c] + k) % 63]]
            for t in range(6):
                acc[t] += pc[t]
        out.append(sum((acc[t] & 1) << t for t in range(6)))
    return out


def _cold_process() -> None:
    subprocess.run([sys.executable, "-c", "pass"], check=True)


# kind -> (kernel, its median ms on the reference host (2-vCPU shared
# virtual machine, Python 3.11.7) in its usual, slower state, so that scaled
# figures read about as raw ones do there, least gap in seconds between two
# timings: the kernels add about 2% and 14% to a run's wall time)
KERNELS = {
    "in-process": (_kernel, 3.5, 0.2),
    "cold-process": (_cold_process, 71.0, 0.5),
}


class Meter:
    """Kernel timings taken between operations, and the scale they give."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.kernel, self.reference_ms, self.every_s = KERNELS[kind]
        self.at: list[float] = []
        self.ms: list[float] = []

    def tick(self, force: bool = False) -> None:
        """Time the kernel, unless it ran less than every_s ago."""
        now = time.perf_counter()
        if force or not self.at or now - self.at[-1] >= self.every_s:
            self.kernel()
            self.ms.append((time.perf_counter() - now) * 1e3)
            self.at.append(now)

    def scale(self, start: float, end: float) -> float:
        """Reference ms over the median kernel time within five gaps of the
        interval [start, end]; a tick before and after it must have run."""
        lo = bisect.bisect_left(self.at, start - 5 * self.every_s)
        hi = bisect.bisect_right(self.at, end + 5 * self.every_s)
        return self.reference_ms / statistics.median(self.ms[lo:hi])

    def median_ms(self) -> float:
        return statistics.median(self.ms)
