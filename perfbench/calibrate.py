"""Time one invocation at a fixed reference machine speed.

On a shared host the same invocation can run 20-50 % slower for seconds to
minutes at a time, one vCPU independently of the other, and longer runs do
not average that out. So the clock of an untraced invocation pauses the
program between steps every SEGMENT_S, times a fixed kernel on the same CPU,
and leaves the kernel's time out. Each segment of program time is scaled by
REFERENCE_S over the mean of the two kernel times around it, so a timing
reads as the seconds it would take on a machine where the kernel takes
REFERENCE_S. The kernel mixes what chemofluid's time goes to (interpreted
Python, NumPy on grid-sized arrays, a sparse LU factorization and its
solves) and uses none of chemofluid's code, so a change to the program moves
the scaled time as much as the measured one.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

# Median kernel time on the box where the benchmark was defined (2-vCPU KVM
# guest, Intel Xeon). Fixed: changing it rescales every timing.
REFERENCE_S = 0.17
# Shortest stretch of program time between two kernel timings.
SEGMENT_S = 1.0

GRID = 96


class Kernel:
    """Inputs built once; seconds() runs the kernel and returns its wall time."""

    def __init__(self):
        lap = sp.diags([-1.0, -1.0, 4.0, -1.0, -1.0], [-GRID, -1, 0, 1, GRID],
                       shape=(GRID * GRID, GRID * GRID), format="csc")
        self.matrix = lap + 0.1 * sp.eye(GRID * GRID, format="csc")
        self.field = np.random.default_rng(0).random((256, 256))
        self.seconds()  # warm-up: first-call costs belong to no measurement

    def seconds(self) -> float:
        start = time.perf_counter()
        acc = 0.0
        for i in range(250_000):
            acc += (i % 7) * 0.5
        f = self.field
        for _ in range(25):
            g = np.hypot(np.diff(f, axis=0)[:, :-1], np.diff(f, axis=1)[:-1, :])
            acc += float(g.sum())
        lu = splu(self.matrix)
        rhs = f.ravel()[: GRID * GRID]
        for _ in range(20):
            acc += float(lu.solve(rhs)[0])
        elapsed = time.perf_counter() - start
        if not np.isfinite(acc):
            raise FloatingPointError("calibration kernel produced a non-finite value")
        return elapsed


class Clock:
    """Program time of one invocation, cut into segments at tick() calls.

    With a kernel, a tick at least SEGMENT_S after the last one, or a forced
    tick, times the kernel and starts the next segment after it; without one,
    only the first and forced ticks cut. The first tick ends set-up.
    """

    def __init__(self, kernel: Kernel | None = None):
        self.kernel = kernel
        self.segments = []      # (program seconds, kernel s before, kernel s after)
        self.kernel_s = [kernel.seconds()] if kernel else []
        self.mark = time.perf_counter()

    def tick(self, force: bool = False) -> None:
        now = time.perf_counter()
        if self.segments and not force and (self.kernel is None or now - self.mark < SEGMENT_S):
            return
        if self.kernel is None:
            self.segments.append((now - self.mark, None, None))
        else:
            self.kernel_s.append(self.kernel.seconds())
            self.segments.append((now - self.mark, self.kernel_s[-2], self.kernel_s[-1]))
        self.mark = time.perf_counter()

    def measured(self) -> tuple[float, float]:
        """(wall, set-up) seconds of program time, kernel time left out."""
        return sum(s for s, _, _ in self.segments), self.segments[0][0]

    def scaled(self) -> tuple[float, float]:
        """(wall, set-up) at reference speed; measured() when there is no kernel."""
        if self.kernel is None:
            return self.measured()
        scaled = [s * 2 * REFERENCE_S / (before + after) for s, before, after in self.segments]
        return sum(scaled), scaled[0]
