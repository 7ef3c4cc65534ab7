"""Machine-speed calibration for the benchmark's timings.

The benchmark was built on a shared two-vCPU virtual machine whose speed at
running Python drifts by up to 2x over tens of seconds: in one 150 s run
the same allocate-sweep op mix completed between 26k and 58k ops/s per
0.25 s window, and CPU time tracked wall time, so the drift is in the CPU,
not in scheduling.  A fixed kernel, timed between ops, tracks that drift:
`kernel()` for work done in this process, `process_kernel()` (a bare
interpreter start) for work done in child processes.  Over five 25 s
axiom-suite runs the completed op count ranged from 4040 to 4833, while
throughput in reference time stayed between 246 and 260 ops/s.

Reported times are reference times: a measured time multiplied by the
kernel's reference time over its median time in the same window.  On that
machine in a quiet period the factor is close to 1, so reference times read
close to wall-clock times there.  The kernels are the benchmark's own code
and do not use the package, so a change to the package moves reference
times exactly as it moves wall-clock times.
"""

from __future__ import annotations

import subprocess
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Callable

from common import child_env, median

WINDOW_NS = 500_000_000
WINDOW_SAMPLES = 5


def kernel() -> int:
    """Dict, tuple, str and float work typical of the package's Python code."""
    table = {}
    for i in range(200):
        table[i] = (i * 0.5, str(i))
    total = 0.0
    for key, (half, text) in table.items():
        total += half / (key + 1) + len(text)
    return int(total) + len(sorted(table, reverse=True))


def process_kernel() -> None:
    """A bare interpreter start: the machine work every CLI invocation pays."""
    subprocess.run([sys.executable, "-c", "pass"], env=child_env(),
                   stdin=subprocess.DEVNULL, capture_output=True, check=True)


@dataclass(frozen=True)
class Kernel:
    run: Callable[[], object]
    reference_ns: int  # its median time on the machine the bounds were set on
    warm_up: bool  # run once untimed first: an op leaves the caches cold
    every_ns: int  # how often a timed loop samples it, a few % of the time


PYTHON = Kernel(kernel, 60_000, True, 5_000_000)
PROCESS = Kernel(process_kernel, 50_000_000, False, 500_000_000)


class Speedometer:
    """Kernel timings taken during a run, with the op count at each."""

    def __init__(self, kernel: Kernel = PYTHON):
        self.kernel = kernel
        self.at = array("q")  # clock reading when each sample started
        self.took = array("q")  # ns the kernel took
        self.ops = array("q")  # ops completed before the sample

    def sample(self, ops: int = 0, repeats: int = 1) -> None:
        clock = time.perf_counter_ns
        if self.kernel.warm_up:
            self.kernel.run()
        for _ in range(repeats):
            start = clock()
            self.kernel.run()
            self.at.append(start)
            self.took.append(clock() - start)
            self.ops.append(ops)

    def factor(self, lo: int = 0, hi: int | None = None) -> float:
        """Slowdown against the reference over samples lo..hi (exclusive)."""
        return median(self.took[lo:hi]) / self.kernel.reference_ns


def reference_time(speed: Speedometer, latencies, count: int, first: int):
    """Per-op latencies and the loop's op time, both in reference ns.

    `latencies[first:first + count]` were measured between the speedometer's
    first and last samples.  Samples are grouped into windows of at least
    WINDOW_NS and WINDOW_SAMPLES; the ops between two samples are scaled by
    the kernel's median over the window that holds both.  (Scaling each op
    by its dozen nearest samples instead made the tail noisier.)
    """
    took, at, ops = speed.took, speed.at, speed.ops
    scaled = array("d", bytes(8 * count))
    elapsed = 0.0
    last = len(at) - 1
    lo = 0
    for hi in range(1, last + 1):
        if hi < last and (at[hi] - at[lo] < WINDOW_NS or hi - lo < WINDOW_SAMPLES):
            continue
        f = speed.factor(lo, hi + 1)
        for i in range(ops[lo], ops[hi]):
            scaled[i - first] = latencies[i] / f
        elapsed += (at[hi] - at[lo] - sum(took[lo:hi])) / f
        lo = hi
    return scaled, elapsed
