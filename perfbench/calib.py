"""Host-speed calibration: a fixed numpy and Python kernel timed while the program runs.

The benchmark's host is a shared VM whose speed drifts by up to 1.7x within
seconds, and by up to 1.35x between sets of runs a few minutes apart; the
program and any fixed piece of code slow down together.  So while an
untraced repetition runs, a ``Ticker`` interrupts the worker's main thread
every ``INTERVAL_S`` seconds (SIGALRM) and times one ``kernel()`` in the
signal handler.  The worker subtracts the handler's time from the CLI calls'
wall and CPU times, and ``run.py`` reports every time metric scaled to the
reference host speed:

    scaled = measured * REFERENCE_S / (mean kernel time over the repetition)

The kernel is the benchmark's own code and never calls ``fdpclab``, so a
change to the program moves the scaled times exactly as it moves the
measured ones.  Its mix resembles the program's hot path: a Cholesky
log-determinant and a product over a batch of 20000 real 2x2 matrices, plus
a pure-Python loop that costs interpreter time.  Over 300 s of repeated
sweeps, these two parts tracked the program's speed better than a loop of
small-array numpy calls or a memory-streaming copy did.
"""

import signal
import time

import numpy as np

# Seconds one kernel takes at the reference host speed.  Any constant would
# do, as long as it never changes.  On a 2-vCPU Intel Xeon VM (numpy 2.4.6,
# OpenBLAS 0.3.31) the kernel took 5-6 ms inside the workloads, so scaled
# times there read about 0.65-0.8 of the measured ones.
REFERENCE_S = 0.004

# Seconds between kernels; a kernel costs about 2-3 % of that.
INTERVAL_S = 0.2

_rng = np.random.default_rng(20260903)
_B = _rng.standard_normal((20000, 2, 2))
_A = np.einsum("nij,nkj->nik", _B, _B) + 0.5 * np.eye(2)


def kernel():
    """One unit of fixed work; returns a checksum so nothing is skipped."""
    chol = np.linalg.cholesky(_A)
    acc = float(np.log(np.einsum("...ii->...i", chol)).sum())
    prod = _A @ _A
    acc += float(np.exp(-1e-3 * prod[:, 0, 0]).mean())
    counts = {}
    for i in range(8000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return acc + len(counts)


class Ticker:
    """Times ``kernel()`` every ``INTERVAL_S`` seconds from a SIGALRM handler."""

    def __init__(self):
        self.kernel_s = []  # duration of each kernel
        self.spent_wall_s = 0.0  # handler time, to subtract from the program's
        self.spent_cpu_s = 0.0
        self._previous = None

    def _tick(self, signum, frame):
        cpu0, t0 = time.process_time(), time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.kernel_s.append(t1 - t0)
        self.spent_wall_s += t1 - t0
        self.spent_cpu_s += time.process_time() - cpu0

    def install(self):
        kernel()  # warm-up, not timed
        self._tick(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def uninstall(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick(None, None)  # a sample at each end, however short the run
