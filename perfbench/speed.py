"""Machine-speed reference: a fixed NumPy + Python kernel timed between jobs.

On a shared host the speed of one vCPU drifts by up to 1.5x over seconds to
minutes, and the drift moves CPU time as much as wall time.  The benchmark
therefore times this kernel between jobs and scales every time it reports by
NOMINAL_S / (mean kernel time during the pass): a reported second is a
second on a machine that runs the kernel in NOMINAL_S.  The mean, not the
median, because the host's preemptions add time: a 20 ms sample catches
none, one or two of them, and only the mean of many samples estimates the
average slowdown the program sees.  The kernel mixes the
operations calibkit's hot loops are made of (small QR, sign fix, allclose,
a stack of small determinants, dict updates keyed by index tuples), so the
drift moves it and the program alike.  The kernel never calls calibkit, so
a change to the program cannot change it.
"""

import statistics
from time import perf_counter

import numpy as np

NOMINAL_S = 0.02  # the kernel's time on an unloaded 2.1 GHz Xeon vCPU
SAMPLE_EVERY_S = 0.25
SAMPLES_PER_PASS = 12
WARMUP, ITERATIONS = 15, 150


class Speedometer:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._frames = rng.standard_normal((60, 6, 3))
        self._stack = rng.standard_normal((200, 3, 3))
        self._eye = np.eye(3)
        self.samples = []
        self._last = None
        self._burst = 1

    def _kernel(self, iterations):
        for k in range(iterations):
            q, r = np.linalg.qr(self._frames[k % 60])
            q = q * np.sign(np.diag(r))
            np.allclose(q.T @ q, self._eye, atol=1e-10)
            np.linalg.det(self._stack)
            acc = {}
            for i in range(40):
                acc[(i, i + 1, i + 2)] = acc.get((i, i + 1, i + 2), 0.0) + 0.5 * i

    def sample(self, count=1):
        self._kernel(WARMUP)  # refill the caches the last job evicted
        for _ in range(count):
            t0 = perf_counter()
            self._kernel(ITERATIONS)
            self._last = perf_counter()
            self.samples.append(self._last - t0)

    def start_pass(self, jobs):
        """Sample before a pass of `jobs` jobs.

        Short job lists sample in bursts, so that every pass gets about
        SAMPLES_PER_PASS samples.
        """
        self._burst = -(-SAMPLES_PER_PASS // (jobs + 1))
        self.sample(self._burst)

    def maybe_sample(self):
        """Sample if SAMPLE_EVERY_S have passed since the last sample."""
        if self._last is None or perf_counter() - self._last >= SAMPLE_EVERY_S:
            self.sample(self._burst)

    def take_scale(self):
        """NOMINAL_S / mean kernel time over the samples since the last call."""
        scale = NOMINAL_S / statistics.fmean(self.samples)
        self.samples = []
        return scale
