"""Host CPU speed, measured with a fixed reference kernel.

On a shared host the CPU runs the same code up to tens of percent slower
for seconds at a time, while CPU time keeps tracking wall time: the spread
between runs is host speed, not scheduling. The benchmark times this
kernel, which uses no mvda code, between the items it measures, and
multiplies the time of a pass by the host speed over it: REFERENCE_S over
the mean kernel time. The scaled times read as seconds on the host at the
reference speed.
Interpreter starts are scaled the same way by the time of a reference
start (REFERENCE_START).
"""

from __future__ import annotations

import statistics
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# Median time of a probe on the reference host (2-core Intel Xeon KVM
# guest, numpy 2.4 with OpenBLAS pinned to one thread), by the number of
# concurrent kernels. Two kernels take longer than one: they share the
# interpreter lock between their numpy calls.
REFERENCE_S = {1: 0.003, 2: 0.008}
# Longest stretch of measured work between two probes.
PROBE_EVERY_S = 0.2
# A fresh interpreter importing the package's two dependencies, and its
# median time on the reference host. Interpreter start-up tracks this, not
# the kernel: over two minutes, five-start medians of the mvda set-up
# varied by 12-17% as run and by 5-6% divided by the neighbouring starts.
REFERENCE_START = "import numpy, scipy.special"
REFERENCE_START_S = 0.37


def kernel() -> float:
    """Counter-based uniforms, Box-Muller style transcendentals and batched
    2 x 2 complex Hermitian algebra: the mix the samplers run."""
    raw = np.random.Philox(12345).random_raw(16000)
    u = ((raw >> np.uint64(11)) + np.uint64(1)) * 2.0**-53
    x = np.sqrt(-2.0 * np.log(u)) * np.cos(2.0 * np.pi * u[::-1])
    m = x.reshape(2000, 2, 2, 2)
    m = m[..., 0] + 1j * m[..., 1]
    return float(np.linalg.eigvalsh(m @ m.conj().transpose(0, 2, 1)).sum())


def probe(pool: ThreadPoolExecutor | None = None, threads: int = 1) -> float:
    """Median of five runs of `threads` concurrent kernels, in seconds."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        if pool is None:
            kernel()
        else:
            for f in [pool.submit(kernel) for _ in range(threads)]:
                f.result()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Probes:
    """Kernel times taken between the items of one pass.

    Items that run on `threads` worker threads are probed with as many
    concurrent kernels, so that both cores' speed is in the probe.
    """

    def __init__(self, threads: int = 1):
        self.times: list[float] = []
        self._since = float("inf")
        self._threads = threads
        self._pool = ThreadPoolExecutor(threads) if threads > 1 else None

    def _probe(self) -> None:
        self.times.append(probe(self._pool, self._threads))

    def before_item(self, last_item_s: float) -> None:
        self._since += last_item_s
        if self._since >= PROBE_EVERY_S:
            self._probe()
            self._since = 0.0

    def close(self) -> None:
        self._probe()
        if self._pool is not None:
            self._pool.shutdown()

    def speed(self) -> float:
        """Host speed over the pass: reference time over the mean probe time."""
        return REFERENCE_S[self._threads] / statistics.mean(self.times)
