"""Host-speed sampling, so that throughput can be read at a reference speed.

The benchmark shares a few cores of a host with other tenants, and the
speed it gets drifts by tens of percent over seconds and minutes: on a
2-core shared box, rus-adaptive's ops per second over 15 s windows of one
process spread 0.18 of their median between windows. That drift reaches
every piece of code running at the same moment alike, so a fixed kernel
timed in the same process, interleaved with the ops, sees it too; the ratio
of op time to kernel time spread 0.02 over the same windows.

`HostSampler` runs a calibration kernel from a SIGALRM handler every
`INTERVAL_S` while ops run. The kernel is the benchmark's own code and
never calls qlin, so a change to qlin does not change it. Each stretch of
the timed phase between two samples is rescaled by `reference_s / k`, where
`k` is how long the kernel took at its ends. `reference_time` sums those
stretches: the time the phase would have taken on a host where the kernel
takes `reference_s`. Time spent in the handler is not op time; it is
subtracted from the phase and from the op it interrupted.

Three kernels, one per kind of work a workload waits on. Each workload
names the one whose op time it tracks best: within one process, the
coefficient of variation of per-op time fell from 0.05 to 0.02 on vqe-shots
(small-numpy), from 0.12 to 0.04 on circuit-toolchain (pure-python) and from
0.09 to 0.05 on qaoa-wide (stream) when divided by that kernel's time, and
less when divided by the others':

- `small-numpy`: forty gates applied by the oracle to a 4-wire state, that
  is numpy calls on tiny arrays and the interpreter around them;
- `pure-python`: a 120-line gate list parsed, counted and sorted;
- `stream`: a phase multiplied into every other amplitude of a 16 MiB
  state, memory traffic over a working set larger than L2.
"""
from __future__ import annotations

import random
import signal
import time

import numpy as np

import oracle

INTERVAL_S = 0.05


def _small_numpy_kernel():
    rng = random.Random(5)
    gates = [("H", rng.randrange(4)) if i % 3 == 0
             else ("P", rng.uniform(0.0, 3.0), rng.randrange(4)) if i % 3 == 1
             else ("CNOT", 0, 1 + rng.randrange(3)) for i in range(40)]
    state = np.eye(16, dtype=complex)[:, :1]
    return lambda: oracle.apply_gates(state, 4, gates)


def _pure_python_kernel():
    rng = random.Random(5)
    text = "\n".join(f"P {rng.uniform(-3.0, 3.0)!r} {rng.randrange(12)}" if i % 2
                     else f"CNOT {rng.randrange(6)} {6 + rng.randrange(6)}" for i in range(120))

    def run():
        parsed = []
        for line in text.splitlines():
            kind, *args = line.split()
            parsed.append((kind, *(float(a) if "." in a else int(a) for a in args)))
        counts: dict[str, int] = {}
        for gate in parsed:
            counts[gate[0]] = counts.get(gate[0], 0) + 1
        return sorted(parsed, key=repr), counts

    return run


def _stream_kernel():
    state = np.full(1 << 20, 1.0 / 1024.0, dtype=complex)
    odd = state.reshape(-1, 2)[:, 1]
    phases = [np.exp(0.3j), np.exp(-0.3j)]  # alternated, so the state stays bounded

    def run():
        phases.reverse()
        np.multiply(odd, phases[0], out=odd)

    return run


# Kernel durations on the reference host, the median of the samples taken
# during a 20 s run on a 2-vCPU shared Intel Xeon (Python 3.11, numpy 2.4).
# Only ratios between runs of the same benchmark code matter; these set the scale.
KERNELS = {
    "small-numpy": (_small_numpy_kernel, 0.55e-3),
    "pure-python": (_pure_python_kernel, 0.6e-3),
    "stream": (_stream_kernel, 1.9e-3),
}


class HostSampler:
    """Times a calibration kernel every INTERVAL_S while installed.

    Use as a context manager around one timed phase; `stolen` is the total
    time spent in the handler so far, for callers that subtract it.
    """

    def __init__(self, kernel: str):
        make, self.reference_s = KERNELS[kernel]
        self._run = make()
        t0 = time.perf_counter()
        self._run()  # allocates; also the speed to assume if no sample falls in a phase
        self._warm_k = time.perf_counter() - t0
        self.samples: list[tuple[float, float, float]] = []  # (start, end, kernel s)
        self.stolen = 0.0
        self._previous = None

    def _handler(self, signum, frame):
        clock = time.perf_counter
        t0 = clock()
        self._run()
        t1 = clock()
        self.samples.append((t0, clock(), t1 - t0))
        self.stolen += self.samples[-1][1] - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def reference_time(self, start: float, end: float) -> float:
        """Handler-free time of [start, end] rescaled to the reference host.

        A stretch between two samples is scaled by the mean of their kernel
        times; the stretches before the first and after the last sample by
        that sample's.
        """
        inside = [s for s in self.samples if start <= s[0] < end]
        if not inside:
            return (end - start) * self.reference_s / self._warm_k
        total, edge, previous_k = 0.0, start, inside[0][2]
        for t0, t1, k in inside:
            total += (t0 - edge) * self.reference_s * 2.0 / (previous_k + k)
            edge, previous_k = t1, k
        return total + max(end - edge, 0.0) * self.reference_s / previous_k
