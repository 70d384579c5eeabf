"""Machine-speed probe that normalizes latencies for host speed drift.

On a shared host the speed of a core drifts by tens of percent over
seconds to minutes, so two runs of the same code differ by more than any
useful regression bound.  The probe is a fixed kernel owned by the
benchmark, made of the kinds of work the package does (pure-Python text
and arithmetic, small and batched 8x8 eigensolves), timed between the
operations of a run.  No code of the package under test runs in it, so a
change to the package cannot move it; it moves only with the machine.

An operation's normalized time is its raw time * nominal / (median of
the probes taken within WINDOW_S of it): what it would have taken on a
host where the probe takes its nominal time.

Work done in a fresh interpreter (a cold CLI call, a set-up process) is
mostly process start-up and imports, which drift apart from in-process
compute on a shared host.  It is normalized by a cold probe instead: a
fresh interpreter that imports a fixed set of standard-library modules
(cold_probe).
"""

import bisect
import functools
import statistics
import sys
import time

import numpy as np

import proc

NOMINAL_S = 1.0e-3        # about the probe time on a 2-core Xeon host at its fast phases
INTERVAL_S = 0.1          # at most one probe per this much wall time
BURST = 3                 # kernel runs per probe; the probe is their median
WINDOW_S = 0.5            # probes this close to an operation normalize it

COLD_NOMINAL_S = 60e-3    # about the cold probe time on the same host at its fast phases
COLD_INTERVAL_S = 2.0
COLD_IMPORTS = "import argparse, decimal, email.parser, fractions, json, logging, statistics"

_RNG = np.random.default_rng(0)
_A = _RNG.normal(size=(8, 8)) + 1j * _RNG.normal(size=(8, 8))
_HERMITIAN = _A + _A.conj().T
_BATCH = np.broadcast_to(_HERMITIAN, (64, 8, 8)).copy()
_TEXT = "\n".join(f"  key{i}: {i * 0.125!r}" for i in range(40))


def kernel() -> float:
    """Run the fixed probe once; returns its wall time in seconds."""
    start = time.perf_counter()
    fields = {}
    for _ in range(6):
        for line in _TEXT.splitlines():
            key, _, value = line.partition(":")
            fields[key.strip()] = float(value)
    total = 0
    for i in range(1500):
        total += i * i % 7
    for _ in range(4):
        np.linalg.eigh(_HERMITIAN)
        _HERMITIAN @ _HERMITIAN
    np.linalg.eigh(_BATCH)
    return time.perf_counter() - start


def cold_kernel(workdir) -> float:
    """Start a fresh interpreter that imports COLD_IMPORTS; its wall time in seconds."""
    child = proc.call([sys.executable, "-c", COLD_IMPORTS], workdir)
    if child["code"] != 0:
        raise RuntimeError(f"cold probe exited {child['code']}: {child['err']}")
    return child["wall"]


class Probe:
    """Probe samples (time taken, duration) over one run."""

    def __init__(self, run_kernel=kernel, burst=BURST, nominal=NOMINAL_S,
                 interval=INTERVAL_S):
        self.run_kernel, self.burst = run_kernel, burst
        self.nominal, self.interval = nominal, interval
        self.times = []
        self.durations = []
        self._last = float("-inf")

    def sample(self):
        now = time.perf_counter()
        self.times.append(now)
        self.durations.append(statistics.median(self.run_kernel()
                                                for _ in range(self.burst)))
        self._last = time.perf_counter()

    def maybe_sample(self):
        """Probe now unless the last probe ended less than `interval` ago."""
        if time.perf_counter() - self._last >= self.interval:
            self.sample()

    def normalize(self, start: float, seconds: float) -> float:
        """Normalized time of an operation that ran from `start` for `seconds`."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, start + seconds + WINDOW_S)
        # always include the nearest probe on each side
        lo = min(lo, max(0, bisect.bisect_left(self.times, start) - 1))
        hi = max(hi, min(len(self.times), bisect.bisect_right(self.times, start + seconds) + 1))
        return seconds * self.nominal / statistics.median(self.durations[lo:hi])


def cold_probe(workdir) -> Probe:
    """A probe for timings of whole fresh-interpreter processes."""
    return Probe(functools.partial(cold_kernel, workdir), burst=1, nominal=COLD_NOMINAL_S,
                 interval=COLD_INTERVAL_S)
