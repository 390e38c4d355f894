"""Host speed measured during a timed span, to take host drift out of times.

The benchmark's machine shares its cores with other work, and its speed
drifts by up to 1.7x over seconds: repetitions of one seed in one run have
ranged from 2.9 to 5.3 s, and the process's CPU time moved with the wall
time.  A calibration loop timed before and after a repetition does not
follow drift that fast.  So a ``SpeedProbe`` samples the host during the
span itself: a ``SIGALRM`` timer fires every ``INTERVAL_S`` seconds, and
the handler times one fixed probe.  The handler runs between bytecodes, so
during a long native call the sample waits until the call returns.

The host's slowdowns do not hit every kind of work alike, so the probe must
do the kind of work it stands in for.  There are three kinds:

- ``"calls"``: 40 pairs of ``numpy.linalg.cholesky`` and ``numpy.dot`` on a
  2x2 matrix, for work that is per-call overhead in the interpreter and in
  numpy, such as the optimizer's;
- ``"stream"``: a sum over a 16 MB array, for work that streams large
  arrays through memory, such as the Monte Carlo estimators';
- ``"mixed"``: an integer loop, 20 of the ``calls`` pairs, a sum over a
  4 MB array and filling a dict, for work that does a little of all, such
  as imports.

``scaled(seconds)`` removes the probe's own time from a measured span and
rescales the rest to a host on which one probe takes its kind's reference
time:

    scaled = (seconds - probe time inside the span) * reference / mean probe time

The mean, not the median, because the span's work is slowed in proportion
to the time it spends on a slow host.

The probes are constants of the benchmark and run no ``sphglass`` code, so
a change to the program cannot change what one probe measures.
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.05
# seconds per probe of each kind, close to what one probe takes inside a
# repetition on the 2-vCPU Xeon VM the bounds were set on; only the unit of
# the scaled times depends on them
REFERENCE_S = {"calls": 0.0003, "stream": 0.002, "mixed": 0.0006}


class SpeedProbe:
    """``with SpeedProbe(kind) as probe:`` samples the host while the block runs.

    Outside a ``with`` block, ``sample()`` takes samples on demand; a span
    too short to sample from inside is scaled by samples taken after it.
    """

    def __init__(self, kind: str) -> None:
        if kind not in REFERENCE_S:
            raise ValueError(f"probe kind must be one of {sorted(REFERENCE_S)}, got {kind!r}")
        self.kind = kind
        self.samples: list[float] = []
        self.inside_s = 0.0  # probe time spent inside the measured span
        self._matrix = np.array([[2.0, 0.3], [0.3, 1.5]])
        self._buffer = np.ones({"calls": 0, "stream": 2_000_000, "mixed": 500_000}[kind])
        self._previous = None

    def _calls(self, pairs: int) -> None:
        for _ in range(pairs):
            np.linalg.cholesky(self._matrix)
            np.dot(self._matrix, self._matrix)

    def sample(self) -> float:
        start = time.perf_counter()
        if self.kind == "calls":
            self._calls(40)
        elif self.kind == "stream":
            self._buffer.sum()
        else:
            x = 0
            for i in range(3000):
                x += i * i
            self._calls(20)
            self._buffer.sum()
            table = {}
            for i in range(1000):
                table[i] = (i, str(i))
        seconds = time.perf_counter() - start
        self.samples.append(seconds)
        return seconds

    def _on_alarm(self, signum, frame) -> None:
        self.inside_s += self.sample()

    def __enter__(self) -> SpeedProbe:
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        # a span shorter than the interval still gets one sample
        self.sample()

    def scaled(self, seconds: float) -> float:
        """``seconds`` measured across the span, at the reference host speed."""
        mean = sum(self.samples) / len(self.samples)
        return (seconds - self.inside_s) * REFERENCE_S[self.kind] / mean
