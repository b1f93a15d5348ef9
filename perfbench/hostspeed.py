"""Host-speed reference sampled while the program runs.

A shared host changes speed under the benchmark: on the 2-CPU VM this
benchmark was tuned on, every computation (the program, plain Python and
numpy alike) runs up to about 1.5x slower for stretches of seconds to
minutes, and wall time and CPU time slow down together.  A run's raw
timings then mostly tell how long it spent in the slow state.

:class:`HostSpeed` measures that state: while a window is open, a
wall-clock timer interrupts the program every ``INTERVAL`` seconds and
times a fixed reference computation (:func:`reference`), which is part of
the benchmark, not of the program.  Timings taken with the window's
:meth:`Window.clock` leave out the time spent in the reference, and
:meth:`Window.speed` converts them to nominal host speed.  A change to the
program moves a normalised time as much as the raw one, since the
reference runs no program code.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

#: Seconds between reference samples (wall clock).
INTERVAL = 0.05
#: Reference time on the fast state of the tuning host (Intel Xeon,
#: 2.1 GHz, 2 vCPUs).  It only sets the scale: normalised timings read
#: as seconds on that host when it is fast.
NOMINAL_S = 0.0013

_RNG = np.random.default_rng(0)
_X = _RNG.standard_normal((64, 32))
_W = _RNG.standard_normal((32, 32))
_ROWS = np.sort(_RNG.integers(0, 64, 200))
_STARTS = np.searchsorted(_ROWS, np.unique(_ROWS))
_ALARM = {signal.SIGALRM}


def reference() -> float:
    """A fixed mix of interpreter work and small numpy kernels, like the
    program's own: dict and integer arithmetic, then matmuls, ``tanh``
    and a segment sum."""
    total, table = 0, {}
    for i in range(4000):
        table[i % 97] = total
        total += i * (i & 7)
    x = _X
    for _ in range(15):
        y = np.tanh(x @ _W)
        segments = np.add.reduceat(y[_ROWS], _STARTS)
        x = 0.5 * y + 0.1
    return float(segments[0, 0]) + total


class Window:
    """Reference samples taken while one window was open."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        #: Wall seconds the timer's reference samples took.
        self.spent = 0.0

    def clock(self) -> float:
        """Wall seconds, less the time the reference has taken so far."""
        signal.pthread_sigmask(signal.SIG_BLOCK, _ALARM)
        try:
            return time.perf_counter() - self.spent
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, _ALARM)

    def speed(self) -> float:
        """Nominal seconds per :meth:`clock` second: the mean of
        ``NOMINAL_S`` over each sample (1.0 on a fast host, below 1.0 on a
        slow one)."""
        return statistics.fmean(NOMINAL_S / taken for taken in self.samples)


class HostSpeed:
    """Samples :func:`reference` on a timer while a window is open.

    Use one window per measured stretch::

        with HostSpeed() as window:
            start = window.clock()
            work()
            elapsed = window.clock() - start
        nominal_s = elapsed * window.speed()

    A window always holds at least one sample: one is taken as it opens,
    before the measured code starts.
    """

    def __enter__(self) -> Window:
        self.window = Window()
        self.window.samples.append(self._sample())
        self.previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self.window

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self.previous)

    def _on_alarm(self, signum, frame) -> None:
        taken = self._sample()
        self.window.samples.append(taken)
        self.window.spent += taken

    @staticmethod
    def _sample() -> float:
        start = time.perf_counter()
        reference()
        return time.perf_counter() - start
