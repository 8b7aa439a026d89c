"""Host-speed correction for the benchmark's end-to-end times.

The benchmark shares a few cores of a host with other tenants, and the speed
those cores give one process drifts by up to 2x and stays at a level for
seconds to minutes, so raw wall times of the same code spread wider than any
useful bound. So each timed interval is bracketed by a fixed reference task
that runs none of pathpol's code, and is scaled by the ratio of the task's
reference time to the mean of its two measured runs (``scale``). The scaled
time is the interval's length on a machine where the task takes its
reference time; a change to pathpol moves it as it moves the wall time.

The host's slow spells do not slow all work alike: they slow many small
numpy calls by up to 1.7x but a pass over freshly allocated multi-MiB arrays
by about 1.2x. So each reference task is shaped like what it brackets:

* an op runs in the benchmark process, bracketed by a ``SpeedProbe`` round
  of its workload's shape (a key of ``REF_ROUND_S``): ``calls``, many small numpy
  calls and a streaming pass over 4 MiB arrays, like the 16x16 operator
  route; ``grid``, a fresh 128^3 broadcast grid reduced along one axis, like
  the CHSH scan;
* a set-up launch starts an interpreter and loads shared libraries, which
  no round tracks, so it is bracketed by ``REFERENCE_LAUNCH``, a fresh
  interpreter that imports numpy only.

``REF_ROUND_S`` and ``REF_LAUNCH_S`` hold the reference times. The rounds'
arrays count in the benchmark process's ``peak_rss_mib``: ``calls`` holds
8 MiB for the whole run; ``grid`` allocates about 34 MiB per pass and frees
it, which stays below chsh-scan's own peak.
"""

from __future__ import annotations

import statistics
import time

REF_ROUND_S = {"calls": 0.025, "grid": 0.020}
REF_LAUNCH_S = 0.15
REFERENCE_LAUNCH = ("-c", "import numpy")
SMALL_CALLS = 300
STREAM_ELEMENTS = 1 << 19
STREAM_PASSES = 4
GRID_SIDE = 128
GRID_PASSES = 2
WARMUP_ROUNDS = 3


class SpeedProbe:
    """Runs the reference rounds that bracket ops in the benchmark process."""

    def __init__(self, shape: str) -> None:
        import numpy as np

        self._np = np
        self.reference_s = REF_ROUND_S[shape]
        if shape == "calls":
            self._eye = np.eye(4)
            self._x = np.linspace(0.0, 1.0, STREAM_ELEMENTS)
            self._y = np.empty_like(self._x)
            self._run = self._calls
        else:
            self._angles = 2.0 * np.pi * np.arange(GRID_SIDE) / GRID_SIDE
            self._run = self._grid
        for _ in range(WARMUP_ROUNDS):
            self._run()
        self.rounds: list[float] = []

    def _calls(self) -> float:
        np, eye, x, y = self._np, self._eye, self._x, self._y
        t0 = time.perf_counter()
        for _ in range(SMALL_CALLS):
            np.kron(eye, eye)
        for _ in range(STREAM_PASSES):
            np.cos(x, out=y)
            y.sum()
        return time.perf_counter() - t0

    def _grid(self) -> float:
        np, a = self._np, self._angles
        t0 = time.perf_counter()
        for _ in range(GRID_PASSES):
            pair = np.cos(a[:, None] + a[None, :])
            grid = pair[:, :, None] + pair[:, None, :]
            grid.max(axis=0)
            grid.min(axis=0)
        return time.perf_counter() - t0

    def round(self) -> float:
        """One calibration round; its seconds are kept in ``rounds``."""
        seconds = self._run()
        self.rounds.append(seconds)
        return seconds

    def median_round_ms(self) -> float:
        return statistics.median(self.rounds) * 1e3


def scale(seconds: float, before: float, after: float, reference: float) -> float:
    """``seconds`` measured between two runs of a reference task that took
    ``before`` and ``after``, at the speed where the task takes ``reference``."""
    return seconds * reference / ((before + after) / 2.0)
