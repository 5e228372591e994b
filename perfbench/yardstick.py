"""Machine-speed yardstick that reported times are scaled by.

On the shared 2-core machine this benchmark was written on, the speed of
the whole machine changes by up to 1.8x, for seconds to minutes at a time.
Raw times of identical runs then spread by more than 25 % between runs.
A fixed piece of reference work is timed right after every operation. It
does not touch the package: numpy calls on a small dense matrix and a
plain Python loop, like the mix the workloads run. Each pass's times are
multiplied by REFERENCE_S over the mean time of one yardstick call in that
pass. In a 90 s fd-sweep trial, pass times and yardstick times correlated
at 0.96, and scaling cut the coefficient of variation of pass times from
15.6 % to 5.3 %.
"""
import time

import numpy as np

# Time of one call on this machine in its fast state, so scaled times read
# as seconds on that machine.
REFERENCE_S = 5.0e-4

_MATRIX = np.ones((300, 300))
_VECTOR = np.ones(300)


def _call() -> None:
    for _ in range(20):
        _MATRIX @ _VECTOR
        np.cumsum(_VECTOR)
        x = 0.0
        for i in range(200):
            x += i * 0.5


class Yardstick:
    """Accumulates yardstick samples taken during one pass or set-up."""

    def __init__(self):
        self.seconds = 0.0
        self.calls = 0

    def sample(self, min_seconds: float = 0.0) -> None:
        """Run whole calls until min_seconds have passed (at least one)."""
        start = time.perf_counter()
        while True:
            _call()
            self.calls += 1
            elapsed = time.perf_counter() - start
            if elapsed >= min_seconds:
                break
        self.seconds += elapsed

    @property
    def factor(self) -> float:
        """Multiplier that turns a measured time into reference seconds."""
        return REFERENCE_S * self.calls / self.seconds
