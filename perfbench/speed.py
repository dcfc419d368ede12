"""Machine-speed sampling, so that timings do not follow the load of other tenants.

On a shared machine the speed of one core can change by a factor of two from
one second to the next, for reasons outside the process.  ``Sampler`` takes a
sample of that speed every ``PERIOD_S`` seconds of wall time: a SIGALRM
handler times ``probe``, a short fixed piece of pure-Python work.  A time
measured while the sampler runs is then rescaled to the nominal speed,

    normalised = (raw - time spent in the handler) * PROBE_NOMINAL_S * mean(1 / probe time)

The mean of the inverse probe times is the average speed over the window,
because the samples are evenly spaced in wall time.  ``PROBE_NOMINAL_S`` is
the probe's time on an idle core of the baseline machine, so a normalised
time reads as seconds on that machine with nothing else running.
"""

from __future__ import annotations

import signal
import time

PERIOD_S = 0.02
# probe time on an idle core of the baseline machine (2 GHz Xeon, Python 3.11)
PROBE_NOMINAL_S = 125e-6
_PROBE_ITERS = 400


def probe() -> int:
    """A fixed mix of the work delsub does: int bit ops, sets, dicts, lists."""
    acc = 0
    seen = set()
    counts: dict[int, int] = {}
    low: list[int] = []
    for i in range(_PROBE_ITERS):
        x = (i * 40503) & 0xFFFF
        acc += (x ^ (x >> 3)).bit_count()
        seen.add(x & 0x1FF)
        counts[x & 0x3F] = counts.get(x & 0x3F, 0) + 1
        low.append(x & 7)
    return acc + len(seen) + len(counts) + sum(low)


class Sampler:
    """Speed samples taken on a wall-clock timer while started."""

    def __init__(self) -> None:
        self.inverse_sum = 0.0  # sum of 1 / probe time over the samples
        self.samples = 0
        self.handler_s = 0.0  # wall time spent in the handler, probe included

    def _handler(self, signum: int, frame: object) -> None:
        t0 = time.perf_counter()
        probe()
        t1 = time.perf_counter()
        self.inverse_sum += 1.0 / (t1 - t0)
        self.samples += 1
        self.handler_s += time.perf_counter() - t0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple[float, int]:
        return self.inverse_sum, self.samples

    def factor(self, since: tuple[float, int]) -> float:
        """Nominal seconds per wall second over the samples taken since a mark."""
        inverse_sum, samples = since
        if self.samples == samples:
            # a window shorter than one period: take a sample now
            self._handler(signal.SIGALRM, None)
        return PROBE_NOMINAL_S * (self.inverse_sum - inverse_sum) / (self.samples - samples)
