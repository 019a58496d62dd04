"""Host-speed calibration for the benchmark's timings.

The shared hosts this benchmark runs on change speed under it: the same
deterministic job takes up to twice as long, in stretches from a fraction of
a second to many seconds, while other tenants load the machine. While a
`Clock` runs, a SIGALRM handler therefore times a fixed interpreter-bound
loop every INTERVAL_S. A job's scaled time is its wall time, less the
handler's, times the mean speed sampled during the job and just before and
after it, a sample's speed being REFERENCE_LOOP_S over its loop time: the
job's time on a host on which the loop takes REFERENCE_LOOP_S. A change to
the package moves its jobs' times and not the loop's, so it shows in full.

The mean is taken of speeds, not of loop times, because the samples are
evenly spaced in wall time: a job that runs half its time at each of two
speeds does the work of their mean. A sample that a pause made very slow then
adds a speed near zero, instead of dividing the job's time by a large mean
loop time. The cyclic garbage collector is off while a sample runs, so that
a collection which the job's garbage triggers is neither charged to the
sample nor taken out of the job's time.
"""

import bisect
import gc
import signal
import time

REFERENCE_LOOP_S = 0.00025
LOOP_ITERATIONS = 1000  # about REFERENCE_LOOP_S on a 2-vCPU VM at its faster speed
INTERVAL_S = 0.02


def loop_seconds() -> float:
    """Wall seconds of one run of the calibration loop."""
    began = time.perf_counter()
    table, total = {}, 0
    for i in range(LOOP_ITERATIONS):
        key = (i & 255, i & 7)
        total = (total + table.get(key, i)) & 0xFFFF
        table[key] = total
    return time.perf_counter() - began


class Clock:
    """Wall time that leaves out the sampling, with the samples to scale it.

    Use it as a context manager around everything it times; scale intervals
    after it has stopped, so that every interval has a sample after it.
    """

    def __init__(self):
        self.times: list[float] = []  # now() at each sample
        self.loops: list[float] = []  # loop seconds of each sample
        self.paused = 0.0  # wall seconds spent sampling
        self._previous = None
        self._sampling = False

    def _sample(self, signum=None, frame=None):
        if self._sampling:  # a signal that arrives while a sample is taken
            return
        self._sampling = True
        collecting = gc.isenabled()
        gc.disable()
        began = time.perf_counter()
        self.times.append(began - self.paused)
        self.loops.append(loop_seconds())
        self.paused += time.perf_counter() - began
        if collecting:
            gc.enable()
        self._sampling = False

    def now(self) -> float:
        while True:  # retry when a sample lands between the two reads
            paused = self.paused
            now = time.perf_counter() - paused
            if paused == self.paused:
                return now

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def scaled(self, start: float, end: float) -> float:
        """Seconds of now() from `start` to `end`, on the reference host."""
        first = max(bisect.bisect_right(self.times, start) - 1, 0)
        last = bisect.bisect_left(self.times, end) + 1
        loops = self.loops[first:last]
        return (end - start) * sum(REFERENCE_LOOP_S / loop for loop in loops) / len(loops)

    def timed(self, fn) -> tuple[float, float]:
        """Call `fn`; return the start and end of the call on this clock."""
        start = self.now()
        fn()
        return start, self.now()
