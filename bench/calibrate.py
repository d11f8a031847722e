"""Host speed, measured all through a run by a speedometer process.

The benchmark shares its host with other work, and the host's speed
moves by up to half from one stretch of a few seconds to the next: a
fixed pure-Python loop takes 0.15 s in one and 0.23 s in the next, in
CPU time as much as in wall time. A wall time taken across such a
stretch says as much about the host as about the program.

So :class:`HostSpeed` starts a process on the benchmark's CPU that,
every :data:`PERIOD_S`, times a fixed piece of pure-Python work
(:func:`_work`) in its own CPU time: the benchmark's processes sharing
the CPU cannot inflate that time, a slower host does. Each timed
stretch of the run is reported at the reference speed: its wall time
times :data:`REFERENCE_S` over the mean sample time during the stretch.
The work imports nothing from the program, so a change to the program
cannot move it.

Timing the host only right before and after each stretch does not work
for long stretches: in one paired comparison, ten runs of a 4 s DSE
operation spread by 14% that way and by 3% with samples taken during
the operation.
"""

import bisect
import gc
import multiprocessing
import statistics
import time

#: Seconds between two samples. A sample costs about 0.3 ms of CPU, so
#: the speedometer takes under 2% of the CPU it shares.
PERIOD_S = 0.02

#: Passes of :func:`_work` per sample, after :data:`WARMUP` untimed ones
#: that refill the caches the benchmark evicted.
LOOP = 100
WARMUP = 10

#: Median CPU time of one sample on a 2-vCPU Xeon VM. Only its
#: constancy matters: it turns sample times back into seconds of about
#: the size a wall time has on that host.
REFERENCE_S = 0.0003

_WORDS = ("alpha", "beta", "gamma", "delta", "epsilon")


class _Item:
    __slots__ = ("key", "pair")

    def __init__(self, key):
        self.key = key
        self.pair = (key, key)

    def shifted(self, offset):
        return self.key + offset


def _plus_one(value):
    return value + 1


def _work(passes):
    """Mixed interpreter work: dict, set and list building, sorting,
    small objects, calls, f-strings and exceptions.

    A host slowed by its neighbours slows such code more than a tight
    arithmetic loop: timed against a tight loop, the benchmark's
    operations slowed by about the loop's slowdown to the power 1.4;
    against this mix, by about the same factor.
    """
    total = 0
    for index in range(passes):
        ranks = {word: rank for rank, word in enumerate(_WORDS)}
        seen = {index % 7, index % 5, index % 3}
        order = sorted([index * 7 % 11, index * 3 % 5, index % 13, 4, 1])
        item = _Item(index)
        label = f"{_WORDS[index % 5]}:{index}"
        total += (_plus_one(index) + item.shifted(order[0]) + len(seen)
                  + ranks["gamma"] + len(label) + sum(item.pair))
        try:
            if index % 17 == 0:
                raise KeyError(index)
        except KeyError:
            total += 1
        total &= 0xFFFFF
    return total


def _sample_until_stopped(conn):
    """The speedometer process: ``(perf_counter, sample CPU seconds)``
    every :data:`PERIOD_S` until the parent writes to (or closes) its
    end of the pipe; then sends the samples back."""
    gc.disable()
    samples = []
    while not conn.poll(PERIOD_S):
        _work(WARMUP)
        start = time.process_time()
        _work(LOOP)
        samples.append((time.perf_counter(), time.process_time() - start))
    conn.send(samples)
    conn.close()


def at_reference(times, costs, start, end):
    """Seconds the stretch ``[start, end]`` (``perf_counter`` values)
    would take at the reference speed, from the sample times ``costs``
    taken at ``times``. A stretch shorter than the sampling period uses
    the samples on either side of it."""
    first = bisect.bisect_left(times, start)
    last = bisect.bisect_right(times, end)
    inside = costs[first:last] or costs[max(0, first - 1):first + 1]
    return (end - start) * REFERENCE_S / statistics.fmean(inside)


class HostSpeed:
    """The speedometer of one run: started on creation, on the CPU the
    creating process may use, and sampled until :meth:`stop`."""

    def __init__(self):
        self._conn, child = multiprocessing.Pipe()
        self._process = multiprocessing.get_context("fork").Process(
            target=_sample_until_stopped, args=(child,), daemon=True,
        )
        self._process.start()
        child.close()
        self.times = None
        self.costs = None

    def stop(self):
        """Stop the speedometer, wait for it to end and keep its
        samples; :meth:`normalise` needs them."""
        if self.times is not None:
            return
        self._conn.send(None)
        samples = self._conn.recv()
        self._conn.close()
        self._process.join()
        self.times = [moment for moment, _ in samples]
        self.costs = [cost for _, cost in samples]

    def normalise(self, start, end):
        """The stretch ``[start, end]`` at the reference speed."""
        if self.times is None:
            raise RuntimeError("stop the speedometer before normalising")
        return at_reference(self.times, self.costs, start, end)
