"""The host's current speed, from a fixed piece of pure-Python work.

The machines this benchmark runs on are shared, and their speed moves
between states tens of percent apart, every few seconds; CPU time tracks
wall time through them, so no clock removes them. A run therefore times
``probe`` between the phases of every measured round (a ``Clock`` lap)
and scales each phase's times by ``REFERENCE_S`` over the probe's time:
a phase that ran while the host was 30% slow is reported as it would
have run at the reference speed. A phase that runs several threads at
once is scaled by a probe run in as many threads, which also sees both
CPUs and the threads handing the GIL to each other. The probe uses no
code of the program under test, so a change to the program moves the
scaled times exactly as it moves the wall times.

The work mixes what the program spends its time on: regular-expression
tokenizing, dictionary and list building, small-object creation, sorting,
``Decimal`` arithmetic and string formatting.
"""

from __future__ import annotations

import re
import threading
from decimal import Decimal
from statistics import median
from time import perf_counter

# Median probe time on the host the committed results come from (2 vCPUs,
# Intel Xeon, Python 3.11.7) in its fast state. Scaled times are wall
# times at this speed.
REFERENCE_S = 0.00045
# The same for the probe run in two threads at once, per call of either;
# used for any number of threads above one.
REFERENCE_THREADS_S = 0.00054
SLICES = 3
CALLS_PER_SLICE = 6

_WORDS = ("PIPELINE", "STEP", "FILTER", "MAP", "total", "price", "qty", "region",
          "INTO", "WITH", "ON", "AGGREGATE", "SORT", "orders", "customers")
_SOURCE = "\n".join(
    f'    {_WORDS[i % 15]} {_WORDS[(i * 7) % 15]}_{i} = {i * 13 % 97} + "s{i % 11}" # c{i}'
    for i in range(60)
)
_TOKEN = re.compile(r'"(?:[^"\\\n]|\\.)*"|#[^\n]*|[A-Za-z_][A-Za-z0-9_]*|\d+|\S')


class _Cell:
    __slots__ = ("name", "value")

    def __init__(self, name, value):
        self.name = name
        self.value = value


def _work() -> int:
    tokens = _TOKEN.findall(_SOURCE)
    counts: dict = {}
    for tok in tokens:
        counts[tok] = counts.get(tok, 0) + 1
    rows = [{"k": i % 17, "v": Decimal(i) / 7, "s": tokens[i % len(tokens)]} for i in range(200)]
    rows.sort(key=lambda r: (r["k"], r["s"]))
    cells = [_Cell(r["s"], r["v"]) for r in rows if r["k"] % 3]
    total = sum((c.value for c in cells), Decimal(0))
    text = ",".join(f"{r['k']}:{r['s']}" for r in rows)
    return len(counts) + len(text) + int(total)


def probe(threads: int = 1) -> float:
    """Seconds one call of the work takes now: the median of a few slices,
    or with ``threads`` above one, the wall time of that many threads each
    running every slice, over the calls made."""
    if threads > 1:
        calls = SLICES * CALLS_PER_SLICE
        workers = [threading.Thread(target=lambda: [_work() for _ in range(calls)])
                   for _ in range(threads)]
        start = perf_counter()
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        return (perf_counter() - start) / (threads * calls)
    times = []
    for _ in range(SLICES):
        start = perf_counter()
        for _ in range(CALLS_PER_SLICE):
            _work()
        times.append((perf_counter() - start) / CALLS_PER_SLICE)
    return median(times)


def scale(before: float, after: float, threads: int = 1) -> float:
    """Factor that turns wall times measured between two probes of
    ``threads`` threads into times at the reference speed."""
    reference = REFERENCE_S if threads == 1 else REFERENCE_THREADS_S
    return reference / ((before + after) / 2)


class Clock:
    """Times consecutive intervals in seconds at the reference speed.

    Each ``lap`` ends an interval and starts the next: it probes the host
    and scales the interval's wall time by the probes at its two ends,
    taken with as many threads as the interval runs. The probes' own time
    falls in no interval. ``factor`` is the scale of the interval that
    ended last, for times taken inside it with ``perf_counter``. With
    ``probing`` false the clock reads plain wall time.
    """

    def __init__(self, probing: bool = True) -> None:
        self.probing = probing
        self.threads = 1
        self.speed = probe() if probing else REFERENCE_S
        self.factor = 1.0
        self.wall = self.scaled = 0.0
        self.mark = perf_counter()

    def lap(self, then: int = 1) -> float:
        """Seconds, at the reference speed, since the previous lap. The
        interval this lap starts runs ``then`` threads at once."""
        elapsed = perf_counter() - self.mark
        if self.probing:
            end = probe(self.threads)
            self.factor = scale(self.speed, end, self.threads)
            self.speed = end if then == self.threads else probe(then)
        self.threads = then
        self.wall += elapsed
        self.scaled += elapsed * self.factor
        self.mark = perf_counter()
        return elapsed * self.factor
