"""Host-speed scaling of measured durations.

The host this benchmark runs on shares its cores with other tenants, and
its speed drifts by up to ~1.5x over tens of seconds: in one run most
iterations take 32 ms, in the next (same code, same inputs) 50 ms.  That
drift is wider than any bound a regression gate can use, so every timed
end-to-end figure is scaled to a reference host speed: each duration is
multiplied by ``REFERENCE_S / r``, where ``r`` is the median time of the
last few runs of :func:`reference_work` probed right next to it.
:func:`reference_work` is fixed pure-Python modular exponentiation that
calls nothing in the program, so a change to the program moves the
scaled figures exactly as it moves the raw ones, while the host's drift
moves both the duration and ``r`` and cancels.  The raw durations are
reported next to the scaled ones.

A probe keeps its core busy for about a millisecond, and its median
misses the stretches in which the hypervisor runs another tenant on the
core instead.  Work that hands off between processes, leaving cores idle
in between, is held up by those stretches far more often: in the
``served`` workload, training iterations have taken twice as long at the
same probe speed.  The kernel counts such stretches as *steal* time, so
:func:`steal_share` scales those durations further, by the share of the
cores' wanted time (busy or stolen) that they actually ran.
"""

from __future__ import annotations

import collections
import dataclasses
import itertools
import os
import statistics
import time

#: 256-bit prime modulus of the reference computation
_MODULUS = 2 ** 255 - 19
#: Time :func:`reference_work` takes on an unloaded 2.1 GHz Xeon vCPU
#: (CPython 3.11); a scaled duration reads as seconds at that speed.
REFERENCE_S = 0.0007
#: Probes whose median sets the scale of the next duration.
WINDOW = 5


def cpu_jiffies() -> tuple[int, int]:
    """``(busy, stolen)`` clock ticks of the cores this process may use,
    from ``/proc/stat``; ``(0, 0)`` where the kernel does not report them."""
    busy = stolen = 0
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            lines = fh.read().splitlines()
    except OSError:
        return 0, 0
    cpus = {f"cpu{n}" for n in os.sched_getaffinity(0)}
    for line in lines:
        fields = line.split()
        if len(fields) >= 9 and fields[0] in cpus:
            user, nice, system, _idle, _iowait, irq, softirq, steal = (
                int(value) for value in fields[1:9])
            busy += user + nice + system + irq + softirq
            stolen += steal
    return busy, stolen


def steal_share(before: tuple[int, int], after: tuple[int, int]) -> float:
    """Share of the wanted core time between two :func:`cpu_jiffies`
    readings that was not stolen: 1.0 when nothing was."""
    busy, stolen = after[0] - before[0], after[1] - before[1]
    return busy / (busy + stolen) if busy + stolen > 0 else 1.0


def reference_work() -> int:
    value = 0x1234567890ABCDEF
    for _ in range(100):
        value = pow(value, 65537, _MODULUS)
    return value


class Speed:
    """Probes :func:`reference_work` and scales durations by it.

    Each core of the host drifts on its own.  By default a probe runs
    wherever the calling thread runs, like the work timed next to it;
    with ``cpus``, successive probes are pinned to each of those cores in
    turn, for work that spreads over them.
    """

    def __init__(self, cpus: list[int] | None = None):
        self._recent: collections.deque[float] = collections.deque(
            maxlen=WINDOW)
        self._cpus = itertools.cycle(cpus) if cpus else None
        self.probes: list[float] = []

    def probe(self, count: int = 1) -> list[float]:
        """Time ``count`` runs of the reference work; return their times."""
        times = []
        for _ in range(count):
            if self._cpus is not None:
                home = os.sched_getaffinity(0)
                os.sched_setaffinity(0, {next(self._cpus)})
            begin = time.perf_counter()
            reference_work()
            times.append(time.perf_counter() - begin)
            if self._cpus is not None:
                os.sched_setaffinity(0, home)
        self._recent.extend(times)
        self.probes += times
        return times

    def scale(self, probes: list[float] | None = None) -> float:
        """Factor taking a duration measured next to ``probes`` (default:
        the last :data:`WINDOW` probes) to reference speed."""
        return REFERENCE_S / statistics.median(
            self._recent if probes is None else probes)


@dataclasses.dataclass
class Timed:
    """Durations, raw and scaled to reference speed."""

    raw: list[float] = dataclasses.field(default_factory=list)
    scaled: list[float] = dataclasses.field(default_factory=list)

    def add(self, raw: float, scale: float) -> None:
        self.raw.append(raw)
        self.scaled.append(raw * scale)

    def rescale(self, factor: float, first: int = 0) -> None:
        """Multiply the scaled durations from index ``first`` on."""
        self.scaled[first:] = [value * factor
                               for value in self.scaled[first:]]

    def extend(self, other: "Timed") -> None:
        self.raw += other.raw
        self.scaled += other.scaled
