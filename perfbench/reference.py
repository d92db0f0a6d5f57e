"""A fixed reference workload, and region timing scaled to its speed.

The host the benchmark runs on changes speed by up to 40% from one
second to the next (other tenants share its cores), and these changes
last about as long as one unit of a workload.  So every timed region
is cut into segments at unit boundaries, and the reference workload is
timed at every cut.  A segment's time is scaled by
``REFERENCE_S / mean(reference time before, reference time after)``:
the seconds it would have taken with the host at the speed at which
the reference takes :data:`REFERENCE_S`.  The reference is part of the
benchmark, not of ``repro``, so a change to ``repro`` moves the scaled
times exactly as it moves host seconds.

The reference is a small discrete-event loop in the style of the
simulator: a heap of event objects, dict records, and NumPy masks over
a 4096-node pool.  It runs with the garbage collector off, so the size
of the heap a workload leaves behind does not change its time.
"""

from __future__ import annotations

import contextlib
import gc
import heapq
import random
import statistics
import time
from typing import Iterator, List

import numpy as np

#: Events one reference timing fires.
REFERENCE_EVENTS = 1250

#: Seconds the reference takes at the nominal host speed: about its
#: median on the 2-core Xeon VM the benchmark was written on.  Scaled
#: times are seconds at this speed.
REFERENCE_S = 0.020

#: What :func:`reference_loop` returns; a different value means the
#: loop no longer does the same work, and its timings scale nothing.
REFERENCE_RESULT = (1250, 2.324798)


class _Event:
    __slots__ = ("t", "kind", "job")

    def __init__(self, t: float, kind: int, job: dict) -> None:
        self.t = t
        self.kind = kind
        self.job = job

    def __lt__(self, other: "_Event") -> bool:
        return self.t < other.t


def reference_loop():
    """Run the fixed event loop; returns ``(events fired, checksum)``."""
    events = REFERENCE_EVENTS
    rng = random.Random(12345)
    heap: List[_Event] = []
    free = np.ones(4096, dtype=bool)
    running = {}
    queue: List[dict] = []
    for j in range(events // 2):
        heapq.heappush(heap, _Event(rng.random() * 1e5, 0, {
            "id": j, "nodes": rng.randint(1, 64), "work": rng.random() * 3600,
        }))
    acc = 0.0
    fired = 0
    while heap and fired < events:
        ev = heapq.heappop(heap)
        fired += 1
        if ev.kind == 0:
            queue.append(ev.job)
        else:
            free[running.pop(ev.job["id"])] = True
        avail = np.flatnonzero(free)
        keep = []
        for job in queue:
            idx = avail[: job["nodes"]]
            if len(idx) == job["nodes"]:
                free[idx] = False
                avail = avail[job["nodes"]:]
                running[job["id"]] = idx
                heapq.heappush(heap, _Event(ev.t + job["work"], 1, job))
                acc += float(free.sum()) * 1e-6
            else:
                keep.append(job)
        queue = keep[:64]
    return fired, round(acc, 6)


def time_reference() -> float:
    """Host seconds of one reference loop, the garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference_loop()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Segments:
    """Host time of one region, cut into segments at unit boundaries.

    :meth:`begin` times the reference and starts the first segment;
    :meth:`cut` ends the current segment, times the reference and
    starts the next.  The reference timings fall outside every
    segment.  ``unit`` is a drop-in for a workload's ``around``: it
    cuts when the unit ends.
    """

    def __init__(self) -> None:
        self.host: List[float] = []
        self.refs: List[float] = []
        self._t0 = 0.0

    def begin(self) -> None:
        self.refs.append(time_reference())
        self._t0 = time.perf_counter()

    def cut(self) -> None:
        self.host.append(time.perf_counter() - self._t0)
        self.refs.append(time_reference())
        self._t0 = time.perf_counter()

    @contextlib.contextmanager
    def unit(self, name: str) -> Iterator[None]:
        try:
            yield
        finally:
            self.cut()

    def scaled(self) -> List[float]:
        """Each segment's host time scaled to the reference speed."""
        return [
            host * REFERENCE_S / ((before + after) / 2.0)
            for host, before, after in zip(self.host, self.refs, self.refs[1:])
        ]


def sum_of_medians(repeats: List[List[float]]) -> float:
    """Sum over the pieces of each piece's median over the repeats.
    Piece ``i`` is the same work in every repeat (the same center, or
    the same epoch), on that repeat's inputs."""
    pieces = max(len(r) for r in repeats)
    return sum(
        statistics.median(r[i] for r in repeats if i < len(r))
        for i in range(pieces)
    )
