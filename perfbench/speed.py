"""Timings at a reference speed, for a host whose speed keeps changing.

On a shared virtual machine the same Python code runs up to twice as
slowly from one moment to the next, and for minutes at a stretch,
depending on what other tenants of the physical cores do.  A plain wall
time then moves between runs by more than any regression worth
catching.  :class:`Speedometer` measures the CPU's current speed with a
fixed calibration loop, :func:`unit`, and scales an operation's wall
time to what it would have been at the speed of the reference machine::

    seconds_at_reference = wall * reference_unit_s / mean_unit_time

The loop is pure Python, like the program under test, and lives here,
so no change to the program can make it faster or slower.  It runs with
the garbage collector off: a heap the program left larger must not slow
the loop down and so hide the program's own slowdown.  The harness pins
itself and every process it starts to one CPU, so the loop measures the
CPU the work runs on.  It is measured in one of two ways:

* :meth:`Speedometer.time`, for work in this process: in bursts right
  before and right after the operation, the one after a tenth as long
  as the operation.  Most such operations last well under a second.
* :meth:`Speedometer.sampling`, for a wait on a child process: a thread
  runs one unit every :data:`SAMPLE_EVERY_S` while the child runs,
  preempting it on the shared CPU, and the samples' time is taken off
  the operation's.  Sampled across the operation, the estimate follows
  the speed the child saw: on the reference machine one 1-second
  campaign process, repeated, varied by 3% (standard deviation over
  mean) this way and by 8% with bursts around it.
"""

from __future__ import annotations

import gc
import threading
import time
from contextlib import contextmanager
from typing import Iterator

#: seconds one :func:`unit` takes, in bursts, on an unloaded CPU of the
#: reference machine (2-vCPU Intel Xeon virtual machine, Python 3.11):
#: the fast mode of its unit times
REFERENCE_UNIT_S = 0.0005
#: the same for a unit sampled between a child's time slices, which
#: starts on caches the child filled: about 10% longer
REFERENCE_SAMPLE_S = 0.00055
#: a burst after an operation lasts this share of the operation
BURST_SHARE = 0.1
#: a burst older than this is remeasured before the next operation
STALE_S = 0.25
#: period of the samples taken while a child process runs
SAMPLE_EVERY_S = 0.02


class _Node:
    __slots__ = ("op", "kids", "value")

    def __init__(self, op: str, kids: tuple, value: int) -> None:
        self.op = op
        self.kids = kids
        self.value = value


def _build(depth: int, seed: int) -> _Node:
    if depth == 0:
        return _Node("leaf", (), seed % 17)
    return _Node("+" if seed & 1 else "*",
                 (_build(depth - 1, 3 * seed + 1), _build(depth - 1, 5 * seed + 2)),
                 0)


def _evaluate(node: _Node, memo: dict) -> int:
    if node.op == "leaf":
        return node.value
    if id(node) in memo:
        return memo[id(node)]
    left, right = (_evaluate(kid, memo) for kid in node.kids)
    out = (left + right) % 1009 if node.op == "+" else (left * right) % 1009
    memo[id(node)] = out
    return out


#: Fortran-like text for the tokenizing third of :func:`unit`
_TEXT = "".join(
    f"      DO {i} K = 1, N{i % 7}\n"
    f"        A(K+{i % 5}) = B(K) * C{i % 3} + D(K-1)\n"
    f"   {i} CALL SUB{i % 11}(A, N)\n"
    for i in range(40)
)


def unit() -> int:
    """One calibration unit, about half a millisecond, in three parts of
    about equal time: recursive calls over a tree, tokenizing and
    counting text, and allocating small containers.

    How much a busy neighbour slows code down depends on the code.  On
    the reference machine, from a fast phase to a slow one, each part
    alone slowed by 1.7x to 2.2x and the workloads by 1.5x to 1.8x.
    Over a ten-minute probe cut into 27-second stretches, the medians of
    the stretches' workload times spread between the quartiles by 4-8%
    scaled by the mix, and by 7-14% scaled by one part alone.
    """
    acc = 0
    for i in range(2):
        acc += _evaluate(_build(6, i), {})
    tokens = (_TEXT.replace("(", " ( ").replace(")", " ) ")
              .replace(",", " , ").split())
    counts: dict[str, int] = {}
    for token in tokens:
        key = token.lower()
        counts[key] = counts.get(key, 0) + 1
    acc += len(sorted(counts.items()))
    cells = [(j, [j, j + 1], {"k": j}) for j in range(700)]
    return acc + len(cells)


def burst(seconds: float) -> tuple[float, int]:
    """Run :func:`unit` for at least *seconds*, once at least; the
    seconds spent and the units run."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        units = 0
        started = time.perf_counter()
        while True:
            unit()
            units += 1
            spent = time.perf_counter() - started
            if spent >= seconds:
                return spent, units
    finally:
        if enabled:
            gc.enable()


class Timing:
    """What one timed block measured."""

    wall_s: float = 0.0
    #: measured seconds per calibration unit, and the reference machine's
    unit_s: float = REFERENCE_UNIT_S
    reference_unit_s: float = REFERENCE_UNIT_S

    @property
    def seconds(self) -> float:
        """``wall_s`` at the reference machine's speed."""
        return self.wall_s * self.reference_unit_s / self.unit_s


class Speedometer:
    """Wall times of operations, scaled to the reference speed."""

    def __init__(self) -> None:
        self._last = burst(0.02)
        self._measured_at = time.perf_counter()

    @contextmanager
    def time(self) -> Iterator[Timing]:
        """Time the block; its :class:`Timing` is complete on exit."""
        if time.perf_counter() - self._measured_at > STALE_S:
            self._last = burst(0.005)
        before = self._last
        timing = Timing()
        started = time.perf_counter()
        try:
            yield timing
        finally:
            timing.wall_s = time.perf_counter() - started
            self._last = burst(BURST_SHARE * timing.wall_s)
            self._measured_at = time.perf_counter()
            timing.unit_s = ((before[0] + self._last[0])
                             / (before[1] + self._last[1]))

    @contextmanager
    def sampling(self) -> Iterator[Timing]:
        """Time a block that waits for a child process on this CPU,
        sampling the speed while it waits; complete on exit."""
        stop = threading.Event()
        samples: list[float] = []

        def sample() -> None:
            while not stop.wait(SAMPLE_EVERY_S):
                samples.append(burst(0)[0])

        sampler = threading.Thread(target=sample, daemon=True)
        timing = Timing()
        timing.reference_unit_s = REFERENCE_SAMPLE_S
        started = time.perf_counter()
        sampler.start()
        try:
            yield timing
        finally:
            stop.set()
            sampler.join()
            taken = samples or [burst(0)[0]]
            timing.wall_s = time.perf_counter() - started - sum(samples)
            timing.unit_s = sum(taken) / len(taken)
