"""Reference loop and program clock of a timed run.

On the shared 2-vCPU VM where the bounds were set, other tenants share the
cores, and speed drifts by 10-25% over seconds to minutes, in CPU time as
much as in wall-clock time.  A timed run therefore runs a fixed reference
loop next to the program, about every 0.1 s: after every operation, and
every ``STEPS_PER_SAMPLE`` steps inside a self-play episode.  Each stretch of program time between two samples is a
*segment*; divided by the mean reference-loop time at its two ends it
gives the segment's length in *reference seconds*, the time it would take
on a machine where ``LOOPS_PER_REF_S`` reference loops take one second.
The reference loop is fixed code of the benchmark, so a change to the
program moves its reference time in full, while a change in machine speed
moves both and cancels.

The loop is pure-Python code of the kinds that dominate every workload:
integer arithmetic, dict, list and set updates, calls, recursion and a
generator.  On that VM it tracked the program's speed better than loops
that also ran numpy code or walked a large dict.  Its own time is left
out of the program clock.
"""

from __future__ import annotations

from time import perf_counter

#: Reference loops per reference second (one loop takes ~3 ms on the 2-vCPU VM).
LOOPS_PER_REF_S = 330


def _chain(x: int, depth: int) -> int:
    return x if depth == 0 else _chain((x * 5 + 1) & 0xFFFF, depth - 1) ^ depth


def reference_loop() -> int:
    # integer arithmetic with dict and list updates
    acc, seen, kept = 0, {}, []
    for i in range(6000):
        acc = (acc * 31 + i) & 0xFFFF
        seen[acc & 0x3FF] = i
        if acc & 7 == 0:
            kept.append(acc)
    # calls, recursion, a generator and set updates
    marks = set()
    for i in range(750):
        v = _chain(i, 4)
        marks.add(v & 0x3FF)
        acc += sum(1 for b in (v, v >> 3, v >> 7) if b & 1)
    return acc + len(seen) + len(kept) + len(marks)


class RefClock:
    """Program clock with reference samples; disabled, it only keeps time."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._excluded = 0.0
        self._last = 0.0  # reference-loop seconds of the latest sample
        self._seg_start = 0.0
        self._op_work = 0
        #: [program seconds, work, reference seconds] per segment
        self.segments: list[list[float]] = []
        #: seconds of every reference loop
        self.loop_s: list[float] = []

    def now(self) -> float:
        """perf_counter time with every reference loop taken out."""
        return perf_counter() - self._excluded

    def _loop(self) -> float:
        t0 = perf_counter()
        reference_loop()
        dt = perf_counter() - t0
        self._excluded += dt
        self.loop_s.append(dt)
        return dt

    def start_op(self) -> None:
        if self.enabled and not self.loop_s:
            self._last = self._loop()
        self._seg_start, self._op_work = self.now(), 0

    def sample(self, work: int) -> None:
        """Close the current segment, which did ``work``, with a fresh
        reference sample."""
        if not self.enabled:
            return
        end = self.now()
        loop = self._loop()
        ref = (self._last + loop) / 2.0 * LOOPS_PER_REF_S
        self.segments.append([end - self._seg_start, work, (end - self._seg_start) / ref])
        self._op_work += work
        self._last = loop
        self._seg_start = self.now()

    def end_op(self, op_work: int) -> None:
        """Close the operation's last segment with the work not yet sampled."""
        self.sample(max(0, op_work - self._op_work))
