"""Speed probe: scales CPU time to a fixed reference speed.

On a shared host the speed of a vCPU drifts by up to 40 % over seconds, as
neighbours load the same cores; CPU time does not remove that.  A probe
measures it on the thread being timed: every `interval_s` of process CPU
time a timer signal runs a fixed kernel (allocation-heavy pure Python, like the
library) and records the kernel's thread CPU time.  A phase's scale factor
is the 10 %-trimmed mean of REFERENCE_S / sample over the samples taken in
that phase, so a phase's scaled time is the CPU time it would have taken at
the speed where the kernel takes REFERENCE_S.  The kernel's own time is
subtracted from every measurement before scaling.
"""
from __future__ import annotations

import bisect
import signal
import time

REFERENCE_S = 0.0008  # kernel CPU time on a 2.1 GHz x86 vCPU of the calibration host


def kernel() -> int:
    """Fixed work in the idioms the library spends its time in: frozensets
    and sorting (decoder tables), bisect and dict bookkeeping over tuples
    (gridding checks), and recursive bitmask search (lettering)."""
    acc = 0
    for _ in range(3):
        pairs = frozenset((i % 13, (i * 7) % 11) for i in range(120))
        table: dict = {}
        for a, b in sorted(pairs):
            table[(a, b)] = table.get((b, a), 0) + a * b
        acc += sum(table.values()) + len([p for p in pairs if p[0] > p[1]])
    divs = (1, 5, 9, 14)
    values = [(i * 7) % 17 + 1 for i in range(1, 17)]
    for _ in range(45):
        last: dict = {}
        for i, v in enumerate(values, start=1):
            k = bisect.bisect_right(divs, i)
            prev = last.get((k, v & 3))
            if prev is None or prev < v:
                last[(k, v & 3)] = v
        acc += len(last)

    def search(placed: int, depth: int) -> int:
        if depth == 5:
            return 1
        found = 0
        for v in range(8):
            if not placed >> v & 1 and (v ^ depth) & 1:
                found += search(placed | 1 << v, depth + 1)
        return found

    return acc + search(0, 0)


class SpeedProbe:
    def __init__(self, interval_s: float):
        self.interval_s = interval_s
        self.samples: list[tuple[float, float]] = []  # (perf_counter at end, kernel CPU s)
        self.spent = 0.0  # total kernel CPU time, to subtract from measurements

    def _on_timer(self, signum, frame) -> None:
        start = time.thread_time()
        kernel()
        took = time.thread_time() - start
        self.samples.append((time.perf_counter(), took))
        self.spent += took

    def start(self) -> None:
        self._on_timer(None, None)  # one sample up front, so no run goes without
        signal.signal(signal.SIGPROF, self._on_timer)
        signal.setitimer(signal.ITIMER_PROF, self.interval_s, self.interval_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def factor(self, since: float = float("-inf"), until: float = float("inf"), at_least: int = 1):
        """Scale factor from the samples taken in [since, until] (perf_counter),
        or None when fewer than `at_least` were taken there."""
        ratios = sorted(REFERENCE_S / took for end, took in self.samples if since <= end <= until)
        if len(ratios) < max(at_least, 1):
            return None
        trim = len(ratios) // 10
        kept = ratios[trim:len(ratios) - trim]
        return sum(kept) / len(kept)
