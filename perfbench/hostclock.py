"""Time corrected for the host's speed, sampled while each request runs.

The benchmark's host is a few vCPUs of a shared machine whose speed drifts
by 20-50 % over a few seconds, in CPU time as well as in wall time.  Raw
times from such a host spread more between runs than any useful bound.  So
the benchmark times every process it starts on a corrected clock:

- the benchmark and its children are pinned to one CPU (``pin``), so the
  probe below and the program run on the same vCPU, one after the other;
- every ``INTERVAL_S`` of a child's running time, the child is stopped
  (SIGSTOP), a fixed piece of pure-Python work owned by the benchmark is
  timed (``probe``), and the child is resumed (SIGCONT);
- a stretch of running time between two probes counts as its length times
  the host-speed factor: ``REFERENCE_PROBE_S`` over the geometric mean of
  the two probe times, to the power ``SENSITIVITY``.

The program slows down more than the probe when the host does.  On the
2-vCPU host where the benchmark was written, the log of a request's time
against the log of the time-weighted probe time had a slope of 1.2 to 2.3
across request types, with correlations of 0.94 to 0.99; over the passes
of 40 runs of the four workloads, the exponent 1.5 left the least spread
(see README.md).  A corrected time reads in seconds at the
reference speed, the speed at which one probe takes ``REFERENCE_PROBE_S``.
It is the raw time times a factor that depends on the probe alone, so it
moves with the program's own speed exactly as a raw time does, while most
of the host's drift cancels.  Time a child spends stopped is not counted.
The probe does big-integer and small-integer arithmetic, the two kinds of
work the program's layers do, and never calls the program.
"""

from __future__ import annotations

import bisect
import math
import os
import select
import signal
import subprocess
import time
from dataclasses import dataclass, field

INTERVAL_S = 0.1
REFERENCE_PROBE_S = 0.008
SENSITIVITY = 1.5

_BIG_A = 3 ** 2000
_BIG_B = 7 ** 1900
_BIG_M = (1 << 4096) - 1


def _big_work() -> int:
    a = _BIG_A
    for i in range(100):
        a = (a * _BIG_B + i) % _BIG_M
    return a


def _small_work() -> int:
    s = 0
    for i in range(80000):
        s += i * i % 7
    return s


def probe() -> float:
    """Seconds one probe takes now: the geometric mean of its two parts' times."""
    start = time.perf_counter()
    _big_work()
    middle = time.perf_counter()
    _small_work()
    end = time.perf_counter()
    return math.sqrt((middle - start) * (end - middle))


def pin() -> int:
    """Pin this process, and so every child it starts, to one CPU; returns that CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


@dataclass
class Timeline:
    """The running stretches of one child: ``(start, end, corrected seconds)``.

    ``start`` and ``end`` are ``time.perf_counter`` readings, which on Linux
    is CLOCK_MONOTONIC and so agrees between processes; a child can report
    its own timestamps and the parent maps them with ``clock``.
    """

    segments: list = field(default_factory=list)
    _starts: list = field(default_factory=list)
    _before: list = field(default_factory=list)  # corrected seconds before each segment

    def add(self, start: float, end: float, probe_before: float, probe_after: float) -> None:
        corrected = (end - start) * (REFERENCE_PROBE_S / math.sqrt(probe_before * probe_after)) ** SENSITIVITY
        self._before.append(self.corrected_s)
        self._starts.append(start)
        self.segments.append((start, end, corrected))

    @property
    def raw_s(self) -> float:
        return sum(end - start for start, end, _ in self.segments)

    @property
    def corrected_s(self) -> float:
        return self._before[-1] + self.segments[-1][2] if self.segments else 0.0

    def clock(self, t: float) -> float:
        """Corrected running seconds from the child's start up to the instant ``t``."""
        i = bisect.bisect_right(self._starts, t) - 1
        if i < 0:
            return 0.0
        start, end, corrected = self.segments[i]
        if t >= end or end == start:
            return self._before[i] + corrected
        return self._before[i] + corrected * (t - start) / (end - start)


def run_sampled(argv: list[str], timeout_s: float, **popen) -> tuple[int, object, Timeline]:
    """Run ``argv`` to completion on the corrected clock.

    Returns the exit code (negative for a signal, as ``subprocess`` gives
    it), the child's ``resource.struct_rusage`` from ``wait4`` and its
    timeline.  The child is killed after ``timeout_s`` of wall time.  On
    every way out the child has ended and been reaped.
    """
    timeline = Timeline()
    last_probe = probe()
    proc = subprocess.Popen(argv, **popen)
    status = usage = None
    try:
        pidfd = os.pidfd_open(proc.pid)
        try:
            poller = select.poll()
            poller.register(pidfd, select.POLLIN)
            deadline = time.perf_counter() + timeout_s
            start = time.perf_counter()
            while not poller.poll(INTERVAL_S * 1000):
                os.kill(proc.pid, signal.SIGSTOP)
                _, status, usage = os.wait4(proc.pid, os.WUNTRACED)
                end = time.perf_counter()
                if not os.WIFSTOPPED(status):  # it ended before the signal came
                    break
                status = None
                now_probe = probe()
                timeline.add(start, end, last_probe, now_probe)
                last_probe = now_probe
                if end > deadline:
                    os.kill(proc.pid, signal.SIGKILL)
                os.kill(proc.pid, signal.SIGCONT)
                start = time.perf_counter()
            else:
                end = time.perf_counter()
        finally:
            os.close(pidfd)
        if status is None:
            _, status, usage = os.wait4(proc.pid, 0)
        timeline.add(start, end, last_probe, probe())
    finally:
        if status is None:
            proc.kill()
            os.kill(proc.pid, signal.SIGCONT)
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage, timeline
