"""Host-side measurements: the wall clock, CPU time, resident memory, and
cleanup of the helper processes ``multiprocessing`` leaves running.

Everything here reads the operating system, never the program under test.
"""

from __future__ import annotations

import gc
import heapq
import os
import resource
import threading
import time
from pathlib import Path
from typing import Optional

#: The benchmark's only wall clock.  Every wall-clock timing in this
#: directory goes through it; the program under test keeps to simulated time.
clock = time.perf_counter

#: CPU time of the calling thread.  The in-process workloads run each job
#: on the thread that times it; unlike the wall clock, this one stands still
#: while the thread waits for a processor the shared host gave to others.
thread_clock = time.thread_time

#: CPU seconds :func:`calibration_seconds` takes on the measurement host (a
#: two-core x86-64 container) when its neighbours are quiet.
REFERENCE_CALIBRATION_S = 0.05


def calibration_seconds() -> float:
    """Thread CPU seconds of a fixed task that runs no code of the program:
    heap, dict and sort work in pure Python, like the simulator's own.

    A shared host's neighbours slow the CPU time of such work too, by up to
    a third for tens of seconds; :data:`REFERENCE_CALIBRATION_S` divided
    by this is how fast the host is running the calling thread right now.
    The garbage collector is off meanwhile: a collection would scan the
    program's heap, and a change to the program would then move this time.
    """
    gc.disable()
    try:
        started = thread_clock()
        heap: list[tuple[int, int]] = []
        table: dict[int, list] = {}
        for i in range(20000):
            heapq.heappush(heap, ((i * 7919) % 10007, i))
            table[i] = [i, str(i)]
        while heap:
            heapq.heappop(heap)
        sorted(table.items(), key=lambda item: -item[0])
        return thread_clock() - started
    finally:
        gc.enable()


_PAGE_BYTES = os.sysconf("SC_PAGE_SIZE")
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
_MB = 1024.0 * 1024.0


def _forkserver_pid() -> Optional[int]:
    from multiprocessing import forkserver

    return getattr(forkserver._forkserver, "_forkserver_pid", None)


def _stat_fields(pid: int) -> Optional[list[str]]:
    """``/proc/<pid>/stat`` from field 3 (state) on, or ``None`` if gone."""
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    return text.rsplit(")", 1)[1].split()


def cpu_seconds() -> float:
    """CPU time used so far by this process and every child it reaped, plus
    the fork server and the workers the fork server reaped.

    Process-executor workers are children of the fork server, not of this
    process, so ``RUSAGE_CHILDREN`` alone would miss them.
    """
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    pid = _forkserver_pid()
    fields = None if pid is None else _stat_fields(pid)
    if fields is not None:
        # utime, stime, cutime, cstime are stat fields 14-17.
        total += sum(int(value) for value in fields[11:15]) / _CLOCK_TICKS
    return total


def _descendants(root: int) -> list[int]:
    parent_of: dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            if fields is not None:
                parent_of[int(entry)] = int(fields[1])
    found: list[int] = []
    frontier = [root]
    while frontier:
        parent = frontier.pop()
        children = [pid for pid, ppid in parent_of.items() if ppid == parent]
        found.extend(children)
        frontier.extend(children)
    return found


def _rss_bytes(pid: int) -> int:
    try:
        return int(Path(f"/proc/{pid}/statm").read_text().split()[1]) * _PAGE_BYTES
    except (OSError, IndexError, ValueError):
        return 0


def _own_high_water_bytes() -> int:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) * 1024
    return 0


class PeakRss:
    """Peak resident memory of this process and all its descendants.

    A daemon thread sums the RSS of the process tree every ``interval_s``;
    the result is the larger of the highest sum and this process's own
    kernel-kept high-water mark (which catches peaks between samples).
    """

    def __init__(self, interval_s: float = 0.5) -> None:
        self.interval_s = interval_s
        self._peak_bytes = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample_until_stopped, daemon=True)

    def __enter__(self) -> "PeakRss":
        self._thread.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._stop.set()
        self._thread.join()

    def _sample_until_stopped(self) -> None:
        me = os.getpid()
        while not self._stop.is_set():
            tree = sum(_rss_bytes(pid) for pid in [me, *_descendants(me)])
            self._peak_bytes = max(self._peak_bytes, tree)
            self._stop.wait(self.interval_s)

    @property
    def peak_mb(self) -> float:
        return max(self._peak_bytes, _own_high_water_bytes()) / _MB


def stop_multiprocessing_helpers() -> None:
    """Stop the fork server and the resource tracker, waiting for both.

    ``multiprocessing`` starts them on first use of a fork-server context
    and otherwise leaves them to exit after this process does.
    """
    from multiprocessing import forkserver, resource_tracker

    forkserver._forkserver._stop()
    resource_tracker._resource_tracker._stop()
