"""Measurement helpers: nearest-rank percentiles, the ten-beyond tail rule,
operation tallies and peak-RSS readings from ``/proc``."""

from __future__ import annotations

import math
import statistics
import threading
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "MIN_BEYOND",
    "Tally",
    "RssWatcher",
    "percentile",
    "samples_beyond",
    "tail_percentile",
    "median",
    "peak_rss_mib",
]

#: A tail percentile is reported only when at least this many samples lie
#: beyond it; otherwise it is a statement about one or two outliers.
MIN_BEYOND = 10


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile: always one of the measured samples."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * p / 100.0))
    return ordered[rank - 1]


def samples_beyond(n: int, p: float) -> int:
    """How many of ``n`` samples rank above the nearest-rank ``p``-th."""
    return n - max(1, math.ceil(n * p / 100.0))


def tail_percentile(
    n: int, candidates: tuple[float, ...] = (99.9, 99, 95, 90, 75, 50)
) -> float | None:
    """The highest candidate percentile with ``MIN_BEYOND`` samples beyond."""
    for p in candidates:
        if samples_beyond(n, p) >= MIN_BEYOND:
            return p
    return None


def median(values: list[float]) -> float:
    return statistics.median(values)


@dataclass
class Tally:
    """Operations attempted and failed, with the first few failure reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def record(self, failure: str | None) -> None:
        """Count one operation; ``failure`` is its reason, or None if it
        succeeded and its output checked out."""
        self.attempted += 1
        if failure is not None:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(failure)


def peak_rss_mib(pid: int) -> float:
    """The process's peak resident set (VmHWM) so far, in MiB; 0 once it
    has exited."""
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0.0
    for line in text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


def _children(pid: int) -> list[int]:
    out: list[int] = []
    task_root = Path(f"/proc/{pid}/task")
    try:
        tasks = sorted(task_root.iterdir())
    except OSError:
        return out
    for task in tasks:
        try:
            out.extend(int(c) for c in (task / "children").read_text().split())
        except OSError:
            continue
    return out


class RssWatcher:
    """Polls a process tree and keeps each process's peak RSS.

    The sum over processes is the memory the run needed with all its
    workers alive at once (each worker's peak counted once).
    """

    #: Seconds between polls of the process tree.
    INTERVAL_S = 0.05

    def __init__(self, root_pid: int) -> None:
        self.root_pid = root_pid
        self.peaks_mib: dict[int, float] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _poll(self) -> None:
        pending = [self.root_pid]
        while pending:
            pid = pending.pop()
            rss = peak_rss_mib(pid)
            if rss > self.peaks_mib.get(pid, 0.0):
                self.peaks_mib[pid] = rss
            pending.extend(_children(pid))

    def _loop(self) -> None:
        while not self._stop.is_set():
            self._poll()
            self._stop.wait(self.INTERVAL_S)

    def start(self) -> "RssWatcher":
        self._thread.start()
        return self

    def stop(self) -> float:
        """Stop polling; the summed peak RSS of every process seen, MiB."""
        self._stop.set()
        self._thread.join(timeout=5)
        return sum(self.peaks_mib.values())
