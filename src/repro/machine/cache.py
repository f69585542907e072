"""Cache models for the input-vector access stream.

Three models live here:

* :func:`estimate_stream_misses` — the fast *working-set window* estimator
  the execution simulator uses.  It walks the access stream in windows of
  roughly one cache's worth of lines and counts, per window, the lines that
  were not touched in the previous window.  Regular (banded, blocked)
  streams revisit a small set of lines per window and miss almost never;
  uniformly random or power-law streams touch fresh lines constantly and
  miss heavily — exactly the distinction the paper draws between matrices
  that are bandwidth-bound and the latency-bound ones (#12, #14, #15, #28).
  The stream is treated as cyclic (steady state over 100 iterations, as the
  paper measures): the "previous window" of the first window is the last
  window of the stream.  The implementation neither sorts nor hashes: line
  ids index boolean bitmaps over the line range, one scatter per window,
  so the cost is linear in the stream plus one bitmap pass per window.

* :func:`estimate_stream_misses_windowed` — the original per-window Python
  loop (``np.unique`` per window, ``np.isin`` per window pair), kept as the
  executable specification.  The test suite asserts the bitmap estimator
  agrees with it exactly on randomized streams, and the sweep benchmark
  uses it as the pre-optimization baseline.

* :class:`LRUCache` — an exact, tiny, deliberately slow fully-associative
  LRU simulator used by the test suite to sanity-check the estimators'
  ordering properties on small streams.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

__all__ = [
    "estimate_stream_misses",
    "estimate_stream_misses_windowed",
    "LRUCache",
    "x_budget_lines",
]


def x_budget_lines(
    cache_bytes: int, line_bytes: int, x_cache_fraction: float
) -> int:
    """Number of cache lines the streaming SpMV leaves available to x."""
    return max(int(cache_bytes * x_cache_fraction) // line_bytes, 1)


def estimate_stream_misses(
    line_ids: np.ndarray,
    budget_lines: int,
    *,
    cyclic: bool = True,
    discount_compulsory: bool = True,
) -> int:
    """Estimate *latency-costing* cache misses of a cyclic access stream.

    Parameters
    ----------
    line_ids:
        Cache-line id of every access, in execution order.
    budget_lines:
        Lines of cache capacity available to this stream.
    cyclic:
        Treat the stream as repeating (steady-state SpMV).  When False the
        first window is charged its compulsory misses.
    discount_compulsory:
        Subtract one miss per distinct line.  Touching each line of x once
        per iteration is ordinary streaming traffic — it is already counted
        in the working set and a forward sweep is prefetch-friendly.  What
        costs latency is *re-fetching* lines that irregular accesses keep
        evicting, i.e. the misses beyond the footprint.
    """
    line_ids = np.asarray(line_ids)
    n = line_ids.shape[0]
    if n == 0 or budget_lines <= 0:
        return 0
    low = int(line_ids.min())
    if low < 0:
        line_ids = line_ids - low
    n_lines = int(line_ids.max()) + 1
    # ``prev``/``cur`` are bitmaps over the line range: the lines touched by
    # the previous and the current window.  ``prev`` first serves as the
    # whole stream's footprint.
    prev = np.zeros(n_lines, dtype=bool)
    prev[line_ids] = True
    distinct_total = int(np.count_nonzero(prev))
    if distinct_total <= budget_lines:
        # The whole x footprint is cache-resident in steady state.
        return 0
    window = max(int(budget_lines), 1)
    n_windows = -(-n // window)
    prev[:] = False
    if cyclic:
        # The cyclic steady state wraps window 0's predecessor around to
        # the last window.
        prev[line_ids[(n_windows - 1) * window :]] = True
    cur = np.empty_like(prev)
    misses = 0
    for start in range(0, n, window):
        cur[:] = False
        cur[line_ids[start : start + window]] = True
        if start == 0 and not cyclic:
            # The first window is charged its compulsory misses wholesale.
            misses += int(np.count_nonzero(cur))
        else:
            # Lines touched now but absent from the previous window (for
            # bitmaps, ``cur > prev`` is ``cur & ~prev``).
            misses += int(np.count_nonzero(cur > prev))
        prev, cur = cur, prev
    if discount_compulsory:
        misses = max(misses - distinct_total, 0)
    return misses


def estimate_stream_misses_windowed(
    line_ids: np.ndarray,
    budget_lines: int,
    *,
    cyclic: bool = True,
    discount_compulsory: bool = True,
) -> int:
    """Reference implementation of :func:`estimate_stream_misses`.

    The original per-window Python loop, kept verbatim as the executable
    specification: ``tests/test_cache.py`` asserts the bitmap estimator
    returns exactly the same count on randomized streams, and
    ``benchmarks/bench_sweep.py`` measures against it as the pre-SimPlan
    baseline.  Do not optimize this function.
    """
    line_ids = np.asarray(line_ids)
    n = line_ids.shape[0]
    if n == 0 or budget_lines <= 0:
        return 0
    distinct_total = np.unique(line_ids).shape[0]
    if distinct_total <= budget_lines:
        # The whole x footprint is cache-resident in steady state.
        return 0
    window = max(int(budget_lines), 1)
    n_windows = -(-n // window)
    bounds = [min(k * window, n) for k in range(n_windows + 1)]
    uniques = [
        np.unique(line_ids[bounds[k] : bounds[k + 1]]) for k in range(n_windows)
    ]
    misses = 0
    for k in range(n_windows):
        cur = uniques[k]
        if k == 0:
            if not cyclic:
                misses += cur.shape[0]
                continue
            prev = uniques[-1]
        else:
            prev = uniques[k - 1]
        # Lines touched now but absent from the previous window → misses.
        misses += int(cur.shape[0] - np.isin(cur, prev, assume_unique=True).sum())
    if discount_compulsory:
        misses = max(misses - distinct_total, 0)
    return misses


class LRUCache:
    """Exact fully-associative LRU cache of ``capacity`` lines (test oracle)."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._lines: OrderedDict[int, None] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def access(self, line: int) -> bool:
        """Touch ``line``; returns True on hit."""
        if line in self._lines:
            self._lines.move_to_end(line)
            self.hits += 1
            return True
        self.misses += 1
        self._lines[line] = None
        if len(self._lines) > self.capacity:
            self._lines.popitem(last=False)
        return False

    def run(self, line_ids: np.ndarray) -> int:
        """Feed a whole stream; returns the miss count."""
        for line in np.asarray(line_ids).tolist():
            self.access(int(line))
        return self.misses
