"""Per-candidate simulation plans: factor ``simulate()``'s invariants.

The sweep calls the execution simulator once per (candidate, precision,
impl, threads) cell — up to 12 calls per candidate under the full config —
and most of what each call computes depends only on the format structure
and at most the precision:

* the per-part row-cost vectors (``costs.block_row_cycles``) depend on
  (structure, effective impl, precision), not the thread count;
* the balanced row partition depends on (structure, thread count) only, and
  its per-thread segment sums on (partition, row costs);
* the decomposition working-set shares and the streaming-loss factor depend
  on (structure, precision) only;
* the x-access cache-miss estimate depends on (structure, precision) only.

A :class:`SimPlan` is built once per (format, machine, precision) and
memoizes all of the above, so batch-evaluating every (impl, threads) cell
only redoes the genuinely per-cell arithmetic.  The plan is cached on the
format object itself (``fmt._sim_plans``), which is how
``MatrixProgram.fmt_cache`` — one structure reused across scalar/SIMD
candidates, precisions and thread counts — turns into cross-cell reuse.

The plan is **bit-identical** to the historical per-call path: every float
operation happens with the same operands in the same order, memoization
only removes recomputation of identical intermediate arrays.  The x-miss
term additionally short-circuits through two *exact* structural bounds
before touching the element stream:

1. if even the largest reachable cache line fits inside the budget, the
   distinct-line count trivially does too (``estimate_stream_misses``
   returns 0 whenever ``distinct <= budget``), and
2. otherwise the exact distinct-line count — an OR-reduction per cache
   line of the (cached) boolean mask of touched columns, far smaller than
   the element stream — decides residency.

Only genuinely latency-bound parts ever expand their element stream.
``repro.machine.executor.simulate`` is a thin wrapper over this module;
``simulate_reference`` there preserves the original unfactored path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ModelError
from ..formats.base import SparseFormat, XAccessStream
from ..parallel.partition import balanced_partition, stored_per_block_row
from ..types import Impl, Precision
from .cache import estimate_stream_misses, x_budget_lines
from .machine import MachineModel

__all__ = ["SimResult", "SimPlan", "get_plan", "MAX_PLANS_PER_FORMAT"]

#: Per-format cap on cached plans.  One sweep touches at most a few
#: (machine, precision) pairs per structure, but long-lived advisor/fleet
#: processes see many machines over time; the memo is LRU-bounded so format
#: objects cannot grow without bound.
MAX_PLANS_PER_FORMAT = 8


@dataclass(frozen=True)
class SimResult:
    """Breakdown of one simulated SpMV execution."""

    t_total: float
    t_mem: float
    t_comp: float
    t_comp_exposed: float
    t_latency: float
    ws_bytes: int
    x_misses: int
    nthreads: int
    precision: Precision
    impl: Impl

    @property
    def bound(self) -> str:
        """Which resource dominates: ``"memory"``, ``"compute"`` or ``"latency"``."""
        overlap_part = max(self.t_mem, self.t_comp - self.t_comp_exposed)
        if self.t_latency >= overlap_part:
            return "latency"
        if self.t_mem >= self.t_comp - self.t_comp_exposed:
            return "memory"
        return "compute"


def _stream_max_line(stream: XAccessStream, line_elems: int) -> int:
    """Largest cache-line id the stream can touch, without expanding it."""
    if stream.widths is not None:
        max_col = int((stream.starts + stream.widths - 1).max())
    else:
        max_col = int(stream.starts.max()) + stream.width - 1
    return max(max_col, 0) // line_elems


def _x_col_mask(part: SparseFormat) -> np.ndarray:
    """Boolean mask of the x columns the part touches (cached on the part).

    Negative columns (BCSD edge diagonals begin off-matrix) clip to column
    0, as :meth:`XAccessStream.line_ids` does.  Fixed-width streams dilate
    the mask of their access starts by the width, so wide-block formats
    never expand their element stream here; variable-width (VBL) streams
    scatter their element columns.
    """
    mask = part.__dict__.get("_x_col_mask")
    if mask is None:
        stream = part.x_access_stream()
        if stream.widths is not None:
            cols = np.maximum(stream.element_columns(), 0)
            mask = np.zeros(int(cols.max()) + 1, dtype=bool)
            mask[cols] = True
        else:
            low = min(int(stream.starts.min()), 0)
            starts = np.zeros(int(stream.starts.max()) + 1 - low, dtype=bool)
            starts[stream.starts - low] = True
            # Column c is touched iff some start lies in (c - width, c].
            dilated = np.zeros(starts.shape[0] + stream.width - 1, dtype=bool)
            for offset in range(stream.width):
                dilated[offset : offset + starts.shape[0]] |= starts
            mask = dilated[-low:]
            if low < 0 and dilated[:-low].any():
                mask[0] = True
        part.__dict__["_x_col_mask"] = mask
    return mask


def _distinct_lines(part: SparseFormat, line_elems: int) -> int:
    """Exact number of distinct x cache lines the part's stream touches."""
    mask = _x_col_mask(part)
    line_starts = np.arange(0, mask.shape[0], line_elems)
    return int(np.count_nonzero(np.logical_or.reduceat(mask, line_starts)))


def _estimate_part_misses(
    part: SparseFormat, line_elems: int, budget: int
) -> int:
    if budget <= 0:
        return 0
    stream = part.x_access_stream()
    if len(stream) == 0:
        return 0
    # Exact structural shortcuts: estimate_stream_misses returns 0 whenever
    # the distinct-line count fits the budget, and both bounds below decide
    # exactly that without materialising the element-granularity stream.
    if _stream_max_line(stream, line_elems) + 1 <= budget:
        return 0
    if _distinct_lines(part, line_elems) <= budget:
        return 0
    return int(estimate_stream_misses(stream.line_ids(line_elems), budget))


def _part_misses(part: SparseFormat, line_elems: int, budget: int) -> int:
    """The part's memoised x-miss estimate (same memo the old path used)."""
    cache = part.__dict__.setdefault("_x_miss_cache", {})
    key = (line_elems, budget)
    misses = cache.get(key)
    if misses is None:
        misses = _estimate_part_misses(part, line_elems, budget)
        cache[key] = misses
    return misses


class SimPlan:
    """Everything ``simulate`` needs for one (format, machine, precision).

    Build once, then :meth:`run` every (impl, nthreads) cell; structure-
    dependent intermediates are computed on first use and shared across
    cells.  Not thread-safe (the sweep is process-parallel, not
    thread-parallel); plans hold a reference to the machine and the format
    and are never pickled.
    """

    def __init__(
        self,
        fmt: SparseFormat,
        machine: MachineModel,
        precision: Precision | str = Precision.DP,
    ) -> None:
        self.fmt = fmt
        self.machine = machine
        self.precision = Precision.coerce(precision)
        self.ws = fmt.working_set(self.precision)
        self.parts = tuple(fmt.submatrices())
        if len(self.parts) > 1:
            # Decomposed methods lose streaming efficiency to their multiple
            # passes (paper Section III); the loss scales with how balanced
            # the decomposition is.
            shares = [
                (
                    p.working_set_matrix_only(self.precision)
                    + p.vector_bytes(self.precision)
                )
                / self.ws
                for p in self.parts
            ]
            self.mem_factor: float | None = machine.decomposition_mem_factor(
                shares
            )
        else:
            self.mem_factor = None
        self.x_resident = self.ws <= machine.l2.size_bytes
        self.line_elems = machine.l2.line_bytes // self.precision.itemsize
        self.budget = x_budget_lines(
            machine.l2.size_bytes, machine.l2.line_bytes, machine.x_cache_fraction
        )
        # Pass start-up work (pointer setup, prefetch retrain) cannot overlap.
        self.startup = machine.costs.pass_startup_cycles * max(
            len(self.parts) - 1, 0
        )
        self._row_cycles: dict[tuple[int, Impl], np.ndarray] = {}
        self._weights: list[np.ndarray | None] = [None] * len(self.parts)
        self._partitions: dict[tuple[int, int], object] = {}
        self._per_thread: dict[tuple[int, Impl, int], np.ndarray] = {}
        self._misses: int | None = None

    # ------------------------------------------------------------------ #
    def segment_sums(
        self, i: int, part: SparseFormat, part_impl: Impl, nthreads: int
    ) -> np.ndarray:
        """Per-thread compute cycles of part ``i`` under ``part_impl``.

        Public because :mod:`repro.machine.batch` stacks these per-cell
        vectors across the candidate axis; the order-sensitive ``cumsum``
        stays in here, per (structure, impl, threads).
        """
        key = (i, part_impl, nthreads)
        out = self._per_thread.get(key)
        if out is None:
            row_cycles = self._row_cycles.get((i, part_impl))
            if row_cycles is None:
                row_cycles = self.machine.costs.block_row_cycles(
                    part, part_impl, self.precision
                )
                self._row_cycles[(i, part_impl)] = row_cycles
            partition = self._partitions.get((i, nthreads))
            if partition is None:
                weights = self._weights[i]
                if weights is None:
                    weights = stored_per_block_row(part)
                    self._weights[i] = weights
                partition = balanced_partition(weights, nthreads)
                self._partitions[(i, nthreads)] = partition
            out = partition.segment_sums(row_cycles)
            self._per_thread[key] = out
        return out

    def total_misses(self) -> int:
        """x-miss estimate summed over parts (precision-fixed per plan)."""
        if self._misses is None:
            self._misses = sum(
                _part_misses(part, self.line_elems, self.budget)
                for part in self.parts
            )
        return self._misses

    # ------------------------------------------------------------------ #
    def run(
        self,
        impl: Impl | str = Impl.SCALAR,
        nthreads: int = 1,
        *,
        zero_col_ind: bool = False,
    ) -> SimResult:
        """One (impl, nthreads) cell — bit-identical to the unfactored path."""
        machine = self.machine
        impl = Impl.coerce(impl)
        if nthreads < 1 or nthreads > machine.max_threads:
            raise ModelError(
                f"nthreads={nthreads} outside 1..{machine.max_threads} "
                f"for machine {machine.name!r}"
            )
        costs = machine.costs

        t_mem = self.ws / machine.stream_bandwidth(self.ws, nthreads)
        if self.mem_factor is not None:
            t_mem *= self.mem_factor

        overlappable_cycles = [0.0] * nthreads
        exposed_cycles = [0.0] * nthreads
        for i, part in enumerate(self.parts):
            # The exposure fraction belongs to the kernel that actually
            # runs: a CSR remainder of a SIMD decomposition stays scalar.
            part_impl = costs.effective_impl(part, impl)
            eta_part = machine.eta(part_impl)
            per_thread = self.segment_sums(i, part, part_impl, nthreads)
            for t in range(nthreads):
                overlappable_cycles[t] += (1.0 - eta_part) * float(per_thread[t])
                exposed_cycles[t] += eta_part * float(per_thread[t])
        if self.x_resident or zero_col_ind:
            total_misses = 0
        else:
            total_misses = self.total_misses()

        exposed_cycles = [c + self.startup for c in exposed_cycles]
        t_overlappable = machine.cycles_to_seconds(max(overlappable_cycles))
        exposed = machine.cycles_to_seconds(max(exposed_cycles))
        t_comp_max = t_overlappable + exposed
        t_lat_max = total_misses / nthreads * machine.effective_latency_s()

        t_total = max(t_mem, t_overlappable) + exposed + t_lat_max
        return SimResult(
            t_total=t_total,
            t_mem=t_mem,
            t_comp=t_comp_max,
            t_comp_exposed=exposed,
            t_latency=t_lat_max,
            ws_bytes=self.ws,
            x_misses=total_misses,
            nthreads=nthreads,
            precision=self.precision,
            impl=impl,
        )

    def run_cells(
        self, cells: "list[tuple[Impl | str, int]]"
    ) -> list[SimResult]:
        """Batch-evaluate ``[(impl, nthreads), ...]`` sharing every memo."""
        return [self.run(impl, nthreads) for impl, nthreads in cells]


def get_plan(
    fmt: SparseFormat,
    machine: MachineModel,
    precision: Precision | str = Precision.DP,
) -> SimPlan:
    """The (cached) simulation plan for ``fmt`` on ``machine``.

    Plans are memoised on the format object keyed by (machine identity,
    precision) — the same lifetime as the format's x-miss memo, so the
    structures ``MatrixProgram`` shares across cells share their plans.
    The memo is LRU-bounded to :data:`MAX_PLANS_PER_FORMAT` entries (dict
    insertion order is the recency order) so long-lived processes that see
    many machines do not grow format objects without bound.
    """
    plans = fmt.__dict__.setdefault("_sim_plans", {})
    key = (id(machine), Precision.coerce(precision))
    plan = plans.pop(key, None)
    if plan is None:
        plan = SimPlan(fmt, machine, key[1])
        if len(plans) >= MAX_PLANS_PER_FORMAT:
            del plans[next(iter(plans))]
    plans[key] = plan
    return plan
