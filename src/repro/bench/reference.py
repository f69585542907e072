"""The per-cell candidate-evaluation loop, kept as an executable reference.

Production evaluates candidates through one path, the whole-matrix array
program (:class:`repro.machine.batch.MatrixProgram`).  This module keeps
the loop it replaced — one ``build_candidate`` per structure, one model
prediction and one simulator call per cell — as the oracle the batched
path is pinned against bit for bit.  Only ``repro sweep
--compare-batched``, the equivalence tests and ``benchmarks/`` import it.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable, Sequence

from ..core.candidates import Candidate, candidate_space
from ..core.models import MODELS, PerformanceModel
from ..core.profiling import DEFAULT_PROFILE_CACHE, BlockProfile, ProfileCache
from ..core.selection import CandidateResult, StatsCache, build_candidate
from ..errors import ModelError
from ..formats.coo import COOMatrix
from ..machine.executor import simulate as _simulate
from ..machine.machine import MachineModel
from ..machine.presets import get_preset
from ..matrices.suite import SuiteEntry
from ..types import Precision
from .harness import MatrixSweep, SweepConfig, SweepResult, sweep_planes

__all__ = ["evaluate_candidates", "sweep_matrix", "run_sweep"]


def _charge(timings: dict | None, phase: str, t0: float) -> None:
    if timings is not None:
        timings[phase] = timings.get(phase, 0.0) + time.perf_counter() - t0


def evaluate_candidates(
    coo: COOMatrix,
    machine: MachineModel,
    precision: Precision | str,
    *,
    candidates: Sequence[Candidate] | None = None,
    models: Iterable[PerformanceModel | str] = ("mem", "memcomp", "overlap"),
    profile: BlockProfile | None = None,
    profile_cache: ProfileCache | None = None,
    run_simulation: bool = True,
    nthreads: int = 1,
    fmt_cache: dict | None = None,
    timings: dict | None = None,
    simulate: Callable = _simulate,
) -> list[CandidateResult]:
    """Per-cell :func:`repro.core.selection.evaluate_candidates`.

    A caller-owned ``fmt_cache`` reuses converted structures across calls
    for one matrix; ``simulate`` swaps the simulator (e.g.
    :func:`repro.machine.executor.simulate_reference`).
    """
    precision = Precision.coerce(precision)
    model_objs = [m if isinstance(m, PerformanceModel) else MODELS[m] for m in models]
    if profile is None and any(m.requires_profile for m in model_objs):
        cache = profile_cache if profile_cache is not None else DEFAULT_PROFILE_CACHE
        profile = cache.get(machine, precision)
    stats_cache = StatsCache(coo, timings=timings)
    fmt_cache = {} if fmt_cache is None else fmt_cache
    results: list[CandidateResult] = []
    for cand in candidate_space() if candidates is None else candidates:
        fmt = fmt_cache.get((cand.kind, cand.block))
        if fmt is None:
            t0 = time.perf_counter()
            stats_s = timings.get("stats", 0.0) if timings is not None else 0.0
            fmt = build_candidate(coo, cand, stats_cache=stats_cache)
            fmt_cache[(cand.kind, cand.block)] = fmt
            if timings is not None:
                # Net of the structural analysis StatsCache charged to "stats".
                _charge(timings, "convert", t0 + timings.get("stats", 0.0) - stats_s)
        res = CandidateResult(
            candidate=cand,
            ws_bytes=fmt.working_set(precision),
            padding_ratio=fmt.padding_ratio,
            n_blocks=fmt.n_blocks,
        )
        t0 = time.perf_counter()
        for model in model_objs:
            try:
                res.predictions[model.name] = model.predict(
                    fmt, machine, precision, cand.impl, profile, nthreads
                )
            except ModelError:
                continue  # model does not cover this candidate
        _charge(timings, "models", t0)
        if run_simulation:
            t0 = time.perf_counter()
            res.sim = simulate(fmt, machine, precision, cand.impl, nthreads)
            _charge(timings, "simulate", t0)
        results.append(res)
    return results


def sweep_matrix(
    entry: SuiteEntry,
    config: SweepConfig = SweepConfig(),
    *,
    machine: MachineModel | None = None,
    profile_cache: ProfileCache | None = None,
    simulate: Callable = _simulate,
) -> MatrixSweep:
    """Per-cell :func:`repro.bench.harness.sweep_matrix`: the same records."""
    machine = machine if machine is not None else get_preset(config.machine_name)
    profile_cache = profile_cache if profile_cache is not None else ProfileCache()
    coo = entry.build()
    timings: dict[str, float] = {}
    fmt_cache: dict = {}

    def evaluate(precision, nthreads, candidates, models):
        return evaluate_candidates(
            coo, machine, precision, candidates=candidates, models=models,
            profile_cache=profile_cache, nthreads=nthreads,
            fmt_cache=fmt_cache, timings=timings, simulate=simulate,
        )

    sweep = sweep_planes(entry, coo, config, evaluate)
    sweep._phase_timings = timings
    return sweep


def run_sweep(config: SweepConfig = SweepConfig(), **kwargs) -> SweepResult:
    """Per-cell :func:`repro.bench.harness.run_sweep` over ``config``;
    keyword arguments as for :func:`sweep_matrix`."""
    # One machine and one calibration for the whole sweep.
    kwargs.setdefault("machine", get_preset(config.machine_name))
    kwargs.setdefault("profile_cache", ProfileCache())
    t0 = time.perf_counter()
    matrices = [sweep_matrix(e, config, **kwargs) for e in config.entries()]
    return SweepResult(
        config=config, matrices=matrices, elapsed_s=time.perf_counter() - t0
    )
