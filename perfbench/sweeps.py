"""The sweep workloads: ``repro sweep`` as a user runs it, plus its trace.

Untraced, each run spawns the real ``python -m repro sweep`` entry point
on a fresh cache dir (holding only a pre-calibrated profile store) a fixed
number of times per ``--seconds``, watching the process tree's memory, and
checks every swept matrix's records against its pinned canonical sha.  Traced,
the same config runs in this process at one job, so the wrappers see
every shard.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from hashlib import sha256
from pathlib import Path

from repro.bench import harness
from repro.bench.harness import MatrixSweep, SweepConfig, SweepResult
from repro.core import profiling
from repro.core.profiling import ProfileStore
from repro.engine import shards
from repro.machine import batch, plan
from repro.machine.presets import get_preset
from repro.matrices import suite

from measure import (
    RssWatcher,
    Tally,
    median,
    percentile,
    samples_beyond,
    tail_percentile,
)
from spans import Tracer, self_times

__all__ = ["SWEEPS", "SweepSpec", "matrix_sha", "check_matrices", "run_sweep_workload"]

#: Sweeps killed after this long count as failed (the run must end in 180 s).
SWEEP_TIMEOUT_S = 150.0
SETUP_REPEATS = 2


@dataclass(frozen=True)
class SweepSpec:
    matrices: tuple[int, ...]
    jobs: int | None  # None = the CLI default (all cores)
    #: Typical seconds per sweep on a 2-core host.  A run makes
    #: ``seconds // nominal_s`` sweeps (at least one), a count fixed by
    #: ``--seconds`` alone, so a slow spell never changes how many
    #: samples a run's medians are taken over.
    nominal_s: float

    def sweeps_per_run(self, seconds: float) -> int:
        return max(1, int(seconds // self.nominal_s))

    @property
    def config(self) -> SweepConfig:
        return SweepConfig(suite_indices=self.matrices)

    def argv(self, cache_dir: Path, run_log: Path) -> list[str]:
        argv = [
            sys.executable, "-m", "repro", "sweep",
            "--matrices", ",".join(str(i) for i in self.matrices),
            "--cache-dir", str(cache_dir),
            "--run-log", str(run_log),
        ]
        if self.jobs is not None:
            argv += ["--jobs", str(self.jobs)]
        return argv


SWEEPS = {
    # The ten blockable matrices: the x-miss shortcut skips the estimator,
    # so the time is generation, the fused planning pass and the pool.
    "sweep-blocked": SweepSpec((1, 16, 19, 21, 22, 24, 25, 26, 27, 29), None, 7.0),
    # fdiff: ~90% of its time is the x-miss estimator.
    "sweep-latency": SweepSpec((23,), 1, 15.0),
}


def matrix_sha(matrix: MatrixSweep) -> str:
    """Canonical sha of one matrix's sweep data (same bytes as
    ``SweepResult.canonical_json`` uses for it)."""
    text = json.dumps(asdict(matrix), sort_keys=True, separators=(",", ":"))
    return sha256(text.encode()).hexdigest()[:16]


def check_matrices(
    result: SweepResult, spec: SweepSpec, pins: dict, tally: Tally
) -> None:
    """Count every expected matrix once: failed unless its sha is pinned."""
    by_idx = {m.idx: m for m in result.matrices}
    for idx in spec.matrices:
        pin = pins["sweep"].get(str(idx))
        matrix = by_idx.get(idx)
        if pin is None:
            tally.record(f"matrix {idx}: no pinned sha")
        elif matrix is None:
            tally.record(f"matrix {idx}: missing from the sweep")
        elif matrix_sha(matrix) != pin["sha"]:
            tally.record(
                f"matrix {idx} ({matrix.name}): sha {matrix_sha(matrix)} "
                f"!= pinned {pin['sha']}"
            )
        else:
            tally.record(None)


def calibrate(cache_dir: Path) -> float:
    """Calibrate both precisions into ``cache_dir``'s profile store."""
    t0 = time.perf_counter()
    store = ProfileStore(cache_dir)
    machine = get_preset(SweepConfig().machine_name)
    for precision in SweepConfig().precisions:
        store.get_with_source(machine, precision)
    return time.perf_counter() - t0


def _fresh_cache(work: Path, name: str, profiles_from: Path) -> Path:
    target = work / name
    shutil.copytree(profiles_from / "profiles", target / "profiles")
    return target


def _read_events(run_log: Path) -> list[dict]:
    if not run_log.exists():
        return []
    return [json.loads(line) for line in run_log.read_text().splitlines() if line]


@dataclass
class SweepRun:
    wall_s: float
    rss_mib: float
    records: int
    shard_s: list[float]
    events: list[dict]


def _spawn_sweep(
    spec: SweepSpec, cache_dir: Path, env: dict, pins: dict, tally: Tally
) -> SweepRun | None:
    run_log = cache_dir / "run.jsonl"
    with open(cache_dir / "sweep.log", "w") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            spec.argv(cache_dir, run_log), env=env,
            stdout=log, stderr=subprocess.STDOUT,
        )
        watcher = RssWatcher(proc.pid).start()
        try:
            rc = proc.wait(timeout=SWEEP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            rc = proc.wait()
        wall = time.perf_counter() - t0
        rss = watcher.stop()
    cache_path = cache_dir / f"sweep_{spec.config.fingerprint()}.json"
    if rc != 0 or not cache_path.exists():
        for idx in spec.matrices:
            tally.record(f"matrix {idx}: repro sweep exited {rc}")
        return None
    result = SweepResult.load(cache_path)
    check_matrices(result, spec, pins, tally)
    events = _read_events(run_log)
    return SweepRun(
        wall_s=wall,
        rss_mib=rss,
        records=sum(len(m.records) for m in result.matrices),
        shard_s=[e["elapsed_s"] for e in events if e["event"] == "shard_finish"],
        events=events,
    )


def _engine_metrics(runs: list[SweepRun]) -> dict:
    utilization, overhead, retries = [], [], 0
    for run in runs:
        finish = [e for e in run.events if e["event"] == "sweep_finish"]
        if not finish:
            continue
        jobs = finish[-1]["jobs"]
        utilization.append(finish[-1]["worker_utilization"])
        overhead.append(run.wall_s - sum(run.shard_s) / jobs)
        retries += sum(1 for e in run.events if e["event"] == "shard_retry")
    return {
        "engine.worker_utilization": median(utilization) if utilization else 0.0,
        "engine.overhead_s": median(overhead) if overhead else 0.0,
        "engine.retries": retries,
    }


# ------------------------------- tracing -------------------------------- #
def _install_sweep_wrappers(tracer: Tracer) -> None:
    def shard_bytes(args, kwargs, result) -> None:
        store, shard_id = args[0], args[1]
        path = store.shard_path(shard_id)
        if path.exists():
            tracer.count("shards.bytes", path.stat().st_size)

    def profile_source(args, kwargs, result) -> None:
        tracer.count(f"profiling.{result[1]}")

    def stream_accesses(args, kwargs, result) -> None:
        tracer.count("cache.stream_accesses", len(args[0]))

    tracer.wrap(suite.SuiteEntry, "build", "matrices.build")
    tracer.wrap(batch, "plan_structures", "batch.plan")
    tracer.wrap(batch.MatrixProgram, "evaluate", "batch.evaluate")
    tracer.wrap(plan.SimPlan, "total_misses", "plan.total_misses")
    tracer.wrap(plan, "estimate_stream_misses", "cache.estimate",
                on_return=stream_accesses)
    tracer.wrap(shards.ShardStore, "save", "shards.save", on_return=shard_bytes)
    tracer.wrap(SweepResult, "save", "harness.cache_save")
    tracer.wrap(profiling.ProfileStore, "get_with_source", "profiling.get",
                on_return=profile_source)


def _inprocess_sweep(
    spec: SweepSpec, cache_dir: Path, tracer: Tracer | None
) -> tuple[float, SweepResult, list[dict]]:
    """One sweep through ``load_or_run_sweep`` in this process, one job."""
    run_log = cache_dir / "run.jsonl"
    if tracer is not None:
        _install_sweep_wrappers(tracer)
    try:
        t0 = time.perf_counter()
        result = harness.load_or_run_sweep(
            spec.config, cache_dir=cache_dir, jobs=1, run_log=run_log
        )
        wall = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.restore()
    return wall, result, _read_events(run_log)


def _trace_metrics(
    spec: SweepSpec, work: Path, profiles_from: Path, pins: dict, tally: Tally,
    spans_out: Path,
) -> dict:
    plain_wall, _, _ = _inprocess_sweep(
        spec, _fresh_cache(work, "trace-plain", profiles_from), None
    )
    tracer = Tracer()
    wall, result, events = _inprocess_sweep(
        spec, _fresh_cache(work, "trace-spans", profiles_from), tracer
    )
    check_matrices(result, spec, pins, tally)
    tracer.write(spans_out)
    own = self_times(tracer.spans)
    calls = {}
    for span in tracer.spans:
        calls[span.name] = calls.get(span.name, 0) + 1
    cells = sum(len(m.records) for m in result.matrices)
    phases: dict[str, float] = {}
    for e in events:
        if e["event"] == "shard_finish" and e.get("phases"):
            for k, v in e["phases"].items():
                phases[k] = phases.get(k, 0.0) + v
    evaluate_incl = sum(
        s.duration for s in tracer.spans if s.name == "batch.evaluate"
    )
    return {
        "matrices.build_s": own.get("matrices.build", 0.0),
        "batch.plan_s": own.get("batch.plan", 0.0),
        "batch.evaluate_s": own.get("batch.evaluate", 0.0),
        "batch.evaluate_incl_s": evaluate_incl,
        "plan.total_misses_s": own.get("plan.total_misses", 0.0),
        "plan.total_misses_calls": calls.get("plan.total_misses", 0),
        "plan.estimator_share": calls.get("plan.total_misses", 0) / cells
        if cells else 0.0,
        "cache.estimate_s": own.get("cache.estimate", 0.0),
        "cache.estimate_calls": calls.get("cache.estimate", 0),
        "cache.stream_accesses": tracer.counters.get("cache.stream_accesses", 0),
        "shards.save_s": own.get("shards.save", 0.0),
        "shards.bytes": tracer.counters.get("shards.bytes", 0),
        "harness.cache_save_s": own.get("harness.cache_save", 0.0),
        "profiling.get_s": own.get("profiling.get", 0.0),
        "profiling.calibrated": tracer.counters.get("profiling.calibrated", 0),
        "profiling.disk": tracer.counters.get("profiling.disk", 0),
        "phase.stats_s": phases.get("stats", 0.0),
        "phase.convert_s": phases.get("convert", 0.0),
        "phase.simulate_s": phases.get("simulate", 0.0),
        "phase.models_s": phases.get("models", 0.0),
        "trace.spans": len(tracer.spans),
        "trace.overhead_pct": 100.0 * (wall - plain_wall) / plain_wall,
    }


# ------------------------------- workload ------------------------------- #
def run_sweep_workload(
    name: str, *, seconds: float, trace: bool, work: Path, env: dict,
    pins: dict, spans_out: Path,
) -> tuple[Tally, dict, dict]:
    """Returns (tally, metrics, context) for one run of a sweep workload."""
    spec = SWEEPS[name]
    tally = Tally()
    setups = []
    for i in range(1 if trace else SETUP_REPEATS):
        setups.append(calibrate(work / f"setup-{i}"))
    profiles_from = work / f"setup-{len(setups) - 1}"

    runs: list[SweepRun] = []
    for k in range(spec.sweeps_per_run(seconds)):
        run = _spawn_sweep(
            spec, _fresh_cache(work, f"sweep-{k}", profiles_from),
            env, pins, tally,
        )
        if run is None:
            break
        runs.append(run)
    if not runs:
        return tally, {}, {"sweeps": 0, "failures": tally.reasons}

    shard_s = [s for run in runs for s in run.shard_s]
    context = {
        "sweeps": len(runs),
        "cells_per_sweep": runs[0].records,
        "shard_samples": len(shard_s),
        "p90_samples_beyond": samples_beyond(len(shard_s), 90),
        "tail_percentile": tail_percentile(len(shard_s)),
        "setup_samples": len(setups),
        "failures": tally.reasons,
    }
    if trace:
        metrics = _engine_metrics(runs)
        metrics.update(
            _trace_metrics(spec, work, profiles_from, pins, tally, spans_out)
        )
        return tally, metrics, context
    metrics = {
        "setup_s": median(setups),
        "cells_per_s": median([r.records / r.wall_s for r in runs]),
        "rps": median([len(r.shard_s) / r.wall_s for r in runs]),
        "p50_ms": 1e3 * median(shard_s),
        "p90_ms": 1e3 * percentile(shard_s, 90),
        "peak_rss_mib": median([r.rss_mib for r in runs]),
    }
    return tally, metrics, context
