"""Before/after benchmark of the sweep's inner loop (batched array program).

Measures the reduced golden config — dp, 1 thread, ``max_block_elems=4``,
suite indices 1 (dense), 27 (pwtk) and 30 (rand-sparse) — three ways:

* **baseline** — what a cold pre-PR-3 worker paid: lazy in-process profile
  calibration plus the per-cell reference loop
  (:mod:`repro.bench.reference`) through the preserved reference simulator
  (``simulate_reference``, the verbatim per-call path with the windowed
  miss-estimator loop).  The calibration itself is also routed through the
  reference simulator, as it was before the plan layer existed.
* **simplan** — the PR 3 state of the art: the calibrated profile served
  float-exactly from the on-disk :class:`ProfileStore` plus the per-cell
  reference loop over the plan-based ``simulate``.
* **batched** — the production path: the same warm profile plus the
  whole-matrix array program (:mod:`repro.machine.batch`), one fused
  structural planning pass and vectorized cell evaluation.

All three produce byte-identical ``canonical_json()`` — asserted on every
run, together with the golden sha — so each speedup is free.  Results are
written to ``BENCH_sweep.json`` (checked in at the repo root) with the
per-phase breakdown of both the reference and the batched path.

Usage::

    python benchmarks/bench_sweep.py            # full bench, writes JSON
    python benchmarks/bench_sweep.py --smoke    # one tiny matrix, no JSON
    python benchmarks/bench_sweep.py --full-suite-log run.jsonl

The last form records the default full sweep instead: run
``repro sweep --jobs 1 --profile --run-log run.jsonl`` first, then it
folds that run log's per-matrix phases and peak RSS into the
``full_suite`` section of the JSON (the other sections are kept, and the
full bench keeps ``full_suite`` when it rewrites the file).

The full run asserts this PR's acceptance bar (batched >= 3x over the
simplan path) and the golden canonical sha; ``--smoke`` asserts its own
pinned sha through the batched path plus that batching wins at all, sized
for a CI minute.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

REPO_ROOT = Path(__file__).resolve().parent.parent

FULL_INDICES = (1, 27, 30)
SMOKE_INDICES = (1,)
#: Acceptance bar: batched over the PR 3 per-cell SimPlan path.
SPEEDUP_BAR = 3.0
#: Golden canonical_json sha prefixes (see also tests/test_plan.py).
CANONICAL_SHA = "5eb35e90e7ecbca8"
SMOKE_SHA = "68288cd28a678a98"


def _config(indices):
    from repro.bench.harness import SweepConfig

    return SweepConfig(
        precisions=("dp",),
        thread_counts=(1,),
        max_block_elems=4,
        suite_indices=tuple(indices),
    )


def _run_baseline(config):
    """Cold pre-PR-3 worker: lazy calibration + reference simulator."""
    import repro.core.profiling as profiling
    from repro.bench import reference
    from repro.core.profiling import ProfileCache
    from repro.machine.executor import simulate_reference

    original = profiling.simulate
    profiling.simulate = simulate_reference
    try:
        t0 = time.perf_counter()
        result = reference.run_sweep(
            config,
            profile_cache=ProfileCache(),
            simulate=simulate_reference,
        )
        elapsed = time.perf_counter() - t0
    finally:
        profiling.simulate = original
    return result, elapsed


def _run_simplan(config, store_dir):
    """Warm PR 3 worker: disk-served profile + per-cell plan simulator."""
    from repro.bench import reference
    from repro.core.profiling import ProfileStore

    t0 = time.perf_counter()
    result = reference.run_sweep(
        config, profile_cache=ProfileStore(store_dir)
    )
    return result, time.perf_counter() - t0


def _run_batched(config, store_dir):
    """Warm production worker: disk-served profile + batched array program."""
    from repro.bench.harness import run_sweep
    from repro.core.profiling import ProfileStore

    t0 = time.perf_counter()
    result = run_sweep(config=config, profile_cache=ProfileStore(store_dir))
    return result, time.perf_counter() - t0


def _phases(matrix) -> dict:
    timings = getattr(matrix, "_phase_timings", {})
    return {k: round(v, 4) for k, v in sorted(timings.items())}


def run_bench(indices, *, rounds: int, store_dir: Path) -> dict:
    from repro.machine.presets import get_preset

    config = _config(indices)
    # Populate the profile store once, outside any measured round: the
    # engine's warm start means production sweeps find it already on disk.
    from repro.core.profiling import ProfileStore

    ProfileStore(store_dir).get(get_preset(config.machine_name), "dp")

    baselines, simplans, batcheds = [], [], []
    canonical = None
    for _ in range(rounds):
        ref, t_base = _run_baseline(config)
        mid, t_simplan = _run_simplan(config, store_dir)
        opt, t_batched = _run_batched(config, store_dir)
        if not (
            ref.canonical_json() == mid.canonical_json() == opt.canonical_json()
        ):
            raise SystemExit("FATAL: sweep paths are not byte-identical")
        canonical = opt.canonical_json()
        baselines.append(t_base)
        simplans.append(t_simplan)
        batcheds.append(t_batched)

    per_matrix = {}
    for ref_m, opt_m in zip(ref.matrices, opt.matrices):
        per_matrix[ref_m.name] = {
            "idx": ref_m.idx,
            "nnz": ref_m.nnz,
            "reference_phases_s": _phases(ref_m),
            "batched_phases_s": _phases(opt_m),
        }
    t_base, t_simplan, t_batched = min(baselines), min(simplans), min(batcheds)
    return {
        "config": {
            "precisions": list(config.precisions),
            "thread_counts": list(config.thread_counts),
            "max_block_elems": config.max_block_elems,
            "suite_indices": list(indices),
        },
        "rounds": rounds,
        "baseline_s": round(t_base, 3),
        "simplan_s": round(t_simplan, 3),
        "batched_s": round(t_batched, 3),
        "speedup": round(t_simplan / t_batched, 3),
        "speedup_vs_reference": round(t_base / t_batched, 3),
        "byte_identical": True,
        "records": sum(len(m.records) for m in ref.matrices),
        "canonical_sha256_prefix": hashlib.sha256(
            canonical.encode()
        ).hexdigest()[:16],
        "per_matrix": per_matrix,
    }


def full_suite_from_log(run_log: Path) -> dict:
    """The ``full_suite`` section: one engine run log's shard records."""
    events = [
        json.loads(line)
        for line in Path(run_log).read_text().splitlines()
        if line.strip()
    ]
    start = next(e for e in events if e["event"] == "sweep_start")
    per_matrix = {}
    for e in events:
        if e["event"] != "shard_finish":
            continue
        per_matrix[e["matrix"]] = {
            "idx": e["shard"],
            "records": e["records"],
            "elapsed_s": round(e["elapsed_s"], 2),
            "phases_s": {
                k: round(v, 2) for k, v in sorted((e["phases"] or {}).items())
            },
            "peak_rss_mib": e["peak_rss_mib"],
        }
    finish = next((e for e in events if e["event"] == "sweep_finish"), None)
    started = [e["matrix"] for e in events if e["event"] == "shard_start"]
    unfinished = [m for m in started if m not in per_matrix]
    return {
        "command": f"repro sweep --jobs {start['jobs']} --profile --run-log",
        "jobs": start["jobs"],
        "finished": finish is not None,
        # A killed sweep (e.g. by the OOM killer) stops inside this shard.
        "stopped_at": None if finish or not unfinished else unfinished[-1],
        "wall_s": round(finish["elapsed_s"], 1) if finish else None,
        "records": sum(m["records"] for m in per_matrix.values()),
        "peak_rss_mib": max(
            (m["peak_rss_mib"] for m in per_matrix.values()), default=None
        ),
        "per_matrix": per_matrix,
    }


def _write(output: Path, payload: dict) -> None:
    """Write ``payload`` over ``output``, keeping its ``full_suite``."""
    if output.exists() and "full_suite" not in payload:
        previous = json.loads(output.read_text())
        if "full_suite" in previous:
            payload = {**payload, "full_suite": previous["full_suite"]}
    output.write_text(json.dumps(payload, indent=2) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="one tiny matrix, one round, no JSON output (CI signal)",
    )
    parser.add_argument(
        "--rounds", type=int, default=2,
        help="measurement rounds; best-of is reported (default: 2)",
    )
    parser.add_argument(
        "--output", default=str(REPO_ROOT / "BENCH_sweep.json"),
        help="where to write the results JSON (full mode only)",
    )
    parser.add_argument(
        "--full-suite-log", metavar="RUN_LOG",
        help="record this full-sweep run log as the JSON's full_suite "
        "section instead of benchmarking",
    )
    args = parser.parse_args(argv)

    if args.full_suite_log:
        output = Path(args.output)
        payload = json.loads(output.read_text()) if output.exists() else {}
        payload["full_suite"] = full_suite_from_log(Path(args.full_suite_log))
        _write(output, payload)
        suite = payload["full_suite"]
        print(
            f"full suite: {len(suite['per_matrix'])} matrices, "
            f"finished={suite['finished']}, wall {suite['wall_s']}s, "
            f"peak RSS {suite['peak_rss_mib']} MiB -> wrote {output}"
        )
        return 0

    import tempfile

    indices = SMOKE_INDICES if args.smoke else FULL_INDICES
    rounds = 1 if args.smoke else args.rounds
    with tempfile.TemporaryDirectory() as store_dir:
        payload = run_bench(indices, rounds=rounds, store_dir=Path(store_dir))

    print(
        f"sweep {list(indices)}: reference {payload['baseline_s']:.2f}s, "
        f"simplan {payload['simplan_s']:.2f}s, "
        f"batched {payload['batched_s']:.2f}s "
        f"-> {payload['speedup']:.2f}x over simplan, "
        f"{payload['speedup_vs_reference']:.2f}x over reference "
        f"(byte-identical, sha {payload['canonical_sha256_prefix']})"
    )
    expected_sha = SMOKE_SHA if args.smoke else CANONICAL_SHA
    if payload["canonical_sha256_prefix"] != expected_sha:
        print(
            f"FAIL: canonical sha {payload['canonical_sha256_prefix']} != "
            f"pinned {expected_sha}",
            file=sys.stderr,
        )
        return 1
    if args.smoke:
        if payload["speedup"] <= 1.0:
            print("FAIL: batched path is not faster", file=sys.stderr)
            return 1
        return 0

    _write(Path(args.output), payload)
    print(f"wrote {args.output}")
    if payload["speedup"] < SPEEDUP_BAR:
        print(
            f"FAIL: speedup {payload['speedup']:.2f}x below the "
            f"{SPEEDUP_BAR}x acceptance bar",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
