"""Benchmark entry point: one run of one workload.

    python3 perfbench/run.py --workload sweep-blocked --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its
per-layer metrics with ``--trace 1``.  The line before it records the
run's context (host, versions, sample counts, tail percentiles).  Spans
and the full record of the run are kept under ``.perfbench_out/``.
See ``perfbench/README.md`` for what each workload measures and why.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import sys
from pathlib import Path

WORKLOADS = ("sweep-blocked", "sweep-latency", "advise-hot", "advise-cold")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def cpu_caches() -> dict[str, str]:
    """Unified cache sizes by level, as the kernel reports them."""
    out = {}
    root = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(root.glob("index*")):
        try:
            kind = (index / "type").read_text().strip()
            level = (index / "level").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind == "Unified":
            out[f"L{level}"] = size
    return out


def host_context() -> dict:
    import numpy

    caches = cpu_caches()
    return {
        "nproc": os.cpu_count(),
        "l2": caches.get("L2"),
        "llc": caches[max(caches)] if caches else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def _terminate(signum, frame) -> None:  # noqa: ARG001 - signal signature
    # Unwind through every ``finally`` so servers and sweeps are stopped.
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    signal.signal(signal.SIGTERM, _terminate)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(
            "error: run from the root of a repro checkout (no src/repro here)",
            file=sys.stderr,
        )
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    contract = json.loads((root / "BENCHMARK.json").read_text())
    pins = json.loads((Path(__file__).parent / "pins.json").read_text())
    sys.path.insert(0, str(root / "src"))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )

    from advisor import run_advise_workload
    from sweeps import SWEEPS, run_sweep_workload

    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = root / ".perfbench_work" / f"{stem}-{os.getpid()}"
    work.mkdir(parents=True)
    common = dict(
        seconds=args.seconds, trace=bool(args.trace), work=work, env=env,
        pins=pins, spans_out=out_dir / f"{stem}.spans.jsonl",
    )
    try:
        if args.workload in SWEEPS:
            tally, measured, context = run_sweep_workload(args.workload, **common)
        else:
            tally, measured, context = run_advise_workload(
                args.workload.split("-", 1)[1], seed=args.seed, **common
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wanted = contract["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for spec in wanted:
        value = measured.get(spec["name"])
        if value is None:
            if not args.trace:
                print(f"error: no value for {spec['name']}: {tally.reasons}",
                      file=sys.stderr)
                return 1
            value = 0  # a layer this workload does not exercise
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    context.update(host_context(), workload=args.workload, seed=args.seed,
                   seconds=args.seconds, trace=args.trace)
    result = {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    (out_dir / f"{stem}.json").write_text(
        json.dumps({"result": result, "context": context,
                    "all_measured": measured}, indent=2, sort_keys=True)
    )
    printed = {k: v for k, v in context.items() if k != "samples"}
    print("context " + json.dumps(printed, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
