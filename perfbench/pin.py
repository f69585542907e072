"""Regenerate ``perfbench/pins.json``: the outputs the benchmark checks.

    python3 perfbench/pin.py        # from the checkout root, ~6 min

Pins, from the code as checked out:

* the canonical sha of every matrix the sweep workloads sweep, after
  ``repro sweep --compare-batched`` has confirmed that the batched and the
  per-cell evaluation paths agree record for record on them;
* the fingerprint and shape of every suite matrix in the advise pool, and
  its best label for every pruned option combination a request can draw.

Only re-pin on purpose, when a change is meant to alter these outputs.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

from repro.bench.harness import SweepResult  # noqa: E402
from repro.matrices.suite import get_entry  # noqa: E402
from repro.serve.features import matrix_fingerprint  # noqa: E402
from repro.serve.service import AdvisorService  # noqa: E402

from inputs import OPTION_SPACE, SUITE_POOL, options_key  # noqa: E402
from sweeps import SWEEPS, matrix_sha  # noqa: E402


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def pin_sweeps(work: Path) -> dict:
    matrices = sorted({i for spec in SWEEPS.values() for i in spec.matrices})
    check = subprocess.run(
        [sys.executable, "-m", "repro", "sweep", "--compare-batched",
         "--matrices", ",".join(map(str, matrices))],
        env=_env(), capture_output=True, text=True, check=False,
    )
    print(check.stdout.strip())
    if check.returncode != 0 or "compare-batched: OK" not in check.stdout:
        raise SystemExit("batched and per-cell sweeps disagree; not pinning")
    pins = {}
    for name, spec in sorted(SWEEPS.items()):
        cache_dir = work / name
        subprocess.run(
            spec.argv(cache_dir, cache_dir / "run.jsonl"), env=_env(), check=True,
            stdout=subprocess.DEVNULL,
        )
        result = SweepResult.load(
            cache_dir / f"sweep_{spec.config.fingerprint()}.json"
        )
        for m in result.matrices:
            pins[str(m.idx)] = {
                "name": m.name, "records": len(m.records), "sha": matrix_sha(m),
            }
    return dict(sorted(pins.items(), key=lambda kv: int(kv[0])))


def pin_advise() -> dict:
    service = AdvisorService(cache_dir=None)
    matrices, best = {}, {}
    for name in SUITE_POOL:
        coo = get_entry(name).build()
        matrices[name] = {
            "fingerprint": matrix_fingerprint(coo),
            "nrows": coo.nrows, "ncols": coo.ncols, "nnz": coo.nnz,
        }
        best[name] = {}
        for model, precision, nthreads in OPTION_SPACE:
            rec = service.advise(
                name, model=model, precision=precision, nthreads=nthreads,
                prune=True, use_cache=False,
            )
            best[name][options_key(model, precision, nthreads, True)] = (
                rec.best.label
            )
        print(f"pinned {name}")
    return {"matrices": matrices, "best": best}


def main() -> int:
    work = ROOT / ".perfbench_work" / f"pin-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        pins = {"sweep": pin_sweeps(work), "advise": pin_advise()}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    out = Path(__file__).parent / "pins.json"
    out.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
