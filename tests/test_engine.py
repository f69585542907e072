"""Tests for the sweep execution engine (repro.engine).

Fault-injection and resume tests drive the engine with stub task
functions (no real sweeping), so they exercise the orchestration — retry,
quarantine, shard persistence, event stream — in milliseconds.  The
determinism test at the end runs the real thing: a 3-matrix suite subset
through a 4-worker pool must be record-for-record identical to the serial
sweep.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.bench.harness import (
    MatrixSweep,
    SweepConfig,
    SweepRecord,
    load_or_run_sweep,
    run_sweep,
)
from repro.engine import (
    CollectingReporter,
    JsonlReporter,
    ShardStore,
    SweepEngine,
    plan_shards,
    run_sweep_engine,
)

#: Tiny real-suite subset: dense (fastest builder), pwtk, stomach.
SUBSET = (1, 27, 30)

#: Stub configs never execute a real sweep; the indices just pick names.
STUB_CONFIG = SweepConfig(suite_indices=SUBSET)


def stub_matrix(shard_id: int, name: str = "stub") -> MatrixSweep:
    return MatrixSweep(
        idx=shard_id, name=name, domain="test", geometry=False,
        special=False, nrows=4, ncols=4, nnz=8,
        records=[SweepRecord(
            kind="csr", block=None, impl="scalar", precision="dp",
            nthreads=1, t_real=1.0 * shard_id, t_mem=0.8, t_comp=0.3,
            t_latency=0.0, ws_bytes=64, padding_ratio=1.0, n_blocks=1,
        )],
    )


def stub_task(task) -> MatrixSweep:
    return stub_matrix(task.shard_id, task.name)


class TestPlanning:
    def test_one_shard_per_suite_entry(self):
        tasks = plan_shards(STUB_CONFIG)
        assert [t.shard_id for t in tasks] == list(SUBSET)
        assert tasks[0].name == "dense"
        assert all(t.config is STUB_CONFIG for t in tasks)

    def test_full_suite_default(self):
        assert len(plan_shards(SweepConfig())) == 30


class TestShardStore:
    def test_roundtrip(self, tmp_path):
        store = ShardStore(tmp_path, STUB_CONFIG)
        store.save(27, stub_matrix(27), elapsed_s=1.5)
        loaded = store.load(27)
        assert loaded is not None
        assert loaded.idx == 27
        assert loaded.records[0].t_real == 27.0
        assert store.completed_ids() == [27]

    def test_atomic_write_leaves_no_tmp(self, tmp_path):
        store = ShardStore(tmp_path, STUB_CONFIG)
        store.save(1, stub_matrix(1))
        assert [p.name for p in store.root.glob("*.tmp")] == []

    def test_corrupt_shard_discarded(self, tmp_path):
        store = ShardStore(tmp_path, STUB_CONFIG)
        store.save(1, stub_matrix(1))
        store.shard_path(1).write_text('{"schema": 1, "trunc')
        assert store.load(1) is None
        assert not store.shard_path(1).exists()

    def test_foreign_fingerprint_ignored(self, tmp_path):
        store = ShardStore(tmp_path, STUB_CONFIG)
        store.save(1, stub_matrix(1))
        other = ShardStore(tmp_path, SweepConfig(suite_indices=(1,)))
        # Different config -> different directory, so nothing to load.
        assert other.load(1) is None

    def test_quarantine_markers(self, tmp_path):
        store = ShardStore(tmp_path, STUB_CONFIG)
        store.quarantine(27, error="boom", attempts=3)
        assert store.quarantined_ids() == [27]
        store.clear_quarantine(27)
        assert store.quarantined_ids() == []


class TestFaultInjection:
    def test_retry_then_success(self, tmp_path):
        calls = {"n": 0}

        def flaky(task):
            if task.shard_id == 27:
                calls["n"] += 1
                if calls["n"] <= 2:
                    raise RuntimeError(f"transient #{calls['n']}")
            return stub_task(task)

        col = CollectingReporter()
        result = SweepEngine(
            STUB_CONFIG, cache_dir=tmp_path, jobs=1, max_retries=2,
            backoff_base_s=0.0, task_fn=flaky, reporters=[col],
        ).run()
        assert result.missing == []
        assert [m.idx for m in result.matrices] == list(SUBSET)
        retries = col.of("shard_retry")
        assert [e["shard"] for e in retries] == [27, 27]
        assert [e["attempt"] for e in retries] == [2, 3]
        # The successful attempt is recorded as attempt 3.
        finish = [e for e in col.of("shard_finish") if e["shard"] == 27]
        assert finish[0]["attempt"] == 3

    def test_quarantine_yields_partial_result(self, tmp_path):
        def broken(task):
            if task.shard_id == 27:
                raise RuntimeError("permanent")
            return stub_task(task)

        col = CollectingReporter()
        result = SweepEngine(
            STUB_CONFIG, cache_dir=tmp_path, jobs=1, max_retries=1,
            backoff_base_s=0.0, task_fn=broken, reporters=[col],
        ).run()
        assert result.missing == [27]
        assert [m.idx for m in result.matrices] == [1, 30]
        with pytest.raises(KeyError):
            result.matrix(27)
        quarantined = col.of("shard_quarantined")
        assert len(quarantined) == 1
        assert quarantined[0]["attempts"] == 2  # 1 try + 1 retry
        assert "permanent" in quarantined[0]["error"]
        # Exception type and message travel separately, so the run log
        # alone is enough to diagnose the shard.
        assert quarantined[0]["error_type"] == "RuntimeError"
        assert all(
            e["error_type"] == "RuntimeError" for e in col.of("shard_retry")
        )
        store = ShardStore(tmp_path, STUB_CONFIG)
        assert store.quarantined_ids() == [27]
        from repro.ioutils import read_envelope

        marker = read_envelope(store.quarantine_path(27))
        assert marker["error_type"] == "RuntimeError"
        assert marker["error"] == "permanent"

    def test_quarantined_shard_recovers_on_rerun(self, tmp_path):
        def broken(task):
            raise RuntimeError("always")

        SweepEngine(
            STUB_CONFIG, cache_dir=tmp_path, jobs=1, max_retries=0,
            backoff_base_s=0.0, task_fn=broken,
        ).run()
        store = ShardStore(tmp_path, STUB_CONFIG)
        assert store.quarantined_ids() == list(SUBSET)

        result = SweepEngine(
            STUB_CONFIG, cache_dir=tmp_path, jobs=1,
            backoff_base_s=0.0, task_fn=stub_task,
        ).run()
        assert result.missing == []
        assert store.quarantined_ids() == []

    def test_backoff_is_bounded(self, tmp_path):
        engine = SweepEngine(
            STUB_CONFIG, cache_dir=tmp_path,
            backoff_base_s=0.5, backoff_cap_s=2.0,
        )
        backoffs = [engine._backoff(attempt) for attempt in (2, 3, 4, 5, 6)]
        assert backoffs == [0.5, 1.0, 2.0, 2.0, 2.0]


class TestResume:
    def test_resume_recomputes_only_missing_shards(self, tmp_path):
        # First run dies on shard 27: two shards persist, one is missing.
        def dies_on_27(task):
            if task.shard_id == 27:
                raise RuntimeError("killed")
            return stub_task(task)

        first = SweepEngine(
            STUB_CONFIG, cache_dir=tmp_path, jobs=1, max_retries=0,
            backoff_base_s=0.0, task_fn=dies_on_27,
        ).run()
        assert first.missing == [27]

        # Second run resumes: the run log shows 1 and 30 served from the
        # shard cache and only 27 actually executed.
        col = CollectingReporter()
        second = SweepEngine(
            STUB_CONFIG, cache_dir=tmp_path, jobs=1,
            backoff_base_s=0.0, task_fn=stub_task, reporters=[col],
        ).run()
        assert second.missing == []
        assert [m.idx for m in second.matrices] == list(SUBSET)
        assert sorted(e["shard"] for e in col.of("shard_cached")) == [1, 30]
        assert [e["shard"] for e in col.of("shard_start")] == [27]
        assert [e["shard"] for e in col.of("shard_finish")] == [27]
        start = col.of("sweep_start")[0]
        assert start["cached"] == 2 and start["n_shards"] == 3

    def test_fresh_discards_shards(self, tmp_path):
        SweepEngine(
            STUB_CONFIG, cache_dir=tmp_path, jobs=1, task_fn=stub_task,
        ).run()
        col = CollectingReporter()
        SweepEngine(
            STUB_CONFIG, cache_dir=tmp_path, jobs=1, resume=False,
            task_fn=stub_task, reporters=[col],
        ).run()
        assert col.of("shard_cached") == []
        assert len(col.of("shard_finish")) == 3

    def test_corrupt_shard_recomputed_on_resume(self, tmp_path):
        SweepEngine(
            STUB_CONFIG, cache_dir=tmp_path, jobs=1, task_fn=stub_task,
        ).run()
        store = ShardStore(tmp_path, STUB_CONFIG)
        store.shard_path(30).write_text("not json at all")
        col = CollectingReporter()
        result = SweepEngine(
            STUB_CONFIG, cache_dir=tmp_path, jobs=1, task_fn=stub_task,
            reporters=[col],
        ).run()
        assert result.missing == []
        assert [e["shard"] for e in col.of("shard_finish")] == [30]


class TestEvents:
    def test_jsonl_reporter_round_trips(self, tmp_path):
        log = tmp_path / "run.jsonl"
        reporter = JsonlReporter(log)
        SweepEngine(
            STUB_CONFIG, cache_dir=tmp_path, jobs=1, task_fn=stub_task,
            reporters=[reporter],
        ).run()
        reporter.close()
        events = [json.loads(line) for line in log.read_text().splitlines()]
        kinds = [e["event"] for e in events]
        assert kinds[0] == "sweep_start"
        assert kinds[-1] == "sweep_finish"
        assert kinds.count("shard_finish") == 3
        assert all("ts" in e for e in events)

    def test_sweep_finish_metrics(self, tmp_path):
        col = CollectingReporter()
        run_sweep_engine(
            STUB_CONFIG, cache_dir=tmp_path, jobs=1, task_fn=stub_task,
            reporters=[col],
        )
        finish = col.of("sweep_finish")[0]
        assert finish["completed"] == 3
        assert finish["records"] == 3
        assert finish["quarantined"] == 0
        assert finish["shards_per_s"] > 0
        assert 0.0 <= finish["worker_utilization"] <= 1.0

    def test_invalid_jobs_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            SweepEngine(STUB_CONFIG, cache_dir=tmp_path, jobs=0)


class TestPoolPath:
    """The ProcessPoolExecutor path with a picklable stub task."""

    def test_pool_runs_and_persists(self, tmp_path):
        col = CollectingReporter()
        result = SweepEngine(
            STUB_CONFIG, cache_dir=tmp_path, jobs=2, task_fn=stub_task,
            reporters=[col],
        ).run()
        assert result.missing == []
        # Assembly is in suite order no matter the completion order.
        assert [m.idx for m in result.matrices] == list(SUBSET)
        assert ShardStore(tmp_path, STUB_CONFIG).completed_ids() == [1, 27, 30]
        assert len(col.of("shard_finish")) == 3


class TestShardMemory:
    def test_shard_task_frees_its_reference_cycles(self):
        """Formats, lazy structures and plan memos form reference cycles;
        the task collects them before returning, so a worker's next shard
        does not stack its peak memory on this one's garbage."""
        import gc

        from repro.engine.tasks import run_shard_task

        config = SweepConfig(
            precisions=("dp",), thread_counts=(1,), max_block_elems=4,
            suite_indices=(1,),
        )
        (task,) = plan_shards(config)
        gc.collect()
        gc.disable()
        try:
            run_shard_task(task)
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            leaked = {type(o).__name__ for o in gc.garbage}
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert not leaked & {"SimPlan", "CSRMatrix", "BCSRMatrix", "_LazyBCSR"}


@pytest.mark.slow
class TestKillResume:
    """Acceptance: kill a sweep after ≥1 shard completes, re-run with
    --resume, and the run log shows only the missing shards recomputed."""

    def test_killed_sweep_resumes_from_shards(self, tmp_path):
        repo_root = Path(__file__).resolve().parent.parent
        env = {**os.environ,
               "PYTHONPATH": str(repo_root / "src")
               + os.pathsep + os.environ.get("PYTHONPATH", "")}
        base = [
            sys.executable, "-m", "repro", "sweep", "--jobs", "1",
            "--matrices", "1,27,30", "--precisions", "dp", "--threads", "1",
            "--cache-dir", str(tmp_path),
        ]

        def finished_shards(log):
            if not log.exists():
                return set()
            done = set()
            for line in log.read_text().splitlines():
                try:
                    event = json.loads(line)
                except json.JSONDecodeError:  # torn final line after kill
                    continue
                if event["event"] == "shard_finish":
                    done.add(event["shard"])
            return done

        # Kill the first sweep as soon as one shard has been persisted.
        log1 = tmp_path / "run1.jsonl"
        proc = subprocess.Popen(
            [*base, "--run-log", str(log1)], cwd=repo_root, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 300
            while not finished_shards(log1):
                if proc.poll() is not None or time.monotonic() > deadline:
                    break
                time.sleep(0.2)
        finally:
            proc.kill()
            proc.wait()
        done = finished_shards(log1)
        assert done, "no shard completed before the kill"
        config = SweepConfig(
            suite_indices=SUBSET, precisions=("dp",), thread_counts=(1,)
        )
        monolithic = tmp_path / f"sweep_{config.fingerprint()}.json"
        if proc.returncode == 0:
            # The sweep outran the kill (fast machine): drop the assembled
            # cache so the second run still exercises shard-level resume.
            monolithic.unlink(missing_ok=True)
        else:
            assert not monolithic.exists(), (
                "monolithic cache must not exist after a kill"
            )

        # Re-run with --resume (the default): completed shards are served
        # from the store, only the missing ones execute.
        log2 = tmp_path / "run2.jsonl"
        proc2 = subprocess.run(
            [*base, "--resume", "--run-log", str(log2)],
            cwd=repo_root, env=env, capture_output=True, text=True,
            timeout=600,
        )
        assert proc2.returncode == 0, proc2.stderr
        assert "sweep ready: 3 matrices" in proc2.stdout
        events = [json.loads(l) for l in log2.read_text().splitlines()]
        cached = {e["shard"] for e in events if e["event"] == "shard_cached"}
        recomputed = {
            e["shard"] for e in events if e["event"] == "shard_finish"
        }
        assert cached == done
        assert recomputed == set(SUBSET) - done


@pytest.mark.slow
class TestDeterminism:
    """Acceptance: jobs=4 output is byte-identical to the serial sweep."""

    CONFIG = SweepConfig(
        precisions=("dp",), thread_counts=(1,), max_block_elems=4,
        suite_indices=SUBSET,
    )

    def test_parallel_sweep_matches_serial(self, tmp_path):
        serial = run_sweep(config=self.CONFIG)
        parallel = load_or_run_sweep(
            self.CONFIG, cache_dir=tmp_path, jobs=4,
            run_log=tmp_path / "run.jsonl",
        )
        assert parallel.missing == []
        assert parallel.canonical_json() == serial.canonical_json()
        # All three shards really went through the pool.
        events = [
            json.loads(line)
            for line in (tmp_path / "run.jsonl").read_text().splitlines()
        ]
        finished = sorted(
            e["shard"] for e in events if e["event"] == "shard_finish"
        )
        assert finished == list(SUBSET)
