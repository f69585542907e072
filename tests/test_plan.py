"""Tests for the simulation-plan layer and the profile warm start.

The contract under test is *bit identity*: the plan-based ``simulate``,
the disk-served profiles and the warm-started engine must reproduce the
exact bytes the historical per-call path produced — no tolerances anywhere.
"""

import dataclasses
import json

import pytest

from repro.bench import reference
from repro.bench.harness import SweepConfig, run_sweep, sweep_matrix
from repro.core.profiling import (
    ProfileCache,
    ProfileStore,
    dense_coo,
    machine_token,
    profile_from_payload,
    profile_to_payload,
)
from repro.formats.coo import COOMatrix
from repro.machine import get_preset
from repro.machine.executor import simulate, simulate_reference
from repro.machine.plan import get_plan
from repro.matrices.suite import get_entry
from repro.types import Impl, Precision

from .conftest import make_random_coo


def _test_matrices():
    import numpy as np

    yield "dense40", dense_coo(40)
    yield "random", make_random_coo(300, 300, 4000, seed=5, with_values=False)
    yield "tall", make_random_coo(500, 80, 2500, seed=6, with_values=False)
    # Latency-bound: a huge sparse footprint whose x stream exceeds the
    # 32768-line budget, exercising the full vectorized estimator path.
    rng = np.random.default_rng(9)
    n = 1_200_000
    nnz = 120_000
    yield "latency", COOMatrix(
        500, n, rng.integers(0, 500, nnz), rng.integers(0, n, nnz), None
    )


def _candidates():
    return (
        ("csr", None),
        ("vbl", None),
        ("bcsr", (2, 2)),
        ("bcsr_dec", (2, 2)),
        ("bcsd", 2),
        ("bcsd_dec", 2),
    )


def _build(coo, kind, block):
    from repro.core.candidates import Candidate
    from repro.core.selection import build_candidate

    return build_candidate(coo, Candidate(kind, block, Impl.SCALAR))


class TestPlanBitIdentity:
    @pytest.mark.parametrize("name,coo", list(_test_matrices()))
    def test_simulate_equals_reference(self, name, coo, machine):
        """Every field of every cell, across formats, precisions, impls
        and thread counts, is exactly the reference value."""
        for kind, block in _candidates():
            fmt = _build(coo, kind, block)
            for precision in ("sp", "dp"):
                for impl in (Impl.SCALAR, Impl.SIMD):
                    for nthreads in (1, 2, 4):
                        got = simulate(fmt, machine, precision, impl, nthreads)
                        want = simulate_reference(
                            fmt, machine, precision, impl, nthreads
                        )
                        assert got == want, (name, kind, precision, impl, nthreads)

    def test_zero_col_ind_matches(self, machine):
        fmt = _build(dict(_test_matrices())["latency"], "csr", None)
        got = simulate(fmt, machine, "dp", zero_col_ind=True)
        want = simulate_reference(fmt, machine, "dp", zero_col_ind=True)
        assert got == want
        assert got.t_latency == 0.0

    def test_bad_nthreads_same_error(self, machine):
        fmt = _build(dense_coo(40), "csr", None)
        with pytest.raises(Exception) as plan_exc:
            simulate(fmt, machine, "dp", nthreads=0)
        with pytest.raises(Exception) as ref_exc:
            simulate_reference(fmt, machine, "dp", nthreads=0)
        assert str(plan_exc.value) == str(ref_exc.value)


class TestPlanReuse:
    def test_plan_cached_per_machine_and_precision(self, machine):
        fmt = _build(dense_coo(40), "bcsr", (2, 2))
        p1 = get_plan(fmt, machine, "dp")
        assert get_plan(fmt, machine, "dp") is p1
        assert get_plan(fmt, machine, "sp") is not p1
        other = get_preset("generic-modern")
        assert get_plan(fmt, other, "dp") is not p1

    def test_cells_share_memoised_partitions(self, machine):
        fmt = _build(make_random_coo(200, 200, 2000, seed=7), "csr", None)
        plan = get_plan(fmt, machine, "dp")
        plan.run(Impl.SCALAR, 1)
        plan.run(Impl.SCALAR, 2)
        n_partitions = len(plan._partitions)
        plan.run(Impl.SIMD, 2)  # same structure, same partition
        assert len(plan._partitions) == n_partitions

    def test_run_cells_batches(self, machine):
        fmt = _build(dense_coo(40), "csr", None)
        plan = get_plan(fmt, machine, "dp")
        cells = [(Impl.SCALAR, t) for t in (1, 2, 4)]
        assert plan.run_cells(cells) == [plan.run(i, t) for i, t in cells]


def _col_mask_matrix():
    """Random pattern whose first column reaches rows 1..7, so BCSD
    diagonals of every size up to 8 begin off-matrix (negative starts)."""
    import numpy as np

    base = make_random_coo(120, 3000, 2500, seed=12, with_values=False)
    rows = np.concatenate([base.rows, np.arange(1, 8)])
    cols = np.concatenate([base.cols, np.zeros(7, dtype=np.int64)])
    return COOMatrix(120, 3000, rows, cols, None)


class TestColumnMask:
    """``_x_col_mask``'s per-line OR-reduction is the exact distinct-line
    count of the element stream, clipped as ``line_ids`` clips it."""

    @pytest.mark.parametrize(
        "kind,block",
        [
            ("csr", None),
            ("bcsr", (3, 2)),
            ("bcsr", (2, 4)),
            ("bcsr_dec", (2, 3)),
            ("bcsd", 4),
            ("bcsd", 8),
            ("bcsd_dec", 3),
            ("vbl", None),
        ],
    )
    def test_distinct_lines_match_unique(self, kind, block):
        import numpy as np

        from repro.machine.plan import _distinct_lines, _x_col_mask

        fmt = _build(_col_mask_matrix(), kind, block)
        for part in fmt.submatrices():
            stream = part.x_access_stream()
            cols = stream.element_columns()
            if kind == "bcsd":
                assert cols.min() < 0  # off-matrix edge starts exercised
            if kind == "vbl":
                assert stream.widths is not None
            assert np.array_equal(
                np.flatnonzero(_x_col_mask(part)), np.unique(np.maximum(cols, 0))
            )
            for line_elems in (8, 16):
                assert _distinct_lines(part, line_elems) == np.unique(
                    np.maximum(cols, 0) // line_elems
                ).size, (kind, block, line_elems)


    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_wholly_negative_accesses_clip_to_column_zero(self, width):
        import numpy as np

        from repro.formats.base import XAccessStream
        from repro.machine.plan import _x_col_mask

        class Part:
            def x_access_stream(self):
                return XAccessStream(np.array([-9, 5, -4, 5]), width)

        cols = Part().x_access_stream().element_columns()
        assert np.array_equal(
            np.flatnonzero(_x_col_mask(Part())), np.unique(np.maximum(cols, 0))
        )


class TestProfilePersistence:
    def test_payload_round_trip_is_float_exact(self, machine, profile_dp):
        # Through an actual JSON string, as the store does.
        payload = json.loads(json.dumps(profile_to_payload(profile_dp)))
        back = profile_from_payload(payload)
        assert back == profile_dp  # dataclass equality: exact dict floats

    def test_machine_token_is_content_keyed(self, machine):
        assert machine_token(machine) == machine_token(machine)
        assert machine_token(machine) != machine_token(
            get_preset("generic-modern")
        )
        tweaked = dataclasses.replace(machine, clock_hz=machine.clock_hz + 1)
        assert machine_token(tweaked) != machine_token(machine)

    def test_store_serves_from_disk_exactly(self, tmp_path, machine):
        store = ProfileStore(tmp_path)
        profile, source = store.get_with_source(machine, "dp")
        assert source == "calibrated"
        # A fresh store (new process, cold memory) must hit the disk file
        # and produce the identical profile.
        store2 = ProfileStore(tmp_path)
        again, source2 = store2.get_with_source(machine, "dp")
        assert source2 == "disk"
        assert again == profile
        _, source3 = store2.get_with_source(machine, "dp")
        assert source3 == "memory"

    def test_corrupt_profile_recalibrates(self, tmp_path, machine):
        store = ProfileStore(tmp_path)
        profile, _ = store.get_with_source(machine, "dp")
        path = store.path(machine, Precision.DP, False)
        path.write_text("{not json")
        fresh = ProfileStore(tmp_path)
        again, source = fresh.get_with_source(machine, "dp")
        assert source == "calibrated"
        assert again == profile  # calibration is deterministic

    def test_seed_skips_calibration(self, machine, profile_dp, monkeypatch):
        import repro.core.profiling as profiling

        cache = ProfileCache()
        cache.seed(machine, profile_dp)
        monkeypatch.setattr(
            profiling, "profile_machine", _boom, raising=True
        )
        assert cache.get(machine, "dp") is profile_dp


def _boom(*a, **k):  # pragma: no cover - must never run
    raise AssertionError("calibration ran despite a seeded profile")


class TestEngineWarmStart:
    def _config(self):
        return SweepConfig(
            precisions=("dp",),
            thread_counts=(1,),
            max_block_elems=4,
            suite_indices=(1,),
        )

    def test_shard_task_ships_profiles(self, machine, profile_dp, monkeypatch):
        """A shipped profile makes the worker skip calibration entirely."""
        import repro.core.profiling as profiling
        import repro.engine.tasks as tasks

        monkeypatch.setattr(profiling, "profile_machine", _boom, raising=True)
        monkeypatch.setattr(tasks, "_PROFILE_CACHE", ProfileCache())
        task = tasks.plan_shards(self._config(), profiles=(profile_dp,))[0]
        matrix = tasks.run_shard_task(task)
        assert matrix.records

    def test_profiles_excluded_from_task_identity(self, profile_dp):
        from repro.engine.tasks import plan_shards

        bare = plan_shards(self._config())[0]
        warm = plan_shards(self._config(), profiles=(profile_dp,))[0]
        assert bare == warm
        assert hash(bare) == hash(warm)

    def test_engine_reuses_disk_profile(self, tmp_path):
        from repro.engine.events import CollectingReporter
        from repro.engine.pool import SweepEngine

        config = self._config()
        rep1 = CollectingReporter()
        first = SweepEngine(
            config, cache_dir=tmp_path, reporters=[rep1]
        ).run()
        assert [e["source"] for e in rep1.of("profile_ready")] == ["calibrated"]

        # Drop the shard so the second run recomputes it — warm this time.
        import shutil

        shutil.rmtree(tmp_path / "shards")
        rep2 = CollectingReporter()
        second = SweepEngine(
            config, cache_dir=tmp_path, reporters=[rep2]
        ).run()
        assert [e["source"] for e in rep2.of("profile_ready")] == ["disk"]
        assert first.canonical_json() == second.canonical_json()

    def test_cached_sweep_skips_calibration(self, tmp_path):
        from repro.engine.events import CollectingReporter
        from repro.engine.pool import SweepEngine

        config = self._config()
        SweepEngine(config, cache_dir=tmp_path).run()
        rep = CollectingReporter()
        SweepEngine(config, cache_dir=tmp_path, reporters=[rep]).run()
        assert rep.of("profile_ready") == []  # nothing pending, no profiling

    def test_stub_task_fn_does_not_warm(self, tmp_path):
        from repro.engine.pool import SweepEngine

        engine = SweepEngine(
            self._config(), cache_dir=tmp_path, task_fn=lambda t: None
        )
        assert engine.warm_profiles is False


class TestPhaseTimings:
    def test_sweep_matrix_attaches_breakdown(self, machine, shared_profile_cache):
        config = SweepConfig(
            precisions=("dp",), thread_counts=(1,), max_block_elems=4,
            suite_indices=(1,),
        )
        matrix = sweep_matrix(
            get_entry(1), config, machine=machine,
            profile_cache=shared_profile_cache,
        )
        timings = matrix._phase_timings
        assert set(timings) <= {"convert", "stats", "simulate", "models"}
        assert timings["convert"] > 0.0
        assert timings["simulate"] > 0.0
        # Non-field attribute: stays out of the persisted payload.
        assert "_phase_timings" not in dataclasses.asdict(matrix)

    def test_shard_finish_event_carries_phases(self, tmp_path):
        from repro.engine.events import CollectingReporter
        from repro.engine.pool import SweepEngine

        rep = CollectingReporter()
        SweepEngine(
            SweepConfig(
                precisions=("dp",), thread_counts=(1,), max_block_elems=4,
                suite_indices=(1,),
            ),
            cache_dir=tmp_path,
            reporters=[rep],
        ).run()
        (finish,) = rep.of("shard_finish")
        assert finish["phases"]["simulate"] >= 0.0
        # The inline worker is this process: its peak RSS is at least the
        # interpreter plus numpy.
        assert finish["peak_rss_mib"] > 10.0

    def test_phase_reporter_prints_peak_rss(self):
        import io

        from repro.engine.events import PhaseReporter

        out = io.StringIO()
        rep = PhaseReporter(out)
        phases = {"convert": 0.1, "stats": 0.2, "simulate": 0.3, "models": 0.0}
        for shard, rss in ((1, 300.0), (27, 512.4)):
            rep.handle({
                "event": "shard_finish", "shard": shard, "matrix": "m",
                "elapsed_s": 1.0, "peak_rss_mib": rss, "phases": phases,
            })
        rep.handle({"event": "sweep_finish"})
        lines = out.getvalue().splitlines()
        assert lines[0].endswith("peak_rss=300MiB")
        assert lines[1].endswith("peak_rss=512MiB")
        assert lines[2].startswith("[phases] total over 2 shard(s)")
        assert lines[2].endswith("peak_rss=512MiB")


@pytest.mark.slow
class TestGoldenFingerprint:
    def test_reduced_sweep_reproduces_reference_bytes(self, machine):
        """The end-to-end guarantee: both the per-cell SimPlan path and the
        batched array program reproduce the preserved reference simulator's
        sweep byte-for-byte over the reduced golden config, on matrices
        covering the dense, regular-sparse and latency-bound regimes
        (suite indices 1, 27, 30)."""
        config = SweepConfig(
            precisions=("dp",),
            thread_counts=(1,),
            max_block_elems=4,
            suite_indices=(1, 27, 30),
        )
        shared = ProfileCache()
        want = reference.run_sweep(
            config,
            machine=machine,
            profile_cache=shared,
            simulate=simulate_reference,
        )
        batched = run_sweep(
            config=config, machine=machine, profile_cache=shared
        )
        per_cell = reference.run_sweep(
            config, machine=machine, profile_cache=shared
        )
        assert batched.canonical_json() == want.canonical_json()
        assert per_cell.canonical_json() == want.canonical_json()
