"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import cli
from repro.bench.harness import SweepConfig, run_sweep

from .test_experiments import MINI_SUITE

REPO_ROOT = Path(__file__).resolve().parent.parent


class TestParser:
    def test_rejects_unknown_experiment(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["tableX"])

    def test_requires_an_experiment(self):
        with pytest.raises(SystemExit):
            cli.main([])

    def test_resume_and_fresh_conflict(self):
        with pytest.raises(SystemExit):
            cli.main(["sweep", "--resume", "--fresh"])


class TestConfigFromArgs:
    def _config(self, *argv):
        args = cli._build_parser().parse_args(["sweep", *argv])
        return cli._config_from_args(args)

    def test_defaults_to_full_config(self):
        assert self._config() == SweepConfig()

    def test_subset_flags(self):
        cfg = self._config(
            "--matrices", "1,27,30", "--precisions", "dp", "--threads", "1,2"
        )
        assert cfg.suite_indices == (1, 27, 30)
        assert cfg.precisions == ("dp",)
        assert cfg.thread_counts == (1, 2)

    @pytest.mark.parametrize("argv,message", [
        (["--jobs", "0"], "--jobs must be >= 1"),
        (["--matrices", "1,99"], "no suite entry 99"),
        (["--matrices", ""], "no suite entries"),
        (["--precisions", ""], "--precisions selected nothing"),
        (["--threads", ""], "--threads selected nothing"),
    ])
    def test_invalid_sweep_flags_fail_cleanly(self, capsys, tmp_path,
                                              argv, message):
        code = cli.main(
            ["sweep", *argv, "--cache-dir", str(tmp_path)]
        )
        assert code == 2
        assert message in capsys.readouterr().err

    def test_engine_flag_defaults(self):
        args = cli._build_parser().parse_args(["sweep"])
        assert args.jobs is None
        assert args.resume is True
        assert args.run_log is None
        args = cli._build_parser().parse_args(["sweep", "--fresh"])
        assert args.resume is False


class TestColind:
    def test_colind_runs_without_sweep(self, capsys, monkeypatch):
        # Patch the latency-bound set down to one matrix to keep it fast.
        from repro.bench import experiments

        original = experiments.colind_zero

        def fast_colind():
            return original(matrix_ids=(12,))

        monkeypatch.setattr(experiments, "colind_zero", fast_colind)
        assert cli.main(["colind"]) == 0
        out = capsys.readouterr().out
        assert "col_ind=0" in out
        assert "wikipedia" in out


class TestSweepDriven:
    @pytest.fixture()
    def tiny_cache(self, tmp_path, monkeypatch):
        """Pre-populate the cache dir with a mini-suite sweep so the CLI
        does not run the real 30-matrix sweep."""
        config = SweepConfig()
        sweep = run_sweep(
            MINI_SUITE,
            SweepConfig(precisions=("sp", "dp"), thread_counts=(1, 2, 4)),
        )
        sweep.config = config  # masquerade as the default config
        path = tmp_path / f"sweep_{config.fingerprint()}.json"
        sweep.save(path)
        return tmp_path

    def test_table2_from_cache(self, capsys, tiny_cache):
        assert cli.main(["table2", "--cache-dir", str(tiny_cache)]) == 0
        out = capsys.readouterr().out
        assert "Table II" in out

    def test_multiple_experiments(self, capsys, tiny_cache):
        assert cli.main(
            ["table3", "fig2", "table4", "--cache-dir", str(tiny_cache)]
        ) == 0
        out = capsys.readouterr().out
        assert "Table III" in out
        assert "Figure 2" in out
        assert "Table IV" in out

    def test_fig3_fig4_both_precisions(self, capsys, tiny_cache):
        assert cli.main(["fig3", "fig4", "--cache-dir", str(tiny_cache)]) == 0
        out = capsys.readouterr().out
        assert "Figure 3 (sp)" in out
        assert "Figure 3 (dp)" in out
        assert "Figure 4 (sp)" in out

    def test_sweep_reports_stats(self, capsys, tiny_cache):
        assert cli.main(["sweep", "--cache-dir", str(tiny_cache)]) == 0
        assert "sweep ready" in capsys.readouterr().out


class TestAdviseCLI:
    def test_advise_dense_matches_exhaustive(self, capsys, tmp_path,
                                             machine, shared_profile_cache,
                                             monkeypatch):
        """Acceptance: ``advise dense --top 3`` leads with the candidate the
        exhaustive AutoTuner picks under OVERLAP."""
        from repro.serve import service as service_mod

        # Reuse the session profile so the CLI path skips calibration.
        monkeypatch.setattr(
            service_mod.AdvisorService,
            "__init__",
            _patched_init(shared_profile_cache),
        )
        assert cli.main(
            ["advise", "dense", "--top", "3",
             "--cache-dir", str(tmp_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "1. BCSR 8x1 simd" in out
        assert "evaluated 33/105 candidates" in out
        assert out.count("ms/spmv") == 3

    def test_advise_json_output(self, capsys, tmp_path,
                                shared_profile_cache, monkeypatch):
        from repro.serve import service as service_mod

        monkeypatch.setattr(
            service_mod.AdvisorService,
            "__init__",
            _patched_init(shared_profile_cache),
        )
        assert cli.main(
            ["advise", "pwtk", "--json", "--cache-dir", str(tmp_path)]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ranking"][0]["kind"] == "bcsr"
        assert payload["cache_hit"] is False

    def test_advise_unknown_matrix_fails_cleanly(self, capsys, tmp_path):
        code = cli.main(
            ["advise", "no-such-matrix", "--cache-dir", str(tmp_path)]
        )
        assert code == 1
        assert "no-such-matrix" in capsys.readouterr().err

    def test_advise_rejects_bad_top(self, capsys, tmp_path):
        code = cli.main(
            ["advise", "dense", "--top", "0", "--cache-dir", str(tmp_path)]
        )
        assert code == 2
        assert "--top" in capsys.readouterr().err

    def test_advise_parser_defaults(self):
        args = cli._build_advise_parser().parse_args(["dense"])
        assert args.model == "overlap"
        assert args.precision == "dp"
        assert args.top == 3
        assert args.prune is True
        assert args.use_cache is True
        args = cli._build_advise_parser().parse_args(
            ["dense", "--no-prune", "--no-cache"]
        )
        assert args.prune is False
        assert args.use_cache is False

    def test_serve_parser_defaults(self):
        args = cli._build_serve_parser().parse_args([])
        assert args.host == "127.0.0.1"
        assert args.port == 8077
        args = cli._build_serve_parser().parse_args(["--port", "9000"])
        assert args.port == 9000


def _patched_init(profile_cache):
    from repro.serve.service import AdvisorService

    original = AdvisorService.__init__

    def init(self, machine=None, **kwargs):
        kwargs["profile_cache"] = profile_cache
        original(self, machine, **kwargs)

    return init


def test_cli_start_does_not_load_scipy():
    """scipy.sparse loads on first evaluation, not with every CLI start:
    ``repro serve`` readiness and every subcommand pay for the import."""
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.cli, repro.serve.server; "
         "print(sorted(m for m in sys.modules if m.startswith('scipy'))[:3])"],
        capture_output=True,
        text=True,
        env={**os.environ,
             "PYTHONPATH": str(REPO_ROOT / "src")
             + os.pathsep + os.environ.get("PYTHONPATH", "")},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class TestCompareBatched:
    """``repro sweep --compare-batched``: the batched sweep diffed record by
    record against the per-cell reference."""

    def test_paths_agree(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "sweep", "--compare-batched",
             "--matrices", "1", "--cache-dir", str(tmp_path / "cache")],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env={**os.environ,
                 "PYTHONPATH": str(REPO_ROOT / "src")
                 + os.pathsep + os.environ.get("PYTHONPATH", "")},
            timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        assert "compare-batched: OK" in proc.stdout

    def test_divergence_names_the_field(
        self, capsys, monkeypatch, tmp_path
    ):
        import math

        from repro.bench import harness

        original = harness.run_sweep

        def perturbed(*args, **kwargs):
            result = original(*args, **kwargs)
            record = result.matrices[0].records[3]
            record.t_real = math.nextafter(record.t_real, math.inf)
            return result

        monkeypatch.setattr(harness, "run_sweep", perturbed)
        monkeypatch.chdir(tmp_path)
        code = cli.main([
            "sweep", "--compare-batched", "--matrices", "1",
            "--precisions", "dp", "--threads", "1",
            "--cache-dir", str(tmp_path),
        ])
        out = capsys.readouterr().out
        assert code != 0
        assert "compare-batched: DIVERGENCE" in out
        assert "record 3" in out
        assert "t_real" in out


@pytest.mark.slow
class TestEngineSmoke:
    """Tier-1 end-to-end smoke: a real ``python -m repro sweep --jobs 2``
    on a 3-matrix suite subset against a temp cache dir."""

    ARGS = [
        "sweep", "--jobs", "2",
        "--matrices", "1,27,30", "--precisions", "dp", "--threads", "1",
    ]

    def test_sweep_jobs2_end_to_end(self, tmp_path):
        run_log = tmp_path / "run.jsonl"
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *self.ARGS,
             "--cache-dir", str(tmp_path), "--run-log", str(run_log),
             "--progress"],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={**os.environ,
                 "PYTHONPATH": str(REPO_ROOT / "src")
                 + os.pathsep + os.environ.get("PYTHONPATH", "")},
            timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        assert "sweep ready: 3 matrices" in proc.stdout

        # The run log recorded every shard going through the pool.
        events = [json.loads(l) for l in run_log.read_text().splitlines()]
        finished = sorted(
            e["shard"] for e in events if e["event"] == "shard_finish"
        )
        assert finished == [1, 27, 30]
        assert events[0]["jobs"] == 2

        # The monolithic cache was assembled; a second invocation is a
        # pure cache hit (no engine events appended).
        config = SweepConfig(
            suite_indices=(1, 27, 30), precisions=("dp",), thread_counts=(1,)
        )
        assert (tmp_path / f"sweep_{config.fingerprint()}.json").exists()
        n_lines = len(events)
        assert cli.main([*self.ARGS, "--cache-dir", str(tmp_path),
                         "--run-log", str(run_log)]) == 0
        assert len(run_log.read_text().splitlines()) == n_lines
