"""Tests of the benchmark's own logic (not of the program it measures).

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from repro.analysis.config import load_config  # noqa: E402
from repro.analysis.runner import run_lint  # noqa: E402
from repro.bench.harness import MatrixSweep, SweepConfig, SweepRecord, SweepResult  # noqa: E402

import inputs  # noqa: E402
from advisor import Outcome, check_answer  # noqa: E402
from measure import Tally, percentile, samples_beyond, tail_percentile  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402
from sweeps import SweepSpec, check_matrices, matrix_sha  # noqa: E402


# ------------------------------ tail rule ------------------------------- #
def test_p90_needs_a_hundred_samples():
    assert samples_beyond(100, 90) == 10
    assert samples_beyond(99, 90) == 9
    assert tail_percentile(99) == 75
    assert tail_percentile(100) == 90
    assert tail_percentile(200) == 95
    assert tail_percentile(1000) == 99
    assert tail_percentile(19) is None


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert percentile(values, 90) == 90.0
    assert percentile(values, 50) == 50.0
    assert percentile([3.0], 90) == 3.0
    with pytest.raises(ValueError):
        percentile([], 50)


# ---------------------------- failure counting -------------------------- #
def test_tally_counts_attempts_and_failures():
    tally = Tally()
    for failure in (None, "bad", None, "worse"):
        tally.record(failure)
    assert (tally.attempted, tally.failed) == (4, 2)
    assert tally.reasons == ["bad", "worse"]


def _answer(label="BCSR 2x2 simd", hit=False, predicted=(1.0, 2.0)):
    ranking = [
        {"kind": "bcsr", "block": [2, 2], "impl": "simd", "predicted_s": p}
        for p in predicted
    ]
    return {
        "fingerprint": "f00d", "nrows": 4, "ncols": 4, "nnz": 8,
        "ranking": ranking, "best": {**ranking[0], "label": label},
        "n_candidates_evaluated": 2, "n_candidates_total": 5,
        "cache_hit": hit, "elapsed_s": 0.01,
    }


IDENTITY = {"fingerprint": "f00d", "nrows": 4, "ncols": 4, "nnz": 8}
PINS = {"advise": {"best": {"dense": {"overlap|dp|t1|p1": "BCSR 2x2 simd"}}}}


def _outcome(answer, status=200, matrix="dense"):
    req = inputs.Request("r1", matrix, "overlap", "dp", 1, True)
    return Outcome(req, status, 0.1, answer if status == 200 else None)


def test_check_answer_accepts_a_right_answer():
    assert check_answer(_outcome(_answer()), IDENTITY, PINS, want_hit=False) is None


@pytest.mark.parametrize("outcome, kwargs", [
    (_outcome(None, status=503), {}),
    (_outcome(_answer(label="CSR")), {}),  # wrong best label
    (_outcome(_answer(predicted=(2.0, 1.0))), {}),  # not best-first
    (_outcome(_answer(hit=True)), {"want_hit": False}),
    (_outcome(_answer()), {"reference": _answer(predicted=(1.0, 3.0))}),
    (_outcome(_answer(), matrix="pwtk"), {}),  # no pinned label
])
def test_check_answer_counts_wrong_answers(outcome, kwargs):
    tally = Tally()
    tally.record(check_answer(outcome, IDENTITY, PINS, **kwargs))
    assert tally.failed == 1


def test_check_answer_rejects_another_matrix():
    other = dict(IDENTITY, fingerprint="beef")
    assert check_answer(_outcome(_answer()), other, PINS) is not None


# ------------------------------- sha pins ------------------------------- #
def _sweep():
    records = [
        SweepRecord("csr", None, "scalar", "dp", t, 1e-3 * t, 1e-3, 1e-4, 0.0,
                    1000, 1.0, 10, {"overlap": 1e-3})
        for t in (1, 2)
    ]
    matrix = MatrixSweep(1, "dense", "special", False, True, 4, 4, 16, records)
    return SweepResult(SweepConfig(suite_indices=(1,)), [matrix], 0.0)


def test_sha_check_passes_pinned_records():
    result = _sweep()
    pins = {"sweep": {"1": {"sha": matrix_sha(result.matrices[0])}}}
    tally = Tally()
    check_matrices(result, SweepSpec((1,), 1, 1.0), pins, tally)
    assert (tally.attempted, tally.failed) == (1, 0)


def test_one_changed_record_fails_the_sha_check():
    result = _sweep()
    pins = {"sweep": {"1": {"sha": matrix_sha(result.matrices[0])}}}
    matrix = result.matrices[0]
    matrix.records[1] = dataclasses.replace(
        matrix.records[1], t_real=matrix.records[1].t_real * (1 + 1e-15)
    )
    tally = Tally()
    check_matrices(result, SweepSpec((1,), 1, 1.0), pins, tally)
    assert (tally.attempted, tally.failed) == (1, 1)


def test_missing_matrix_fails():
    result = _sweep()
    pins = {"sweep": {"1": {"sha": matrix_sha(result.matrices[0])}, "2": {"sha": "x"}}}
    tally = Tally()
    check_matrices(result, SweepSpec((1, 2), 1, 1.0), pins, tally)
    assert (tally.attempted, tally.failed) == (2, 1)


# ---------------------------- request streams --------------------------- #
def _wire(requests, inline):
    """The exact bytes a request list puts on the wire, in order."""
    return b"\n".join(r.rid.encode() + b" " + r.body(inline) for r in requests)


def _cold(seed, n):
    inline = {m.name: m for m in
              (inputs.inline_matrix(seed, k) for k in range(inputs.COLD_INLINE))}
    seq = inputs.cold_sequence(seed, list(inline))
    return [next(seq) for _ in range(n)], inline


def test_same_seed_gives_byte_identical_requests():
    a, inline_a = _cold(7, 60)
    b, inline_b = _cold(7, 60)
    assert _wire(a, inline_a) == _wire(b, inline_b)
    c, inline_c = _cold(8, 60)
    assert _wire(a, inline_a) != _wire(c, inline_c)

    hot = {m.name: m for m in (inputs.inline_matrix(7, k)
                               for k in range(inputs.HOT_INLINE))}
    pairs = inputs.hot_pairs(7, list(hot))
    seq1, seq2 = inputs.hot_sequence(7, pairs), inputs.hot_sequence(7, pairs)
    first = [next(seq1) for _ in range(40)]
    assert _wire(first, hot) == _wire(
        [next(seq2) for _ in range(40)], hot
    )


def test_cold_pairs_never_repeat_and_keep_their_mix():
    blocks = 19
    requests, _ = _cold(3, blocks * inputs.COLD_BLOCK)
    assert len({r.pair for r in requests}) == len(requests)
    assert sum(r.suite for r in requests) == blocks * inputs.COLD_SUITES_PER_BLOCK
    assert sum(not r.prune for r in requests) == blocks * len(inputs.INLINE_FAMILIES)


def test_hot_blocks_hold_every_pair_once():
    pairs = inputs.hot_pairs(5, ["inline:fem:0", "inline:circuit:1"])
    seq = inputs.hot_sequence(5, pairs)
    block = [next(seq).pair for _ in range(len(pairs))]
    assert sorted(block) == sorted(p.pair for p in pairs)


# -------------------------------- tracing ------------------------------- #
def test_self_time_subtracts_covered_child_time():
    spans = [
        Span(0, "parent", 0.0, 10.0, None, "r"),
        Span(1, "child", 1.0, 4.0, 0, "r"),
        Span(2, "child", 3.0, 5.0, 0, "r"),  # overlaps the first child
        Span(3, "grandchild", 1.0, 2.0, 1, "r"),
    ]
    own = self_times(spans)
    assert own["parent"] == pytest.approx(6.0)
    assert own["child"] == pytest.approx(2.0 + 2.0)
    assert own["grandchild"] == pytest.approx(1.0)


class _Thing:
    def work(self, x):
        return x + 1


def test_wrap_records_spans_and_restores():
    original = _Thing.__dict__["work"]
    tracer = Tracer()
    tracer.wrap(_Thing, "work", "thing.work", request_id=lambda args: "rid-1")
    assert _Thing().work(1) == 2
    tracer.restore()
    assert _Thing.__dict__["work"] is original
    [span] = tracer.spans
    assert (span.name, span.request_id, span.parent) == ("thing.work", "rid-1", None)


# ------------------------------ repo hygiene ---------------------------- #
def test_benchmark_code_lints_clean():
    config = dataclasses.replace(load_config(ROOT), paths=("perfbench",))
    result = run_lint(config)
    assert result.files_checked >= 7
    assert result.findings == []


def test_contract_names_are_unique():
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in contract[key]]
    assert len(names) == len(set(names))
    assert any(m["name"] == "setup_s" for m in contract["end_to_end"])
