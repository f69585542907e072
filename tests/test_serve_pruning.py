"""Tests for feature-driven candidate pruning.

The slow tests here assert the advisor's headline guarantees on the
30-matrix suite: pruned selection agrees with the exhaustive tuning loop on
all but at most one matrix, while evaluating at most a third of the
candidate space — and the pruned advise path is measurably >= 3x faster.
"""

import time

import numpy as np
import pytest

from repro.core.candidates import candidate_space
from repro.core.selection import evaluate_candidates, select_with_model
from repro.formats import COOMatrix
from repro.serve.features import extract_features
from repro.serve.pruning import PruneConfig, prune_candidates

from .conftest import make_random_coo

# The exhaustive OVERLAP selection for every suite entry, as
# "kind|block|impl".  Deterministic: predictions are a pure function of the
# pattern and the analytically-calibrated machine profile.  Regenerate with:
#   evaluate_candidates(entry.build(), CORE2_XEON, "dp",
#                       candidates=candidate_space(include_vbl=False),
#                       models=("overlap",), run_simulation=False)
#   then select_with_model(results, "overlap").
EXHAUSTIVE_SELECTION = {
    1: ("dense", "bcsr|(8, 1)|simd"),
    2: ("random", "csr|None|scalar"),
    3: ("cfd2", "csr|None|scalar"),
    4: ("parabolic_fem", "bcsd|8|simd"),
    5: ("Ga41As41H72", "bcsr_dec|(2, 2)|simd"),
    6: ("ASIC_680k", "csr|None|scalar"),
    7: ("G3_circuit", "csr|None|scalar"),
    8: ("Hamrle3", "csr|None|scalar"),
    9: ("rajat31", "csr|None|scalar"),
    10: ("cage15", "csr|None|scalar"),
    11: ("wb-edu", "csr|None|scalar"),
    12: ("wikipedia", "csr|None|scalar"),
    13: ("degme", "csr|None|scalar"),
    14: ("rail4284", "csr|None|scalar"),
    15: ("spal_004", "bcsr|(1, 4)|simd"),
    16: ("bone010", "bcsr_dec|(3, 2)|simd"),
    17: ("kkt_power", "csr|None|scalar"),
    18: ("largebasis", "bcsr|(2, 2)|simd"),
    19: ("TSOPF_RS", "bcsr_dec|(1, 8)|simd"),
    20: ("af_shell10", "bcsr|(2, 2)|simd"),
    21: ("audikw_1", "bcsr_dec|(3, 2)|simd"),
    22: ("F1", "bcsr_dec|(3, 2)|simd"),
    23: ("fdiff", "bcsd|8|simd"),
    24: ("gearbox", "bcsr_dec|(3, 2)|simd"),
    25: ("inline_1", "bcsr_dec|(3, 2)|simd"),
    26: ("ldoor", "bcsr_dec|(3, 2)|simd"),
    27: ("pwtk", "bcsr|(6, 1)|simd"),
    28: ("thermal2", "csr|None|scalar"),
    29: ("nd24k", "bcsr_dec|(2, 2)|simd"),
    30: ("stomach", "bcsd|8|simd"),
}


def _key(candidate) -> str:
    return f"{candidate.kind}|{candidate.block}|{candidate.impl.value}"


@pytest.fixture(scope="module")
def candidates():
    return candidate_space(include_vbl=False)


class TestRules:
    def test_csr_always_kept(self, candidates):
        for seed in (1, 2, 3):
            coo = make_random_coo(400, 400, 1200, seed=seed, with_values=False)
            decision = prune_candidates(extract_features(coo), candidates)
            assert any(c.kind == "csr" for c in decision.kept)

    def test_fraction_never_exceeds_one_third(self, candidates):
        patterns = [
            COOMatrix.from_dense(np.ones((48, 48))),  # everything survives
            make_random_coo(500, 500, 1500, seed=4, with_values=False),
            COOMatrix.eye(300),
        ]
        for coo in patterns:
            decision = prune_candidates(extract_features(coo), candidates)
            assert decision.candidate_fraction <= 1 / 3

    def test_sparse_random_drops_padded_blockings(self, candidates):
        coo = make_random_coo(600, 600, 1800, seed=5, with_values=False)
        decision = prune_candidates(extract_features(coo), candidates)
        # ~0.5% density: every 2-D padded blocking implies > 2x padding.
        for cand in decision.kept:
            if cand.kind == "bcsr":
                r, c = cand.block
                assert r == 1 or c == 1
        # Larger diagonal sizes are hopeless too (half-empty segments at
        # size 2 already sit right at the padding limit).
        for cand in decision.kept:
            if cand.kind in ("bcsd", "bcsd_dec"):
                assert cand.block == 2

    def test_dense_keeps_every_shape_family(self, candidates):
        coo = COOMatrix.from_dense(np.ones((48, 48)))
        decision = prune_candidates(extract_features(coo), candidates)
        kinds = {c.kind for c in decision.kept}
        assert {"csr", "bcsr", "bcsr_dec", "bcsd", "bcsd_dec"} <= kinds

    def test_dropped_reasons_cover_missing_structures(self, candidates):
        coo = make_random_coo(600, 600, 1800, seed=6, with_values=False)
        decision = prune_candidates(extract_features(coo), candidates)
        kept_structures = {(c.kind, c.block) for c in decision.kept}
        n_dropped = decision.n_structures_total - len(kept_structures)
        assert len(decision.dropped) == n_dropped
        assert all(reason for reason in decision.dropped.values())

    def test_rect_shape_cap(self, candidates):
        coo = COOMatrix.from_dense(np.ones((48, 48)))
        config = PruneConfig(max_rect_shapes=3)
        decision = prune_candidates(extract_features(coo), candidates, config)
        shapes = {
            c.block for c in decision.kept if c.kind in ("bcsr", "bcsr_dec")
        }
        assert len(shapes) <= 3

    def test_rect_cap_breaks_score_ties_on_shape(self, candidates):
        """Exactly tied shapes at the cut keep the smallest (score, shape)
        ones, whatever the set iteration order."""

        class FullBlocks:
            # Every blocking estimated full: scores tie within a block size
            # and fall as the size grows.
            def est_rect_fill(self, r, c):
                return 1.0

            def est_rect_full_frac(self, r, c):
                return 1.0

            def est_diag_fill(self, b):
                return 0.0

            def est_diag_full_frac(self, b):
                return 0.0

        shapes = sorted({
            c.block for c in candidates if c.kind in ("bcsr", "bcsr_dec")
        })
        ranked = sorted(shapes, key=lambda b: (-b[0] * b[1], b))
        for cap in range(1, len(shapes)):
            decision = prune_candidates(
                FullBlocks(), candidates, PruneConfig(max_rect_shapes=cap)
            )
            kept = {
                c.block for c in decision.kept
                if c.kind in ("bcsr", "bcsr_dec")
            }
            assert kept == set(ranked[:cap]), cap

    def test_decision_counts_consistent(self, candidates):
        coo = make_random_coo(300, 300, 2000, seed=7, with_values=False)
        decision = prune_candidates(extract_features(coo), candidates)
        assert decision.n_candidates_total == len(candidates)
        assert decision.n_candidates_kept == len(decision.kept)
        assert decision.n_structures_kept == len(
            {(c.kind, c.block) for c in decision.kept}
        )
        assert 0 < decision.candidate_fraction <= 1.0


@pytest.mark.slow
class TestSuiteParity:
    def test_pruned_selection_matches_exhaustive(
        self, machine, profile_dp, candidates
    ):
        """On the full 30-matrix suite: <= 1/3 of candidates evaluated,
        and the selected candidate changes on at most one matrix."""
        from repro.matrices.suite import SUITE

        changed = []
        kept_total = 0
        for entry in SUITE:
            name, expected = EXHAUSTIVE_SELECTION[entry.idx]
            assert entry.name == name
            coo = entry.build()
            decision = prune_candidates(extract_features(coo), candidates)
            assert decision.candidate_fraction <= 1 / 3, entry.name
            kept_total += decision.n_candidates_kept
            results = evaluate_candidates(
                coo,
                machine,
                "dp",
                candidates=decision.kept,
                models=("overlap",),
                profile=profile_dp,
                run_simulation=False,
            )
            selected = _key(select_with_model(results, "overlap").candidate)
            if selected != expected:
                changed.append((entry.name, expected, selected))
        assert len(changed) <= 1, changed
        assert kept_total <= len(SUITE) * len(candidates) / 3


@pytest.mark.slow
class TestSpeedup:
    def test_pruned_advise_at_least_3x_faster(self, machine, profile_dp):
        """Pruning must pay for the feature pass several times over on a
        large unstructured pattern (where conversions dominate)."""
        rng = np.random.default_rng(7)
        n, per_row = 80_000, 15
        rows = np.repeat(np.arange(n), per_row)
        cols = rng.integers(0, n, size=n * per_row)
        coo = COOMatrix(n, n, rows, cols)
        cands = candidate_space(include_vbl=False)

        t0 = time.perf_counter()
        exhaustive = evaluate_candidates(
            coo, machine, "dp", candidates=cands, models=("overlap",),
            profile=profile_dp, run_simulation=False,
        )
        t_exhaustive = time.perf_counter() - t0

        t0 = time.perf_counter()
        decision = prune_candidates(extract_features(coo), cands)
        pruned = evaluate_candidates(
            coo, machine, "dp", candidates=decision.kept,
            models=("overlap",), profile=profile_dp, run_simulation=False,
        )
        t_pruned = time.perf_counter() - t0

        sel_ex = select_with_model(exhaustive, "overlap").candidate
        sel_pr = select_with_model(pruned, "overlap").candidate
        assert sel_pr == sel_ex
        # ~3.5x against the batched exhaustive path on a 2-core host.
        assert t_exhaustive / t_pruned >= 3.0, (t_exhaustive, t_pruned)
