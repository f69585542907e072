"""Tests for the advisor's structural-feature extractor."""

import numpy as np
import pytest

from repro.formats import COOMatrix
from repro.serve.features import (
    DIAG_PROBES,
    ROW_PROBES,
    SAMPLE_TARGET_NNZ,
    MatrixFeatures,
    extract_features,
    matrix_fingerprint,
)

from .conftest import make_random_coo


class TestFingerprint:
    def test_deterministic(self):
        a = make_random_coo(40, 40, 200, seed=1, with_values=False)
        assert matrix_fingerprint(a) == matrix_fingerprint(a)

    def test_value_blind(self):
        pattern = make_random_coo(40, 40, 200, seed=1, with_values=False)
        valued = pattern.with_values(np.ones(pattern.nnz))
        assert matrix_fingerprint(pattern) == matrix_fingerprint(valued)

    def test_pattern_sensitive(self):
        a = make_random_coo(40, 40, 200, seed=1, with_values=False)
        b = make_random_coo(40, 40, 200, seed=2, with_values=False)
        assert matrix_fingerprint(a) != matrix_fingerprint(b)

    def test_shape_sensitive(self):
        diag = COOMatrix.eye(8)
        wide = COOMatrix(8, 16, diag.rows, diag.cols)
        assert matrix_fingerprint(diag) != matrix_fingerprint(wide)


class TestFills:
    def test_dense_pattern_fills_are_one(self):
        coo = COOMatrix.from_dense(np.ones((24, 24)))
        f = extract_features(coo)
        for r in ROW_PROBES:
            assert f.row_fill[r] == pytest.approx(1.0)
            assert f.col_fill[r] == pytest.approx(1.0)
        assert f.est_rect_fill(8, 8) == pytest.approx(1.0)
        assert f.est_rect_full_frac(2, 2) == pytest.approx(1.0)
        assert f.density == pytest.approx(1.0)
        # 24x24 with a 16-wide band: most (not all) entries are in-band.
        assert f.bandedness > 0.9

    def test_sparse_random_fill_is_low(self):
        coo = make_random_coo(600, 600, 1800, seed=5, with_values=False)
        f = extract_features(coo)
        # ~0.5% density: 2x2 blocks are almost all singletons (fill ~ 1/4).
        assert f.est_rect_fill(2, 2) < 0.5
        assert f.est_rect_full_frac(3, 3) < 0.05

    def test_estimate_clipped_by_marginals(self):
        coo = make_random_coo(300, 300, 3000, seed=6, with_values=False)
        f = extract_features(coo)
        for r, c in ((2, 2), (4, 4), (5, 7), (8, 8)):
            est = f.est_rect_fill(r, c)
            assert 0.0 < est <= 1.0
            assert est <= f._interp(f.row_fill, r) + 1e-12
            assert est <= f._interp(f.col_fill, c) + 1e-12

    def test_interpolation_between_probes(self):
        coo = make_random_coo(300, 300, 3000, seed=7, with_values=False)
        f = extract_features(coo)
        lo, hi = f.row_fill[4], f.row_fill[6]
        mid = f._interp(f.row_fill, 5)
        assert min(lo, hi) - 1e-12 <= mid <= max(lo, hi) + 1e-12
        assert f._interp(f.row_fill, 1) == 1.0

    def test_diagonal_matrix_diag_fill(self):
        f = extract_features(COOMatrix.eye(240))
        # BCSD blocks are segments along a diagonal: a pure diagonal fills
        # every segment completely, at every probed size.
        for b in DIAG_PROBES:
            assert f.diag_fill[b] == pytest.approx(1.0)
            assert f.diag_full_frac[b] == pytest.approx(1.0)
        assert f.bandwidth == 0
        assert f.bandedness == pytest.approx(1.0)


class TestProbesMatchBlockStats:
    """The probes count blocks without the full block analysis; their fills
    and full-block fractions must equal the analysis's exactly."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_patterns(self, seed):
        from repro.formats.blockstats import bcsd_block_stats, bcsr_block_stats
        from repro.matrices.stats import fill_of, full_block_fraction
        from repro.serve.features import COL_PROBES, RECT_PROBES

        rng = np.random.default_rng(seed)
        nrows, ncols = (int(x) for x in rng.integers(1, 200, size=2))
        coo = make_random_coo(
            nrows, ncols, int(rng.integers(0, min(nrows * ncols, 3000) + 1)),
            seed=seed, with_values=False,
        )
        f = extract_features(coo)
        for r in ROW_PROBES:
            assert f.row_fill[r] == fill_of(bcsr_block_stats(coo, r, 1))
        for c in COL_PROBES:
            assert f.col_fill[c] == fill_of(bcsr_block_stats(coo, 1, c))
        for b in DIAG_PROBES:
            stats = bcsd_block_stats(coo, b)
            assert f.diag_fill[b] == fill_of(stats)
            assert f.diag_full_frac[b] == full_block_fraction(stats)
        for r, c in RECT_PROBES:
            stats = bcsr_block_stats(coo, r, c)
            assert f.rect_fill[(r, c)] == fill_of(stats)
            assert f.rect_full_frac[(r, c)] == full_block_fraction(stats)


class TestSampling:
    def _banded(self, n: int) -> COOMatrix:
        rows = np.repeat(np.arange(n), 3)
        cols = np.clip(rows + np.tile([-1, 0, 1], n), 0, n - 1)
        return COOMatrix(n, n, rows, cols)

    def test_small_matrix_not_sampled(self):
        f = extract_features(self._banded(1000))
        assert not f.sampled
        assert f.sample_nnz == f.nnz

    def test_large_matrix_sampled(self):
        n = SAMPLE_TARGET_NNZ  # 3 nnz/row -> nnz = 3n > 2 * target
        f = extract_features(self._banded(n))
        assert f.sampled
        assert f.sample_nnz < f.nnz
        # Homogeneous structure: sampled fills match the exact ones.
        exact = extract_features(self._banded(1000))
        for r in ROW_PROBES:
            assert f.row_fill[r] == pytest.approx(exact.row_fill[r], abs=0.02)

    def test_full_feature_passes_use_whole_matrix(self):
        n = SAMPLE_TARGET_NNZ
        f = extract_features(self._banded(n))
        # nnz / bandwidth / density come from the full pattern, not the
        # sample.
        assert f.nnz == 3 * n - 2
        assert f.bandwidth == 1


class TestPayload:
    def test_round_trip(self):
        coo = make_random_coo(200, 150, 900, seed=9, with_values=False)
        f = extract_features(coo)
        back = MatrixFeatures.from_payload(f.to_payload())
        assert back == f

    def test_payload_is_json_safe(self):
        import json

        coo = make_random_coo(50, 50, 120, seed=10, with_values=False)
        payload = extract_features(coo).to_payload()
        assert json.loads(json.dumps(payload)) == payload
