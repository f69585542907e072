"""Tests for the extended (future work) models: overlap+lat."""

import pytest

from repro.core import get_model, profile_machine
from repro.core.models_ext import (
    OverlapLatencyModel,
    estimate_format_misses,
    register_extended_models,
)
from repro.errors import ModelError
from repro.formats import build_format
from repro.machine import CORE2_XEON, simulate
from repro.matrices.generators import grid2d, powerlaw_graph


@pytest.fixture(scope="module")
def lat_profile():
    return profile_machine(CORE2_XEON, "dp", calibrate_latency=True)


@pytest.fixture(scope="module")
def latency_matrix():
    return powerlaw_graph(400_000, 1_600_000, alpha=1.7, seed=21)


@pytest.fixture(scope="module")
def regular_matrix():
    return grid2d(110, 110, 5, dof=3, drop_fraction=0.2, seed=22)


class TestCalibration:
    def test_latency_cost_positive_and_sane(self, lat_profile):
        assert lat_profile.latency_cost_s is not None
        # Must be within a factor of ~2 of the machine's effective latency.
        eff = CORE2_XEON.effective_latency_s()
        assert eff / 2 < lat_profile.latency_cost_s < eff * 2

    def test_plain_profile_has_no_latency(self, machine):
        prof = profile_machine(machine, "dp")
        assert prof.latency_cost_s is None


class TestMissEstimate:
    def test_zero_for_regular(self, regular_matrix, machine):
        csr = build_format(regular_matrix, "csr", with_values=False)
        assert estimate_format_misses(csr, machine, "dp") == 0

    def test_positive_for_irregular(self, latency_matrix, machine):
        csr = build_format(latency_matrix, "csr", with_values=False)
        assert estimate_format_misses(csr, machine, "dp") > 0

    @pytest.mark.parametrize(
        "kind,block", [("csr", None), ("bcsr_dec", (2, 2)), ("bcsd", 2)]
    )
    @pytest.mark.parametrize("precision", ["sp", "dp"])
    def test_equals_per_part_stream_estimate(
        self, latency_matrix, machine, kind, block, precision
    ):
        """The simulator's per-part path (structural shortcuts included)
        gives exactly the raw estimator's count on every part."""
        from repro.machine.cache import estimate_stream_misses, x_budget_lines
        from repro.types import Precision

        fmt = build_format(latency_matrix, kind, block, with_values=False)
        line_elems = machine.l2.line_bytes // Precision.coerce(precision).itemsize
        budget = x_budget_lines(
            machine.l2.size_bytes, machine.l2.line_bytes,
            machine.x_cache_fraction,
        )
        want = sum(
            estimate_stream_misses(
                part.x_access_stream().line_ids(line_elems), budget
            )
            for part in fmt.submatrices()
        )
        assert estimate_format_misses(fmt, machine, precision) == want


class TestOverlapLatModel:
    def test_fixes_latency_bound_prediction(
        self, latency_matrix, machine, lat_profile
    ):
        csr = build_format(latency_matrix, "csr", with_values=False)
        real = simulate(csr, machine, "dp", "scalar").t_total
        base = get_model("overlap").predict(
            csr, machine, "dp", "scalar", lat_profile
        )
        ext = OverlapLatencyModel().predict(
            csr, machine, "dp", "scalar", lat_profile
        )
        assert abs(ext / real - 1) < 0.15
        assert abs(ext / real - 1) < abs(base / real - 1) / 3

    def test_no_regression_on_regular(
        self, regular_matrix, machine, lat_profile
    ):
        csr = build_format(regular_matrix, "csr", with_values=False)
        base = get_model("overlap").predict(
            csr, machine, "dp", "scalar", lat_profile
        )
        ext = OverlapLatencyModel().predict(
            csr, machine, "dp", "scalar", lat_profile
        )
        assert ext == pytest.approx(base)  # zero misses -> identical

    def test_requires_calibrated_profile(self, regular_matrix, machine):
        prof = profile_machine(machine, "dp")
        csr = build_format(regular_matrix, "csr", with_values=False)
        with pytest.raises(ModelError):
            OverlapLatencyModel().predict(csr, machine, "dp", "scalar", prof)

    def test_registration(self):
        register_extended_models()
        assert get_model("overlap+lat").name == "overlap+lat"
