"""Tests for kernels and bandwidth selection."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sivc import (
    Bandwidths,
    Dataset,
    EstimationError,
    FitConfig,
    kernel_values,
    normalize_direction,
    rule_of_thumb_bandwidth,
    select_bandwidths,
)

EPAN = FitConfig.kernel


class TestKernelWeight:
    def test_epanechnikov_center(self):
        assert kernel_values(EPAN, 0.0) == 0.75

    def test_epanechnikov_outside_support(self):
        assert kernel_values(EPAN, np.array([1.5, -1.0])).tolist() == [0.0, 0.0]

    @given(st.floats(min_value=-50, max_value=50, allow_nan=False))
    def test_even_and_nonnegative(self, u):
        assert kernel_values(EPAN, u) == kernel_values(EPAN, -u)
        assert kernel_values(EPAN, u) >= 0.0

    def test_unit_mass(self):
        # Midpoint sum over cells of width 1e-4 whose edges include +-1,
        # where the kernel has its kinks: exact up to h^2 / 8 ~ 1e-9.
        mids = (np.arange(-20_000, 20_000) + 0.5) / 10_000
        mass = float(kernel_values(EPAN, mids).sum()) / 10_000
        assert mass == pytest.approx(1.0, abs=1e-8)

    def test_epanechnikov_bitwise_equal_to_support_test(self):
        def where_formula(u):
            u = np.asarray(u, dtype=float)
            return np.where(np.abs(u) <= 1.0, 0.75 * (1.0 - u * u), 0.0)

        edges = [1.0, -1.0, np.nextafter(1.0, np.inf), np.nextafter(1.0, -np.inf),
                 np.nextafter(-1.0, np.inf), np.nextafter(-1.0, -np.inf),
                 np.inf, -np.inf, np.nan, 0.0, -0.0, 5e-324, 1e300]
        rng = np.random.default_rng(41)
        arrays = [np.array(edges), rng.uniform(-2.0, 2.0, (37, 41)), rng.normal(size=500)]
        scalars = edges + [np.float64(0.5), np.array(-0.25)]
        # 1e300 squared overflows to inf in both forms
        with np.errstate(over="ignore"):
            for u in arrays:
                got = kernel_values(EPAN, u)
                assert got.dtype == np.float64 and got.shape == u.shape
                assert got.tobytes() == where_formula(u).tobytes()
            for u in scalars:
                got = kernel_values(EPAN, u)
                assert type(got) is np.ndarray and got.shape == ()
                assert got.tobytes() == where_formula(u).tobytes()

    def test_epanechnikov_leaves_its_input_alone(self):
        u = np.array([0.5, 2.0, -1.0])
        kernel_values(EPAN, u)
        assert u.tolist() == [0.5, 2.0, -1.0]


class TestBandwidthSelection:
    def test_rule_of_thumb_formula(self):
        # alternating +/- a with a chosen so the sample sd is exactly 1
        a = math.sqrt(99.0 / 100.0)
        xs = np.tile([a, -a], 50)
        assert rule_of_thumb_bandwidth(xs) == pytest.approx(0.4219, abs=1e-3)

    def test_degenerate_predictor(self):
        with pytest.raises(EstimationError, match="degenerate predictor: zero sample variance"):
            rule_of_thumb_bandwidth(np.full(20, 3.0))

    def test_needs_two_observations(self):
        with pytest.raises(ValueError, match="^need at least 2 observations$"):
            rule_of_thumb_bandwidth(np.array([3.0]))

    def test_overflowing_sd_is_an_estimation_error(self):
        # 1e300 is finite, but its square is not; numpy must not warn.
        xs = np.linspace(0.0, 1.0, 20)
        xs[0] = 1e300
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EstimationError, match="^bandwidth is not finite: "):
                rule_of_thumb_bandwidth(xs)

    def test_select_bandwidths_rule_of_thumb(self):
        rng = np.random.default_rng(9)
        n = 80
        x = rng.normal(size=(n, 2))
        ds = Dataset(
            y=rng.normal(size=n),
            delta=np.ones(n, dtype=int),
            x=x,
            t=rng.uniform(0, 1, n),
        )
        bw = select_bandwidths(ds, EPAN)
        index = x @ normalize_direction(np.ones(2)).components
        scale = n ** (-0.2)
        # the Epanechnikov constant for the direction fit's h1 and h2, the
        # gaussian one for the link
        assert bw.h1 == pytest.approx(2.34 * np.std(index, ddof=1) * scale)
        assert bw.h2 == pytest.approx(2.34 * np.std(ds.t, ddof=1) * scale)
        assert bw.h_link == pytest.approx(1.06 * np.std(index, ddof=1) * scale)
        # h_link keeps the 1.06 rule to the last bit
        assert bw.h_link == rule_of_thumb_bandwidth(index)

    def test_needs_ten_rows(self):
        ds = Dataset(
            y=np.arange(5.0),
            delta=np.ones(5, dtype=int),
            x=np.arange(5.0).reshape(-1, 1),
            t=np.linspace(0, 1, 5),
        )
        with pytest.raises(ValueError, match="n >= 10"):
            select_bandwidths(ds, EPAN)

    def test_bandwidths_type_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Bandwidths(h1=0.0, h2=1.0, h_link=1.0)
        with pytest.raises(ValueError):
            Bandwidths(h1=1.0, h2=-1.0, h_link=1.0)
        with pytest.raises(ValueError):
            Bandwidths(h1=1.0, h2=1.0, h_link=math.inf)
        with pytest.raises(ValueError, match="^h1 must be a finite number"):
            Bandwidths(h1=True, h2=1.0, h_link=1.0)
        with pytest.raises(ValueError, match="^h1 must be a finite number"):
            Bandwidths(h1="0.5", h2=1.0, h_link=1.0)
