"""Tests for the censoring survival estimator, synthetic transform, and
censoring calibration."""

import math
import warnings

import numpy as np
import pytest

from sivc import (
    Dataset,
    EstimationError,
    SurvivalCurve,
    calibrate_censoring,
    estimate_censoring_survival,
    synthetic_responses,
)
from sivc import censoring


def surv_dataset(y, delta):
    y = np.asarray(y, float)
    n = y.size
    return Dataset(
        y=y,
        delta=np.asarray(delta),
        x=np.zeros((n, 1)),
        t=np.linspace(0, 1, n),
    )


def synthetic_at(curve, ys):
    """Synthetic responses of uncensored rows at ``ys``: the integral of
    1 / G-hat over [0, y], which reads G-hat's left limits."""
    return synthetic_responses(surv_dataset(ys, np.ones(len(ys), dtype=int)), curve).tolist()


class TestKaplanMeier:
    def test_hand_fixture_one_censoring(self):
        # (1,1), (2,0), (3,1): at time 2 one censoring with risk set {2,3}
        curve = estimate_censoring_survival(surv_dataset([1, 2, 3], [1, 0, 1]))
        assert curve.jump_times.tolist() == [2.0]
        assert curve.values.tolist() == [0.5]
        # G-hat is 1 up to and at 2 (its left limit there), 0.5 after it.
        assert synthetic_at(curve, [1.7, 2.0, 2.5, 3.0]) == [1.7, 2.0, 3.0, 4.0]

    def test_no_censoring_is_identically_one(self):
        curve = estimate_censoring_survival(surv_dataset([1, 2, 3], [1, 1, 1]))
        assert curve.jump_times.size == 0
        ys = [-5.0, 0.0, 2.0, 99.0]
        assert synthetic_at(curve, ys) == ys

    def test_all_censored_two_rows(self):
        curve = estimate_censoring_survival(surv_dataset([1, 2], [0, 0]))
        assert curve.jump_times.tolist() == [1.0, 2.0]
        assert curve.values.tolist() == [0.5, 0.0]
        # G-hat is 1 up to and at 1, 0.5 on (1, 2] and 0 after 2.
        assert synthetic_at(curve, [0.5, 1.0, 1.5, 2.0]) == [0.5, 1.0, 2.0, 3.0]
        with pytest.raises(EstimationError, match="^unbounded synthetic weight at row 1$"):
            synthetic_at(curve, [1.0, 2.5])

    def test_tied_event_and_censoring(self):
        # the delta=1 row at time 2 stays in the risk set for the
        # censoring at the same time
        curve = estimate_censoring_survival(surv_dataset([2, 2, 3], [1, 0, 1]))
        assert curve.jump_times.tolist() == [2.0]
        assert curve.values.tolist() == [1.0 - 1.0 / 3.0]

    def test_before_all_jumps(self):
        # G-hat is 1 before its first jump, so below it T* is the response.
        curve = estimate_censoring_survival(surv_dataset([1, 2, 3], [1, 0, 1]))
        assert synthetic_at(curve, [-10.0, 0.0, 1.0]) == [-10.0, 0.0, 1.0]

    def test_monotone_in_unit_interval_for_random_data(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            n = int(rng.integers(2, 40))
            y = rng.normal(size=n)
            delta = rng.integers(0, 2, n)
            # No nonnegative censoring time gives a negative censored response.
            y[delta == 0] = np.abs(y[delta == 0])
            curve = estimate_censoring_survival(surv_dataset(y, delta))
            vals = np.concatenate(([1.0], curve.values))
            assert np.all(np.diff(vals) <= 1e-15)
            assert np.all((curve.values >= 0) & (curve.values <= 1))

    def test_curve_type_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SurvivalCurve(jump_times=np.array([1.0, 1.0]), values=np.array([0.5, 0.4]))
        with pytest.raises(ValueError):
            SurvivalCurve(jump_times=np.array([1.0, 2.0]), values=np.array([0.4, 0.5]))
        with pytest.raises(ValueError):
            SurvivalCurve(jump_times=np.array([1.0]), values=np.array([1.5]))

    def test_curve_type_rejects_unequal_lengths(self):
        with pytest.raises(ValueError, match="^jump_times and values must be equal-length vectors$"):
            SurvivalCurve(jump_times=np.array([1.0, 2.0]), values=np.array([0.5]))

    @pytest.mark.parametrize(
        "jumps, values, message",
        [
            ([1.0, np.nan], [0.5, 0.4], "jump times must be finite"),
            ([np.nan, 1.0], [0.5, 0.4], "jump times must be finite"),
            ([1.0, np.inf], [0.5, 0.4], "jump times must be finite"),
            ([1.0, 2.0], [np.nan, 0.4], "survival values must lie in"),
            ([1.0, 2.0], [0.5, np.nan], "survival values must lie in"),
        ],
    )
    def test_curve_type_rejects_nan(self, jumps, values, message):
        # a NaN compares False both ways, so "any bad" tests let it through
        with pytest.raises(ValueError, match=message):
            SurvivalCurve(jump_times=np.array(jumps), values=np.array(values))

    def test_curve_type_takes_a_step_too_wide_for_a_float(self):
        # The step from -1e308 to 1e308 overflows to inf, which still steps
        # up: the jump times are accepted without a numpy warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            curve = SurvivalCurve(jump_times=np.array([-1e308, 1e308]), values=np.array([0.5, 0.4]))
        assert curve.jump_times.tolist() == [-1e308, 1e308]


class TestSyntheticResponses:
    def test_identity_without_censoring(self):
        ds = surv_dataset([2.0, 0.5, 1.25], [1, 1, 1])
        curve = estimate_censoring_survival(ds)
        assert synthetic_responses(ds, curve).tolist() == [2.0, 0.5, 1.25]

    def test_bitexact_identity_on_random_nonnegative(self):
        rng = np.random.default_rng(8)
        y = rng.uniform(0, 10, 200)
        ds = surv_dataset(y, np.ones(200, dtype=int))
        curve = estimate_censoring_survival(ds)
        out = synthetic_responses(ds, curve)
        assert np.array_equal(out, y)

    def test_hand_piecewise_integral(self):
        # G-hat = 1 on (0,1], 0.5 on (1, inf): T*(2) = 1/1 + 1/0.5 = 3
        curve = SurvivalCurve(jump_times=np.array([1.0]), values=np.array([0.5]))
        ds = surv_dataset([2.0, 0.5], [1, 1])
        out = synthetic_responses(ds, curve)
        assert out[0] == 3.0
        assert out[1] == 0.5

    def test_negative_response_keeps_its_value(self):
        # G-hat = 1 on (-inf, 1], 0.5 after: only the positive part of a
        # response is reweighted, T* = min(y, 0) + integral_0^max(y, 0)
        curve = SurvivalCurve(jump_times=np.array([1.0]), values=np.array([0.5]))
        ds = surv_dataset([-0.3, 2.0, 0.0, -4.0], [1, 1, 1, 1])
        assert synthetic_responses(ds, curve).tolist() == [-0.3, 3.0, 0.0, -4.0]

    def test_unbounded_weight_names_row(self):
        curve = SurvivalCurve(jump_times=np.array([1.0]), values=np.array([0.0]))
        ds = surv_dataset([0.5, 2.0], [1, 1])
        with pytest.raises(EstimationError, match="unbounded synthetic weight at row 1$"):
            synthetic_responses(ds, curve)

    @pytest.mark.parametrize(
        "y, delta, row",
        [
            # G-hat = 0.75 after the censoring at 1: 1.5e308 / 0.75 overflows
            # on the row's last interval.
            ([1.0, 2.0, 1.5e308, 3.0], [0, 1, 1, 1], 2),
            # The integral up to the censoring at 1.5e308 overflows, so every
            # row beyond it does too; row 0 is named, not row 2.
            ([1.6e308, 1.0, 1.5e308], [1, 0, 0], 0),
        ],
        ids=["last-interval", "prefix"],
    )
    def test_overflowing_response_names_row_without_warning(self, y, delta, row):
        ds = surv_dataset(y, delta)
        curve = estimate_censoring_survival(ds)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                EstimationError, match=f"synthetic response overflows at row {row}$"
            ):
                synthetic_responses(ds, curve)

    def test_zero_value_at_own_endpoint_is_fine(self):
        # the largest observation being the censoring that drives the
        # curve to zero integrates only up to its own time
        ds = surv_dataset([1.0, 2.0], [1, 0])
        curve = estimate_censoring_survival(ds)
        out = synthetic_responses(ds, curve)
        assert out.tolist() == [1.0, 2.0]

    def test_permutation_invariance(self):
        rng = np.random.default_rng(21)
        n = 60
        y = rng.uniform(0, 5, n)
        delta = rng.integers(0, 2, n)
        delta[np.argmax(y)] = 1
        ds = surv_dataset(y, delta)
        curve = estimate_censoring_survival(ds)
        base = synthetic_responses(ds, curve)
        perm = rng.permutation(n)
        ds_perm = surv_dataset(y[perm], delta[perm])
        curve_perm = estimate_censoring_survival(ds_perm)
        out = synthetic_responses(ds_perm, curve_perm)
        assert np.array_equal(out, base[perm])

    def test_unbiased_with_kaplan_meier_weights(self):
        # latent (V+1)^2 + shift with V uniform has mean 7/3 + shift;
        # C ~ U(0, 6) keeps the censoring survival positive across the
        # response range. The shift -2 makes the latent law straddle 0.
        rng = np.random.default_rng(30)
        n = 20_000
        for shift in (0.0, -2.0):
            v = rng.uniform(0, 1, n)
            y_star = (v + 1.0) ** 2 + shift
            c = rng.uniform(0, 6.0, n)
            y = np.minimum(y_star, c)
            delta = (y_star < c).astype(int)
            ds = surv_dataset(y, delta)
            curve = estimate_censoring_survival(ds)
            tstar = synthetic_responses(ds, curve)
            se = tstar.std(ddof=1) / math.sqrt(n)
            assert abs(tstar.mean() - (7.0 / 3.0 + shift)) <= 5 * se


class ParabolaDGP:
    """Latent (V+1)^2 responses, V uniform on [0,1]."""

    def draw_latent(self, rng, size):
        v = rng.uniform(0.0, 1.0, size)
        return (v + 1.0) ** 2


class TestCalibrateCensoring:
    def test_target_one_rejected(self):
        with pytest.raises(ValueError):
            calibrate_censoring(1.0, ParabolaDGP())

    def test_achieved_rate_on_independent_probe(self):
        dgp = ParabolaDGP()
        c = calibrate_censoring(0.3, dgp, seed=1)
        rng = np.random.default_rng(999)
        y_star = dgp.draw_latent(rng, 100_000)
        censor = rng.uniform(0, c, 100_000)
        achieved = float(np.mean(y_star >= censor))
        assert abs(achieved - 0.3) <= 0.01

    def test_monotone_larger_scale_less_censoring(self):
        dgp = ParabolaDGP()
        rng1 = np.random.default_rng(4)
        y_star = dgp.draw_latent(rng1, 50_000)
        rng2 = np.random.default_rng(5)
        u = rng2.uniform(0, 1, 50_000)
        c_small, c_large = 2.0, 4.0
        rate_small = float(np.mean(y_star >= u * c_small))
        rate_large = float(np.mean(y_star >= u * c_large))
        assert rate_large < rate_small

    @pytest.mark.parametrize("target", [0.05, 0.3, 0.9])
    def test_bisection_ends_at_the_target_rate(self, target):
        # The calibration's own probe, redrawn from its seed. The bisection's
        # width bounds the miss by 1e-6; it ends near 1e-13.
        dgp = ParabolaDGP()
        c = calibrate_censoring(target, dgp, seed=2)
        latent = dgp.draw_latent(np.random.default_rng(2), censoring._PROBE_N)
        achieved = float(np.mean(np.minimum(np.clip(latent, 0.0, None), c)) / c)
        assert abs(achieved - target) <= 1e-9

    def test_deterministic_given_seed(self):
        dgp = ParabolaDGP()
        a = calibrate_censoring(0.25, dgp, seed=3)
        b = calibrate_censoring(0.25, dgp, seed=3)
        assert a == b

    def test_unreachable_bracket(self):
        class NegativeDGP:
            def draw_latent(self, rng, size):
                return -np.ones(size)

        with pytest.raises(EstimationError, match="no c in .* achieves censoring rate 0.3"):
            calibrate_censoring(0.3, NegativeDGP())
