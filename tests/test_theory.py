"""Tests for the censored conditional-mean oracle pair."""

import numpy as np
import pytest

from oracle import (
    censored_mean,
    gaussian_noise_sampler,
    mc_conditional_mean,
    uniform_censor_sampler,
)


def constant_sampler(value):
    return lambda rng, size: np.full(size, float(value))


class TestMCConditionalMean:
    def test_degenerate_distributions_exact(self):
        mean, se = mc_conditional_mean(
            2.0, constant_sampler(0.0), constant_sampler(1e6), draws=1000, seed=0
        )
        assert mean == 2.0
        assert se == 0.0

    def test_unbiased_without_censoring(self):
        mean, se = mc_conditional_mean(
            0.7,
            gaussian_noise_sampler(0.2),
            constant_sampler(1e6),
            draws=200_000,
            seed=42,
        )
        assert abs(mean - 0.7) <= 3 * se

    def test_deterministic_per_seed(self):
        args = (0.3, gaussian_noise_sampler(0.2), uniform_censor_sampler(3.0), 5000, 9)
        assert mc_conditional_mean(*args) == mc_conditional_mean(*args)

    def test_too_few_draws_rejected(self):
        with pytest.raises(ValueError):
            mc_conditional_mean(
                0.0, constant_sampler(0.0), constant_sampler(1.0), draws=10, seed=0
            )


class TestCensoredMean:
    def test_identity_limit_across_t(self):
        for t in (-10.0, -1.0, 0.0, 2.5, 3.0, 10.0):
            assert censored_mean(t, 0.2, 1e6 + 0.5, 1e6 - 0.5) == pytest.approx(
                t, abs=1e-4
            )

    def test_monotone_in_t(self):
        assert censored_mean(0.1, 0.2, 3.0) < censored_mean(0.4, 0.2, 3.0)

    def test_binding_censoring_pulls_mean_down(self):
        # min(t + eps, C) < t + eps with positive probability
        assert censored_mean(1.0, 0.2, 3.0) < 1.0

    def test_degenerate_point_mass_value(self):
        # C concentrated at 2, t = 5: essentially min(5 + eps, 2) = 2
        assert censored_mean(5.0, 0.1, 2.0005, 1.9995) == pytest.approx(2.0, abs=1e-3)
