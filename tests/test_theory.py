"""Tests for the censored conditional-mean oracle pair."""

import numpy as np
import pytest

from oracle import (
    CensorModel,
    gaussian_noise,
    gaussian_noise_sampler,
    mc_conditional_mean,
    theoretical_mean_response,
    uniform_censor,
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


class TestTheoreticalMeanResponse:
    def test_far_censoring_reduces_to_identity(self):
        noise = gaussian_noise(0.2)
        censor = uniform_censor(1e6 + 0.5, 1e6 - 0.5)
        got = theoretical_mean_response(3.0, noise, censor)
        assert got == pytest.approx(3.0, abs=1e-4)

    def test_identity_limit_across_t(self):
        noise = gaussian_noise(0.2)
        censor = uniform_censor(1e6 + 0.5, 1e6 - 0.5)
        for t in (-10.0, -1.0, 0.0, 2.5, 10.0):
            assert theoretical_mean_response(t, noise, censor) == pytest.approx(
                t, abs=1e-4
            )

    def test_monotone_in_t(self):
        noise = gaussian_noise(0.2)
        censor = uniform_censor(3.0)
        w_low = theoretical_mean_response(0.1, noise, censor)
        w_high = theoretical_mean_response(0.4, noise, censor)
        assert w_low < w_high

    def test_binding_censoring_pulls_mean_down(self):
        noise = gaussian_noise(0.2)
        censor = uniform_censor(3.0)
        # min(t + eps, C) < t + eps with positive probability
        assert theoretical_mean_response(1.0, noise, censor) < 1.0

    def test_matches_mc_oracle(self):
        noise = gaussian_noise(0.2)
        censor = uniform_censor(3.0)
        for k, t in enumerate((0.0, 0.25, 0.5)):
            w = theoretical_mean_response(t, noise, censor)
            mean, se = mc_conditional_mean(
                t,
                gaussian_noise_sampler(0.2),
                uniform_censor_sampler(3.0),
                draws=400_000,
                seed=100 + k,
            )
            assert abs(w - mean) <= 3 * se

    def test_degenerate_point_mass_value(self):
        # C concentrated at 2, t = 5: essentially min(5 + eps, 2) = 2
        noise = gaussian_noise(0.1)
        censor = uniform_censor(2.0005, 1.9995)
        assert theoretical_mean_response(5.0, noise, censor) == pytest.approx(
            2.0, abs=1e-3
        )


class TestModels:
    def test_gaussian_noise_invariants(self):
        gaussian_noise(0.2).validate(scale=0.2)

    def test_gaussian_noise_rejects_bad_sd(self):
        with pytest.raises(ValueError):
            gaussian_noise(0.0)

    def test_censor_model_checks_unit_mass(self):
        with pytest.raises(ValueError, match="integrates"):
            CensorModel(density=lambda c: 0.9, support=(0.0, 1.0))

    def test_censor_model_requires_finite_support(self):
        with pytest.raises(ValueError):
            CensorModel(density=lambda c: 1.0, support=(0.0, np.inf))

    def test_uniform_censor_density(self):
        model = uniform_censor(4.0)
        assert model.density(1.0) == pytest.approx(0.25)
        assert model.support == (0.0, 4.0)
