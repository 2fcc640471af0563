"""Tests for the data generator, replication runner, and quantile bands."""

import concurrent.futures
import dataclasses
import math
import os
import tracemalloc
import warnings

import numpy as np
import pytest

from oracle import reference_draws
from sivc import (
    Bandwidths,
    FitConfig,
    SimConfig,
    calibrate_censoring,
    censoring_rate,
    generate_dataset,
    resolve_censor_scale,
    run_monte_carlo,
)
from sivc import estimator, simulate
from sivc.simulate import _band

SMALL_FIT = FitConfig(t_grid_size=5, link_grid=(-0.5, 0.5, 21))


def small_sim(**overrides):
    base = dict(n=120, reps=3, seed=11)
    base.update(overrides)
    return SimConfig(**base)


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(n=5)
        with pytest.raises(ValueError):
            SimConfig(reps=0)
        with pytest.raises(ValueError):
            SimConfig(censor_target=1.0)
        with pytest.raises(ValueError):
            SimConfig(noise_sd=0.0)
        with pytest.raises(ValueError):
            SimConfig(preset="banana")
        with pytest.raises(ValueError):
            SimConfig(preset="paper", d=3)
        with pytest.raises(ValueError):
            SimConfig(preset="constant")
        with pytest.raises(ValueError, match="^seed must be non-negative"):
            SimConfig(seed=-1)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n", 50.5),
            ("n", 500.0),
            ("reps", 2.5),
            ("d", 2.0),
            ("reps", True),
            ("n", "500"),
            ("seed", True),
            ("seed", "3"),
            ("noise_sd", True),
            ("censor_target", "0.3"),
            ("censor_target", None),
            ("constant_direction", 3),
            ("constant_direction", (1, "0")),
            ("constant_direction", (True, 0)),
        ],
    )
    def test_counts_must_be_integers(self, field, value):
        kwargs = {field: value}
        # Counts must be integers; the other fields say what they need.
        need = {
            "noise_sd": " must be a finite number",
            "censor_target": " must be a finite number",
        }.get(field, " must be an integer")
        if field == "constant_direction":
            kwargs["preset"] = "constant"
            listed = isinstance(value, tuple)
            need = " entry must be a finite number" if listed else " must be a list of numbers"
        with pytest.raises(ValueError, match=f"^{field}{need}"):
            SimConfig(**kwargs)

    def test_numpy_integer_counts_are_ints(self):
        cfg = SimConfig(n=np.int64(200), reps=np.int32(3))
        assert type(cfg.n) is int and type(cfg.reps) is int and cfg.n == 200

    def test_paper_truth_at_origin(self):
        cfg = SimConfig()
        truth = cfg.true_directions(np.array([0.0]))
        assert truth[0].tolist() == [1.0, 0.0]

    def test_paper_truth_curve(self):
        cfg = SimConfig()
        ts = np.array([0.0, 0.5, 1.0])
        truth = cfg.true_directions(ts)
        assert np.allclose(truth[:, 0], np.cos(ts))
        assert np.allclose(truth[:, 1], np.sin(ts))

    def test_paper_link_is_quadratic(self):
        cfg = SimConfig()
        u = np.array([-0.5, 0.0, 2.0])
        assert cfg.true_link(u).tolist() == [0.25, 0.0, 4.0]

    def test_constant_preset(self):
        cfg = SimConfig(preset="constant", constant_direction=(0.6, 0.8), censor_target=0.0)
        truth = cfg.true_directions(np.array([0.1, 0.9]))
        assert np.allclose(truth, [[0.6, 0.8], [0.6, 0.8]])
        assert cfg.true_link(np.array([1.5])).tolist() == [1.5]


class TestGenerateDataset:
    def test_deterministic(self):
        cfg = small_sim()
        ds1, truth1 = generate_dataset(cfg, 2)
        ds2, truth2 = generate_dataset(cfg, 2)
        assert np.array_equal(ds1.y, ds2.y)
        assert np.array_equal(ds1.delta, ds2.delta)
        assert np.array_equal(ds1.x, ds2.x)
        assert np.array_equal(truth1.y_star, truth2.y_star)

    def test_distinct_replications_differ(self):
        cfg = small_sim()
        ds1, _ = generate_dataset(cfg, 0)
        ds2, _ = generate_dataset(cfg, 1)
        assert not np.array_equal(ds1.y, ds2.y)

    @pytest.mark.parametrize("rep_index", [-1, 1.5, True, "1"])
    def test_rep_index_must_be_a_non_negative_integer(self, rep_index):
        with pytest.raises(ValueError, match="rep_index"):
            generate_dataset(small_sim(), rep_index)

    def test_noise_law(self):
        cfg = SimConfig(n=20000, reps=1, seed=5)
        _, truth = generate_dataset(cfg, 0)
        eps = truth.y_star - cfg.true_link(truth.index)
        assert abs(float(np.std(eps)) - 0.2) < 0.01
        assert abs(float(np.mean(eps))) < 0.01

    def test_censoring_construction(self):
        cfg = SimConfig(n=500, reps=1, seed=6)
        ds, truth = generate_dataset(cfg, 0)
        assert np.array_equal(ds.y, np.minimum(truth.y_star, truth.censor_times))
        assert np.array_equal(
            ds.delta, (truth.y_star < truth.censor_times).astype(int)
        )

    def test_achieved_censoring_near_target(self):
        cfg = SimConfig(n=500, reps=1, seed=7)
        ds, _ = generate_dataset(cfg, 0)
        assert abs(censoring_rate(ds) - 0.3) <= 0.06

    def test_no_censoring_preset(self):
        cfg = SimConfig(
            preset="constant",
            constant_direction=(0.6, 0.8),
            censor_target=0.0,
            n=50,
            reps=1,
            seed=8,
        )
        ds, truth = generate_dataset(cfg, 0)
        assert np.all(ds.delta == 1)
        assert np.array_equal(ds.y, truth.y_star)

    def test_calibrated_scale_reused(self):
        cfg = small_sim()
        c1 = resolve_censor_scale(cfg)
        c2 = resolve_censor_scale(cfg)
        assert c1 == c2 and c1 > 0


PAPER = SimConfig(seed=1729)
CONSTANT_D1 = SimConfig(preset="constant", d=1, constant_direction=(1.0,), seed=1729)
CONSTANT_D5 = SimConfig(
    preset="constant",
    d=5,
    constant_direction=(1.0, 0.5, -0.5, 0.25, 0.25),
    seed=8191,
)
CONSTANT_D8 = SimConfig(
    preset="constant",
    d=8,
    constant_direction=(1.0, -0.5, 0.5, 0.25, -0.25, 0.125, 0.5, -1.0),
    seed=1729,
)


class TestCensoringCalibration:
    # Read on numpy 2.4.6: the probe's draws and sums are numpy's, so
    # another numpy may move the last bits.
    @pytest.mark.parametrize(
        "cfg, scale",
        [
            (PAPER, "0x1.73160229117e4p+1"),
            (SimConfig(seed=8191), "0x1.7179022afdecap+1"),
            (CONSTANT_D1, "0x1.23c3b3a3c644fp+0"),
            (CONSTANT_D5, "0x1.1ed5bf8d770d3p+0"),
        ],
        ids=["paper_seed1729", "paper_seed8191", "constant_d1", "constant_d5"],
    )
    def test_calibrated_scale_is_pinned(self, cfg, scale):
        assert resolve_censor_scale(cfg).hex() == scale

    @pytest.mark.parametrize("rep", [0, 3])
    @pytest.mark.parametrize(
        "cfg",
        [PAPER, dataclasses.replace(CONSTANT_D1, n=20_000), CONSTANT_D5],
        ids=["paper", "constant_d1_n20000", "constant_d5"],
    )
    def test_calibration_and_data_share_one_stream(self, cfg, rep):
        latent = cfg.draw_latent(np.random.default_rng((cfg.seed, rep)), cfg.n)
        _, truth = generate_dataset(cfg, rep)
        assert latent.tobytes() == truth.y_star.tobytes()

    # The probe's index, the latent values written into it and one block
    # of covariates and directions at a time, whatever d is.
    @pytest.mark.parametrize(
        "cfg", [PAPER, CONSTANT_D1, CONSTANT_D5, CONSTANT_D8],
        ids=["paper", "constant_d1", "constant_d5", "constant_d8"],
    )
    def test_probe_peak_memory_is_bounded(self, cfg):
        # The first generator imports numpy.random's modules; keep that
        # out of the traced peak.
        np.random.default_rng(0)
        tracemalloc.start()
        try:
            calibrate_censoring(
                0.3, cfg, seed=(cfg.seed, simulate._CALIBRATION_STREAM)
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.1e6


# Block edges of the index walk, and a first and a last partial block.
@pytest.mark.parametrize("n", [10, 8191, 8192, 8193, 16385, 24577])
@pytest.mark.parametrize(
    "cfg",
    [
        PAPER,
        CONSTANT_D1,
        SimConfig(preset="constant", d=2, constant_direction=(0.6, -0.8), seed=8191),
        CONSTANT_D5,
    ],
    ids=["paper", "constant_d1", "constant_d2", "constant_d5"],
)
class TestStreamLayout:
    def test_dataset_matches_one_call_draws(self, cfg, n):
        cfg = dataclasses.replace(cfg, n=n)
        ds, truth = generate_dataset(cfg, 2, censor_scale=1.5)
        x, t, index, y_star, censor_times = reference_draws(
            cfg, np.random.default_rng((cfg.seed, 2)), n, 1.5
        )
        got = (ds.x, ds.t, truth.index, truth.y_star, truth.censor_times)
        for a, b in zip(got, (x, t, index, y_star, censor_times), strict=True):
            assert a.tobytes() == b.tobytes()
        assert ds.y.tobytes() == np.minimum(y_star, censor_times).tobytes()
        assert ds.delta.tobytes() == (y_star < censor_times).astype(int).tobytes()

    def test_latent_draws_match_one_call_draws(self, cfg, n):
        latent = cfg.draw_latent(np.random.default_rng(5), n)
        y_star = reference_draws(cfg, np.random.default_rng(5), n, 1.0)[3]
        assert latent.tobytes() == y_star.tobytes()


def nearest_rank(values, p):
    """Reference rule: the ceil(p*k)-th smallest of k values."""
    ordered = np.sort(values)
    return ordered[max(1, math.ceil(p * ordered.size)) - 1]


def bands(values):
    """(median, q05, q95) of one column of values."""
    median, q05, q95 = _band(np.asarray(values, dtype=float)[:, None])
    return median[0], q05[0], q95[0]


def summary_of(failed):
    """A hand-built five-replication SimSummary whose ``failed``
    replications hold NaN rows, with one more undefined link point."""
    rng = np.random.default_rng(12)
    beta_reps = rng.normal(size=(5, 3, 2))
    m_reps = rng.normal(size=(5, 4))
    m_reps[0, 2] = np.nan
    beta_reps[list(failed)] = np.nan
    m_reps[list(failed)] = np.nan
    return simulate.SimSummary(
        t_grid=np.linspace(0.0, 1.0, 3),
        u_grid=np.linspace(-1.0, 1.0, 4),
        censoring_rates=np.full(5 - len(failed), 0.3),
        failures=tuple((rep, "failed") for rep in failed),
        failure_log=(),
        beta_reps=beta_reps,
        m_reps=m_reps,
    )


class TestSimSummary:
    def test_bands_counts_and_degraded_are_derived_from_the_replications(self):
        summary = summary_of([3])
        bands = (*_band(summary.beta_reps), *_band(summary.m_reps))
        got = (
            summary.beta_median,
            summary.beta_q05,
            summary.beta_q95,
            summary.m_median,
            summary.m_q05,
            summary.m_q95,
        )
        for band, want in zip(got, bands, strict=True):
            assert band.tobytes() == want.tobytes()
        assert summary.m_defined_counts.tolist() == [4, 4, 3, 4]
        # Degraded means more than 20% failed: 1 of 5 is not, 2 of 5 are.
        assert not summary.degraded
        assert summary_of([1, 3]).degraded

    @pytest.mark.parametrize("name", ["beta_median", "degraded"])
    def test_derived_fields_are_not_arguments(self, name):
        summary = summary_of([])
        with pytest.raises(TypeError):
            simulate.SimSummary(
                t_grid=summary.t_grid,
                u_grid=summary.u_grid,
                censoring_rates=summary.censoring_rates,
                failures=(),
                failure_log=(),
                beta_reps=summary.beta_reps,
                m_reps=summary.m_reps,
                **{name: getattr(summary, name)},
            )


class TestPointwiseQuantile:
    def test_nearest_rank_low(self):
        assert bands(np.arange(1.0, 101.0))[1] == 5.0

    def test_nearest_rank_high(self):
        assert bands(np.arange(1.0, 101.0))[2] == 95.0

    def test_single_value(self):
        assert bands([7.5]) == (7.5, 7.5, 7.5)

    def test_zero_is_minimum(self):
        # with k <= 20 values the 5% rank ceil(0.05 k) is 1, as for p = 0
        assert bands([3.0, 1.0, 2.0])[1] == 1.0

    def test_median_convention(self):
        assert bands([4.0, 1.0, 3.0, 2.0])[0] == 2.0

    def test_empty_rejected(self):
        # a column where every replication failed gets no band, silently
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert all(np.isnan(bands([np.nan, np.nan])))

    def test_order_statistic_bounds(self):
        rng = np.random.default_rng(9)
        median, q05, q95 = bands(rng.normal(size=37))
        assert q05 <= median <= q95

    def test_nan_masked_columns_match_nearest_rank(self):
        rng = np.random.default_rng(10)
        values = rng.integers(0, 6, size=(60, 30)).astype(float)  # many ties
        values[rng.uniform(size=values.shape) < 0.3] = np.nan
        values[:, 0] = np.nan
        values[1:, 1] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _band(values.reshape(60, 15, 2))
        for band, p in zip(got, (0.5, 0.05, 0.95)):
            for j in range(30):
                col = values[:, j][~np.isnan(values[:, j])]
                want = nearest_rank(col, p) if col.size else np.nan
                assert np.array_equal(band.reshape(30)[j], want, equal_nan=True)


class TestRunMonteCarlo:
    def test_single_replication_bands_collapse(self):
        summary = run_monte_carlo(small_sim(reps=1), SMALL_FIT, workers=1)
        assert np.array_equal(summary.beta_median, summary.beta_q05)
        assert np.array_equal(summary.beta_median, summary.beta_q95)
        assert len(summary.failures) == 0

    def test_deterministic_across_runs(self):
        a = run_monte_carlo(small_sim(), SMALL_FIT, workers=1)
        b = run_monte_carlo(small_sim(), SMALL_FIT, workers=1)
        assert np.array_equal(a.beta_reps, b.beta_reps)
        assert np.array_equal(
            a.m_reps[np.isfinite(a.m_reps)], b.m_reps[np.isfinite(b.m_reps)]
        )

    def test_worker_count_never_changes_results(self):
        serial = run_monte_carlo(small_sim(), SMALL_FIT, workers=1)
        parallel = run_monte_carlo(small_sim(), SMALL_FIT, workers=2)
        assert np.array_equal(serial.beta_reps, parallel.beta_reps)
        assert np.array_equal(serial.beta_median, parallel.beta_median)

    def test_replication_count_preserves_per_rep_estimates(self):
        five = run_monte_carlo(small_sim(reps=5), SMALL_FIT, workers=1)
        three = run_monte_carlo(small_sim(reps=3), SMALL_FIT, workers=1)
        assert np.array_equal(five.beta_reps[:3], three.beta_reps)

    def test_band_ordering_everywhere(self):
        summary = run_monte_carlo(small_sim(reps=4), SMALL_FIT, workers=2)
        assert np.all(summary.beta_q05 <= summary.beta_median)
        assert np.all(summary.beta_median <= summary.beta_q95)
        dfn = summary.m_defined_counts > 0
        assert np.all(summary.m_q05[dfn] <= summary.m_median[dfn])
        assert np.all(summary.m_median[dfn] <= summary.m_q95[dfn])

    def test_censoring_rates_recorded(self):
        summary = run_monte_carlo(small_sim(reps=3), SMALL_FIT, workers=1)
        assert summary.censoring_rates.shape == (3,)
        assert np.all((summary.censoring_rates > 0) & (summary.censoring_rates < 1))

    @staticmethod
    def recorded_pools(monkeypatch):
        """Replace the process pool by an in-process one that records its size."""
        pools = []

        class RecordingPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        return pools

    @pytest.mark.parametrize("usable, want", [({0}, []), ({0, 2, 5}, [3]), (set(range(8)), [4])])
    def test_default_workers_follow_the_affinity_mask(self, usable, want, monkeypatch):
        pools = self.recorded_pools(monkeypatch)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: usable, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 16)
        summary = run_monte_carlo(small_sim(reps=4), SMALL_FIT)
        # one usable core runs the replications in this process, no pool
        assert pools == want
        assert len(summary.failures) == 0

    @pytest.mark.parametrize("reps, workers, want", [(2, 4, [2]), (1, 4, [])])
    def test_pool_never_outnumbers_the_replications(self, reps, workers, want, monkeypatch):
        # Under fork, a pool starts all max_workers processes at its first submit.
        pools = self.recorded_pools(monkeypatch)
        run_monte_carlo(small_sim(reps=reps), SMALL_FIT, workers=workers)
        assert pools == want

    def test_default_workers_without_an_affinity_mask(self, monkeypatch):
        pools = self.recorded_pools(monkeypatch)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        run_monte_carlo(small_sim(reps=2), SMALL_FIT)
        assert pools == [2]

    def test_truth_recovery_at_relaxed_scale(self):
        summary = run_monte_carlo(
            SimConfig(n=500, reps=20, seed=31), FitConfig(), workers=2
        )
        t = summary.t_grid
        interior = (t >= 0.05 - 1e-12) & (t <= 0.95 + 1e-12)
        err = np.abs(summary.beta_median[:, 0] - np.cos(t))
        assert float(err[interior].max()) <= 0.15

    def test_degraded_flag_on_mass_failure(self):
        # a vanishing modifier bandwidth starves every grid point
        bad_fit = FitConfig(
            t_grid_size=3,
            link_grid=(-0.5, 0.5, 5),
            bandwidths=Bandwidths(h1=1.0, h2=1e-9, h_link=1.0),
        )
        summary = run_monte_carlo(small_sim(reps=3), bad_fit, workers=1)
        assert summary.degraded
        assert np.all(np.isnan(summary.beta_median))
        error = "stage 1 (direction curves): insufficient local sample at t0=0.0: 0 rows carry weight"
        assert summary.failures == tuple((rep, error) for rep in range(3))
        assert summary.failure_log == tuple(f"rep {rep}: failed ({error})" for rep in range(3))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failure_log_lists_each_replication_in_order(self, workers, monkeypatch):
        # A cap of one iteration leaves every grid point short of
        # convergence (a forked pool worker inherits the patch), and a link
        # grid beyond the index's range leaves 10 points without data.
        monkeypatch.setattr(estimator, "_max_iter", lambda d: 1)
        fit = FitConfig(link_grid=(5, 6, 10))
        summary = run_monte_carlo(SimConfig(n=200, reps=3, seed=5), fit, workers=workers)
        assert summary.failures == ()
        assert not summary.degraded
        assert summary.failure_log == tuple(
            line
            for rep in range(3)
            for line in (
                f"rep {rep}: 21 non-converged grid points",
                f"rep {rep}: 10 link grid points without local data",
            )
        )
