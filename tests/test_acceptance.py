"""Acceptance suite.

Runs every exit criterion at its stated tolerance and prints one
pass/fail line per criterion (visible with ``pytest -s``; the per-test
verdicts of ``pytest -v`` carry the same information).

The quadratic-link study (criteria 1 and 2) is executed once at the
fixed master seed and shared between the tests that grade it.
"""

import math
import os
import time
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from sivc import (
    Dataset,
    FitConfig,
    SimConfig,
    estimate_censoring_survival,
    gaussian_noise,
    gaussian_noise_sampler,
    mc_conditional_mean,
    resolve_censor_scale,
    run_monte_carlo,
    survival_at,
    synthetic_responses,
    theoretical_mean_response,
    uniform_censor,
    uniform_censor_sampler,
)
from sivc.cli import main as cli_main

ACCEPT_SEED = 1729
WORKERS = max(1, min(4, os.cpu_count() or 1))

FULL_TOL = 0.15
SMOKE_TOL = 0.2
FULL_TIME_LIMIT = 900.0
SMOKE_TIME_LIMIT = 180.0


def _report(num, name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num} ({name}): {detail}", flush=True)


def _paper_truth(t_grid):
    return np.column_stack((np.cos(t_grid), np.sin(t_grid)))


@pytest.fixture(scope="module")
def full_run():
    sim = SimConfig(n=500, reps=100, censor_target=0.3, noise_sd=0.2, seed=ACCEPT_SEED)
    started = time.monotonic()
    summary = run_monte_carlo(sim, FitConfig(), workers=WORKERS)
    return summary, time.monotonic() - started


@pytest.fixture(scope="module")
def smoke_run():
    sim = SimConfig(n=500, reps=20, censor_target=0.3, noise_sd=0.2, seed=ACCEPT_SEED)
    started = time.monotonic()
    summary = run_monte_carlo(sim, FitConfig(), workers=WORKERS)
    return summary, time.monotonic() - started


class TestCriterion1CoefficientCurves:
    def test_criterion_1_full_run(self, full_run):
        summary, elapsed = full_run
        t = summary.t_grid
        interior = (t >= 0.05 - 1e-12) & (t <= 0.95 + 1e-12)
        truth = _paper_truth(t)
        err = np.abs(summary.beta_median - truth)
        worst = float(err[interior].max())
        covered = (
            (summary.beta_q05 <= truth) & (truth <= summary.beta_q95)
        )[interior]
        coverage = float(covered.mean())
        ok = (
            worst <= FULL_TOL
            and coverage >= 0.85
            and elapsed <= FULL_TIME_LIMIT
            and len(summary.failures) == 0
        )
        _report(
            1,
            "coefficient-curve bands, 100 reps",
            ok,
            f"max interior median error {worst:.4f} (tol {FULL_TOL}), "
            f"band coverage {coverage:.2%} (need 85%), {elapsed:.0f}s "
            f"(limit {FULL_TIME_LIMIT:.0f}s)",
        )
        assert len(summary.failures) == 0
        assert worst <= FULL_TOL
        assert coverage >= 0.85
        assert elapsed <= FULL_TIME_LIMIT

    def test_criterion_1_smoke_run(self, smoke_run):
        summary, elapsed = smoke_run
        t = summary.t_grid
        interior = (t >= 0.05 - 1e-12) & (t <= 0.95 + 1e-12)
        truth = _paper_truth(t)
        worst = float(np.abs(summary.beta_median - truth)[interior].max())
        ok = worst <= SMOKE_TOL and elapsed <= SMOKE_TIME_LIMIT
        _report(
            1,
            "smoke variant, 20 reps",
            ok,
            f"max interior median error {worst:.4f} (tol {SMOKE_TOL}), "
            f"{elapsed:.0f}s (limit {SMOKE_TIME_LIMIT:.0f}s)",
        )
        assert worst <= SMOKE_TOL
        assert elapsed <= SMOKE_TIME_LIMIT


class TestCriterion2LinkCurve:
    def test_criterion_2_link_rmse(self, full_run):
        summary, _ = full_run
        sel = np.abs(summary.u_grid) <= 0.4 + 1e-12
        assert np.all(summary.m_defined_counts[sel] > 0)
        median = summary.m_median[sel]
        rmse = float(np.sqrt(np.mean((median - summary.u_grid[sel] ** 2) ** 2)))
        ok = rmse <= 0.06
        _report(2, "link median RMSE", ok, f"RMSE {rmse:.4f} (tol 0.06)")
        assert rmse <= 0.06, f"median link RMSE {rmse:.4f} exceeds 0.06"

    def test_criterion_2_link_quadratic_shape(self, full_run):
        summary, _ = full_run
        sel = np.abs(summary.u_grid) <= 0.4 + 1e-12
        u = summary.u_grid[sel]
        median = summary.m_median[sel]
        coeffs = np.polyfit(u, median, 2)
        fitted = np.polyval(coeffs, u)
        r2 = 1.0 - float(np.var(median - fitted) / np.var(median))
        ok = coeffs[0] > 0 and r2 >= 0.95
        _report(
            2,
            "link quadratic shape",
            ok,
            f"curvature {coeffs[0]:+.3f} (need > 0), parabola R^2 {r2:.4f} (need 0.95)",
        )
        assert coeffs[0] > 0
        assert r2 >= 0.95


class TestCriterion3CensoredMeanOracle:
    def test_criterion_3_quadrature_matches_monte_carlo(self):
        scale = resolve_censor_scale(SimConfig(seed=ACCEPT_SEED))
        noise = gaussian_noise(0.2)
        censor = uniform_censor(scale)
        worst_z = 0.0
        for k, t in enumerate((-0.25, 0.0, 0.25, 0.5, 1.0)):
            w = theoretical_mean_response(t, noise, censor)
            mean, se = mc_conditional_mean(
                t,
                gaussian_noise_sampler(0.2),
                uniform_censor_sampler(scale),
                draws=10 ** 6,
                seed=ACCEPT_SEED + k,
            )
            worst_z = max(worst_z, abs(w - mean) / se)
        far = uniform_censor(1e6 + 0.5, 1e6 - 0.5)
        worst_identity = max(
            abs(theoretical_mean_response(t, noise, far) - t)
            for t in (-0.25, 0.0, 0.25, 0.5, 1.0)
        )
        ok = worst_z <= 3.0 and worst_identity <= 1e-4
        _report(
            3,
            "censored-mean oracle agreement",
            ok,
            f"worst |z| {worst_z:.2f} (limit 3), far-censoring |w(t)-t| "
            f"{worst_identity:.2e} (limit 1e-4)",
        )
        assert worst_z <= 3.0
        assert worst_identity <= 1e-4


class TestCriterion4SyntheticUnbiasedness:
    def test_criterion_4_synthetic_mean(self):
        # Latent (V + 1)^2 + shift with V uniform has mean 7/3 + shift. The
        # shift -2 makes the latent law straddle 0; a negative response is
        # never censored (C >= 0) and its synthetic value is itself.
        rng = np.random.default_rng(ACCEPT_SEED)
        n = 20_000
        cmax = 5.0
        z_analytic = z_km = 0.0
        details = []
        for shift in (0.0, -2.0):
            v = rng.uniform(0, 1, n)
            y_star = (v + 1.0) ** 2 + shift
            c = rng.uniform(0, cmax, n)
            y = np.minimum(y_star, c)
            delta = (y_star < c).astype(int)
            target = 7.0 / 3.0 + shift

            # analytic G(s) = 1 - s/cmax on [0, cmax]
            t_analytic = np.where(y > 0, -cmax * np.log1p(-y / cmax), y)
            z_a = abs(t_analytic.mean() - target) / (
                t_analytic.std(ddof=1) / math.sqrt(n)
            )

            ds = Dataset(y=y, delta=delta, x=np.zeros((n, 1)), t=np.zeros(n))
            t_km = synthetic_responses(ds, estimate_censoring_survival(ds))
            z_k = abs(t_km.mean() - target) / (t_km.std(ddof=1) / math.sqrt(n))

            z_analytic, z_km = max(z_analytic, z_a), max(z_km, z_k)
            details.append(
                f"shift {shift:+.0f}: analytic-G |z| {z_a:.2f}, Kaplan-Meier |z| {z_k:.2f}"
            )

        ok = z_analytic <= 3.0 and z_km <= 5.0
        _report(
            4,
            "synthetic-response unbiasedness",
            ok,
            "; ".join(details) + " (limits 3 and 5)",
        )
        assert z_analytic <= 3.0
        assert z_km <= 5.0


class TestCriterion5KaplanMeierExactness:
    def test_criterion_5_fixtures_bit_exact(self):
        def surv(y, delta):
            y = np.asarray(y, float)
            return Dataset(
                y=y,
                delta=np.asarray(delta),
                x=np.zeros((y.size, 1)),
                t=np.linspace(0, 1, y.size),
            )

        checks = []

        curve = estimate_censoring_survival(surv([1, 2, 3], [1, 0, 1]))
        checks.append(curve.jump_times.tolist() == [2.0])
        checks.append(curve.values.tolist() == [0.5])
        checks.append(survival_at(curve, 2.0) == 1.0)
        checks.append(survival_at(curve, 2.5) == 0.5)
        checks.append(survival_at(curve, -10.0) == 1.0)

        curve = estimate_censoring_survival(surv([1, 2, 3], [1, 1, 1]))
        checks.append(curve.jump_times.size == 0)
        checks.append(all(survival_at(curve, s) == 1.0 for s in (-5.0, 2.0, 3.0)))

        curve = estimate_censoring_survival(surv([1, 2], [0, 0]))
        checks.append(curve.values.tolist() == [0.5, 0.0])
        checks.append(survival_at(curve, 1.0) == 1.0)
        checks.append(survival_at(curve, 1.5) == 0.5)
        checks.append(survival_at(curve, 2.5) == 0.0)

        rng = np.random.default_rng(ACCEPT_SEED + 5)
        y = rng.uniform(0, 10, 500)
        ds = surv(y, np.ones(500, dtype=int))
        tstar = synthetic_responses(ds, estimate_censoring_survival(ds))
        checks.append(np.array_equal(tstar, y))

        piecewise = estimate_censoring_survival(surv([1.0, 2.0], [0, 1]))
        ds2 = surv([2.0, 0.5], [1, 1])
        vals = synthetic_responses(ds2, piecewise)
        checks.append(vals[0] == 3.0)
        checks.append(vals[1] == 0.5)

        ok = all(checks)
        _report(
            5,
            "product-limit exactness",
            ok,
            f"{sum(checks)}/{len(checks)} bit-exact checks",
        )
        assert all(checks)


class TestCriterion6DirectionRecovery:
    def test_criterion_6_constant_direction_oracle(self, full_run, smoke_run):
        sim = SimConfig(
            n=500,
            reps=1,
            censor_target=0.0,
            noise_sd=0.05,
            seed=ACCEPT_SEED + 6,
            preset="constant",
            constant_direction=(0.6, 0.8),
        )
        summary = run_monte_carlo(sim, FitConfig(), workers=1)
        fitted = summary.beta_reps[0]
        dots = np.clip(fitted @ np.array([0.6, 0.8]), -1.0, 1.0)
        worst_angle = float(np.max(np.arccos(dots)))

        # identifiability invariants across every acceptance run
        all_fits = [fitted]
        for source, _ in (full_run, smoke_run):
            reps = source.beta_reps
            all_fits.extend(reps[r] for r in range(reps.shape[0]))
        norm_ok = first_ok = True
        for mat in all_fits:
            if np.any(np.isnan(mat)):
                continue
            norms = np.linalg.norm(mat, axis=1)
            norm_ok &= bool(np.all(np.abs(norms - 1.0) <= 1e-12))
            first_ok &= bool(np.all(mat[:, 0] > 0))

        ok = worst_angle <= 0.05 and norm_ok and first_ok
        _report(
            6,
            "direction recovery oracle",
            ok,
            f"worst angular error {worst_angle:.4f} rad (tol 0.05), "
            f"unit-norm {'100%' if norm_ok else 'violated'}, "
            f"positive first component {'100%' if first_ok else 'violated'}",
        )
        assert worst_angle <= 0.05
        assert norm_ok
        assert first_ok


class TestCriterion7Determinism:
    CONFIG = {
        "sim": {"n": 120, "reps": 3, "seed": 77},
        "fit": {
            "t_grid_size": 5,
            "link_grid": [-0.5, 0.5, 21],
            "optimizer": {"restarts": 3, "max_iter": 100, "tol": 1e-8},
        },
    }

    def test_criterion_7_byte_identical_and_stream_stable(self, tmp_path):
        import json

        config = tmp_path / "config.json"
        config.write_text(json.dumps(self.CONFIG), encoding="utf-8")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        code1 = cli_main(["simulate", "--config", str(config), "--out", str(out1)])
        code2 = cli_main(["simulate", "--config", str(config), "--out", str(out2)])
        identical = (out1 / "summary.csv").read_bytes() == (
            out2 / "summary.csv"
        ).read_bytes() and (out1 / "link_summary.csv").read_bytes() == (
            out2 / "link_summary.csv"
        ).read_bytes()

        fit = FitConfig(
            t_grid_size=5,
            link_grid=(-0.5, 0.5, 21),
        )
        sim5 = SimConfig(n=120, reps=5, seed=77)
        sim3 = SimConfig(n=120, reps=3, seed=77)
        five = run_monte_carlo(sim5, fit, workers=1)
        three = run_monte_carlo(sim3, fit, workers=2)
        reps_stable = np.array_equal(five.beta_reps[:3], three.beta_reps)
        m5, m3 = five.m_reps[:3], three.m_reps
        reps_stable &= np.array_equal(
            m5[np.isfinite(m5)], m3[np.isfinite(m3)]
        ) and np.array_equal(np.isfinite(m5), np.isfinite(m3))

        ok = code1 == 0 and code2 == 0 and identical and reps_stable
        _report(
            7,
            "determinism",
            ok,
            f"byte-identical CSVs: {identical}; per-replication estimates "
            f"invariant to replication/worker count: {reps_stable}",
        )
        assert code1 == 0 and code2 == 0
        assert identical
        assert reps_stable


class TestCriterion8CensoringCalibration:
    def test_criterion_8_independent_probe(self):
        sim = SimConfig(seed=ACCEPT_SEED)
        scale = resolve_censor_scale(sim)
        rng = np.random.default_rng(987_654_321)
        latent = sim.draw_latent(rng, 100_000)
        censor = rng.uniform(0, scale, 100_000)
        achieved = float(np.mean(latent >= censor))
        ok = abs(achieved - 0.3) <= 0.01
        _report(
            8,
            "censoring calibration",
            ok,
            f"calibrated c {scale:.4f}, independent-probe rate {achieved:.4f} "
            "(target 0.30 +/- 0.01)",
        )
        assert abs(achieved - 0.3) <= 0.01


class TestFigureArtifacts:
    def test_reproduced_figures_are_wellformed(self, tmp_path):
        code = cli_main(
            [
                "reproduce-figures",
                "--out",
                str(tmp_path),
                "--reps",
                "2",
                "--seed",
                str(ACCEPT_SEED),
            ]
        )
        assert code == 0
        for name in ("fig1.svg", "fig2.svg"):
            root = ET.fromstring((tmp_path / name).read_text(encoding="utf-8"))
            assert root.tag.endswith("svg")
