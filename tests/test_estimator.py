"""Tests for the two-stage estimator."""

import dataclasses
import math
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from oracle import ReferenceObjective, loop_link
from sivc import (
    Bandwidths,
    CoefficientCurves,
    Dataset,
    EstimationError,
    FitConfig,
    LinkEstimate,
    SimConfig,
    UnitDirection,
    compute_index,
    fit_coefficient_curves,
    fit_direction_at,
    fit_link,
    fit_model,
    generate_dataset,
    kernel_values,
    normalize_direction,
    rule_of_thumb_bandwidth,
    run_monte_carlo,
    select_bandwidths,
)
from sivc import cli, estimator
from sivc.estimator import (
    _FLAT_TOL,
    _SIMPLEX_STEP,
    _XATOL,
    _LocalObjective,
    _Simplex,
    _chart_point,
    _first_dependent_column,
    _max_iter,
    _nelder_mead,
    _tangent_basis,
    local_objective,
)

EPAN = FitConfig.kernel


def naive_local_objective(dataset, t0, theta, bw):
    """Independent loop oracle for the leave-one-out profile objective."""
    n = dataset.n
    proj = [float(dataset.x[i] @ theta) for i in range(n)]
    kt = [float(kernel_values(EPAN, (dataset.t[i] - t0) / bw.h2)) for i in range(n)]
    total = 0.0
    for i in range(n):
        if kt[i] == 0.0:
            continue
        num = den = 0.0
        for j in range(n):
            if j == i:
                continue
            w = float(kernel_values(EPAN, (proj[j] - proj[i]) / bw.h1)) * kt[j]
            num += w * dataset.y[j]
            den += w
        if den < 1e-300:
            continue
        resid = dataset.y[i] - num / den
        total += kt[i] * resid * resid
    return total / (n * bw.h2)


def constant_direction_data(seed, n, direction, noise_sd=0.0, link=None):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 2))
    t = rng.uniform(0, 1, n)
    u = x @ np.asarray(direction)
    y = (link(u) if link else u) + (rng.normal(0, noise_sd, n) if noise_sd else 0.0)
    return Dataset(y=y, delta=np.ones(n, dtype=int), x=x, t=t)


def angular_error(direction, truth):
    dot = float(np.clip(direction.components @ np.asarray(truth), -1.0, 1.0))
    return math.acos(dot)


def direction_at_angles(angles):
    """The unit vector with spherical angles ``angles``: (cos a, sin a) in
    two dimensions, grown one angle at a time."""
    v = np.array([1.0])
    for a in np.atleast_1d(np.asarray(angles, dtype=float)):
        v = np.concatenate((v * math.cos(a), [math.sin(a)]))
    return v


class TestTangentChart:
    @given(
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=0, max_value=2 ** 31),
    )
    @settings(max_examples=60)
    def test_basis_is_orthonormal_and_tangent(self, d, seed):
        rng = np.random.default_rng(seed)
        v = rng.normal(size=d)
        if abs(v[0]) < 1e-6:
            return
        b0 = normalize_direction(v).components
        basis = _tangent_basis(b0)
        assert basis.shape == (d, d - 1)
        assert np.allclose(basis.T @ basis, np.eye(d - 1), rtol=0.0, atol=1e-14)
        assert np.allclose(basis.T @ b0, 0.0, rtol=0.0, atol=1e-14)
        # the centre of the chart is b0 itself
        assert np.allclose(_chart_point(b0, basis, [0.0] * (d - 1)), b0, rtol=0.0, atol=1e-15)
        # and every point of it a unit vector in b0's hemisphere
        point = _chart_point(b0, basis, rng.normal(0.0, 3.0, d - 1).tolist())
        assert np.linalg.norm(point) == pytest.approx(1.0, abs=1e-14)
        assert point[0] > 0

    def test_cold_chart_is_the_slope_chart(self):
        # Centred at e1 the chart is (1, s) scaled, which covers the open
        # hemisphere and never reaches a zero first component.
        basis = _tangent_basis(np.eye(3)[0])
        assert basis.tolist() == np.eye(3)[:, 1:].tolist()
        s = [0.3, -2.0]
        want = np.array([1.0, 0.3, -2.0])
        assert np.allclose(_chart_point(np.eye(3)[0], basis, s), want / np.linalg.norm(want))

    def test_points_past_the_equator_fold_back(self):
        # Past a zero first component b0 + basis s turns into the other
        # hemisphere; its negative is the point the chart returns.
        b0 = normalize_direction([0.6, 0.8]).components
        basis = _tangent_basis(b0)
        raw = b0 + basis @ [3.0]
        assert raw[0] < 0
        assert np.allclose(_chart_point(b0, basis, [3.0]), -raw / np.linalg.norm(raw))

    def test_zero_first_component_scores_inf(self, monkeypatch):
        warm = normalize_direction([1.0, 1.0])
        basis = _tangent_basis(warm.components)
        # The tangent line reaches a zero first component at s = 1 exactly.
        assert (warm.components + basis @ [1.0])[0] == 0.0
        assert _chart_point(warm.components, basis, [1.0]) is None
        assert _chart_point(warm.components, basis, [math.nan]) is None
        scores = []

        def capture(func, *args):
            scores.append(func)
            return _nelder_mead(func, *args)

        monkeypatch.setattr(estimator, "_nelder_mead", capture)
        ds = constant_direction_data(seed=2, n=120, direction=(0.6, 0.8))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit_direction_at(ds, 0.5, Bandwidths(h1=0.4, h2=0.3, h_link=0.4), warm_start=warm)
            assert scores[0]([1.0]) == math.inf


class TestObjectiveIsEven:
    """The chart folds -theta onto theta, which leaves the search
    continuous only because the objective is even in theta: the
    projections change sign, so every window holds the same rows."""

    @pytest.mark.parametrize("n", [100, 500, 2000])
    def test_value_at_minus_theta(self, n):
        dataset, _ = generate_dataset(SimConfig(n=n, seed=1729), 0)
        bw = select_bandwidths(dataset, EPAN)
        for t0 in (0.0, 0.5, 1.0):
            obj = _LocalObjective(dataset, t0, bw)
            for angle in np.linspace(-1.4, 1.4, 29):
                theta = direction_at_angles([angle])
                (plus, plus_skipped), (minus, minus_skipped) = obj.value(theta), obj.value(-theta)
                assert minus == pytest.approx(plus, rel=1e-12, abs=0.0), (t0, angle)
                assert minus_skipped == plus_skipped, (t0, angle)


def three_row_dataset():
    return Dataset(
        y=np.array([1.0, 2.0, 3.0]),
        delta=np.array([1, 1, 1]),
        x=np.array([[0.2, 0.0], [0.5, 0.0], [0.9, 0.0]]),
        t=np.array([0.1, 0.5, 0.9]),
    )


def line_dataset(x, t=None):
    """d = 1 rows at the given projections, responses a fixed wiggle."""
    x = np.asarray(x, dtype=float)
    n = x.size
    t = np.full(n, 0.5) if t is None else np.asarray(t, dtype=float)
    y = np.sin(3.0 * np.arange(n)) + 0.1 * np.arange(n)
    return Dataset(y=y, delta=np.ones(n, dtype=int), x=x[:, None], t=t)


def far_out_pair_dataset(top):
    """150 rows around -50, a lone pair at 10 and ``top`` and 50 rows
    around 50: at h1 = 1 the pair's denominators take the expansion guard."""
    rng = np.random.default_rng(41)
    rows = np.concatenate((rng.normal(-50.0, 1.0, 150), [10.0, top], rng.normal(50.0, 1.0, 50)))
    return line_dataset(rows)


def assert_every_oracle(dataset, t0s, bw, thetas, rel=1e-9, loop=False):
    """Check ``_LocalObjective.value`` at each t0 and theta against every
    oracle in ``tests/oracle.py`` and return its (value, skipped) pairs.

    The value equals ``ReferenceObjective.sorted_value`` to the last bit
    and the dense kernel-matrix formula within ``rel``; with ``loop``
    (small m) both also match the loop oracle within ``rel``. All count
    the same skipped rows, the value's count a Python int, since
    diagnostics.json takes no numpy ints."""
    results = []
    for t0 in t0s:
        obj = _LocalObjective(dataset, t0, bw)
        ref = ReferenceObjective(dataset, t0, bw)
        for theta in thetas:
            theta = np.asarray(theta, dtype=float)
            value, skipped = obj.value(theta)
            assert value == ref.sorted_value(theta), (t0, theta)
            assert type(skipped) is int and skipped == ref.last_skipped, (t0, theta)
            dense = ref.dense_value(theta)
            assert skipped == ref.last_skipped, (t0, theta)
            assert value == pytest.approx(dense, rel=rel, abs=0.0), (t0, theta)
            if loop:
                want = naive_local_objective(dataset, t0, theta, bw)
                assert dense == pytest.approx(want, rel=rel), (t0, theta)
                assert value == pytest.approx(want, rel=rel), (t0, theta)
            results.append((value, skipped))
    return results


class TestLocalObjective:
    BW = Bandwidths(h1=1.0, h2=1.0, h_link=1.0)

    def test_constant_responses_give_zero(self):
        ds = Dataset(
            y=np.full(4, 3.3),
            delta=np.ones(4, dtype=int),
            x=np.array([[0.1, 0.0], [0.2, 0.0], [0.3, 0.0], [0.4, 0.0]]),
            t=np.array([0.2, 0.4, 0.6, 0.8]),
        )
        theta = normalize_direction([1.0, 0.0])
        # residuals of a constant response vanish to rounding noise
        assert local_objective(ds, 0.5, theta, self.BW, EPAN) == pytest.approx(
            0.0, abs=1e-25
        )

    def test_nonnegative_on_random_input(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            n = 25
            ds = Dataset(
                y=rng.normal(size=n),
                delta=np.ones(n, dtype=int),
                x=rng.normal(size=(n, 2)),
                t=rng.uniform(0, 1, n),
            )
            theta = normalize_direction(rng.normal(size=2) + [2.0, 0.0])
            assert local_objective(ds, 0.5, theta, self.BW, EPAN) >= 0.0

    def test_hand_computed_three_row_fixture(self):
        # theta=(1,0), t0=0.5, h1=h2=1, epanechnikov. Weights written out:
        # modifier: kt = (0.63, 0.75, 0.63); index gaps 0.3, 0.7, 0.4 give
        # K=0.6825, 0.3825, 0.63. Leave-one-out smoother values:
        g0 = (2.0 * (0.6825 * 0.75) + 3.0 * (0.3825 * 0.63)) / (
            0.6825 * 0.75 + 0.3825 * 0.63
        )
        g1 = (1.0 * (0.6825 * 0.63) + 3.0 * (0.63 * 0.63)) / (
            0.6825 * 0.63 + 0.63 * 0.63
        )
        g2 = (1.0 * (0.3825 * 0.63) + 2.0 * (0.63 * 0.75)) / (
            0.3825 * 0.63 + 0.63 * 0.75
        )
        expected = (
            0.63 * (1.0 - g0) ** 2 + 0.75 * (2.0 - g1) ** 2 + 0.63 * (3.0 - g2) ** 2
        ) / (3.0 * 1.0)
        ds = three_row_dataset()
        theta = normalize_direction([1.0, 0.0])
        got = local_objective(ds, 0.5, theta, self.BW, EPAN)
        assert got == pytest.approx(expected, rel=1e-12)
        assert assert_every_oracle(ds, [0.5], self.BW, [theta.components]) == [(got, 0)]

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(15)
        n = 40
        y = rng.normal(size=n)
        x = rng.normal(size=(n, 2))
        t = rng.uniform(0, 1, n)
        ds = Dataset(y=y, delta=np.ones(n, dtype=int), x=x, t=t)
        perm = rng.permutation(n)
        ds2 = Dataset(y=y[perm], delta=np.ones(n, dtype=int), x=x[perm], t=t[perm])
        theta = normalize_direction([0.8, -0.6])
        a = local_objective(ds, 0.5, theta, self.BW, EPAN)
        b = local_objective(ds2, 0.5, theta, self.BW, EPAN)
        assert a == pytest.approx(b, rel=1e-12)

    def test_insufficient_local_sample(self):
        ds = three_row_dataset()
        bw = Bandwidths(h1=1.0, h2=1e-4, h_link=1.0)
        theta = normalize_direction([1.0, 0.0])
        with pytest.raises(EstimationError, match="insufficient local sample at t0=0.31"):
            local_objective(ds, 0.31, theta, bw, EPAN)


class TestSortedObjective:
    """Random, simulated and small-m rows against every oracle."""

    WIDE = Bandwidths(h1=1.0, h2=10.0, h_link=1.0)

    def test_matches_naive_oracle_at_n30(self):
        rng = np.random.default_rng(14)
        bw = Bandwidths(h1=0.6, h2=0.3, h_link=1.0)
        fixed = normalize_direction([1.0, 0.5]).components
        for _ in range(5):
            n = 30
            ds = Dataset(
                y=rng.normal(size=n),
                delta=np.ones(n, dtype=int),
                x=rng.normal(size=(n, 2)),
                t=rng.uniform(0, 1, n),
            )
            for t0 in (0.0, 0.5, 1.0):
                theta = normalize_direction(rng.normal(size=2) + [2.0, 0.0])
                assert_every_oracle(ds, [t0], bw, [theta.components], loop=True)
            assert_every_oracle(ds, [0.4], bw, [fixed], rel=1e-10, loop=True)

    @pytest.mark.parametrize(
        "sim",
        [
            SimConfig(n=2000, seed=1729),
            SimConfig(n=5000, seed=1729),
            SimConfig(
                n=20000, d=1, seed=1729, preset="constant", constant_direction=(1.0,)
            ),
        ],
        ids=["paper-n2000", "paper-n5000", "d1-n20000"],
    )
    def test_matches_dense_on_simulated_data(self, sim):
        ds, _ = generate_dataset(sim, 0, censor_scale=4.0)
        bw = select_bandwidths(ds, EPAN)
        rng = np.random.default_rng(sim.n)
        for t0 in (0.0, 0.5, 1.0):
            thetas = [[1.0]]
            if sim.d > 1:
                thetas = [normalize_direction(v + 0.5).components for v in rng.normal(size=(2, 2))]
            assert_every_oracle(ds, [t0], bw, thetas)

    def test_neighbour_below_the_rounding_of_the_own_weight_counts(self):
        # Row 1 sits at the edge of the modifier window and 1 - 1e-12
        # bandwidths from row 0, so its weight in row 0's window (~1e-18)
        # is below the rounding of row 0's own weight; it is still a
        # neighbour, as in the loop oracle.
        h2 = 0.1
        ds = line_dataset(
            [0.0, 1.0 - 1e-12, 5.0, 5.5], [0.5, 0.5 + h2 * (1 - 1e-6), 0.5, 0.5]
        )
        bw = Bandwidths(h1=1.0, h2=h2, h_link=1.0)
        [(_, skipped)] = assert_every_oracle(ds, [0.5], bw, [[1.0]], loop=True)
        assert skipped == 0

    @pytest.mark.parametrize("m", [2, 3, 24, 127])
    def test_matches_dense_formula_at_small_m(self, m):
        # Ties (projections on a 0.1 lattice, the first two equal),
        # responses of both signs and, from m = 3, rows alone in their
        # window in both tails: each sits 3 bandwidths from the next row
        # on its side.
        rng = np.random.default_rng(m)
        lone = min(m - 2, 10)
        core = np.round(rng.normal(0.0, 0.3, m - lone), 1)
        core[1] = core[0]
        tail = (5.0 + 1.5 * np.arange(1, lone + 1)) * np.resize([1.0, -1.0], lone)
        x1 = np.concatenate((core, tail))
        x2 = 0.01 * rng.normal(size=m)
        dataset = Dataset(
            y=rng.normal(-0.5, 1.0, m),
            delta=np.ones(m, dtype=int),
            x=np.column_stack((x1, x2)),
            t=rng.uniform(0, 1, m),
        )
        bw = Bandwidths(h1=0.5, h2=10.0, h_link=0.5)
        thetas = [direction_at_angles([angle]) for angle in (0.0, 0.05, -0.3)]
        results = assert_every_oracle(dataset, [0.5], bw, thetas, rel=1e-12)
        value, skipped = results[0]
        assert lone <= skipped < m and value > 0.0

    @pytest.mark.parametrize("m", [127, 128])
    def test_objective_is_freed_by_reference_counting(self, m):
        # A cycle would keep every grid point's objective, with its
        # buffers, alive until the cycle collector ran.
        obj = _LocalObjective(line_dataset(np.arange(m) / m), 0.5, self.WIDE)
        obj.value(np.ones(1))
        ref = weakref.ref(obj)
        del obj
        assert ref() is None


class TestBitIdentity:
    """Many angles, three dimensions, ties, window edges, skipped rows and
    the expansion guard against every oracle."""

    WIDE = TestSortedObjective.WIDE

    @pytest.mark.parametrize("n", [500, 2000])
    @pytest.mark.parametrize("seed", [1729, 8191])
    def test_simulated_data_over_many_angles(self, n, seed):
        dataset, _ = generate_dataset(SimConfig(n=n, seed=seed), 0)
        # The gaussian-constant rule everywhere: narrower windows than a
        # default fit's, so more rows sit near their window's edge.
        h_index = rule_of_thumb_bandwidth(dataset.x @ normalize_direction([1.0, 1.0]).components)
        bw = Bandwidths(h1=h_index, h2=rule_of_thumb_bandwidth(dataset.t), h_link=h_index)
        thetas = [direction_at_angles([a]) for a in np.linspace(-1.5, 1.5, 25)]
        assert_every_oracle(dataset, (0.0, 0.5, 1.0), bw, thetas)

    def test_three_dimensional_directions(self):
        rng = np.random.default_rng(3)
        n = 400
        x = rng.standard_normal((n, 3))
        dataset = Dataset(
            y=np.tanh(x @ np.array([0.6, 0.64, 0.48])) + rng.normal(0, 0.1, n),
            delta=np.ones(n, dtype=int),
            x=x,
            t=rng.uniform(0, 1, n),
        )
        bw = select_bandwidths(dataset, EPAN)
        thetas = [direction_at_angles(a) for a in rng.uniform(-1.5, 1.5, (15, 2))]
        assert_every_oracle(dataset, (0.0, 0.5, 1.0), bw, thetas)

    def test_neighbour_exactly_at_the_window_edge(self):
        # rows 0 and 1 sit exactly h1 apart: weight 0, so both are skipped
        dataset = line_dataset([0.0, 1.0, 3.0, 3.5, 3.75])
        [(_, skipped)] = assert_every_oracle(dataset, [0.5], self.WIDE, [[1.0]])
        assert skipped == 2

    @pytest.mark.parametrize("m", [120, 200])
    def test_every_row_skipped(self, m):
        dataset = line_dataset(2.0 * np.arange(m))
        assert assert_every_oracle(dataset, [0.5], self.WIDE, [[1.0]]) == [(0.0, m)]

    def test_tied_projections(self):
        rng = np.random.default_rng(40)
        dataset = line_dataset(np.round(rng.normal(size=150), 1), rng.uniform(0, 1, 150))
        bw = Bandwidths(h1=0.3, h2=0.4, h_link=0.3)
        assert_every_oracle(dataset, (0.0, 0.5, 1.0), bw, [[1.0]])

    def test_expansion_guard_recompute(self, monkeypatch):
        # A lone pair, 1 - 1e-7 or 0.98 bandwidths apart and 60 bandwidths
        # above the median, with 50 rows further out: each of its
        # denominators is a small part of a weight while the prefix sums
        # it differences carry ~1e5 weights, so both are recomputed from
        # their kernel weights, the only place ``value`` calls
        # ``kernel_values``. At 0.98 only the guard's kt q^2 sums flag them.
        for top in (11.0 - 1e-7, 10.98):
            dataset = far_out_pair_dataset(top)
            assert_every_oracle(dataset, [0.5], self.WIDE, [[1.0]], loop=True)
            obj, recomputed = _LocalObjective(dataset, 0.5, self.WIDE), []

            def counted(spec, u):
                recomputed.extend(np.flatnonzero(u == 0).tolist())
                return kernel_values(spec, u)

            with monkeypatch.context() as patch:
                patch.setattr(estimator, "kernel_values", counted)
                obj.value(np.ones(1))
            assert recomputed == [150, 151], top


class TestFitDirectionAt:
    def test_recovers_constant_direction_noise_free(self):
        ds = constant_direction_data(seed=1, n=200, direction=(0.6, 0.8))
        fit = fit_direction_at(ds, 0.5, select_bandwidths(ds, EPAN))
        assert angular_error(fit.direction, (0.6, 0.8)) < 0.05

    def test_t0_outside_the_unit_interval_rejected(self):
        ds = constant_direction_data(seed=1, n=40, direction=(0.6, 0.8))
        bw = Bandwidths(h1=0.4, h2=0.3, h_link=0.4)
        with pytest.raises(ValueError, match=r"^t0 must lie in \[0, 1\] \(got 1.5\)$"):
            fit_direction_at(ds, 1.5, bw)

    def test_fewer_than_ten_rows_rejected(self):
        # fit_model refuses first; the public function refuses on its own.
        ds = constant_direction_data(seed=1, n=9, direction=(0.6, 0.8))
        bw = Bandwidths(h1=0.4, h2=0.3, h_link=0.4)
        with pytest.raises(ValueError, match=r"^direction fitting needs n >= 10 \(got 9\)$"):
            fit_direction_at(ds, 0.5, bw)

    def test_warm_start_never_hurts(self):
        ds = constant_direction_data(seed=2, n=120, direction=(0.6, 0.8))
        bw = Bandwidths(h1=0.4, h2=0.3, h_link=0.4)
        warm = normalize_direction([0.6, 0.8])
        warm_objective = local_objective(ds, 0.5, warm, bw, EPAN)
        fit = fit_direction_at(ds, 0.5, bw, warm_start=warm)
        assert fit.objective <= warm_objective + 1e-15

    def test_objective_beats_the_centre_start(self):
        ds = constant_direction_data(seed=3, n=120, direction=(0.6, 0.8), noise_sd=0.1)
        bw = Bandwidths(h1=0.4, h2=0.3, h_link=0.4)
        fit = fit_direction_at(ds, 0.5, bw)
        start = normalize_direction([1.0, 0.0])
        assert fit.objective < local_objective(ds, 0.5, start, bw, EPAN)

    def test_nan_objective_is_reported_not_converged(self, monkeypatch):
        # Responses near the float maximum overflow the smoother, so every
        # value is NaN: the stop test never passes and the fit says so.
        rng = np.random.default_rng(0)
        x = rng.normal(size=(40, 2))
        t = rng.uniform(0, 1, 40)
        y = rng.choice([-1.7e308, 1.7e308], 40)
        ds = Dataset(y=y, delta=np.ones(40, dtype=int), x=x, t=t)
        monkeypatch.setattr(estimator, "_max_iter", lambda d: 7 * d)
        with np.errstate(over="ignore", invalid="ignore"):
            fit = fit_direction_at(ds, 0.5, Bandwidths(h1=0.5, h2=2.0, h_link=1.0))
        assert math.isnan(fit.objective)
        assert not fit.converged
        # The one run goes on to the cap the rule gives for its d.
        assert fit.iterations == 14

    def test_a_capped_run_is_converged_only_on_flat_values(self, monkeypatch):
        # Three iterations end no run at _XATOL. Constant responses score
        # every vertex 0, within _FLAT_TOL of each other, so the fit still
        # counts as converged; N(0, 1) responses spread the values wider.
        rng = np.random.default_rng(6)
        x = rng.normal(size=(60, 2))
        t = rng.uniform(0, 1, 60)
        monkeypatch.setattr(estimator, "_max_iter", lambda d: 3)
        for y, flat in ((np.full(60, 2.0), True), (rng.normal(size=60), False)):
            ds = Dataset(y=y, delta=np.ones(60, dtype=int), x=x, t=t)
            fit = fit_direction_at(ds, 0.5, Bandwidths(h1=0.5, h2=0.5, h_link=0.5))
            assert (fit.iterations, fit.converged) == (3, flat)
            assert (fit.objective == 0.0) == flat

    def test_tiny_h1_with_tied_projections_stays_finite(self):
        # At h1 = 1e-300 the sorted evaluation's q overflows and its sums
        # turn NaN; every row has an exact tie, so each den is recomputed
        # from its kernel weights and the value is the dense formula's. The
        # overflow is expected, so neither a fit nor a public evaluation
        # warns of it.
        rng = np.random.default_rng(0)
        x = rng.normal(size=(100, 2))
        t = rng.uniform(0, 1, 100)
        y = rng.normal(size=100)
        ds = Dataset(
            y=np.concatenate([y, y + 1.0]),
            delta=np.ones(200, dtype=int),
            x=np.vstack([x, x]),
            t=np.concatenate([t, t]),
        )
        bw = Bandwidths(h1=1e-300, h2=2.0, h_link=1.0)
        theta = normalize_direction(direction_at_angles([0.3]))
        with np.errstate(over="ignore", invalid="ignore"):
            want = ReferenceObjective(ds, 0.5, bw).dense_value(theta.components)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = local_objective(ds, 0.5, theta, bw, EPAN)
            fit = fit_direction_at(ds, 0.5, bw)
            objectives = fit_model(ds, FitConfig(bandwidths=bw)).diagnostics["objectives"]
        assert want == pytest.approx(0.36676, rel=1e-5)
        assert value == pytest.approx(want, rel=1e-12)
        assert math.isfinite(fit.objective) and fit.converged
        # so is every grid point of a whole fit
        assert all(map(math.isfinite, objectives))

    def test_a_direction_near_the_equator_keeps_its_sign(self, monkeypatch):
        # A direction near (0, 1) has a first component near 0, so
        # Nelder-Mead asks for vertices past it; the chart folds them back,
        # and every fitted direction keeps a positive first component and a
        # finite objective.
        folded = []
        real = estimator._chart_point

        def watched(b0, basis, s):
            if (b0 + basis @ s)[0] < 0:
                folded.append(tuple(s))
            return real(b0, basis, s)

        monkeypatch.setattr(estimator, "_chart_point", watched)
        sim = SimConfig(n=500, seed=3, preset="constant", constant_direction=(0.01, 1.0))
        fit = fit_model(generate_dataset(sim, 0)[0], FitConfig())
        assert len(folded) >= 1
        assert all(map(math.isfinite, fit.diagnostics["objectives"]))
        assert np.all(fit.curves.matrix[:, 0] > 0)

    def test_response_scaling_leaves_argmin_unchanged(self):
        ds = constant_direction_data(seed=4, n=100, direction=(0.8, 0.6))
        scaled = Dataset(y=2.0 * ds.y, delta=ds.delta, x=ds.x, t=ds.t)
        bw = Bandwidths(h1=0.4, h2=0.3, h_link=0.4)
        fit_a = fit_direction_at(ds, 0.5, bw)
        fit_b = fit_direction_at(scaled, 0.5, bw)
        assert angular_error(fit_b.direction, fit_a.direction.components) < 1e-4

    def test_univariate_covariate_is_trivial(self):
        rng = np.random.default_rng(16)
        n = 40
        ds = Dataset(
            y=rng.normal(size=n),
            delta=np.ones(n, dtype=int),
            x=rng.normal(size=(n, 1)),
            t=rng.uniform(0, 1, n),
        )
        bw = Bandwidths(0.5, 0.5, 0.5)
        fit = fit_direction_at(ds, 0.5, bw)
        assert fit.direction.components.tolist() == [1.0]
        # The direction is not scored: no objective, no evaluations.
        active = int(np.count_nonzero(kernel_values(EPAN, (ds.t - 0.5) / bw.h2) > 0))
        assert fit == estimator.DirectionFit(fit.direction, None, 0, True, None, 0, active, 0)

    def test_univariate_covariate_evaluates_no_objective(self, monkeypatch):
        ds = line_dataset(np.linspace(-1.0, 1.0, 40), t=np.linspace(0.0, 1.0, 40))

        def fail(*args):
            raise AssertionError("the objective was evaluated at d = 1")

        monkeypatch.setattr(_LocalObjective, "__init__", fail)
        curves, fits = fit_coefficient_curves(ds, FitConfig(), Bandwidths(0.5, 0.3, 0.5))
        assert [f.objective for f in fits] == [None] * 21
        assert curves.matrix.tolist() == [[1.0]] * 21

    def test_unit_norm_and_positive_first_always(self):
        rng = np.random.default_rng(17)
        for seed in range(4):
            ds = constant_direction_data(
                seed=seed, n=80, direction=(0.6, 0.8), noise_sd=0.3
            )
            bw = select_bandwidths(ds, EPAN)
            fit = fit_direction_at(ds, float(rng.uniform(0, 1)), bw)
            assert abs(np.linalg.norm(fit.direction.components) - 1) <= 1e-12
            assert fit.direction.components[0] > 0


class TestFitCoefficientCurves:
    def test_grid_size_two(self):
        ds = constant_direction_data(seed=5, n=100, direction=(0.6, 0.8))
        config = FitConfig(t_grid_size=2)
        curves, fits = fit_coefficient_curves(ds, config, Bandwidths(0.4, 0.5, 0.4))
        assert curves.grid.tolist() == [0.0, 1.0]
        assert curves.matrix.shape == (2, 2)
        assert len(fits) == 2

    def test_constant_direction_recovery_full_grid(self):
        ds = constant_direction_data(seed=6, n=300, direction=(0.6, 0.8), noise_sd=0.05)
        config = FitConfig(t_grid_size=11)
        curves, _ = fit_coefficient_curves(ds, config, select_bandwidths(ds, EPAN))
        for row in curves.matrix:
            assert angular_error(UnitDirection(row), (0.6, 0.8)) < 0.05

    def test_cold_start_mode_matches_truth_too(self):
        # every grid point fitted on its own, without a warm start
        ds = constant_direction_data(seed=6, n=300, direction=(0.6, 0.8), noise_sd=0.05)
        bw = select_bandwidths(ds, EPAN)
        for t0 in FitConfig(t_grid_size=5).t_grid:
            fit = fit_direction_at(ds, float(t0), bw)
            assert angular_error(fit.direction, (0.6, 0.8)) < 0.05

    def test_errors_carry_grid_location(self):
        rng = np.random.default_rng(25)
        n = 12
        ds = Dataset(
            y=rng.normal(size=n),
            delta=np.ones(n, dtype=int),
            x=rng.normal(size=(n, 2)),
            t=np.linspace(0.3, 0.7, n),
        )
        config = FitConfig(t_grid_size=3)
        bw = Bandwidths(h1=1.0, h2=1e-4, h_link=1.0)
        with pytest.raises(EstimationError, match="t0=0"):
            fit_coefficient_curves(ds, config, bw)

    def test_iteration_cap_grows_with_d(self):
        # 150 up to d = 2, then 100 per tangent coordinate (d - 1 of them).
        assert [_max_iter(d) for d in (1, 2, 3, 5, 8)] == [150, 150, 200, 400, 700]

    def test_sweep_starts_the_first_point_at_the_centre(self, monkeypatch):
        dataset, _ = generate_dataset(SimConfig(n=500, seed=1729), 0)
        runs, centres = [], []
        real_nm, real_basis = estimator._nelder_mead, estimator._tangent_basis

        def nelder_mead(func, simplex, xatol, maxiter):
            runs.append(([list(v) for v in simplex], xatol, maxiter))
            return real_nm(func, simplex, xatol, maxiter)

        def tangent_basis(b0):
            centres.append(b0.tobytes())
            return real_basis(b0)

        monkeypatch.setattr(estimator, "_nelder_mead", nelder_mead)
        monkeypatch.setattr(estimator, "_tangent_basis", tangent_basis)
        monkeypatch.setattr(estimator, "_max_iter", lambda d: 40 * d)
        config = FitConfig(t_grid_size=6)
        _, fits = fit_coefficient_curves(dataset, config, select_bandwidths(dataset, EPAN))
        # One run per grid point, each to _XATOL under the cap for its d,
        # from the chart's centre and a step along each tangent axis.
        assert runs == [([[0.0], [_SIMPLEX_STEP]], _XATOL, 80)] * 6
        # The first chart is centred at (1, 0); every later one at its left
        # neighbour's direction.
        assert centres == [np.array([1.0, 0.0]).tobytes()] + [
            fit.direction.components.tobytes() for fit in fits[:-1]
        ]


def loop_index(dataset, curves):
    """Per-row oracle: interpolate, renormalize and project one row at a
    time with 1-D dot products."""
    grid, matrix = curves.grid, curves.matrix
    out = []
    for x, t in zip(dataset.x, dataset.t):
        k = int(np.searchsorted(grid, t))
        if k == 0 or k == grid.size or grid[k] == t:
            beta = matrix[min(k, grid.size - 1)]
        else:
            w = (t - grid[k - 1]) / (grid[k] - grid[k - 1])
            beta = normalize_direction((1.0 - w) * matrix[k - 1] + w * matrix[k]).components
        out.append(float(x @ beta))
    return np.array(out)


class TestComputeIndex:
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_bitwise_equal_to_per_row_loop(self, d):
        rng = np.random.default_rng(40 + d)
        for grid in (np.linspace(0.0, 1.0, 21), np.linspace(0.2, 0.8, 7)):
            curves = CoefficientCurves(
                grid=grid,
                matrix=[
                    normalize_direction(rng.normal(size=d) * np.sign(rng.normal())).components
                    for _ in grid
                ],
            )
            t = np.concatenate([rng.uniform(0, 1, 400), grid, [0.0, 1.0]])
            ds = Dataset(
                y=np.zeros(t.size),
                delta=np.ones(t.size, dtype=int),
                x=rng.normal(size=(t.size, d)),
                t=t,
            )
            assert np.array_equal(compute_index(ds, curves), loop_index(ds, curves))

    def test_univariate_covariate_interpolates_nothing(self, monkeypatch):
        ds = line_dataset(np.linspace(-1.0, 1.0, 40), t=np.linspace(0.0, 1.0, 40))
        grid = np.linspace(0.0, 1.0, 21)
        curves = CoefficientCurves(grid=grid, matrix=np.ones((21, 1)))

        def fail(*args):
            raise AssertionError("the curves were evaluated at d = 1")

        monkeypatch.setattr(estimator, "evaluate_curves", fail)
        assert np.array_equal(compute_index(ds, curves), ds.x[:, 0])

    def make_curves(self, d0, d1):
        return CoefficientCurves(
            grid=np.array([0.0, 1.0]),
            matrix=[normalize_direction(d0).components, normalize_direction(d1).components],
        )

    def test_axis_aligned(self):
        curves = self.make_curves([1.0, 0.0], [1.0, 0.0])
        ds = Dataset(
            y=np.zeros(2),
            delta=np.ones(2, dtype=int),
            x=np.array([[1.0, 0.0], [0.0, 0.0]]),
            t=np.array([0.3, 0.7]),
        )
        assert compute_index(ds, curves).tolist() == [1.0, 0.0]

    def test_interpolated_hand_fixture(self):
        curves = self.make_curves([1.0, 0.0], [0.6, 0.8])
        x = np.array([[1.0, 2.0], [0.5, -1.0]])
        t = np.array([0.5, 0.25])
        ds = Dataset(y=np.zeros(2), delta=np.ones(2, dtype=int), x=x, t=t)
        expected = []
        for i in range(2):
            w = t[i]
            blend = (1 - w) * np.array([1.0, 0.0]) + w * np.array([0.6, 0.8])
            blend = blend / np.linalg.norm(blend)
            expected.append(float(x[i] @ blend))
        assert np.allclose(compute_index(ds, curves), expected, atol=1e-14)


def link_cases():
    """(name, index, synthetic, link_grid, h): random index values and
    adversarial ones for the sorted windows of ``fit_link``."""
    rng = np.random.default_rng(77)
    grid = (-0.5, 0.5, 11)
    u0 = np.linspace(*grid)
    h = 0.1
    # Rows at the exact window ends u0 +- h and one float either side.
    ends = np.concatenate([u0 + h, u0 - h])
    edges = np.concatenate([ends, np.nextafter(ends, np.inf), np.nextafter(ends, -np.inf)])
    # Far from 0 the rounding of u0 +- h is large against h.
    far_grid = (1e6, 1e6 + 1e-6, 5)
    far_u0 = np.linspace(*far_grid)
    far = np.concatenate([far_u0 + 1e-9, far_u0 - 1e-9, np.nextafter(far_u0 + 1e-9, np.inf)])
    return [
        ("uniform", rng.uniform(-1, 1, 500), rng.uniform(0.5, 2.0, 500), (-0.5, 0.5, 100), 0.13),
        ("normal", rng.normal(size=3000), rng.normal(size=3000) + 2.0, (-0.5, 0.5, 100), 0.09),
        ("mixed-sign", rng.normal(size=800), rng.normal(size=800), (-1.0, 1.0, 41), 0.2),
        ("window-ends", edges, rng.uniform(0.5, 2.0, edges.size), grid, h),
        ("window-ends-far", far, rng.uniform(0.5, 2.0, far.size), far_grid, 1e-9),
        ("duplicates", rng.choice(u0[::2], 200), rng.uniform(0.5, 2.0, 200), grid, h),
        ("empty-windows", rng.uniform(-0.05, 0.05, 30), rng.uniform(0.5, 2.0, 30), grid, 0.12),
        ("all-off-grid", np.full(20, 100.0), rng.uniform(0.5, 2.0, 20), grid, h),
        ("past-every-window", u0[:1] + 38.0 * h + np.arange(3) * h, np.ones(3), grid, h),
        # Every weight ~0.75: the estimate is the mean, 2.
        ("wide-bandwidth", np.array([0.0, 1.0]), np.array([1.0, 3.0]), grid, 1e6),
        ("n0", np.array([]), np.array([]), grid, h),
        ("n1", np.array([0.05]), np.array([1.5]), grid, h),
        ("n2", np.array([0.3, 0.3]), np.array([1.0, 3.0]), grid, h),
        ("n3", np.array([-0.4, 0.0, 0.2]), np.array([1.0, 2.0, 4.0]), grid, h),
    ]


class TestFitLink:
    """``fit_link`` against the per-point loop over every row, its checks,
    and the ``LinkEstimate`` it returns."""

    @pytest.mark.parametrize("case", link_cases(), ids=lambda case: case[0])
    def test_matches_the_loop(self, case):
        _, index, synthetic, grid, h = case
        link = fit_link(index, synthetic, FitConfig(link_grid=grid), h)
        want, want_defined = loop_link(index, synthetic, link.u_grid, h, EPAN)
        assert np.array_equal(np.isnan(link.m_hat), ~want_defined)
        # Relative to the weighted mean of |synthetic|, which is |want|
        # where the responses are positive.
        scale, _ = loop_link(index, np.abs(synthetic), link.u_grid, h, EPAN)
        err = np.abs(link.m_hat - want)[want_defined]
        assert np.all(err <= 1e-12 * scale[want_defined])

    def test_tied_index_sums_in_row_order(self):
        # 23 distinct index values over 500 rows: each window's sums run
        # over tied rows in their row order, whatever order the CPU's
        # default sort would leave them in.
        rng = np.random.default_rng(5)
        index = np.round(rng.normal(size=500) / 0.25) * 0.25
        synthetic = rng.uniform(0.5, 2.0, 500)
        h = 0.3
        link = fit_link(index, synthetic, FitConfig(), h)
        order = np.lexsort((np.arange(index.size), index))
        p, ys = index[order], synthetic[order]
        for u0, got in zip(link.u_grid.tolist(), link.m_hat.tolist()):
            inside = np.abs(u0 - p) < h
            w = kernel_values(EPAN, (u0 - p[inside]) / h)
            assert got == float(w @ ys[inside]) / float(w.sum())

    def test_constant_synthetic_responses(self):
        rng = np.random.default_rng(18)
        index = rng.uniform(-1, 1, 300)
        synthetic = np.full(300, 4.0)
        config = FitConfig(link_grid=(-0.5, 0.5, 21))
        link = fit_link(index, synthetic, config, rule_of_thumb_bandwidth(index))
        assert not np.any(np.isnan(link.m_hat))
        assert np.allclose(link.m_hat, 4.0)

    def test_quadratic_oracle(self):
        rng = np.random.default_rng(19)
        u = rng.uniform(-1, 1, 2000)
        y = u ** 2
        config = FitConfig()
        link = fit_link(u, y, config, rule_of_thumb_bandwidth(u))
        k = int(np.argmin(np.abs(link.u_grid - 0.5)))
        assert abs(link.m_hat[k] - 0.25) < 0.05

    def test_estimates_stay_inside_synthetic_range(self):
        rng = np.random.default_rng(20)
        index = rng.normal(size=400)
        synthetic = np.abs(rng.normal(size=400)) * 3.0
        link = fit_link(index, synthetic, FitConfig(), rule_of_thumb_bandwidth(index))
        defined = link.m_hat[~np.isnan(link.m_hat)]
        assert np.all(defined >= synthetic.min() - 1e-12)
        assert np.all(defined <= synthetic.max() + 1e-12)

    def test_overflowing_window_sum_names_grid_point_without_warning(self):
        index = np.linspace(-1.0, 1.0, 50)
        synthetic = np.full(50, 1.7e308)
        config = FitConfig(link_grid=(-0.5, 0.5, 5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EstimationError, match=r"link window sum overflows at u0=-0\.5$"):
                fit_link(index, synthetic, config, 0.3)

    def test_link_estimate_invariants(self):
        with pytest.raises(ValueError):
            LinkEstimate(u_grid=np.array([0.0, 0.0]), m_hat=np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            LinkEstimate(u_grid=np.array([0.0, 1.0]), m_hat=np.array([np.inf, 2.0]))

    @pytest.mark.parametrize("sizes", [(3, 2), (2, 3)])
    def test_unequal_lengths_are_rejected(self, sizes):
        a, b = np.linspace(0.0, 1.0, sizes[0]), np.zeros(sizes[1])
        with pytest.raises(ValueError, match="^u_grid and m_hat must be equal-length vectors$"):
            LinkEstimate(u_grid=a, m_hat=b)
        with pytest.raises(ValueError, match="^index and synthetic must be equal-length vectors$"):
            fit_link(a, b, FitConfig(), 0.3)

    @pytest.mark.parametrize("h_link", [0.0, -0.3, np.nan])
    def test_fit_link_rejects_a_bandwidth_not_above_0(self, h_link):
        index = np.linspace(-1.0, 1.0, 20)
        with pytest.raises(ValueError, match="^bandwidth must be positive$"):
            fit_link(index, index**2, FitConfig(), h_link)

    @pytest.mark.parametrize(
        "u_grid", [[0.0, np.nan, 1.0], [np.nan, 1.0], [0.0, np.inf], [-np.inf, 0.0]]
    )
    def test_link_estimate_rejects_a_non_finite_grid(self, u_grid):
        with pytest.raises(ValueError, match="u_grid must be finite"):
            LinkEstimate(u_grid=np.array(u_grid), m_hat=np.zeros(len(u_grid)))

    def test_link_estimate_takes_a_step_too_wide_for_a_float(self):
        # The step from -1e308 to 1e308 overflows to inf, which still steps
        # up: the grid is accepted without a numpy warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            link = LinkEstimate(u_grid=np.array([-1e308, 1e308]), m_hat=np.zeros(2))
        assert link.u_grid.tolist() == [-1e308, 1e308]


class TestRowOrderInvariance:
    """A fit does not depend on the order of the rows. The curves and the
    link keep their bits on this data; the objectives and the bandwidths
    come from sums taken in row order (the centring ``y.mean()``,
    ``np.std``), so they may move in the last bits."""

    @pytest.mark.parametrize("n", [500, 2000])
    @pytest.mark.parametrize("seed", [1729, 8191])
    def test_permuted_rows_give_the_same_fit(self, n, seed):
        ds, _ = generate_dataset(SimConfig(n=n, seed=seed), 0)
        perm = np.random.default_rng(seed).permutation(n)
        permuted = Dataset(y=ds.y[perm], delta=ds.delta[perm], x=ds.x[perm], t=ds.t[perm])
        fit, refit = fit_model(ds, FitConfig()), fit_model(permuted, FitConfig())
        np.testing.assert_allclose(refit.curves.matrix, fit.curves.matrix, rtol=0, atol=1e-12)
        np.testing.assert_allclose(refit.link.m_hat, fit.link.m_hat, rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            refit.diagnostics["objectives"], fit.diagnostics["objectives"], rtol=1e-12
        )
        np.testing.assert_allclose(
            dataclasses.astuple(refit.bandwidths), dataclasses.astuple(fit.bandwidths), rtol=1e-12
        )


class TestCovariateShift:
    """The link absorbs a shift of the covariates, and on this data Stage 1
    does not see it either: the curves keep their bits. The link and the
    objectives move, so only the curves are compared."""

    @pytest.mark.parametrize("seed", [1729, 8191])
    @pytest.mark.parametrize(
        "sim",
        [{}, {"preset": "constant", "constant_direction": (1.0, 0.5)}],
        ids=["paper", "constant"],
    )
    def test_shifted_covariates_give_the_same_curves(self, sim, seed):
        ds, _ = generate_dataset(SimConfig(n=500, seed=seed, **sim), 0)
        shifted = Dataset(y=ds.y, delta=ds.delta, x=ds.x + 3.0, t=ds.t)
        fit, refit = fit_model(ds, FitConfig()), fit_model(shifted, FitConfig())
        assert refit.curves.matrix.tobytes() == fit.curves.matrix.tobytes()


class TestFitModel:
    def small_config(self):
        return FitConfig(t_grid_size=5, link_grid=(-0.5, 0.5, 21))

    def test_uncensored_synthetic_equals_response(self):
        rng = np.random.default_rng(22)
        n = 80
        x = rng.standard_normal((n, 2))
        t = rng.uniform(0, 1, n)
        y = (x @ np.array([0.6, 0.8])) ** 2 + 1.0
        ds = Dataset(y=y, delta=np.ones(n, dtype=int), x=x, t=t)
        fit = fit_model(ds, self.small_config())
        assert np.array_equal(fit.synthetic, y)

    def test_responses_near_the_float_maximum_fail_stage_2_without_warning(self):
        # Uncensored, so T* = y and the link windows over these rows overflow;
        # Stage 1 centres y on its mean, which overflows too.
        ds, truth = generate_dataset(SimConfig(n=500, seed=1729), 0)
        y = np.where(np.abs(truth.index) < 0.05, 1.7e308, ds.y)
        big = Dataset(y=y, delta=np.ones(ds.n, dtype=int), x=ds.x, t=ds.t)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                EstimationError, match=r"^stage 2 \(synthetic link\): link window sum overflows"
            ):
                fit_model(big, self.small_config())

    def test_deterministic(self):
        ds = constant_direction_data(seed=23, n=80, direction=(0.6, 0.8), noise_sd=0.1)
        config = self.small_config()
        fit_a = fit_model(ds, config)
        fit_b = fit_model(ds, config)
        assert np.array_equal(fit_a.curves.matrix, fit_b.curves.matrix)
        assert np.array_equal(fit_a.link.m_hat, fit_b.link.m_hat, equal_nan=True)
        assert fit_a.diagnostics["objectives"] == fit_b.diagnostics["objectives"]

    def test_diagnostics_shape(self):
        ds = constant_direction_data(seed=24, n=80, direction=(0.6, 0.8), noise_sd=0.1)
        config = self.small_config()
        fit = fit_model(ds, config)
        assert len(fit.diagnostics["objectives"]) == config.t_grid_size
        assert len(fit.diagnostics["iterations"]) == config.t_grid_size
        assert fit.bandwidths.h1 > 0

    def test_diagnostics_count_evaluations_and_active_rows(self):
        ds = constant_direction_data(seed=24, n=80, direction=(0.6, 0.8), noise_sd=0.1)
        config = self.small_config()
        fit = fit_model(ds, config)
        diag = fit.diagnostics
        h2 = fit.bandwidths.h2
        want_rows = [
            int(np.count_nonzero(kernel_values(EPAN, (ds.t - t0) / h2) > 0))
            for t0 in config.t_grid
        ]
        assert diag["active_rows"] == want_rows
        # one run per grid point: its initial simplex of d vertices, then
        # at least one evaluation in each later iteration
        for nfev, nit in zip(diag["nfev"], diag["iterations"]):
            assert nfev >= ds.d + nit - 1

    def test_univariate_diagnostics_record_no_evaluations(self):
        rng = np.random.default_rng(25)
        n = 60
        ds = Dataset(
            y=rng.normal(size=n),
            delta=np.ones(n, dtype=int),
            x=rng.normal(size=(n, 1)),
            t=rng.uniform(0, 1, n),
        )
        config = self.small_config()
        fit = fit_model(ds, config)
        diag = fit.diagnostics
        assert diag["nfev"] == diag["iterations"] == diag["objective_calls"] == [0] * 5
        # No objective is computed at d = 1, so none is reported.
        assert diag["objectives"] == diag["skipped_rows"] == [None] * 5
        assert diag["converged"] == [True] * 5 and diag["non_converged_points"] == 0
        h2 = fit.bandwidths.h2
        assert diag["active_rows"] == [
            int(np.count_nonzero(kernel_values(EPAN, (ds.t - t0) / h2) > 0))
            for t0 in config.t_grid
        ]
        assert all(m >= 2 for m in diag["active_rows"])

    @pytest.mark.parametrize("d", [1, 2])
    def test_insufficient_local_sample_has_one_text(self, d):
        rng = np.random.default_rng(26)
        n = 12
        ds = Dataset(
            y=rng.normal(size=n),
            delta=np.ones(n, dtype=int),
            x=rng.normal(size=(n, d)),
            t=np.linspace(0.3, 0.7, n),
        )
        config = FitConfig(t_grid_size=3, bandwidths=Bandwidths(h1=1.0, h2=1e-4, h_link=1.0))
        with pytest.raises(EstimationError) as excinfo:
            fit_model(ds, config)
        assert str(excinfo.value) == (
            "stage 1 (direction curves): insufficient local sample at t0=0.0: 0 rows carry weight"
        )

    def test_stage_labelled_errors(self):
        rng = np.random.default_rng(26)
        n = 12
        ds = Dataset(
            y=rng.normal(size=n),
            delta=np.ones(n, dtype=int),
            x=rng.normal(size=(n, 2)),
            t=np.linspace(0.3, 0.7, n),
        )
        config = FitConfig(
            t_grid_size=3, bandwidths=Bandwidths(h1=1.0, h2=1e-4, h_link=1.0)
        )
        with pytest.raises(EstimationError, match="stage 1"):
            fit_model(ds, config)

    @staticmethod
    def refused_before_stage_1(monkeypatch, ds, bandwidths):
        """The EstimationError ``fit_model`` raises before it selects a
        bandwidth or fits a direction."""

        def never(*args, **kwargs):
            raise AssertionError("the fit went on")

        monkeypatch.setattr(estimator, "select_bandwidths", never)
        monkeypatch.setattr(estimator, "fit_coefficient_curves", never)
        with pytest.raises(EstimationError) as excinfo:
            fit_model(ds, FitConfig(bandwidths=bandwidths))
        return str(excinfo.value)

    @pytest.mark.parametrize("bandwidths", ["auto", Bandwidths(h1=0.5, h2=0.3, h_link=0.3)])
    def test_no_uncensored_row_is_refused(self, monkeypatch, bandwidths):
        ds, _ = generate_dataset(SimConfig(n=300, seed=1729), 0)
        censored = Dataset(y=np.abs(ds.y), delta=np.zeros(ds.n, dtype=int), x=ds.x, t=ds.t)
        message = self.refused_before_stage_1(monkeypatch, censored, bandwidths)
        assert message == "no uncensored row: every row has delta = 0"

    @pytest.mark.parametrize("bandwidths", ["auto", Bandwidths(h1=0.5, h2=0.3, h_link=0.3)])
    @pytest.mark.parametrize("d, column", [(1, 0), (2, 1), (3, 0), (3, 2)])
    def test_constant_covariate_is_refused_by_name(self, monkeypatch, bandwidths, d, column):
        rng = np.random.default_rng(27)
        x = rng.normal(size=(40, d))
        x[:, column] = -1.5
        ds = Dataset(
            y=rng.normal(size=40), delta=np.ones(40, dtype=int), x=x, t=rng.uniform(size=40)
        )
        message = self.refused_before_stage_1(monkeypatch, ds, bandwidths)
        assert message == f"covariate x{column + 1} is constant, so the direction is not identified"

    @pytest.mark.parametrize("bandwidths", ["auto", Bandwidths(h1=0.5, h2=0.3, h_link=0.3)])
    @pytest.mark.parametrize(
        "combine, column",
        [
            (lambda x: 2.0 * x[:, 0], 1),
            (lambda x: x[:, 0] + x[:, 1], 2),
            # The link absorbs a shift, so an affine combination is refused too.
            (lambda x: 3.0 - 0.5 * x[:, 1], 2),
        ],
        ids=["x2=2x1", "x3=x1+x2", "x3=3-x2/2"],
    )
    def test_dependent_covariate_is_refused_by_name(self, monkeypatch, bandwidths, combine, column):
        ds, _ = generate_dataset(SimConfig(n=500, seed=1729), 0)
        x = np.column_stack([ds.x, np.random.default_rng(29).normal(size=ds.n)])
        x[:, column] = combine(x)
        dependent = Dataset(y=ds.y, delta=ds.delta, x=x[:, : column + 1], t=ds.t)
        message = self.refused_before_stage_1(monkeypatch, dependent, bandwidths)
        assert message == (
            f"covariate x{column + 1} is a linear combination of the covariates before it,"
            " so the direction is not identified"
        )

    def test_constant_column_is_named_before_a_dependent_one(self, monkeypatch):
        rng = np.random.default_rng(30)
        x = rng.normal(size=(40, 3))
        x[:, 1], x[:, 2] = 2.0 * x[:, 0], 0.5
        ds = Dataset(
            y=rng.normal(size=40), delta=np.ones(40, dtype=int), x=x, t=rng.uniform(size=40)
        )
        message = self.refused_before_stage_1(monkeypatch, ds, "auto")
        assert message == "covariate x3 is constant, so the direction is not identified"

    def test_near_dependence_is_left_alone(self):
        x = np.random.default_rng(31).normal(size=(500, 3))
        x[:, 2] = x[:, 0] + x[:, 1] + 1e-6 * x[:, 2]
        assert _first_dependent_column(x) is None
        x[:, 2] = x[:, 0] + x[:, 1]
        assert _first_dependent_column(x) == 2
        # Nearly parallel columns leave a residual that one Gram-Schmidt
        # pass does not clear: a column that depends on them exactly is
        # found only after the second pass.
        x = np.random.default_rng(31).normal(size=(500, 3))
        x[:, 1] = x[:, 0] + 1e-7 * x[:, 1]
        assert _first_dependent_column(x[:, :2]) is None
        x[:, 2] = 0.5 * x[:, 0] - 2.0 * x[:, 1]
        assert _first_dependent_column(x) == 2

    @pytest.mark.parametrize("column", [[1e300, 0.0, 0.0], [5e-324, 0.0, 0.0]])
    def test_rank_is_not_taken_on_an_sd_out_of_range(self, column):
        # An sd that overflows, or underflows to 0, would scale the column
        # to zeros or NaN; bandwidth selection names the overflow instead.
        x = np.column_stack([column, [1.0, 2.0, 4.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _first_dependent_column(x) is None

    def test_rank_check_agrees_with_matrix_rank(self):
        # Column j is an exact affine combination of the columns before it,
        # over a family of column scales and shifts, or such a combination
        # perturbed by 1e-9 or 1e-6 of its sd, which makes it independent.
        # The reference is the rule this check replaced.
        def matrix_rank_rule(x):
            z = (x - x.mean(axis=0)) / x.std(axis=0)
            d = x.shape[1]
            return next((j for j in range(1, d) if np.linalg.matrix_rank(z[:, : j + 1]) <= j), None)

        cases = agreed = 0
        for n in (10, 40, 500, 2000):
            for d in range(2, 9):
                rng = np.random.default_rng((35, n, d))
                for _ in range(48):
                    for relative in (0.0, 1e-9, 1e-6):
                        scales = 10.0 ** rng.uniform(-3.0, 3.0, d)
                        shifts = rng.uniform(-5.0, 5.0, d)
                        x = rng.standard_normal((n, d)) * scales + shifts
                        j = int(rng.integers(1, d))
                        coefficients = rng.uniform(-1.0, 1.0, j) * scales[j] / scales[:j]
                        x[:, j] = x[:, :j] @ coefficients + shifts[j]
                        x[:, j] += relative * x[:, j].std() * rng.standard_normal(n)
                        found, reference = _first_dependent_column(x), matrix_rank_rule(x)
                        if relative:
                            assert found is None, (n, d, relative)
                        elif reference is not None:
                            assert found == j, (n, d, j, reference)
                        cases += 1
                        agreed += found == reference
        assert cases == 4032
        # Every disagreement is an exact dependence only Gram-Schmidt
        # refuses: 3 881 of 4 032 cases agree on numpy 2.4.
        assert agreed >= 0.95 * cases, agreed

    def test_a_fit_calls_no_lapack_routine(self, monkeypatch, tmp_path):
        def lapack(*args, **kwargs):
            raise AssertionError("a LAPACK routine was called")

        for name in (
            "svd", "svdvals", "qr", "cholesky", "eig", "eigh", "eigvals", "eigvalsh",
            "solve", "inv", "pinv", "lstsq", "det", "slogdet", "matrix_rank", "cond",
        ):
            # svdvals is new in numpy 2.0.
            monkeypatch.setattr(np.linalg, name, lapack, raising=False)
        config = FitConfig(t_grid_size=5)
        for d in (2, 3):
            rng = np.random.default_rng(36)
            x = rng.normal(size=(150, d))
            ds = Dataset(
                y=x @ np.linspace(1.0, 0.5, d) + 0.1 * rng.normal(size=150),
                delta=np.ones(150, dtype=int),
                x=x,
                t=rng.uniform(size=150),
            )
            assert fit_model(ds, config).curves.matrix.shape == (5, d)
        x = x[:, :2].copy()
        x[:, 1] = 2.0 * x[:, 0]
        dependent = dataclasses.replace(ds, x=x)
        with pytest.raises(EstimationError, match="^covariate x2 is a linear combination"):
            fit_model(dependent, config)
        summary = run_monte_carlo(SimConfig(n=120, reps=2, seed=11), config, workers=1)
        assert not summary.failures
        # The figures' study runs on a pool when there are cores for one;
        # forked workers inherit the blocked names.
        figures = ["reproduce-figures", "--reps", "2", "--seed", "7", "--out", str(tmp_path)]
        assert cli.main(figures) == cli.EXIT_OK

    def test_constant_modifier_keeps_its_message(self):
        rng = np.random.default_rng(28)
        ds = Dataset(
            y=rng.normal(size=40),
            delta=np.ones(40, dtype=int),
            x=rng.normal(size=(40, 2)),
            t=np.full(40, 0.5),
        )
        with pytest.raises(EstimationError, match="^degenerate predictor: zero sample variance$"):
            fit_model(ds, FitConfig())


class TestFitConfigValidation:
    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            FitConfig(t_grid_size=1)
        with pytest.raises(ValueError, match="link_grid min must be below max"):
            FitConfig(link_grid=(0.5, -0.5, 10))
        with pytest.raises(ValueError):
            FitConfig(bandwidths="magic")

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"link_grid": (-0.5, 0.5, 10.9)}, "link_grid count"),
            ({"link_grid": (-0.5, 0.5, 10.0)}, "link_grid count"),
            ({"link_grid": (-0.5, 0.5, True)}, "link_grid count"),
            ({"t_grid_size": 5.7}, "t_grid_size"),
            ({"t_grid_size": 21.0}, "t_grid_size"),
            ({"t_grid_size": None}, "t_grid_size"),
            ({"t_grid_size": True}, "t_grid_size"),
            ({"link_grid": (-0.5, 0.5, None)}, "link_grid count"),
            ({"t_grid_size": "21"}, "t_grid_size"),
            ({"link_grid": (-0.5, 0.5, "100")}, "link_grid count"),
            ({"link_grid": 5}, "link_grid"),
            ({"link_grid": (0, 1)}, "link_grid"),
            ({"link_grid": ("0", 1, 5)}, "link_grid min"),
            ({"link_grid": (True, 2, 5)}, "link_grid min"),
        ],
    )
    def test_counts_must_be_integers(self, kwargs, field):
        # Counts must be integers; the other fields say what they need.
        need = {
            "link_grid min": "be a finite number",
            "link_grid": r"hold 3 values \[min, max, count\]",
        }.get(field, "be an integer")
        with pytest.raises(ValueError, match=f"^{field} must {need}"):
            FitConfig(**kwargs)

    def test_numpy_integer_counts_are_ints(self):
        config = FitConfig(t_grid_size=np.int64(5), link_grid=(-1, 1, np.int32(7)))
        assert type(config.t_grid_size) is int and config.link_grid == (-1.0, 1.0, 7)
        assert config.u_grid.size == 7

    def test_rejects_bad_optimizer(self):
        # Each grid point runs once, so there are no restarts to set, and
        # the iteration cap is a rule of d, not a setting.
        with pytest.raises(TypeError, match="max_iter"):
            FitConfig(max_iter=150)
        with pytest.raises(TypeError, match="restarts"):
            FitConfig(restarts=1)
        with pytest.raises(TypeError, match="optimizer"):
            FitConfig(optimizer=None)


def scipy_nelder_mead(func, simplex, xatol, maxiter, fatol=math.inf):
    """``_nelder_mead`` computed by scipy, the routine it reproduces at
    ``fatol = inf``."""
    sim = np.asarray(simplex, dtype=float)
    res = optimize.minimize(
        func,
        sim[0],
        method="Nelder-Mead",
        options={"initial_simplex": sim, "xatol": xatol, "fatol": fatol, "maxiter": maxiter},
    )
    return _Simplex(
        tuple(res.x), res.nit, res.nfev, bool(res.success), tuple(res.final_simplex[1])
    )


def assert_same_run(ours, ref):
    """Equal bit for bit: x and fsim as IEEE bytes, counts and flag exactly."""
    assert np.asarray(ours.x, dtype=float).tobytes() == np.asarray(ref.x, dtype=float).tobytes()
    assert np.asarray(ours.fsim, dtype=float).tobytes() == np.asarray(ref.fsim, dtype=float).tobytes()
    assert (ours.nit, ours.nfev, ours.success) == (ref.nit, ref.nfev, ref.success)


def nm_smooth(x):
    x = np.asarray(x, dtype=float)
    i = np.arange(1, x.size + 1)
    return float(np.sum(i * (x - 0.3) ** 2) + 0.1 * np.sum(x) ** 4 + np.sum(x[:-1] * x[1:]))


def nm_rosenbrock(x):
    x = np.asarray(x, dtype=float)
    if x.size == 1:
        return float((1.0 - x[0]) ** 2 + 5.0 * x[0] ** 4)
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


def nm_kinked(x):
    # Unequal weights keep vertex values apart (see nm_stepped for ties).
    x = np.asarray(x, dtype=float)
    weights = 1.0 + np.sqrt(np.arange(2, x.size + 2)) / 10.0
    return float(np.sum(weights * np.abs(x - 0.25)) + 2.0 * abs(np.sum(x)))


# The edge of the box outside which nm_penalized is a plateau.
NM_BOX = math.pi / 2 - 1e-9


def nm_penalized(x):
    # A bowl centred outside a box, and a sloped 1e12 plateau outside it.
    x = np.asarray(x, dtype=float)
    excess = np.abs(x) - NM_BOX
    if np.any(excess > 0):
        return 1e12 * (1.0 + float(np.sum(np.maximum(excess, 0.0))))
    return float(np.sum((x - 1.6) ** 2))


def nm_stepped(x):
    # Piecewise constant: vertices tie exactly and contractions fail.
    return math.floor(4.0 * nm_smooth(x)) / 4.0


def nm_nan_region(x):
    x = np.asarray(x, dtype=float)
    return math.nan if x[0] > 0.28 else nm_smooth(x)


def nm_well(x):
    # A bowl within 0.5 of (0.0101, 0.0052), flat outside: from the
    # fixture simplex only the shrink finds it, between vertices of
    # opposite sign, where v0 + 0.5 (vj - v0) and 0.5 v0 + 0.5 vj round
    # apart.
    d2 = (x[0] - 0.0101) ** 2 + (x[1] - 0.0052) ** 2
    return d2 if d2 < 0.25 else 100.0


def nm_zero_sign(x):
    # Sees the sign of a zero: the centroid of the single best vertex -0.0
    # is +0.0, because numpy sums from +0.0.
    return math.copysign(1e-3, x[0]) + x[0] * x[0]


def axis_simplex(x0, step):
    """x0 and, for each coordinate k, x0 with ``step`` added to x0[k]."""
    return [list(x0)] + [[a + step if j == k else a for j, a in enumerate(x0)] for k in range(len(x0))]


def nm_start(n, seed=3):
    return axis_simplex(np.random.default_rng(seed).uniform(-1, 1, n).tolist(), 0.1)


def nm_cases():
    # Exact ties appear only at N <= 2: numpy's default argsort, which
    # scipy sorts with, is stable up to three elements, but beyond that
    # its order of tied values depends on the CPU's sorting network.
    cases = []
    for n in (1, 2, 3, 5):
        cases += [
            (f"smooth-{n}", nm_smooth, nm_start(n), 400 * n, set()),
            (f"rosenbrock-{n}", nm_rosenbrock, nm_start(n), 400 * n, set()),
            (f"rosenbrock-maxiter-{n}", nm_rosenbrock, nm_start(n), 7, {"maxiter"}),
            (f"kinked-{n}", nm_kinked, nm_start(n), 400 * n, set()),
        ]
    for n in (1, 2):
        box_start = axis_simplex([NM_BOX - 0.05] * n, -0.1)
        cases += [
            (f"penalized-{n}", nm_penalized, box_start, 150, {"plateau"}),
            (f"stepped-{n}", nm_stepped, nm_start(n), 150, {"shrink", "ties"}),
            (f"nan-recovers-{n}", nm_nan_region, nm_start(n, seed=0), 150, {"nan"}),
            (f"nan-stuck-{n}", nm_nan_region, nm_start(n, seed=4), 150, {"nan", "maxiter", "shrink"}),
        ]
    well_start = [[0.3, 0.21], [-0.27, -0.19], [-3.0, 2.5]]
    cases += [
        ("shrink-finds-well-2", nm_well, well_start, 2, {"maxiter", "shrink"}),
        ("zero-sign-1", nm_zero_sign, [[-0.0], [0.0]], 10, {"maxiter", "shrink", "zero-span"}),
        # Capped with a NaN vertex left: fsim ends in NaN, x is the best number.
        ("nan-capped-1", nm_nan_region, nm_start(1, seed=0), 3, {"nan", "maxiter"}),
    ]
    return cases


# The objective shapes the fit's coordinate-only stop is checked on:
# smooth, kinked and a plateau.
ANGLE_ONLY_CASES = ("smooth-", "kinked-", "penalized-")


class TestNelderMead:
    @pytest.mark.parametrize(
        "func, simplex, maxiter, traits",
        [case[1:] for case in nm_cases()],
        ids=[case[0] for case in nm_cases()],
    )
    def test_matches_scipy_bit_for_bit(self, func, simplex, maxiter, traits):
        seen = []

        def recorded(x):
            value = func(x)
            seen.append(value)
            return value

        # A simplex on one point passes any xatol >= 0 at once; a negative
        # one never passes, so the run goes on to its cap.
        xatol = -1.0 if "zero-span" in traits else 1e-5
        ours = _nelder_mead(recorded, simplex, xatol, maxiter)
        assert_same_run(ours, scipy_nelder_mead(func, simplex, xatol, maxiter))
        assert len(seen) == ours.nfev
        # The case exercises what it is named for.
        n = len(simplex) - 1
        assert ("maxiter" in traits) == (not ours.success)
        if "maxiter" in traits:
            assert ours.nit == maxiter
        if "shrink" in traits:
            # Without a shrink an iteration evaluates at most twice.
            assert ours.nfev > n + 1 + 2 * (ours.nit - 1)
        if "ties" in traits:
            assert len(set(ours.fsim)) < len(ours.fsim)
        if "plateau" in traits:
            assert max(seen) >= 1e12
        if "nan" in traits:
            assert any(math.isnan(v) for v in seen)

    @pytest.mark.parametrize(
        "func, simplex, maxiter",
        [case[1:4] for case in nm_cases() if case[0].startswith(ANGLE_ONLY_CASES)],
        ids=[case[0] for case in nm_cases() if case[0].startswith(ANGLE_ONLY_CASES)],
    )
    def test_angle_only_stop_matches_scipy(self, func, simplex, maxiter):
        # The stopping rule of the fit: no value test, vertices within _XATOL.
        ours = _nelder_mead(func, simplex, _XATOL, maxiter)
        assert_same_run(ours, scipy_nelder_mead(func, simplex, _XATOL, maxiter))
        assert ours.success

    def test_angle_only_stop_ends_at_the_first_narrow_simplex(self):
        simplex = axis_simplex([0.7], 0.1)
        res = _nelder_mead(nm_kinked, simplex, _XATOL, 150)

        def span_tested_at(k):
            # scipy's final simplex when capped at k iterations is the one
            # the stop test sees at iteration k; xatol = 0 never passes.
            options = {"initial_simplex": simplex, "xatol": 0.0, "fatol": math.inf, "maxiter": k}
            ref = optimize.minimize(nm_kinked, simplex[0], method="Nelder-Mead", options=options)
            return float(np.ptp(ref.final_simplex[0]))

        spans = [span_tested_at(k) for k in range(1, res.nit + 1)]
        assert res.success
        assert spans[-1] <= _XATOL < min(spans[:-1])
        # SciPy's value test would have gone on polishing past that point.
        valued = scipy_nelder_mead(nm_kinked, simplex, _XATOL, 150, fatol=1e-8)
        assert valued.success and valued.nit > res.nit and valued.nfev > res.nfev

    def test_nan_never_passes_the_stop_test(self):
        # Every vertex NaN: scipy's max of NaN differences fails the
        # tolerance test, so the run goes on to the cap.
        res = _nelder_mead(lambda x: math.nan, [[0.0], [0.1]], 1.0, 20)
        assert (res.nit, res.success) == (20, False)
        assert all(math.isnan(f) for f in res.fsim)

    def test_ties_keep_their_order(self):
        res = _nelder_mead(lambda x: 1.0, [[0.3, 0.0], [0.1, 0.0], [0.2, 0.0]], 1e-5, 2)
        assert res.fsim == (1.0, 1.0, 1.0)
        assert res.x == (0.3, 0.0)


def mirrored_quadratic_data():
    """Mirrored rows: the objective is even in the second component, and
    a quadratic link puts its two minima at +-0.9 rad from (1, 0)."""
    rng = np.random.default_rng(77)
    n = 120
    x1 = rng.normal(size=n)
    x2 = rng.normal(size=n)
    t = rng.uniform(0, 1, n)
    y = (math.cos(0.9) * x1 + math.sin(0.9) * x2) ** 2
    return Dataset(
        y=np.concatenate([y, y]),
        delta=np.ones(2 * n, dtype=int),
        x=np.vstack([np.column_stack([x1, x2]), np.column_stack([x1, -x2])]),
        t=np.concatenate([t, t]),
    )


def direction_fit_cases():
    """The datasets, grid points, bandwidths and warm starts of
    ``TestFitDirectionAt``, plus one d = 3 fit and one grid point of the
    paper's model at n = 2 000."""
    bw = Bandwidths(h1=0.4, h2=0.3, h_link=0.4)
    ds1 = constant_direction_data(seed=1, n=200, direction=(0.6, 0.8))
    ds4 = constant_direction_data(seed=4, n=100, direction=(0.8, 0.6))
    cases = [
        (ds1, 0.5, select_bandwidths(ds1, EPAN), None),
        (constant_direction_data(seed=2, n=120, direction=(0.6, 0.8)), 0.5, bw,
         normalize_direction([0.6, 0.8])),
        (constant_direction_data(seed=3, n=120, direction=(0.6, 0.8), noise_sd=0.1), 0.5, bw, None),
        (mirrored_quadratic_data(), 0.5, Bandwidths(h1=0.5, h2=0.6, h_link=0.5), None),
        (ds4, 0.5, bw, None),
        (Dataset(y=2.0 * ds4.y, delta=ds4.delta, x=ds4.x, t=ds4.t), 0.5, bw, None),
    ]
    rng = np.random.default_rng(17)
    for seed in range(4):
        ds = constant_direction_data(seed=seed, n=80, direction=(0.6, 0.8), noise_sd=0.3)
        cases.append((ds, float(rng.uniform(0, 1)), select_bandwidths(ds, EPAN), None))
    rng = np.random.default_rng(18)
    x = rng.standard_normal((150, 3))
    ds3 = Dataset(
        y=np.tanh(x @ np.array([0.6, 0.64, 0.48])) + rng.normal(0, 0.1, 150),
        delta=np.ones(150, dtype=int),
        x=x,
        t=rng.uniform(0, 1, 150),
    )
    cases.append((ds3, 0.4, select_bandwidths(ds3, EPAN), normalize_direction([0.6, 0.6, 0.5])))
    paper, _ = generate_dataset(SimConfig(n=2000, seed=1729), 0)
    cases.append((paper, 0.5, select_bandwidths(paper, EPAN), None))
    return cases


def chart_of(dataset, warm):
    """The centre and tangent basis of the chart ``fit_direction_at``
    searches from the warm start ``warm`` (None at the first grid point)."""
    b0 = np.eye(dataset.d)[0] if warm is None else warm.components
    return b0, _tangent_basis(b0)


def fit_objective(dataset, t0, bw, warm):
    """The chart objective ``fit_direction_at`` minimizes."""
    obj = _LocalObjective(dataset, t0, bw)
    b0, basis = chart_of(dataset, warm)

    def score(s):
        theta = _chart_point(b0, basis, s)
        return math.inf if theta is None else obj.value(theta)[0]

    return score


def assert_one_run(dataset, t0, bw, warm):
    """Fit once, recording each vertex Nelder-Mead asks for with the value
    it gets and each pair ``_LocalObjective.value`` returns, and check the
    fit against scipy's uncached run on the chart objective.

    ``perfbench/spans.py`` times the objective as the calls of
    ``_LocalObjective.value``, so a value that reached Nelder-Mead another
    way would escape that span: each must be the very float a call of
    ``value`` returned."""
    seen, returned = [], []
    real_nm, real_value = estimator._nelder_mead, _LocalObjective.value

    def nelder_mead(func, *args):
        def logged(s):
            before = len(returned)
            seen.append((tuple(s), func(s), returned[before:]))
            return seen[-1][1]

        return real_nm(logged, *args)

    def recorded_value(self, theta):
        returned.append((tuple(theta), real_value(self, theta)))
        return returned[-1][1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(estimator, "_nelder_mead", nelder_mead)
        patch.setattr(_LocalObjective, "value", recorded_value)
        fit = fit_direction_at(dataset, t0, bw, warm_start=warm)
    # The fit is the uninterrupted _XATOL run in its start's chart, from
    # the centre and a step along each tangent axis, to the cap for its d.
    b0, basis = chart_of(dataset, warm)
    simplex = axis_simplex([0.0] * (dataset.d - 1), _SIMPLEX_STEP)
    objective = fit_objective(dataset, t0, bw, warm)
    ref = scipy_nelder_mead(objective, simplex, _XATOL, _max_iter(dataset.d))
    assert fit.direction.components.tobytes() == _chart_point(b0, basis, ref.x).tobytes()
    assert np.float64(fit.objective).tobytes() == np.float64(ref.fsim[0]).tobytes()
    assert (fit.iterations, fit.evaluations) == (ref.nit, ref.nfev)
    assert fit.converged == (ref.success or ref.fsim[-1] - ref.fsim[0] <= _FLAT_TOL)
    # A vertex's pair is computed at its first request, where it has a
    # direction, and never again, and each value Nelder-Mead got is the
    # float of that pair.
    pairs = {}
    for s, f, computed in seen:
        if s in pairs:
            assert computed == []
        else:
            theta = _chart_point(b0, basis, s)
            assert [t for t, _ in computed] == ([] if theta is None else [tuple(theta)])
            pairs[s] = computed[0][1] if computed else None
        assert f == math.inf if pairs[s] is None else f is pairs[s][0]
    # Nothing is computed but at a request: none after the run.
    assert sum(len(computed) for _, _, computed in seen) == len(returned)
    assert fit.objective_calls == len(pairs)
    # The fit's objective and skipped rows are its best vertex's pair.
    assert fit.objective is pairs[tuple(ref.x)][0]
    assert fit.skipped_rows == pairs[tuple(ref.x)][1]


@pytest.mark.parametrize("case", direction_fit_cases())
def test_each_search_is_the_scipy_run_scored_once_per_vertex(case):
    assert_one_run(*case)


class TestVertexCache:
    def test_diagnostics_record_objective_calls(self, monkeypatch):
        config = FitConfig(t_grid_size=5, link_grid=(-0.5, 0.5, 21))
        ds = constant_direction_data(seed=24, n=80, direction=(0.6, 0.8), noise_sd=0.1)
        diag = fit_model(ds, config).diagnostics
        assert len(diag["objective_calls"]) == 5
        assert all(0 < c <= e for c, e in zip(diag["objective_calls"], diag["nfev"]))
        rng = np.random.default_rng(25)
        flat = Dataset(
            y=rng.normal(size=60),
            delta=np.ones(60, dtype=int),
            x=rng.normal(size=(60, 1)),
            t=rng.uniform(0, 1, 60),
        )
        assert fit_model(flat, config).diagnostics["objective_calls"] == [0] * 5
        # A default fit at n = 2 000 scores every grid point, and in all
        # makes 302 distinct calls on numpy 2.4: the first grid point starts
        # at (1, 0), every later one from its left neighbour's direction.
        # Those are all the objective's computations in the fit.
        paper, _ = generate_dataset(SimConfig(n=2000, seed=7), 0)
        calls, real_value = [], _LocalObjective.value

        def value(self, theta):
            calls.append(None)
            return real_value(self, theta)

        monkeypatch.setattr(_LocalObjective, "value", value)
        diag = fit_model(paper, FitConfig()).diagnostics
        assert all(map(math.isfinite, diag["objectives"]))
        assert sum(diag["objective_calls"]) < 400
        assert len(calls) == sum(diag["objective_calls"])
