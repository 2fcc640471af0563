"""Tests for the domain types, validation, and curve evaluation."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sivc import (
    CoefficientCurves,
    Dataset,
    LinkEstimate,
    SurvivalCurve,
    UnitDirection,
    ValidationError,
    censoring_rate,
    evaluate_curves,
    normalize_direction,
)


def make_dataset(y, delta, x, t):
    return Dataset(y=np.asarray(y, float), delta=np.asarray(delta),
                   x=np.asarray(x, float), t=np.asarray(t, float))


class TestNormalizeDirection:
    def test_three_four_five(self):
        u = normalize_direction([3.0, 4.0])
        assert np.allclose(u.components, [0.6, 0.8])

    def test_sign_flip(self):
        u = normalize_direction([-3.0, -4.0])
        assert np.allclose(u.components, [0.6, 0.8])

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="degenerate direction: zero vector"):
            normalize_direction([0.0, 0.0])

    def test_zero_first_component_rejected(self):
        with pytest.raises(ValueError, match="unidentifiable sign: first component is zero"):
            normalize_direction([0.0, 1.0])

    @pytest.mark.parametrize("make", [UnitDirection, normalize_direction])
    def test_empty_vector_rejected(self, make):
        with pytest.raises(ValueError, match="^direction must be a non-empty vector$"):
            make([])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            normalize_direction([1.0, np.nan])

    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=6,
        )
    )
    def test_unit_norm_and_positive_first(self, v):
        arr = np.asarray(v)
        if np.max(np.abs(arr)) == 0 or arr[0] == 0:
            return
        try:
            u = normalize_direction(arr)
        except ValueError:
            # legitimate when v[0]/||v|| underflows to zero
            return
        assert abs(np.linalg.norm(u.components) - 1.0) <= 1e-12
        assert u.components[0] > 0

    def test_underflowing_first_component_rejected(self):
        with pytest.raises(ValueError, match="unidentifiable sign: first component underflows"):
            normalize_direction([5e-324, 2.0])

    @given(
        st.lists(
            st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
            min_size=1,
            max_size=6,
        )
    )
    def test_idempotent(self, v):
        arr = np.asarray(v)
        if np.max(np.abs(arr)) < 1e-6 or abs(arr[0]) < 1e-9:
            return
        once = normalize_direction(arr).components
        twice = normalize_direction(once).components
        assert np.allclose(once, twice, rtol=0, atol=1e-14)

    @given(
        st.lists(
            st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
            min_size=1,
            max_size=6,
        ),
        st.floats(min_value=1e-4, max_value=1e4, allow_nan=False),
        st.sampled_from([-1.0, 1.0]),
    )
    def test_scale_invariant(self, v, c, sign):
        arr = np.asarray(v)
        if np.max(np.abs(arr)) < 1e-6 or abs(arr[0]) < 1e-9:
            return
        base = normalize_direction(arr).components
        scaled = normalize_direction(sign * c * arr).components
        assert np.allclose(base, scaled, rtol=0, atol=1e-13)


class TestObservationAndDataset:
    def test_observation_enforces_invariants(self):
        for y, delta, t in ((1.0, 2, 0.5), (1.0, 0.5, 0.5), (1.0, 1, 1.5), (math.inf, 1, 0.5)):
            with pytest.raises(ValidationError, match="row 1"):
                make_dataset([0.5, y], [1, delta], [[0.0], [1.0]], [0.5, t])

    def test_dataset_is_immutable(self):
        ds = make_dataset([1.0, 2.0], [1, 0], [[1.0], [2.0]], [0.1, 0.2])
        with pytest.raises(ValueError):
            ds.y[0] = 99.0

    def test_observations_roundtrip(self):
        ds = make_dataset([1.0, 2.0], [1, 0], [[1.0, 2.0], [3.0, 4.0]], [0.1, 0.2])
        assert ds.y.tolist() == [1.0, 2.0]
        assert ds.delta.tolist() == [1, 0]
        assert ds.x.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert ds.t.tolist() == [0.1, 0.2]

    def test_unit_direction_invariants(self):
        with pytest.raises(ValueError):
            UnitDirection(components=np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            UnitDirection(components=np.array([-1.0, 0.0]))


class TestValidateDataset:
    """The value checks of ``Dataset``'s constructor."""

    def test_three_valid_rows(self):
        ds = make_dataset(
            [1.0, 2.0, 0.5], [1, 0, 1], [[0.5, 0.2], [0.1, 0.9], [0.0, 0.0]], [0.1, 0.5, 1.0]
        )
        assert ds.n == 3
        assert ds.d == 2

    def test_bad_delta_names_row(self):
        with pytest.raises(ValidationError, match="row 1: delta must be 0 or 1"):
            make_dataset([1.0, 2.0, 0.5], [1, 2, 1], [[0.5], [0.1], [0.2]], [0.1, 0.5, 0.9])

    def test_modifier_out_of_range(self):
        with pytest.raises(ValidationError, match="row 0: modifier t must lie in"):
            make_dataset([1.0, 2.0], [1, 0], [[0.5], [0.1]], [-0.1, 0.5])

    def test_censored_negative_response_names_row(self):
        with pytest.raises(ValidationError, match="^row 2: censored response must be >= 0$"):
            make_dataset([1.0, -2.0, -0.5], [1, 1, 0], [[0.5], [0.1], [0.2]], [0.1, 0.5, 0.9])

    def test_non_finite_covariate(self):
        with pytest.raises(ValidationError, match="row 0: covariates must be finite"):
            make_dataset([1.0, 2.0], [1, 0], [[np.inf], [0.1]], [0.1, 0.5])

    def test_too_few_rows(self):
        with pytest.raises(ValidationError, match="at least 2"):
            make_dataset([1.0], [1], [[0.5]], [0.1])

    @pytest.mark.parametrize(
        "columns, problem",
        [
            (
                {"y": [1.0, 2.0, 3.0], "delta": [1, 0], "x": [[0.5], [0.1]], "t": [0.1, 0.5]},
                "column arrays must share the same row count",
            ),
            (
                {"y": [1.0, 2.0], "delta": [1, 0], "x": np.zeros((2, 0)), "t": [0.1, 0.5]},
                "covariate dimension d must be at least 1",
            ),
            (
                {"y": ["a", "b"], "delta": [1, 0], "x": [[0.5], [0.1]], "t": [0.1, 0.5]},
                "column y must be numeric (could not convert string to float: 'a')",
            ),
            ({"y": [], "delta": [], "x": [], "t": []}, "dataset needs at least 2 rows (got 0)"),
        ],
        ids=["unequal-lengths", "no-covariate", "non-numeric", "empty"],
    )
    def test_malformed_columns_rejected(self, columns, problem):
        with pytest.raises(ValidationError) as err:
            Dataset(**columns)
        assert err.value.problems == [(None, problem)]

    def test_dataset_names_first_offending_rows(self):
        n = 12
        delta = np.ones(n)
        delta[[2, 3, 5, 7, 8, 9, 11]] = 0.5
        with pytest.raises(ValidationError) as err:
            make_dataset(np.zeros(n), delta, np.zeros((n, 1)), np.linspace(0, 1, n))
        assert [row for row, _ in err.value.problems] == [2, 3, 5, 7, 8, None]
        assert "delta must be 0 or 1: 2 more rows" in str(err.value)


def curves_fixture(d0, d1):
    return CoefficientCurves(
        grid=np.array([0.0, 1.0]),
        matrix=[
            normalize_direction(np.asarray(d0)).components,
            normalize_direction(np.asarray(d1)).components,
        ],
    )


@pytest.mark.parametrize(
    "matrix, message",
    [
        ([[1.0, 0.0]], "one direction required per grid point"),
        ([1.0, 1.0], "one direction required per grid point"),
        ([[1.0, 0.0], [0.6, 0.7]], "direction norm"),
        ([[1.0, 0.0], [-0.6, 0.8]], "first component must be strictly positive"),
        ([[1.0, 0.0], [1.0, np.nan]], "direction norm nan is not 1"),
    ],
)
def test_curves_check_every_row_of_the_matrix(matrix, message):
    with pytest.raises(ValueError, match=message):
        CoefficientCurves(grid=np.array([0.0, 1.0]), matrix=matrix)


@pytest.mark.parametrize(
    "grid, message",
    [
        ([], "grid must be a non-empty vector"),
        ([[0.0, 1.0]], "grid must be a non-empty vector"),
        ([0.0, 1.5], r"grid points must lie in \[0, 1\]"),
        ([-0.5, 1.0], r"grid points must lie in \[0, 1\]"),
        ([0.0, np.nan], r"grid points must lie in \[0, 1\]"),
        ([0.5, 0.5], "grid must be strictly ascending"),
        ([1.0, 0.0], "grid must be strictly ascending"),
    ],
)
def test_curves_grid_is_a_vector_ascending_in_the_unit_interval(grid, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        CoefficientCurves(grid=np.array(grid), matrix=np.ones((2, 1)))


class TestEvaluateCurves:
    def test_exact_grid_hit(self):
        curves = curves_fixture([1.0, 0.0], [0.6, 0.8])
        assert evaluate_curves(curves, 0.0).tobytes() == curves.matrix[0].tobytes()
        assert evaluate_curves(curves, 1.0).tobytes() == curves.matrix[1].tobytes()
        # Every row a grid hit: the interpolation runs on empty arrays.
        assert evaluate_curves(curves, curves.grid).tobytes() == curves.matrix.tobytes()

    def test_constant_curve(self):
        curves = curves_fixture([1.0, 0.0], [1.0, 0.0])
        assert np.allclose(evaluate_curves(curves, 0.37), [1.0, 0.0])

    def test_midpoint_interpolation_matches_hand_value(self):
        eps = 0.1
        other = np.array([eps, math.sqrt(1 - eps * eps)])
        curves = curves_fixture([1.0, 0.0], other)
        # hand: average the endpoint vectors, then rescale to unit norm
        blend = 0.5 * np.array([1.0, 0.0]) + 0.5 * other
        expected = blend / math.hypot(*blend)
        got = evaluate_curves(curves, 0.5)
        assert np.allclose(got, expected, atol=1e-15)
        assert abs(np.linalg.norm(got) - 1.0) <= 1e-12

    def test_outside_unit_interval_rejected(self):
        curves = curves_fixture([1.0, 0.0], [0.6, 0.8])
        with pytest.raises(ValueError):
            evaluate_curves(curves, -0.01)
        with pytest.raises(ValueError):
            evaluate_curves(curves, 1.01)

    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    @settings(max_examples=50)
    def test_always_unit_norm_positive_first(self, t):
        curves = curves_fixture([1.0, 0.0], [0.1, math.sqrt(0.99)])
        out = evaluate_curves(curves, t)
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-12
        assert out[0] > 0

    def test_partial_grid_clamps_to_ends(self):
        curves = CoefficientCurves(
            grid=np.array([0.25, 0.75]),
            matrix=[
                normalize_direction([1.0, 0.0]).components,
                normalize_direction([0.6, 0.8]).components,
            ],
        )
        assert np.allclose(evaluate_curves(curves, 0.0), [1.0, 0.0])
        assert np.allclose(evaluate_curves(curves, 1.0), [0.6, 0.8])


class TestCensoringRate:
    def test_all_uncensored(self):
        ds = make_dataset([1, 2], [1, 1], [[0.0], [0.0]], [0.1, 0.2])
        assert censoring_rate(ds) == 0.0

    def test_all_censored(self):
        ds = make_dataset([1, 2], [0, 0], [[0.0], [0.0]], [0.1, 0.2])
        assert censoring_rate(ds) == 1.0

    def test_direct_count(self):
        deltas = [1, 0, 1, 0, 1, 1, 0, 1, 1, 1]
        ds = make_dataset(
            np.arange(10.0), deltas, np.zeros((10, 1)), np.linspace(0, 1, 10)
        )
        assert censoring_rate(ds) == 0.3

    @given(st.lists(st.sampled_from([0, 1]), min_size=2, max_size=40))
    def test_rates_partition_exactly(self, deltas):
        n = len(deltas)
        ds = make_dataset(
            np.arange(float(n)), deltas, np.zeros((n, 1)), np.linspace(0, 1, n)
        )
        censored = Fraction(int(np.sum(np.asarray(deltas) == 0)), n)
        events = Fraction(int(np.sum(np.asarray(deltas) == 1)), n)
        assert censored + events == 1
        assert censoring_rate(ds) == float(censored)


# Each constructor and fresh arguments for it, an array for every array field.
OWNED_ARRAYS = {
    "Dataset": (
        Dataset,
        lambda: {
            "y": np.array([1.0, 2.0]),
            "delta": np.array([1, 0]),
            "x": np.array([[1.0], [2.0]]),
            "t": np.array([0.1, 0.2]),
        },
    ),
    "UnitDirection": (UnitDirection, lambda: {"components": np.array([0.6, 0.8])}),
    "CoefficientCurves": (
        CoefficientCurves,
        lambda: {"grid": np.array([0.0, 1.0]), "matrix": np.array([[1.0], [1.0]])},
    ),
    "LinkEstimate": (
        LinkEstimate,
        lambda: {"u_grid": np.array([-1.0, 1.0]), "m_hat": np.array([0.5, np.nan])},
    ),
    "SurvivalCurve": (
        SurvivalCurve,
        lambda: {"jump_times": np.array([1.0, 2.0]), "values": np.array([0.5, 0.25])},
    ),
}


@pytest.mark.parametrize("name", sorted(OWNED_ARRAYS))
def test_constructor_freezes_its_own_copy(name):
    cls, make_args = OWNED_ARRAYS[name]
    args = make_args()
    obj = cls(**args)
    for field, arr in args.items():
        if not isinstance(arr, np.ndarray):
            continue
        held = getattr(obj, field)
        kept = held.copy()
        assert arr.flags.writeable, field
        arr += 1
        assert np.array_equal(held, kept, equal_nan=True), field
        assert not held.flags.writeable, field
