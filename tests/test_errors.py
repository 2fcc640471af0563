"""Tests of the exception hierarchy."""

import pickle

import pytest

from sivc import EstimationError, ValidationError


@pytest.mark.parametrize(
    "error, fields",
    [
        (ValidationError([(3, "bad"), (None, "too few rows")]), ("problems",)),
        (ValidationError([]), ("problems",)),
        (EstimationError("unbounded synthetic weight at row 7"), ()),
        (EstimationError("degenerate predictor: zero sample variance"), ()),
        (EstimationError("stage 1 (direction curves): failed"), ()),
    ],
)
def test_errors_survive_a_pickle_round_trip(error, fields):
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error)
    assert str(copy) == str(error)
    assert copy.args == error.args
    for name in fields:
        assert getattr(copy, name) == getattr(error, name)
