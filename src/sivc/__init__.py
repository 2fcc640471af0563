"""Censored single-index varying-coefficient regression.

Estimates direction curves beta(t) on the unit sphere by local profile
least squares and the unknown link by Nadaraya-Watson smoothing of
Kaplan-Meier synthetic responses, with a Monte Carlo harness and CLI for
reproducing the accompanying simulation study.
"""

__version__ = "0.1.0"

import types as _types

from .censoring import (
    SurvivalCurve,
    calibrate_censoring,
    estimate_censoring_survival,
    synthetic_responses,
)
from .errors import EstimationError, SivcError, ValidationError
from .estimator import (
    DirectionFit,
    FitConfig,
    LinkEstimate,
    ModelFit,
    compute_index,
    fit_coefficient_curves,
    fit_direction_at,
    fit_link,
    fit_model,
)
from .model import (
    CoefficientCurves,
    Dataset,
    UnitDirection,
    censoring_rate,
    evaluate_curves,
    normalize_direction,
)
from .simulate import (
    SimConfig,
    SimSummary,
    TruthRecord,
    generate_dataset,
    resolve_censor_scale,
    run_monte_carlo,
)
from .smoothing import (
    Bandwidths,
    kernel_values,
    rule_of_thumb_bandwidth,
    select_bandwidths,
)

# Every name imported above, but not the submodules that importing them
# binds on the package.
__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _types.ModuleType)
]
