"""Exception hierarchy shared across the package.

Errors built from fields define ``__reduce__`` so that public errors stay
picklable. No study worker sends one: a failed replication returns its text.
"""


class SivcError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(SivcError):
    """Raised when input data violates a row or dataset invariant.

    ``problems`` holds ``(row_index, message)`` pairs; ``row_index`` is
    ``None`` for dataset-level violations.
    """

    def __init__(self, problems):
        self.problems = list(problems)
        lines = [
            f"row {idx}: {msg}" if idx is not None else msg
            for idx, msg in self.problems
        ]
        super().__init__("; ".join(lines))

    def __reduce__(self):
        return type(self), (self.problems,)


class EstimationError(SivcError):
    """A fit or the censoring calibration failed; the message says where
    and why."""
