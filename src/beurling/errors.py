"""Error taxonomy shared by every module.

The CLI maps these onto exit codes: DomainError / ConstraintError /
SingularSystemError -> 2, ToleranceNotMet -> 3. HypothesisError is raised
only by `remainder_bound`, which no subcommand calls.
"""
from __future__ import annotations


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation."""


class ConstraintError(ValueError):
    """Operation requires an admissible spec (sum a_k theta_k = 0) and got none."""


class HypothesisError(ValueError):
    """`remainder_bound` requires |a_k| <= 1 and some term has |a_k| > 1."""


class ToleranceNotMet(RuntimeError):
    """The requested tolerance cannot be certified within the evaluation budget."""


class SingularSystemError(RuntimeError):
    """The KKT system is numerically singular (typically duplicate thetas)."""
