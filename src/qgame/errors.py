"""Exception types shared across the package, and the integer and real
setting checks."""

import math
import numbers


class QGameError(Exception):
    """Base class for all package-specific errors."""


class MalformedCode(QGameError, ValueError):
    """Strategy code string does not have the dot-separated 4-part shape."""


class UnknownLevel(QGameError, ValueError):
    """A code part is not a valid level for its dimension position."""


class DimensionMismatch(QGameError, ValueError):
    """Array shapes do not agree with the declared factor/strategy counts."""


class NoFlaggedStakeholders(QGameError, ValueError):
    """Flagging left every stakeholder unassigned; x0 cannot be derived."""


class MissingStrategy(QGameError, ValueError):
    """A tabular source lacks a row for one of the canonical strategies."""


class DuplicateStrategy(QGameError, ValueError):
    """A tabular source contains the same strategy code more than once."""


class DuplicateStakeholder(QGameError, ValueError):
    """A loading table contains the same stakeholder id more than once."""


class InvalidNumber(QGameError, ValueError):
    """A table cell is not a finite number, or lies outside its range."""


class ScoreOutOfRange(QGameError, ValueError):
    """A grid score falls outside the integer range -5..5."""


class InvalidState(QGameError, ValueError):
    """A game state violates its simplex/interval invariants beyond tolerance."""


class StepSizeUnderflow(QGameError, RuntimeError):
    """The adaptive integrator pushed the step size below the hard floor."""


class StepBudgetExceeded(QGameError, RuntimeError):
    """An integration needs more steps than the integrator's step budget."""


class EmptyTrajectory(QGameError, ValueError):
    """Analysis was asked to run on a trajectory with no samples."""


class InvalidSetting(QGameError, ValueError):
    """A setting has the wrong type or lies outside its range; `field` names it."""

    def __init__(self, field: str, message: str):
        self.field = field
        self.reason = message
        super().__init__(f"{field}: {message}")


class ParseError(QGameError, ValueError):
    """Scenario file is not valid JSON or not a JSON object."""


class ValidationError(InvalidSetting):
    """Scenario content failed validation; `field` names the offending entry."""


def require_int(field: str, value, low: int, high: int | None = None) -> None:
    """Raise InvalidSetting unless value is an integer (not a bool) in [low, high]."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidSetting(field, f"expected an integer, got {value!r}")
    if value < low:
        raise InvalidSetting(field, f"must be at least {low}, got {value}")
    if high is not None and value > high:
        raise InvalidSetting(field, f"must be at most {high}, got {value}")


def require_real(field: str, value) -> None:
    """Raise InvalidSetting unless value is a finite real number (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidSetting(field, f"expected a number, got {value!r}")
    if not math.isfinite(value):
        raise InvalidSetting(field, f"must be finite, got {value!r}")
