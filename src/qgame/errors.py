"""Exception types shared across the package."""


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


class EmptyTrajectory(QGameError, ValueError):
    """Analysis was asked to run on a trajectory with no samples."""


class ScenarioError(QGameError, ValueError):
    """Base class for scenario-file problems."""


class ParseError(ScenarioError):
    """Scenario file is not valid JSON or not a JSON object."""


class ValidationError(ScenarioError):
    """Scenario content failed validation; `field` names the offending entry."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")
