"""The package's three exception types, and its checks of settings and
vector entries.

Every fault the package raises is a `QGameError`, a `ValueError` whose
message names what is at fault: the file, row, field, entry or time. A
setting of the wrong type or outside its range is an `InvalidSetting`,
whose `field` names the setting; a fault in a scenario file's content is
a `ValidationError`, whose `field` names the offending entry. A missing
input file is a `FileNotFoundError`, and a file that cannot be written
an `OSError`.
"""

import math
import numbers

import numpy as np


class QGameError(ValueError):
    """A fault in the package's inputs or in a run; the message says where."""


class InvalidSetting(QGameError):
    """A setting has the wrong type or lies outside its range; `field` names it."""

    def __init__(self, field: str, message: str):
        self.field = field
        self.reason = message
        super().__init__(f"{field}: {message}")


class ValidationError(InvalidSetting):
    """Scenario content failed validation; `field` names the offending entry."""


def first_bad(name: str, vec: np.ndarray, bad: np.ndarray, what: str) -> None:
    """Raise QGameError naming the first entry of vec where bad holds."""
    i = np.flatnonzero(bad)
    if len(i):
        raise QGameError(f"{name}[{i[0]}] = {vec[i[0]]} {what}")


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
