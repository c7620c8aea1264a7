"""The package's three exception types, and its checks of settings and
vector entries.

Every fault the package raises is a `QGameError`, a `ValueError` whose
message names what is at fault: the file, row, field, entry or time. A
setting of the wrong type or outside its range is an `InvalidSetting`,
whose `field` names the setting; a fault in a scenario file's content is
a `ValidationError`, whose `field` names the offending entry. A missing
input file is a `FileNotFoundError`; a fault in any other input file, all
read by `reading`, or in writing a file is a `QGameError` naming the file.
"""

import math
import numbers
from contextlib import contextmanager

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


@contextmanager
def reading(path):
    """Reads `path` as UTF-8 text into its lines, closes it, and yields them to
    the `with` block that checks them. Text that is not UTF-8 is a QGameError,
    and one the block raises keeps its type; either message starts with `path`."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
        yield lines
    except UnicodeDecodeError:
        raise QGameError(f"{path}: not UTF-8 text") from None
    except QGameError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


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
