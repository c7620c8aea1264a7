"""Stakeholder loading / factor score ingestion and initial conditions.

Flagging follows the standard automatic rule: a stakeholder is assigned to
a factor when the loading is individually significant
(|loading| > z_crit / sqrt(n_statements)) and distinctive (its squared
loading exceeds the sum of its squared loadings on all other factors).
On the bundled twenty-stakeholder data this assigns 19 stakeholders,
(7, 3, 3, 4, 2) per factor, and leaves one unassigned.
"""

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DimensionMismatch,
    DuplicateStakeholder,
    DuplicateStrategy,
    InvalidNumber,
    MissingStrategy,
    NoFlaggedStakeholders,
    ScoreOutOfRange,
)
from .strategy_space import StrategySpace, build_strategy_space, parse_code

N_FACTORS = 5
SCORE_MIN, SCORE_MAX = -5, 5

# two-sided normal critical values for the supported significance levels
Z_CRITICAL = {0.05: 1.96, 0.01: 2.58}


@dataclass(frozen=True)
class LoadingMatrix:
    loadings: np.ndarray  # (n_stakeholders, n_factors), entries in [-1, 1]
    stakeholder_ids: tuple[str, ...]
    factor_count: int = N_FACTORS

    def __post_init__(self):
        arr = np.array(self.loadings, dtype=float)
        if arr.ndim != 2 or arr.shape != (len(self.stakeholder_ids), self.factor_count):
            raise DimensionMismatch(
                f"loadings shape {arr.shape} does not match "
                f"{len(self.stakeholder_ids)} stakeholders x {self.factor_count} factors"
            )
        if not np.all(np.abs(arr) <= 1.0):  # also rejects NaN
            raise ValueError("loadings must lie in [-1, 1]")
        arr.setflags(write=False)
        object.__setattr__(self, "loadings", arr)


@dataclass(frozen=True)
class ZScoreMatrix:
    """Factor-by-strategy payoff substrate; rows are factors.

    When a strategy space is attached the column order follows its
    canonical ordering and the loader enforces integer grid scores;
    the type itself accepts any real-valued shape so reduced games can
    reuse the same machinery.
    """

    scores: np.ndarray  # (n_factors, n_strategies)
    space: StrategySpace | None = None

    def __post_init__(self):
        arr = np.array(self.scores, dtype=float)
        if arr.ndim != 2:
            raise DimensionMismatch(f"scores must be 2-d, got shape {arr.shape}")
        if self.space is not None and arr.shape[1] != len(self.space):
            raise DimensionMismatch(
                f"scores shape {arr.shape} does not cover the "
                f"{len(self.space)}-strategy space"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "scores", arr)

    @property
    def n_factors(self) -> int:
        return self.scores.shape[0]

    @property
    def strategy_labels(self) -> tuple[str, ...]:
        if self.space is not None:
            return self.space.codes
        return tuple(f"s{j}" for j in range(self.scores.shape[1]))

    def score(self, factor: int, code: str) -> float:
        if self.space is None:
            raise DimensionMismatch("matrix has no strategy space attached")
        return float(self.scores[factor, parse_code(code).index])


@dataclass(frozen=True)
class FlagAssignment:
    stakeholder_ids: tuple[str, ...]
    factors: tuple[int | None, ...]  # factor index per stakeholder, None if unassigned
    signs: tuple[int | None, ...]    # sign of the flagged loading (+1 / -1)
    threshold: float

    @property
    def unassigned(self) -> tuple[str, ...]:
        return tuple(
            sid for sid, f in zip(self.stakeholder_ids, self.factors) if f is None
        )

    def counts(self, n_factors: int = N_FACTORS) -> np.ndarray:
        out = np.zeros(n_factors, dtype=int)
        for f in self.factors:
            if f is not None:
                out[f] += 1
        return out


@dataclass(frozen=True)
class InitialConditions:
    x0: np.ndarray  # factor shares, on the simplex
    y0: np.ndarray  # strategy shares, on the simplex
    z0: np.ndarray  # positive-sign frequencies, in [0, 1]

    def __post_init__(self):
        for name in ("x0", "y0", "z0"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        for name in ("x0", "y0"):
            vec = getattr(self, name)
            if np.any(vec < 0) or abs(vec.sum() - 1.0) > 1e-12:
                raise ValueError(f"{name} must be nonnegative and sum to 1")
        if np.any(self.z0 < 0) or np.any(self.z0 > 1):
            raise ValueError("z0 entries must lie in [0, 1]")


def flag_stakeholders(
    loadings: LoadingMatrix, n_statements: int, p_threshold: float = 0.05
) -> FlagAssignment:
    """Assign each stakeholder to at most one factor.

    A factor qualifies when |loading| exceeds z_crit/sqrt(n_statements)
    and its squared loading exceeds the sum of the squared loadings on
    the remaining factors. If several qualify the largest |loading|
    wins. Stakeholders with no qualifying factor stay unassigned.
    """
    if n_statements < 2:
        raise ValueError("n_statements must be at least 2")
    if p_threshold not in Z_CRITICAL:
        raise ValueError(f"p_threshold must be one of {sorted(Z_CRITICAL)}")
    threshold = Z_CRITICAL[p_threshold] / np.sqrt(n_statements)

    factors: list[int | None] = []
    signs: list[int | None] = []
    for row in loadings.loadings:
        sq = row * row
        total = sq.sum()
        qualifying = [
            f
            for f in range(loadings.factor_count)
            if abs(row[f]) > threshold and sq[f] > total - sq[f]
        ]
        if qualifying:
            best = max(qualifying, key=lambda f: abs(row[f]))
            factors.append(best)
            signs.append(1 if row[best] > 0 else -1)
        else:
            factors.append(None)
            signs.append(None)
    return FlagAssignment(
        loadings.stakeholder_ids, tuple(factors), tuple(signs), float(threshold)
    )


def assignment_fractions(flags: FlagAssignment, n_factors: int = N_FACTORS) -> np.ndarray:
    """Per-factor flagged counts divided by the total stakeholder count.

    Unassigned stakeholders stay in the denominator, so the result sums
    to (assigned / total) and is below 1 whenever anybody is unassigned.
    """
    return flags.counts(n_factors) / len(flags.stakeholder_ids)


def derive_x0(flags: FlagAssignment, n_factors: int = N_FACTORS) -> np.ndarray:
    """Initial factor shares: assignment fractions renormalized to the simplex."""
    fractions = assignment_fractions(flags, n_factors)
    mass = fractions.sum()
    if mass == 0.0:
        raise NoFlaggedStakeholders("no stakeholder was flagged on any factor")
    return fractions / mass


def derive_z0(loadings: LoadingMatrix) -> np.ndarray:
    """Candidate positive-sign frequencies: fraction of strictly positive
    loadings per factor.

    This is a sensitivity-study convenience; the bundled scenario pins z0
    explicitly because no simple loading statistic reproduces its values.
    """
    if loadings.loadings.size == 0:
        raise ValueError("loading matrix is empty")
    return (loadings.loadings > 0).mean(axis=0)


def _read_rows(path: str | Path) -> tuple[list[str], list[list[str]]]:
    """Read a CSV, skipping blank lines and '#' comment lines."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [
            row
            for row in csv.reader(fh)
            if row and not row[0].lstrip().startswith("#")
        ]
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return rows[0], rows[1:]


def load_loadings(path: str | Path) -> LoadingMatrix:
    """Read a stakeholder-by-factor loading table (header: stakeholder,Q1..Qn)."""
    header, rows = _read_rows(path)
    n_factors = len(header) - 1
    if n_factors < 1:
        raise DimensionMismatch(f"{path}: expected at least one factor column")
    ids = []
    values = []
    for row in rows:
        if len(row) != n_factors + 1:
            raise DimensionMismatch(
                f"{path}: row {row[0]!r} has {len(row) - 1} values, expected {n_factors}"
            )
        if row[0] in ids:
            raise DuplicateStakeholder(f"{path}: duplicate row for stakeholder {row[0]!r}")
        ids.append(row[0])
        values.append(
            [_loading(path, row[0], col, cell) for col, cell in zip(header[1:], row[1:])]
        )
    return LoadingMatrix(np.array(values), tuple(ids), n_factors)


def _loading(path: str | Path, stakeholder: str, column: str, cell: str) -> float:
    """One loading cell as a float in [-1, 1]; a fault names the cell."""
    try:
        value = float(cell)
    except ValueError:
        value = math.nan
    if not -1.0 <= value <= 1.0:  # also NaN and non-numeric cells
        raise InvalidNumber(
            f"{path}: stakeholder {stakeholder!r}, column {column}: "
            f"{cell!r} is not a loading in [-1, 1]"
        )
    return value


def _read_code_table(
    path: str | Path, space: StrategySpace, width: int | None = None
) -> np.ndarray:
    """Read rows `code,v1..vk` in any order into a (len(space), k) array in
    canonical order; k is `width`, or the header's column count minus one.

    Every canonical code must appear exactly once, every row must carry k
    values, and every value must be a finite number.
    """
    header, rows = _read_rows(path)
    k = len(header) - 1 if width is None else width
    by_index: dict[int, list[float]] = {}
    for row in rows:
        code = parse_code(row[0])
        if len(row) != k + 1:
            raise DimensionMismatch(
                f"{path}: row {code.code} has {len(row) - 1} values, expected {k}"
            )
        if code.index in by_index:
            raise DuplicateStrategy(f"{path}: duplicate row for {code.code}")
        try:
            values = [float(v) for v in row[1:]]
        except ValueError:
            raise InvalidNumber(f"{path}: row {code.code} has a non-numeric value") from None
        if not all(map(math.isfinite, values)):
            raise InvalidNumber(f"{path}: row {code.code} has a non-finite value")
        by_index[code.index] = values
    missing = [s.code for s in space if s.index not in by_index]
    if missing:
        raise MissingStrategy(f"{path}: missing strategies {missing}")
    return np.array([by_index[i] for i in range(len(space))])


def load_zscores(path: str | Path, space: StrategySpace | None = None) -> ZScoreMatrix:
    """Read the per-strategy factor scores, reordering rows to canonical order.

    The source must provide exactly one row per canonical strategy code
    (trailing dots tolerated); scores are validated as integers in -5..5.
    """
    space = space or build_strategy_space()
    table = _read_code_table(path, space)
    bad = np.argwhere((table != np.round(table)) | (table < SCORE_MIN) | (table > SCORE_MAX))
    if len(bad):
        i, f = bad[0]
        raise ScoreOutOfRange(
            f"{path}: score {table[i, f]} for {space[i].code} outside integers "
            f"{SCORE_MIN}..{SCORE_MAX}"
        )
    return ZScoreMatrix(table.T, space)  # factors x strategies


def load_share_table(path: str | Path, space: StrategySpace | None = None) -> np.ndarray:
    """Read per-strategy shares (header: strategy,share) into canonical order."""
    space = space or build_strategy_space()
    return _read_code_table(path, space, width=1)[:, 0]
