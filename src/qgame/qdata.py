"""Stakeholder loading / factor score ingestion and initial conditions.

Flagging follows the standard automatic rule: a stakeholder is assigned to
a factor when the loading is individually significant
(|loading| > z_crit / sqrt(n_statements)) and distinctive (its squared
loading exceeds the sum of its squared loadings on all other factors).
On the bundled twenty-stakeholder data this assigns 19 stakeholders,
(7, 3, 3, 4, 2) per factor, and leaves one unassigned.

The factor count is a fact of the tables, not a setting: it is the
column count of the loadings (`loadings.shape[1]`, which a
`FlagAssignment` carries on) and the row count of the scores.
"""

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InvalidSetting, QGameError, require_int
from .strategy_space import CANONICAL_CODES, STRATEGIES, parse_code

SCORE_MIN, SCORE_MAX = -5, 5

# two-sided normal critical values for the supported significance levels
Z_CRITICAL = {0.05: 1.96, 0.01: 2.58}
P_THRESHOLD = 0.05  # default significance level of flagging


@dataclass(frozen=True)
class LoadingMatrix:
    loadings: np.ndarray  # (n_stakeholders, n_factors), entries in [-1, 1]
    stakeholder_ids: tuple[str, ...]

    def __post_init__(self):
        arr = np.array(self.loadings, dtype=float)
        if arr.ndim != 2 or len(arr) != len(self.stakeholder_ids):
            raise QGameError(
                f"loadings shape {arr.shape} does not match "
                f"{len(self.stakeholder_ids)} stakeholders"
            )
        if not np.all(np.abs(arr) <= 1.0):  # also rejects NaN
            raise QGameError("loadings must lie in [-1, 1]")
        arr.setflags(write=False)
        object.__setattr__(self, "loadings", arr)


@dataclass(frozen=True)
class ZScoreMatrix:
    """Factor-by-strategy payoff substrate; rows are factors.

    `load_zscores` labels the columns with the canonical strategy codes
    and enforces integer grid scores; the type itself accepts any
    real-valued shape, labelled s0, s1, ... unless labels are given, so
    reduced games can reuse the same machinery.
    """

    scores: np.ndarray  # (n_factors, n_strategies)
    strategy_labels: tuple[str, ...] = ()

    def __post_init__(self):
        arr = np.array(self.scores, dtype=float)
        if arr.ndim != 2:
            raise QGameError(f"scores must be 2-d, got shape {arr.shape}")
        labels = tuple(self.strategy_labels) or tuple(f"s{j}" for j in range(arr.shape[1]))
        if len(labels) != arr.shape[1]:
            raise QGameError(
                f"scores shape {arr.shape} does not match {len(labels)} strategy labels"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "scores", arr)
        object.__setattr__(self, "strategy_labels", labels)

    @property
    def factor_labels(self) -> tuple[str, ...]:
        """Q1..Qn, one per row of the scores."""
        return tuple(f"Q{i + 1}" for i in range(self.scores.shape[0]))


@dataclass(frozen=True)
class FlagAssignment:
    stakeholder_ids: tuple[str, ...]
    factors: tuple[int | None, ...]  # factor index per stakeholder, None if unassigned
    signs: tuple[int | None, ...]    # sign of the flagged loading (+1 / -1)
    threshold: float
    factor_count: int                # columns of the flagged loadings

    @property
    def unassigned(self) -> tuple[str, ...]:
        return tuple(
            sid for sid, f in zip(self.stakeholder_ids, self.factors) if f is None
        )

    def counts(self) -> np.ndarray:
        """Flagged stakeholders per factor."""
        out = np.zeros(self.factor_count, dtype=int)
        for f in self.factors:
            if f is not None:
                out[f] += 1
        return out


def flagging_threshold(n_statements: int, p_threshold: float = P_THRESHOLD) -> float:
    """The |loading| a significant loading exceeds, z_crit/sqrt(n_statements).

    Raises InvalidSetting naming `n_statements` or `p_threshold` when
    either is out of its domain.
    """
    require_int("n_statements", n_statements, 2)
    # a tuple test compares with ==, so a list is rejected here, not a TypeError
    if p_threshold not in tuple(Z_CRITICAL):
        raise InvalidSetting(
            "p_threshold", f"must be one of {sorted(Z_CRITICAL)}, got {p_threshold!r}"
        )
    return Z_CRITICAL[p_threshold] / np.sqrt(n_statements)


def flag_stakeholders(
    loadings: LoadingMatrix, n_statements: int, p_threshold: float = P_THRESHOLD
) -> FlagAssignment:
    """Assign each stakeholder to at most one factor.

    A factor qualifies when |loading| exceeds `flagging_threshold` and
    its squared loading exceeds the sum of the squared loadings on the
    remaining factors. If several qualify the largest |loading| wins.
    Stakeholders with no qualifying factor stay unassigned.
    """
    threshold = flagging_threshold(n_statements, p_threshold)

    factors: list[int | None] = []
    signs: list[int | None] = []
    for row in loadings.loadings:
        sq = row * row
        total = sq.sum()
        qualifying = [
            f
            for f in range(len(row))
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
        loadings.stakeholder_ids, tuple(factors), tuple(signs), float(threshold),
        loadings.loadings.shape[1],
    )


def assignment_fractions(flags: FlagAssignment) -> np.ndarray:
    """Per-factor flagged counts divided by the total stakeholder count.

    Unassigned stakeholders stay in the denominator, so the result sums
    to (assigned / total) and is below 1 whenever anybody is unassigned.
    """
    return flags.counts() / len(flags.stakeholder_ids)


def derive_x0(flags: FlagAssignment) -> np.ndarray:
    """Initial factor shares: assignment fractions renormalized to the simplex."""
    fractions = assignment_fractions(flags)
    mass = fractions.sum()
    if mass == 0.0:
        raise QGameError("no stakeholder was flagged on any factor")
    return fractions / mass


def _read_rows(path: str | Path) -> tuple[list[str], list[list[str]]]:
    """Read a CSV, skipping blank lines and '#' comment lines."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [
            row
            for row in csv.reader(fh)
            if row and not row[0].lstrip().startswith("#")
        ]
    if not rows:
        raise QGameError(f"{path}: no data rows")
    return rows[0], rows[1:]


def load_loadings(path: str | Path) -> LoadingMatrix:
    """Read a stakeholder-by-factor loading table (header: stakeholder,Q1..Qn)."""
    header, rows = _read_rows(path)
    n_factors = len(header) - 1
    if n_factors < 1:
        raise QGameError(f"{path}: expected at least one factor column")
    ids = []
    values = []
    for row in rows:
        if len(row) != n_factors + 1:
            raise QGameError(
                f"{path}: row {row[0]!r} has {len(row) - 1} values, expected {n_factors}"
            )
        if row[0] in ids:
            raise QGameError(f"{path}: duplicate row for stakeholder {row[0]!r}")
        ids.append(row[0])
        values.append(
            [_loading(path, row[0], col, cell) for col, cell in zip(header[1:], row[1:])]
        )
    return LoadingMatrix(np.array(values), tuple(ids))


def _loading(path: str | Path, stakeholder: str, column: str, cell: str) -> float:
    """One loading cell as a float in [-1, 1]; a fault names the cell."""
    try:
        value = float(cell)
    except ValueError:
        value = math.nan
    if not -1.0 <= value <= 1.0:  # also NaN and non-numeric cells
        raise QGameError(
            f"{path}: stakeholder {stakeholder!r}, column {column}: "
            f"{cell!r} is not a loading in [-1, 1]"
        )
    return value


def _read_code_table(path: str | Path, width: int | None = None) -> np.ndarray:
    """Read rows `code,v1..vk` in any order into a (36, k) array in
    canonical order; k is `width`, or the header's column count minus one.

    Every canonical code must appear exactly once, every row must carry k
    values, and every value must be a finite number. A fault names the
    path.
    """
    header, rows = _read_rows(path)
    k = len(header) - 1 if width is None else width
    by_index: dict[int, list[float]] = {}
    for row in rows:
        try:
            code = parse_code(row[0])
        except QGameError as exc:
            raise QGameError(f"{path}: {exc}") from None
        if len(row) != k + 1:
            raise QGameError(
                f"{path}: row {code.code} has {len(row) - 1} values, expected {k}"
            )
        if code.index in by_index:
            raise QGameError(f"{path}: duplicate row for {code.code}")
        try:
            values = [float(v) for v in row[1:]]
        except ValueError:
            raise QGameError(f"{path}: row {code.code} has a non-numeric value") from None
        if not all(map(math.isfinite, values)):
            raise QGameError(f"{path}: row {code.code} has a non-finite value")
        by_index[code.index] = values
    missing = [s.code for s in STRATEGIES if s.index not in by_index]
    if missing:
        raise QGameError(f"{path}: missing strategies {missing}")
    return np.array([by_index[s.index] for s in STRATEGIES])


def load_zscores(path: str | Path) -> ZScoreMatrix:
    """Read the per-strategy factor scores, reordering rows to canonical order.

    The source must provide exactly one row per canonical strategy code
    (trailing dots tolerated); scores are validated as integers in -5..5.
    """
    table = _read_code_table(path)
    bad = np.argwhere((table != np.round(table)) | (table < SCORE_MIN) | (table > SCORE_MAX))
    if len(bad):
        i, f = bad[0]
        raise QGameError(
            f"{path}: score {table[i, f]} for {CANONICAL_CODES[i]} outside integers "
            f"{SCORE_MIN}..{SCORE_MAX}"
        )
    return ZScoreMatrix(table.T, CANONICAL_CODES)  # factors x strategies


def load_share_table(path: str | Path) -> np.ndarray:
    """Read per-strategy shares (header: strategy,share) into canonical order."""
    return _read_code_table(path, width=1)[:, 0]
