"""State-dependent payoff structures.

The stakeholder population plays against the community strategy mix with
payoff matrix a[i, j] = score[i, j] * (2*z[i] - 1): a factor's row keeps
its grid scores when its positive-sign frequency z[i] is 1, flips sign
when z[i] is 0, and vanishes at z[i] = 1/2. The community side uses the
transpose. The scalar observable x' A y is the average payoff of the
stakeholder population.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .qdata import ZScoreMatrix

SIMPLEX_TOL = 1e-9


def _check_simplex(vec: np.ndarray, n: int, name: str) -> np.ndarray:
    vec = np.asarray(vec, dtype=float)
    if vec.shape != (n,):
        raise DimensionMismatch(f"{name} has shape {vec.shape}, expected ({n},)")
    if abs(vec.sum() - 1.0) > SIMPLEX_TOL:
        raise DimensionMismatch(f"{name} must sum to 1 within {SIMPLEX_TOL}")
    return vec


@dataclass(frozen=True)
class PayoffMatrix:
    values: np.ndarray       # (n_factors, n_strategies)
    sign_freqs: np.ndarray   # the z vector the matrix was built from

    def __post_init__(self):
        for name in ("values", "sign_freqs"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def factor_utilities(scores: ZScoreMatrix, strategy_shares: np.ndarray) -> np.ndarray:
    """Expected utility of the strategy mix for each factor: scores @ y."""
    y = _check_simplex(strategy_shares, scores.scores.shape[1], "strategy shares")
    return scores.scores @ y


def sign_gains(z: np.ndarray) -> np.ndarray:
    """Row scaling 2*z - 1 of A(z), elementwise over an array of any shape."""
    return 2.0 * z - 1.0


def payoff_values(scores: np.ndarray, z: np.ndarray) -> np.ndarray:
    """A(z) = S * (2*z - 1) row-wise, on bare arrays and without checks."""
    return scores * sign_gains(z)[:, None]


def build_payoff_matrix(scores: ZScoreMatrix, sign_freqs: np.ndarray) -> PayoffMatrix:
    """Stakeholder payoff matrix a[i, j] = score[i, j] * (2*z[i] - 1)."""
    z = np.asarray(sign_freqs, dtype=float)
    if z.shape != (scores.n_factors,):
        raise DimensionMismatch(
            f"sign frequencies have shape {z.shape}, expected ({scores.n_factors},)"
        )
    if np.any(z < 0) or np.any(z > 1):
        raise ValueError("sign frequencies must lie in [0, 1]")
    return PayoffMatrix(payoff_values(scores.scores, z), z)


def expected_total_utility(
    payoff: PayoffMatrix, factor_shares: np.ndarray, strategy_shares: np.ndarray
) -> float:
    """Average stakeholder payoff x' A y for simplex x and y."""
    n, m = payoff.values.shape
    x = _check_simplex(factor_shares, n, "factor shares")
    y = _check_simplex(strategy_shares, m, "strategy shares")
    return float(x @ payoff.values @ y)
