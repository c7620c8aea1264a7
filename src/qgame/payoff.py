"""State-dependent payoff structures.

The stakeholder population plays against the community strategy mix with
payoff matrix a[i, j] = score[i, j] * (2*z[i] - 1): a factor's row keeps
its grid scores when its positive-sign frequency z[i] is 1, flips sign
when z[i] is 0, and vanishes at z[i] = 1/2. The community side uses the
transpose. The scalar observable x' A y is the average payoff of the
stakeholder population.
"""

import numpy as np


def sign_gains(z: np.ndarray) -> np.ndarray:
    """Row scaling 2*z - 1 of A(z), elementwise over an array of any shape."""
    return 2.0 * z - 1.0


def payoff_values(scores: np.ndarray, z: np.ndarray) -> np.ndarray:
    """A(z) = S * (2*z - 1) row-wise, on bare arrays and without checks."""
    return scores * sign_gains(z)[:, None]


def expected_total_utility(
    scores: np.ndarray, x: np.ndarray, y: np.ndarray, z: np.ndarray
) -> np.ndarray:
    """Average stakeholder payoff x' A(z) y, on bare arrays and without checks.

    x, y and z are one state, of shapes (n,), (m,) and (n,), or a stack of
    k states, of shapes (k, n), (k, m) and (k, n); the result is a scalar
    or a (k,) series.
    """
    return np.einsum("...i,...i->...", x * sign_gains(z), y @ scores.T)
