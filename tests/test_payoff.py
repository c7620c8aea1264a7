import numpy as np
import pytest

from qgame import expected_total_utility

from table_fixtures import (
    CANONICAL_ORDER,
    PSI_AT_Y0_RAW,
    UTILITY_AT_START,
    Y0,
    Z0,
    ZSCORES,
)


def unit_mass(index: int, m: int = 36) -> np.ndarray:
    y = np.zeros(m)
    y[index] = 1.0
    return y


def y0_normalized() -> np.ndarray:
    y = np.array([Y0[c] for c in CANONICAL_ORDER])
    return y / y.sum()


def factor_utilities(scores, y: np.ndarray) -> np.ndarray:
    """Per-factor utilities scores @ y, as the expected total utilities of
    the n pure factor states (rows of the identity) at z = 1."""
    n = scores.scores.shape[0]
    return expected_total_utility(scores.scores, np.eye(n), y, np.ones(n))


# --- factor utilities ---

def test_unit_mass_returns_score_column(scores):
    psi = factor_utilities(scores, unit_mass(CANONICAL_ORDER.index("D.R.A.PP")))
    assert np.array_equal(psi, [5, 4, -1, 1, 1])


def test_uniform_mix_gives_row_means(scores):
    # the sort grid is balanced: every score row sums to zero
    psi = factor_utilities(scores, np.full(36, 1 / 36))
    row_sums = [sum(ZSCORES[c][i] for c in CANONICAL_ORDER) for i in range(5)]
    assert row_sums == [0, 0, 0, 0, 0]
    assert psi == pytest.approx(np.zeros(5), abs=1e-15)


def test_utilities_at_bundled_start_match_loop_oracle(scores):
    y = y0_normalized()
    psi = factor_utilities(scores, y)
    # plain-loop recomputation, then the frozen literals (scaled by the
    # 0.9996 mass of the published table)
    oracle = [sum(ZSCORES[c][i] * y[j] for j, c in enumerate(CANONICAL_ORDER)) for i in range(5)]
    assert psi == pytest.approx(oracle, abs=1e-12)
    assert psi * 0.9996 == pytest.approx(PSI_AT_Y0_RAW, abs=1e-12)


def test_linearity_property(scores):
    rng = np.random.default_rng(11)
    for _ in range(100):
        y1 = rng.dirichlet(np.ones(36))
        y2 = rng.dirichlet(np.ones(36))
        a = rng.uniform()
        lhs = factor_utilities(scores, a * y1 + (1 - a) * y2)
        rhs = a * factor_utilities(scores, y1) + (1 - a) * factor_utilities(scores, y2)
        assert lhs == pytest.approx(rhs, abs=1e-12)


# --- payoff matrix ---

def payoff_entries(scores, z) -> np.ndarray:
    """The entries A(z)[i, j] as the utilities of the pure states (e_i, e_j)
    at z: the package never builds A(z) itself."""
    n, m = scores.scores.shape
    return expected_total_utility(scores.scores, np.eye(n)[:, None], np.eye(m)[None], z)


def test_neutral_sign_frequencies_zero_the_matrix(scores):
    assert np.array_equal(payoff_entries(scores, np.full(5, 0.5)), np.zeros((5, 36)))


def test_unit_sign_frequencies_reproduce_scores(scores):
    assert np.array_equal(payoff_entries(scores, np.ones(5)), scores.scores)


def test_entry_at_bundled_sign_frequencies(scores):
    x = unit_mass(0, 5)
    y = unit_mass(CANONICAL_ORDER.index("D.R.A.PP"))
    u = expected_total_utility(scores.scores, x, y, np.array(Z0))
    assert u == pytest.approx(5 * (2 * 0.39 - 1), abs=1e-12)
    assert u == pytest.approx(-1.1, abs=1e-12)


def test_sign_flip_identity(scores):
    rng = np.random.default_rng(5)
    for _ in range(100):
        z = rng.uniform(0, 1, 5)
        a = payoff_entries(scores, z)
        b = payoff_entries(scores, 1 - z)
        assert np.allclose(a, -b, atol=1e-12)


def test_entry_bound(scores):
    rng = np.random.default_rng(17)
    for _ in range(50):
        z = rng.uniform(0, 1, 5)
        assert np.abs(payoff_entries(scores, z)).max() <= 5.0


# --- expected total utility ---

def test_single_entry_pick(scores):
    x = unit_mass(0, 5)
    y = unit_mass(CANONICAL_ORDER.index("D.R.A.PP"))
    assert expected_total_utility(scores.scores, x, y, np.ones(5)) == 5.0


def test_zero_matrix_gives_zero(scores):
    rng = np.random.default_rng(23)
    for _ in range(10):
        x = rng.dirichlet(np.ones(5))
        y = rng.dirichlet(np.ones(36))
        assert expected_total_utility(scores.scores, x, y, np.full(5, 0.5)) == 0.0


def test_start_of_case_study_is_negative(scores):
    x0 = np.array([7, 3, 3, 4, 2]) / 19
    u = expected_total_utility(scores.scores, x0, y0_normalized(), np.array(Z0))
    assert u == pytest.approx(UTILITY_AT_START, abs=1e-12)
    assert u < 0


def test_utility_bound(scores):
    rng = np.random.default_rng(29)
    for _ in range(100):
        z = rng.uniform(0, 1, 5)
        x = rng.dirichlet(np.ones(5))
        y = rng.dirichlet(np.ones(36))
        assert abs(expected_total_utility(scores.scores, x, y, z)) <= 5.0


def test_small_matrix_works_without_space():
    scores = np.array([[2.0, 0.0], [0.0, 1.0]])
    first = np.array([1.0, 0.0])
    assert expected_total_utility(scores, first, first, np.ones(2)) == 2.0


def test_stack_of_states_matches_each_state(scores):
    rng = np.random.default_rng(31)
    x = rng.dirichlet(np.ones(5), size=7)
    y = rng.dirichlet(np.ones(36), size=7)
    z = rng.uniform(0, 1, (7, 5))
    series = expected_total_utility(scores.scores, x, y, z)
    assert series.shape == (7,)
    for k in range(7):
        one = expected_total_utility(scores.scores, x[k], y[k], z[k])
        assert one == pytest.approx(series[k], abs=1e-14)
        oracle = x[k] @ (scores.scores * (2 * z[k] - 1)[:, None]) @ y[k]
        assert one == pytest.approx(oracle, abs=1e-12)
