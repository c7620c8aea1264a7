import numpy as np
import pytest

from qgame import (
    ZScoreMatrix,
    build_payoff_matrix,
    expected_total_utility,
    factor_utilities,
)
from qgame.errors import DimensionMismatch

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


def test_factor_utilities_rejects_bad_shape(scores):
    with pytest.raises(DimensionMismatch):
        factor_utilities(scores, np.full(35, 1 / 35))
    with pytest.raises(DimensionMismatch):
        factor_utilities(scores, np.full(36, 1 / 18))  # sums to 2


# --- payoff matrix ---

def test_neutral_sign_frequencies_zero_the_matrix(scores):
    payoff = build_payoff_matrix(scores, np.full(5, 0.5))
    assert np.array_equal(payoff.values, np.zeros((5, 36)))


def test_unit_sign_frequencies_reproduce_scores(scores):
    payoff = build_payoff_matrix(scores, np.ones(5))
    assert np.array_equal(payoff.values, scores.scores)


def test_entry_at_bundled_sign_frequencies(scores):
    payoff = build_payoff_matrix(scores, np.array(Z0))
    j = CANONICAL_ORDER.index("D.R.A.PP")
    assert payoff.values[0, j] == pytest.approx(5 * (2 * 0.39 - 1), abs=1e-12)
    assert payoff.values[0, j] == pytest.approx(-1.1, abs=1e-12)


def test_sign_flip_identity(scores):
    rng = np.random.default_rng(5)
    for _ in range(100):
        z = rng.uniform(0, 1, 5)
        a = build_payoff_matrix(scores, z).values
        b = build_payoff_matrix(scores, 1 - z).values
        assert np.allclose(a, -b, atol=1e-12)


def test_entry_bound(scores):
    rng = np.random.default_rng(17)
    for _ in range(50):
        z = rng.uniform(0, 1, 5)
        assert np.abs(build_payoff_matrix(scores, z).values).max() <= 5.0


def test_payoff_matrix_rejects_out_of_range_z(scores):
    with pytest.raises(ValueError):
        build_payoff_matrix(scores, np.array([0.5, 0.5, 0.5, 0.5, 1.5]))
    with pytest.raises(DimensionMismatch):
        build_payoff_matrix(scores, np.full(4, 0.5))


# --- expected total utility ---

def test_single_entry_pick(scores):
    payoff = build_payoff_matrix(scores, np.ones(5))
    x = unit_mass(0, 5)
    y = unit_mass(CANONICAL_ORDER.index("D.R.A.PP"))
    assert expected_total_utility(payoff, x, y) == 5.0


def test_zero_matrix_gives_zero(scores):
    payoff = build_payoff_matrix(scores, np.full(5, 0.5))
    rng = np.random.default_rng(23)
    for _ in range(10):
        x = rng.dirichlet(np.ones(5))
        y = rng.dirichlet(np.ones(36))
        assert expected_total_utility(payoff, x, y) == 0.0


def test_start_of_case_study_is_negative(scores):
    x0 = np.array([7, 3, 3, 4, 2]) / 19
    payoff = build_payoff_matrix(scores, np.array(Z0))
    u = expected_total_utility(payoff, x0, y0_normalized())
    assert u == pytest.approx(UTILITY_AT_START, abs=1e-12)
    assert u < 0


def test_utility_bound(scores):
    rng = np.random.default_rng(29)
    for _ in range(100):
        payoff = build_payoff_matrix(scores, rng.uniform(0, 1, 5))
        x = rng.dirichlet(np.ones(5))
        y = rng.dirichlet(np.ones(36))
        assert abs(expected_total_utility(payoff, x, y)) <= 5.0


def test_small_matrix_works_without_space():
    scores = ZScoreMatrix(np.array([[2.0, 0.0], [0.0, 1.0]]))
    payoff = build_payoff_matrix(scores, np.array([1.0, 1.0]))
    assert expected_total_utility(payoff, [1, 0], [1, 0]) == 2.0
