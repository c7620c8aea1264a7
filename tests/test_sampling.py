import tracemalloc

import numpy as np
import pytest
from scipy.special import ndtri

from qgame import SamplerConfig, StatementDistribution, repeat_stability, sample_y0
from qgame import sampling
from qgame.sampling import BLOCK_ROWS, _stream, _winners


def symmetric(space) -> StatementDistribution:
    return StatementDistribution(np.zeros(36), np.ones(36), space.codes)


def skewed(space) -> StatementDistribution:
    """Distinct means and sigmas, so every strategy wins some rows."""
    rng = np.random.default_rng(2024)
    return StatementDistribution(
        rng.normal(0.0, 0.3, 36), rng.uniform(0.5, 1.5, 36), space.codes
    )


def one_block_reference(dist: StatementDistribution, cfg: SamplerConfig) -> np.ndarray:
    """The sampler as one n_sequences x m block of draws, the form it had
    before it was blocked; kept here as the reference for the blocked one."""
    m = len(dist)
    u = _stream(cfg.seed, 0).random((cfg.n_sequences, m))
    np.clip(u, 2.0**-53, None, out=u)
    draws = dist.means + dist.sigmas * ndtri(u)
    tie_rng = _stream(cfg.seed, 1)
    winners = np.argmax(draws, axis=1)
    row_max = draws[np.arange(len(draws)), winners]
    tied = np.count_nonzero(draws == row_max[:, None], axis=1) > 1
    if cfg.tie_rule == "random-uniform":
        for row in np.flatnonzero(tied):
            candidates = np.flatnonzero(draws[row] == row_max[row])
            winners[row] = candidates[tie_rng.integers(len(candidates))]
    return np.bincount(winners, minlength=m) / cfg.n_sequences


@pytest.mark.parametrize("n", [1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 30000])
def test_blocked_sampler_equals_one_block(space, n):
    dist = skewed(space)
    for seed in range(10):
        cfg = SamplerConfig(n_sequences=n, seed=seed)
        assert np.array_equal(sample_y0(dist, cfg), one_block_reference(dist, cfg))


@pytest.mark.parametrize("block", [1, 7, 1000])
def test_shares_do_not_depend_on_the_block_size(space, monkeypatch, block):
    dist = skewed(space)
    cfg = SamplerConfig(n_sequences=2500, seed=11)
    expected = sample_y0(dist, cfg)
    monkeypatch.setattr(sampling, "BLOCK_ROWS", block)
    assert np.array_equal(sample_y0(dist, cfg), expected)


def test_random_uniform_ties_across_block_boundaries(space):
    # at 1e20 one ulp is 16384, so every draw rounds to its mean and
    # every row is a 36-way tie resolved by the tie stream, in row order
    dist = StatementDistribution(np.full(36, 1e20), np.ones(36), space.codes)
    for seed in (0, 1, 2):
        cfg = SamplerConfig(
            n_sequences=2 * BLOCK_ROWS + 3, seed=seed, tie_rule="random-uniform"
        )
        shares = sample_y0(dist, cfg)
        assert np.count_nonzero(shares) == 36
        assert np.array_equal(shares, one_block_reference(dist, cfg))


def test_sampler_memory_does_not_grow_with_n_sequences(space):
    dist = skewed(space)
    sample_y0(dist, SamplerConfig(n_sequences=10))  # scipy imported outside the trace
    tracemalloc.start()
    try:
        sample_y0(dist, SamplerConfig(n_sequences=300000, seed=4))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_output_is_on_the_simplex(space):
    y0 = sample_y0(symmetric(space), SamplerConfig(n_sequences=977, seed=3))
    assert np.all(y0 >= 0)
    assert y0.sum() == pytest.approx(1.0, abs=1e-12)


def test_separated_mean_takes_all_mass(space):
    means = np.zeros(36)
    means[7] = 100.0
    dist = StatementDistribution(means, np.ones(36), space.codes)
    y0 = sample_y0(dist, SamplerConfig(n_sequences=20000, seed=1))
    assert y0[7] > 0.999


def test_symmetric_distribution_is_near_uniform(space):
    n = 30000
    y0 = sample_y0(symmetric(space), SamplerConfig(n_sequences=n, seed=2))
    tol = 3 * np.sqrt((1 / 36) * (35 / 36) / n)
    assert np.abs(y0 - 1 / 36).max() < 2 * tol  # every entry well inside


def test_seeded_determinism_is_bitwise(space):
    dist = symmetric(space)
    a = sample_y0(dist, SamplerConfig(n_sequences=5000, seed=99))
    b = sample_y0(dist, SamplerConfig(n_sequences=5000, seed=99))
    assert np.array_equal(a, b)
    c = sample_y0(dist, SamplerConfig(n_sequences=5000, seed=100))
    assert not np.array_equal(a, c)


def test_mean_shift_is_monotone_in_expectation(space):
    # paired seeds: raising one strategy's mean must not lower its share
    base = symmetric(space)
    raised_means = np.zeros(36)
    raised_means[11] = 0.5
    raised = StatementDistribution(raised_means, np.ones(36), space.codes)
    ups = 0
    for seed in range(10):
        cfg = SamplerConfig(n_sequences=4000, seed=seed)
        ups += sample_y0(raised, cfg)[11] > sample_y0(base, cfg)[11]
    assert ups == 10


def test_tie_rule_first_index():
    draws = np.array([[1.0, 1.0, 0.5], [0.2, 0.9, 0.9], [3.0, 1.0, 3.0]])
    rng = np.random.default_rng(0)
    assert _winners(draws, "first-index", rng).tolist() == [0, 1, 0]


def test_tie_rule_random_uniform_hits_all_candidates():
    draws = np.tile([[1.0, 1.0, 0.0]], (2000, 1))
    rng = np.random.default_rng(8)
    w = _winners(draws, "random-uniform", rng)
    assert set(w.tolist()) == {0, 1}
    assert abs(np.mean(w == 0) - 0.5) < 0.05


def test_sampler_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(n_sequences=0)
    with pytest.raises(ValueError):
        SamplerConfig(seed=-1)
    with pytest.raises(ValueError):
        SamplerConfig(tie_rule="coin-flip")
    with pytest.raises(ValueError):
        StatementDistribution(np.zeros(3), np.array([1.0, 0.0, 1.0]), ("a", "b", "c"))


def test_repeat_stability_identical_seeds_is_zero(space):
    cfg = SamplerConfig(n_sequences=2000, seed=5)
    assert repeat_stability(symmetric(space), cfg, repeats=2, seeds=[5, 5]) == 0.0


def test_repeat_stability_converged_sample_size(space):
    # empirical bound: pairwise L1 between 30000-draw estimates of a
    # 36-cell distribution concentrates near 0.04; 0.06 leaves headroom
    cfg = SamplerConfig(n_sequences=30000, seed=0)
    d = repeat_stability(symmetric(space), cfg, repeats=5)
    assert d < 0.06


def test_repeat_stability_tiny_sample_is_noisy(space):
    cfg = SamplerConfig(n_sequences=10, seed=0)
    assert repeat_stability(symmetric(space), cfg, repeats=5) > 0.1


def test_repeat_stability_argument_checks(space):
    cfg = SamplerConfig(n_sequences=10, seed=0)
    with pytest.raises(ValueError):
        repeat_stability(symmetric(space), cfg, repeats=1)
    with pytest.raises(ValueError):
        repeat_stability(symmetric(space), cfg, repeats=3, seeds=[1, 2])
