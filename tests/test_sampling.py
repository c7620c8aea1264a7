import tracemalloc

import numpy as np
import pytest
from scipy.special import ndtri

from qgame import SamplerConfig, StatementDistribution, sample_y0
from qgame import sampling
from qgame.sampling import BLOCK_ROWS, _stream

from measures import repeat_stability


def symmetric() -> StatementDistribution:
    return StatementDistribution(np.zeros(36), np.ones(36))


def skewed() -> StatementDistribution:
    """Distinct means and sigmas, so every strategy wins some rows."""
    rng = np.random.default_rng(2024)
    return StatementDistribution(rng.normal(0.0, 0.3, 36), rng.uniform(0.5, 1.5, 36))


def one_block_reference(dist: StatementDistribution, cfg: SamplerConfig) -> np.ndarray:
    """The sampler as one n_sequences x m block of draws, the form it had
    before it was blocked; kept here as the reference for the blocked one."""
    m = len(dist)
    u = _stream(cfg.seed).random((cfg.n_sequences, m))
    np.clip(u, 2.0**-53, None, out=u)
    draws = dist.means + dist.sigmas * ndtri(u)
    return np.bincount(np.argmax(draws, axis=1), minlength=m) / cfg.n_sequences


@pytest.mark.parametrize("n", [1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 30000])
def test_blocked_sampler_equals_one_block(n):
    dist = skewed()
    for seed in range(10):
        cfg = SamplerConfig(n_sequences=n, seed=seed)
        assert np.array_equal(sample_y0(dist, cfg), one_block_reference(dist, cfg))


@pytest.mark.parametrize("block", [1, 7, 1000])
def test_shares_do_not_depend_on_the_block_size(monkeypatch, block):
    dist = skewed()
    cfg = SamplerConfig(n_sequences=2500, seed=11)
    expected = sample_y0(dist, cfg)
    monkeypatch.setattr(sampling, "BLOCK_ROWS", block)
    assert np.array_equal(sample_y0(dist, cfg), expected)


def test_ties_across_block_boundaries_go_to_the_first_index():
    # at 1e20 one ulp is 16384, so every draw rounds to its mean and
    # every row, in every block, is a 36-way tie
    dist = StatementDistribution(np.full(36, 1e20), np.ones(36))
    for seed in (0, 1, 2):
        cfg = SamplerConfig(n_sequences=2 * BLOCK_ROWS + 3, seed=seed)
        shares = sample_y0(dist, cfg)
        assert shares.tolist() == [1.0] + [0.0] * 35
        assert np.array_equal(shares, one_block_reference(dist, cfg))


def test_sampler_memory_does_not_grow_with_n_sequences():
    dist = skewed()
    sample_y0(dist, SamplerConfig(n_sequences=10))  # scipy imported outside the trace
    tracemalloc.start()
    try:
        sample_y0(dist, SamplerConfig(n_sequences=300000, seed=4))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_output_is_on_the_simplex():
    y0 = sample_y0(symmetric(), SamplerConfig(n_sequences=977, seed=3))
    assert np.all(y0 >= 0)
    assert y0.sum() == pytest.approx(1.0, abs=1e-12)


def test_separated_mean_takes_all_mass():
    means = np.zeros(36)
    means[7] = 100.0
    dist = StatementDistribution(means, np.ones(36))
    y0 = sample_y0(dist, SamplerConfig(n_sequences=20000, seed=1))
    assert y0[7] > 0.999


def test_symmetric_distribution_is_near_uniform():
    n = 30000
    y0 = sample_y0(symmetric(), SamplerConfig(n_sequences=n, seed=2))
    tol = 3 * np.sqrt((1 / 36) * (35 / 36) / n)
    assert np.abs(y0 - 1 / 36).max() < 2 * tol  # every entry well inside


def test_seeded_determinism_is_bitwise():
    dist = symmetric()
    a = sample_y0(dist, SamplerConfig(n_sequences=5000, seed=99))
    b = sample_y0(dist, SamplerConfig(n_sequences=5000, seed=99))
    assert np.array_equal(a, b)
    c = sample_y0(dist, SamplerConfig(n_sequences=5000, seed=100))
    assert not np.array_equal(a, c)


def test_mean_shift_is_monotone_in_expectation():
    # paired seeds: raising one strategy's mean must not lower its share
    base = symmetric()
    raised_means = np.zeros(36)
    raised_means[11] = 0.5
    raised = StatementDistribution(raised_means, np.ones(36))
    ups = 0
    for seed in range(10):
        cfg = SamplerConfig(n_sequences=4000, seed=seed)
        ups += sample_y0(raised, cfg)[11] > sample_y0(base, cfg)[11]
    assert ups == 10


def test_a_tie_goes_to_the_lowest_tied_index():
    # 7, 20 and 31 tie at 1e20 in every row and beat the rest, which lie
    # near 0; the lowest of the three takes every row
    means = np.zeros(36)
    means[[20, 7, 31]] = 1e20
    shares = sample_y0(StatementDistribution(means, np.ones(36)), SamplerConfig(500, 3))
    assert shares[7] == 1.0 and np.count_nonzero(shares) == 1


def test_sampler_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(n_sequences=0)
    # the config only: no sample of this size is drawn
    assert SamplerConfig(n_sequences=sampling.MAX_SEQUENCES).n_sequences == 10**7
    with pytest.raises(ValueError, match=f"n_sequences: must be at most {10**7}"):
        SamplerConfig(n_sequences=sampling.MAX_SEQUENCES + 1)
    for kwargs in ({"n_sequences": 2.7}, {"n_sequences": True}, {"seed": 1.9}, {"seed": False}):
        with pytest.raises(ValueError, match=f"{next(iter(kwargs))}: expected an integer"):
            SamplerConfig(**kwargs)
    with pytest.raises(ValueError):
        SamplerConfig(seed=-1)
    with pytest.raises(ValueError):
        StatementDistribution(np.zeros(3), np.array([1.0, 0.0, 1.0]))


def test_repeat_stability_identical_seeds_is_zero():
    cfg = SamplerConfig(n_sequences=2000, seed=5)
    assert repeat_stability(symmetric(), cfg, repeats=2, seeds=[5, 5]) == 0.0


def test_repeat_stability_converged_sample_size():
    # empirical bound: pairwise L1 between 30000-draw estimates of a
    # 36-cell distribution concentrates near 0.04; 0.06 leaves headroom
    cfg = SamplerConfig(n_sequences=30000, seed=0)
    d = repeat_stability(symmetric(), cfg, repeats=5)
    assert d < 0.06


def test_repeat_stability_tiny_sample_is_noisy():
    cfg = SamplerConfig(n_sequences=10, seed=0)
    assert repeat_stability(symmetric(), cfg, repeats=5) > 0.1


def test_repeat_stability_argument_checks():
    cfg = SamplerConfig(n_sequences=10, seed=0)
    with pytest.raises(ValueError):
        repeat_stability(symmetric(), cfg, repeats=1)
    with pytest.raises(ValueError):
        repeat_stability(symmetric(), cfg, repeats=3, seeds=[1, 2])
