import sys
import threading
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


def skewed(m: int = 36) -> StatementDistribution:
    """Distinct means and sigmas, so every strategy wins some rows."""
    rng = np.random.default_rng(2024)
    return StatementDistribution(rng.normal(0.0, 0.3, m), rng.uniform(0.5, 1.5, m))


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


def spy_on_ranges(monkeypatch) -> list:
    """Record (start, stop, buffer rows, thread id) of every range counted."""
    calls = []
    count_range = sampling._count_range

    def spy(dist, seed, start, stop, block, ndtri):
        calls.append((start, stop, len(block), threading.get_ident()))
        return count_range(dist, seed, start, stop, block, ndtri)

    monkeypatch.setattr(sampling, "_count_range", spy)
    return calls


@pytest.mark.parametrize("cpus", [1, 2, 3, 8])
@pytest.mark.parametrize("m", [36, 37, 5])
def test_shares_do_not_depend_on_the_cpu_count(monkeypatch, cpus, m):
    dist = skewed(m)
    n = 2 * BLOCK_ROWS + 3  # three blocks, so 8 CPUs give more threads than blocks
    monkeypatch.setattr(sampling, "_cpu_count", lambda: cpus)
    calls = spy_on_ranges(monkeypatch)
    for seed in (0, 1, 7):
        cfg = SamplerConfig(n_sequences=n, seed=seed)
        assert np.array_equal(sample_y0(dist, cfg), one_block_reference(dist, cfg))
    k = min(cpus, 3)
    ranges = sorted(calls[:k])  # the threads record in any order
    # contiguous ranges covering every row, each on its own thread, the first
    # on the caller's, sharing one buffer of BLOCK_ROWS rows
    assert [r[0] for r in ranges] == [i * n // k for i in range(k)]
    assert [r[1] for r in ranges] == [(i + 1) * n // k for i in range(k)]
    assert sum(r[2] for r in ranges) == BLOCK_ROWS
    assert len({r[3] for r in ranges}) == k and ranges[0][3] == threading.get_ident()
    assert len(calls) == 3 * k


def test_more_threads_than_cores_under_fast_switching(monkeypatch):
    # eight threads share the result list and one buffer; switching every
    # microsecond interleaves them as often as the interpreter can
    monkeypatch.setattr(sampling, "_cpu_count", lambda: 8)
    dist = skewed()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for seed in range(3):
            cfg = SamplerConfig(n_sequences=8 * BLOCK_ROWS + 5, seed=seed)
            assert np.array_equal(sample_y0(dist, cfg), one_block_reference(dist, cfg))
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("block", [1, 2, 7])
def test_threads_are_capped_at_the_buffer_rows(monkeypatch, block):
    dist = skewed()
    cfg = SamplerConfig(n_sequences=2500, seed=11)
    monkeypatch.setattr(sampling, "_cpu_count", lambda: 8)
    monkeypatch.setattr(sampling, "BLOCK_ROWS", block)
    calls = spy_on_ranges(monkeypatch)
    assert np.array_equal(sample_y0(dist, cfg), one_block_reference(dist, cfg))
    assert len(calls) == min(block, 8) and all(rows >= 1 for _, _, rows, _ in calls)


@pytest.mark.parametrize(
    "cpus, n", [(8, 1), (8, BLOCK_ROWS), (1, 30000)], ids=["one-row", "one-block", "one-cpu"]
)
def test_one_block_or_one_cpu_starts_no_thread(monkeypatch, cpus, n):
    # the CPU count comes from the affinity mask, as under taskset
    monkeypatch.setattr(sampling.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    calls = spy_on_ranges(monkeypatch)
    started = threading.active_count()
    cfg = SamplerConfig(n_sequences=n, seed=3)
    assert np.array_equal(sample_y0(skewed(), cfg), one_block_reference(skewed(), cfg))
    assert calls == [(0, n, min(n, BLOCK_ROWS), threading.get_ident())]
    assert threading.active_count() == started


@pytest.mark.filterwarnings("error::pytest.PytestUnhandledThreadExceptionWarning")
@pytest.mark.parametrize("failing", [0, 2])
def test_a_failure_in_any_range_reaches_the_caller(monkeypatch, failing):
    monkeypatch.setattr(sampling, "_cpu_count", lambda: 3)
    calls = spy_on_ranges(monkeypatch)
    count_range = sampling._count_range
    n = 3 * BLOCK_ROWS

    def fail_one(dist, seed, start, stop, block, ndtri):
        counts = count_range(dist, seed, start, stop, block, ndtri)
        if start == failing * n // 3:
            raise RuntimeError(f"range at row {start} failed")
        return counts

    monkeypatch.setattr(sampling, "_count_range", fail_one)
    with pytest.raises(RuntimeError, match=f"range at row {failing * n // 3} failed"):
        sample_y0(skewed(), SamplerConfig(n_sequences=n, seed=5))
    assert len(calls) == 3  # the failure stopped no other range


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


@pytest.mark.parametrize(
    "field, index, value, message",
    [
        ("means", 5, np.nan, r"means\[5\] = nan is not finite"),
        ("means", 0, -np.inf, r"means\[0\] = -inf is not finite"),
        ("sigmas", 3, np.inf, r"sigmas\[3\] = inf is not finite"),
        ("sigmas", 2, np.nan, r"sigmas\[2\] = nan is not finite"),
        ("sigmas", 7, -0.5, r"sigmas\[7\] = -0.5 is not strictly positive"),
    ],
)
def test_distribution_names_its_first_bad_entry(field, index, value, message):
    # a NaN mean once took every row (argmax picks the first NaN), and an
    # infinite sigma gave its strategy about half of them
    params = {"means": np.zeros(36), "sigmas": np.ones(36)}
    params[field][index] = value
    params[field][index + 1] = value  # only the first is named
    with pytest.raises(ValueError, match=f"^{message}$"):
        StatementDistribution(**params)


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
