import re
import statistics
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from qgame import SamplerConfig, StatementDistribution, load_distribution, sample_y0
from qgame import sampling
from qgame.sampling import BLOCK_ROWS, _stream

from measures import repeat_stability


def symmetric() -> StatementDistribution:
    return StatementDistribution(np.zeros(36), np.ones(36))


def skewed(m: int = 36) -> StatementDistribution:
    """Distinct means and sigmas, so every strategy wins some rows."""
    rng = np.random.default_rng(2024)
    return StatementDistribution(rng.normal(0.0, 0.3, m), rng.uniform(0.5, 1.5, m))


def one_block_reference(dist: StatementDistribution, cfg: SamplerConfig,
                        stream=_stream) -> np.ndarray:
    """The sampler as one n_sequences x m block of draws, the form it had
    before it was blocked; kept here as the reference for the blocked one,
    with scipy's ndtri as a quantile independent of the sampler's own."""
    m = len(dist)
    u = stream(cfg.seed).random((cfg.n_sequences, m))
    np.clip(u, 2.0**-53, None, out=u)
    draws = dist.means + dist.sigmas * ndtri(u)
    return np.bincount(np.argmax(draws, axis=1), minlength=m) / cfg.n_sequences


# sizes within one block, at the boundary of one (4095-4097) and of two (8191-8193)
# and across several
@pytest.mark.parametrize("n", [1, 4095, 4096, 4097, 8191, 8192, 8193, 30000])
def test_blocked_sampler_equals_one_block(n):
    dist = skewed()
    for seed in range(10):
        cfg = SamplerConfig(n_sequences=n, seed=seed)
        assert np.array_equal(sample_y0(dist, cfg), one_block_reference(dist, cfg))


def means_at(values: dict) -> StatementDistribution:
    """Unit sigmas; the given means by index, 0 elsewhere."""
    means = np.zeros(36)
    for j, mean in values.items():
        means[j] = mean
    return StatementDistribution(means, np.ones(36))


# the largest sigma a zero mean accepts: 9 sigma is the largest finite float
HUGE_SIGMA = np.nextafter(np.finfo(float).max / 9, 0)

PRUNE_CASES = {
    "symmetric": symmetric,
    "skewed": skewed,
    # every draw rounds to its mean, so every row ties and falls back
    "tie-36": lambda: StatementDistribution(np.full(36, 1e20), np.ones(36)),
    "tie-3": lambda: means_at({20: 1e20, 7: 1e20, 31: 1e20}),
    # cut 1.0 for strategy 4, which is never a candidate; cut 0 for 9
    "saturated-cut": lambda: means_at({4: -1e3, 9: 1e3}),
    # the largest sigma accepted: the level's search starts at the float
    # limit, yet the cuts, the bound and every draw stay finite, so the rows
    # are pruned as at sigma 1
    "huge-sigma": lambda: StatementDistribution(np.zeros(36), np.full(36, HUGE_SIGMA)),
}


@pytest.mark.parametrize("n", [1, 4095, 4097, 8191, 8193, 30000])
@pytest.mark.parametrize("case", PRUNE_CASES)
@pytest.mark.parametrize("target", [None, 1e-9, 36.0], ids=["default", "all-fall-back", "no-prune"])
def test_pruned_sampler_equals_one_block(monkeypatch, target, case, n):
    if target is not None:
        monkeypatch.setattr(sampling, "CANDIDATES", target)
    dist = PRUNE_CASES[case]()
    cfg = SamplerConfig(n_sequences=n, seed=n % 5)
    assert np.array_equal(sample_y0(dist, cfg), one_block_reference(dist, cfg))


# draws that reach the exact quantile at n = 30000, seed 3: those of the rows where
# two or more upper brackets reach the best lower one, out of 1080000 draws
EXACT_DRAWS = {"symmetric": 50, "skewed": 32, "saturated-cut": 0}


@pytest.mark.parametrize("case", EXACT_DRAWS)
def test_ndtri_sees_a_fraction_of_the_draws(monkeypatch, case):
    # a prune that turned itself off, such as an infinite bound, would still
    # be exact but would pass every draw through the bracket step, and
    # brackets that overlapped would pass them through the exact quantile
    sampling._brackets()  # built outside the count
    bracketed, mapped = [], []
    winners, ndtri_ = sampling._winners, sampling._ndtri

    def count_bracketed(dist, draws, at, *rest):
        bracketed.append(len(at))
        return winners(dist, draws, at, *rest)

    def count_mapped(u):
        mapped.append(len(u))
        return ndtri_(u)

    monkeypatch.setattr(sampling, "_winners", count_bracketed)
    monkeypatch.setattr(sampling, "_ndtri", count_mapped)
    dist = PRUNE_CASES[case]()
    n = 30000
    cfg = SamplerConfig(n_sequences=n, seed=3)
    assert np.array_equal(sample_y0(dist, cfg), one_block_reference(dist, cfg))
    assert n <= sum(bracketed) <= 0.2 * n * len(dist)
    # the first call maps the cuts, before any counting thread starts
    assert mapped[0] == len(dist) and sum(mapped[1:]) == EXACT_DRAWS[case]


UNIFORMS = np.concatenate([
    np.random.default_rng(5).random(10**5),
    2.0 ** -np.arange(1, 54),
    1 - 2.0 ** -np.arange(1, 54),
])
UNIFORMS = UNIFORMS[UNIFORMS >= 2.0**-53]


def ulps(x: np.ndarray, reference: np.ndarray) -> float:
    return np.max(np.abs(x - reference) / np.spacing(np.abs(reference)))


def test_quantile_is_the_standard_librarys_as241():
    inv_cdf = statistics.NormalDist().inv_cdf
    reference = np.array([inv_cdf(u) for u in UNIFORMS.tolist()])
    assert ulps(sampling._ndtri(UNIFORMS), reference) <= 2


def test_quantile_is_within_9_ulp_of_scipy():
    assert ulps(sampling._ndtri(UNIFORMS), ndtri(UNIFORMS)) <= 9


def test_quantile_does_not_decrease():
    u = np.sort(np.random.default_rng(6).random(10**6))
    np.clip(u, 2.0**-53, None, out=u)
    assert np.all(np.diff(sampling._ndtri(u)) >= 0)


def test_quantile_clips_its_argument():
    # the clip is _ndtri's own: 0 and 1 map as 2^-53 and 1 - 2^-53, without
    # the divide-by-zero of log(0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        edges = sampling._ndtri(np.array([0.0, 1.0]))
    assert np.array_equal(edges, sampling._ndtri(np.array([2.0**-53, 1 - 2.0**-53])))
    assert np.all(np.isfinite(edges))


def test_cdf_is_within_1e_13_of_scipy():
    x = np.linspace(-9, 9, 100001)
    assert np.max(np.abs(sampling._ndtr(x) / ndtr(x) - 1)) < 1e-13


def test_brackets_hold_the_quantile_of_their_cells():
    lo, hi = sampling._brackets()
    u = np.concatenate([UNIFORMS, np.arange(sampling.CELLS) / sampling.CELLS])
    np.clip(u, 2.0**-53, None, out=u)
    cell = (u * sampling.CELLS).astype(np.intp)
    for q in (sampling._ndtri(u), ndtri(u)):
        assert np.all(lo[cell] < q) and np.all(q < hi[cell])


def test_brackets_equal_a_one_shot_build():
    edges = np.arange(sampling.CELLS + 1) / sampling.CELLS
    edges[[0, -1]] = 2.0**-53, 1 - 2.0**-53
    q = sampling._ndtri(edges)
    margin = 1e-9 * (1 + np.abs(q))
    lo, hi = sampling._brackets()
    assert np.array_equal(lo, q[:-1] - margin[:-1]) and np.array_equal(hi, q[1:] + margin[1:])


def test_bracket_build_memory_is_the_table_and_one_slice():
    tracemalloc.start()
    try:
        sampling._brackets.__wrapped__()  # a fresh build, past the cache
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2**20  # the table is 1 MiB; one pass over every edge took 3.69


class ZeroedStream:
    """The Philox stream of `seed` read as rows of 36 uniforms, with exact
    zeros for every draw of each fifth row and every seventh draw of the
    others: 0 is a uniform that the sampler and the reference clip to 2^-53."""

    def __init__(self, seed: int):
        self.rng = _stream(seed)
        self.bit_generator = self.rng.bit_generator
        self.at = 0

    def random(self, size=None, out=None):
        u = self.rng.random(size, out=out)
        k = self.at + np.arange(u.size)
        u.reshape(-1)[(k // 36 % 5 == 0) | (k % 7 == 0)] = 0.0
        self.at += u.size
        return u


# cuts of about 0.94 for every strategy; one of 2.3e-19, below 2^-53; one of 0
@pytest.mark.parametrize("case", ["skewed", "tiny-cut", "saturated-cut"])
def test_zero_draws_are_counted_as_clipped(monkeypatch, case):
    dist = means_at({9: 10.5}) if case == "tiny-cut" else PRUNE_CASES[case]()
    cut, bound = sampling._candidates(dist)
    assert (np.min(cut) > 2.0**-53) == (case == "skewed")
    monkeypatch.setattr(sampling, "_stream", ZeroedStream)
    n = 2 * BLOCK_ROWS + 3
    counts = sampling._count_range(dist, 7, 0, n, np.empty((BLOCK_ROWS, 36)), cut, bound,
                                   sampling._brackets())
    reference = one_block_reference(dist, SamplerConfig(n, 7), ZeroedStream)
    assert np.array_equal(counts / n, reference)


@pytest.mark.parametrize("block", [1, 7, 1000])
def test_shares_do_not_depend_on_the_block_size(monkeypatch, block):
    dist = skewed()
    cfg = SamplerConfig(n_sequences=2500, seed=11)
    expected = sample_y0(dist, cfg)
    monkeypatch.setattr(sampling, "BLOCK_ROWS", block)
    assert np.array_equal(sample_y0(dist, cfg), expected)


def spy_on_ranges(monkeypatch) -> list:
    """Record (start, stop, buffer rows, thread) of every range counted. The
    list holds each Thread object, so two threads that ran one after the
    other stay distinct even where the second reuses the first's id."""
    calls = []
    count_range = sampling._count_range

    def spy(dist, seed, start, stop, block, *rest):
        calls.append((start, stop, len(block), threading.current_thread()))
        return count_range(dist, seed, start, stop, block, *rest)

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
    assert len({r[3] for r in ranges}) == k and ranges[0][3] is threading.current_thread()
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
    assert calls == [(0, n, min(n, BLOCK_ROWS), threading.current_thread())]
    assert threading.active_count() == started


@pytest.mark.filterwarnings("error::pytest.PytestUnhandledThreadExceptionWarning")
@pytest.mark.parametrize("failing", [0, 2])
def test_a_failure_in_any_range_reaches_the_caller(monkeypatch, failing):
    monkeypatch.setattr(sampling, "_cpu_count", lambda: 3)
    calls = spy_on_ranges(monkeypatch)
    count_range = sampling._count_range
    n = 3 * BLOCK_ROWS

    def fail_one(dist, seed, start, stop, block, *rest):
        counts = count_range(dist, seed, start, stop, block, *rest)
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


def test_sampler_memory_does_not_grow_with_n_sequences(monkeypatch):
    dist = skewed()
    sample_y0(dist, SamplerConfig(n_sequences=10))  # brackets built outside the trace
    for cpus in (1, 2):
        monkeypatch.setattr(sampling, "_cpu_count", lambda: cpus)
        tracemalloc.start()
        try:
            sample_y0(dist, SamplerConfig(n_sequences=300000, seed=4))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the 1.1 MiB buffer, the candidates' arrays and each thread's mask
        assert peak < 2.25 * 2**20, cpus


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
    shares = sample_y0(PRUNE_CASES["tie-3"](), SamplerConfig(500, 3))
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


@pytest.mark.parametrize(
    "mean, sigma",
    [(0.0, np.nextafter(HUGE_SIGMA, np.inf)), (0.0, 1e308), (-1.7e308, 1e307)],
    ids=["one-ulp-over", "1e308", "large-mean"],
)
def test_distribution_rejects_a_sigma_whose_reach_overflows(mean, sigma):
    # sigma = 1e308 overflowed in sample_y0, and the draws that rounded to
    # +inf tied, so the lowest index took them
    means, sigmas = np.zeros(36), np.ones(36)
    means[6], sigmas[6] = mean, sigma
    message = f"sigmas[6] = {sigmas[6]} is too large: |mean| + 9 sigma overflows"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        StatementDistribution(means, sigmas)


SYMMETRIC_CSV = Path(sampling.__file__).parent / "data" / "symmetric_distribution.csv"


@pytest.mark.parametrize(
    "mean, sigma, reason",
    [
        (0.0, np.nextafter(HUGE_SIGMA, np.inf), "is too large: |mean| + 9 sigma overflows"),
        (0.0, 1e308, "is too large: |mean| + 9 sigma overflows"),
        (-1.7e308, 1e307, "is too large: |mean| + 9 sigma overflows"),
        (0.0, -0.5, "is not strictly positive"),
        (0.0, 0.0, "is not strictly positive"),
    ],
    ids=["one-ulp-over", "1e308", "large-mean", "negative", "zero"],
)
def test_distribution_and_its_file_reject_a_sigma_alike(tmp_path, mean, sigma, reason):
    # one rule for both: the class names sigmas[6], the loader the file and
    # the strategy's code, each with the same value and reason
    means, sigmas = np.zeros(36), np.ones(36)
    means[6], sigmas[6] = mean, sigma
    with pytest.raises(ValueError) as by_class:
        StatementDistribution(means, sigmas)
    assert str(by_class.value) == f"sigmas[6] = {sigmas[6]} {reason}"
    code = sampling.CANONICAL_CODES[6]
    text = SYMMETRIC_CSV.read_text()
    bad = tmp_path / "dist.csv"
    bad.write_text(text.replace(f"{code},0.0,1.0", f"{code},{mean!r},{float(sigma)!r}", 1))
    assert bad.read_text() != text
    with pytest.raises(ValueError) as by_file:
        load_distribution(bad)
    assert str(by_file.value) == f"{bad}: sigma of {code} = {sigmas[6]} {reason}"


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
