"""Monte Carlo construction of initial strategy shares.

Each sequence draws one independent normal value per strategy; the share
of a strategy is the fraction of sequences in which it attains the
maximum, a tie going to the lowest canonical index. Draws use a
counter-based Philox stream keyed by the seed, with normals obtained
by inverse CDF from one uniform each, so sequence k consumes exactly
the uniforms at flat positions [k*m, (k+1)*m) of the stream. The result
is bit-for-bit reproducible for a fixed seed and independent of any
batching or scheduling, and `sample_y0` relies on both:
- it walks the stream in blocks of at most `BLOCK_ROWS` sequences
  through one reused buffer, so its memory does not grow with
  `n_sequences`;
- it cuts the sequences into contiguous ranges, one per CPU the process
  may run on, and counts each range on its own thread from its own copy
  of the stream, advanced to the range's first uniform (Salmon et al.,
  "Parallel random numbers: as easy as 1, 2, 3", SC 2011);
- it maps only the draws that can win their row through ndtri. A common
  level T, with about `CANDIDATES` draws per row expected above it, gives
  strategy k a cut c_k = P(N(mu_k, sigma_k) < T), and uniforms u >= c_k
  are the row's candidates. f_k(u) = mu_k + sigma_k * ndtri(u) is
  monotone in u up to a margin far wider than its rounding, so no draw
  below its cut exceeds the bound B = max_k f_k(c_k) plus that margin. A
  row whose best candidate exceeds B is settled: each other draw lies
  strictly below it, and ties fall among exact candidates. Every other
  row is drawn in full (about 4% of rows on the symmetric distribution;
  every row where each draw rounds to its mean, at about 1.5 times the
  ndtri work of drawing every row in full, still exactly).
Its shares equal those of one block of all rows on one thread.
"""

import os
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import QGameError, first_bad, require_int
from .qdata import _read_code_table
from .strategy_space import CANONICAL_CODES

BLOCK_ROWS = 4096  # sequences drawn per block: 4096 x 36 float64 is about 1.2 MB
# about 3.7 s of sampling at 0.37 us per row on one CPU, less where more are free
MAX_SEQUENCES = 10**7
CANDIDATES = 3.0  # draws per row expected above the common level of `_candidates`


@dataclass(frozen=True)
class StatementDistribution:
    means: np.ndarray   # (n_strategies,), in canonical order from load_distribution
    sigmas: np.ndarray

    def __post_init__(self):
        # own contiguous copies: sample_y0 broadcasts them over every draw
        means = np.array(self.means, dtype=float)
        sigmas = np.array(self.sigmas, dtype=float)
        if means.shape != sigmas.shape or means.ndim != 1:
            raise QGameError("means and sigmas must be 1-d arrays of equal length")
        first_bad("means", means, ~np.isfinite(means), "is not finite")
        first_bad("sigmas", sigmas, ~np.isfinite(sigmas), "is not finite")
        first_bad("sigmas", sigmas, sigmas <= 0, "is not strictly positive")
        # the prune's level searches mean +- 9 sigma, and a draw reaches about 8.3 sigma
        with np.errstate(over="ignore"):
            reach = np.abs(means) + 9 * sigmas
        first_bad("sigmas", sigmas, ~np.isfinite(reach), "is too large: |mean| + 9 sigma overflows")
        means.setflags(write=False)
        sigmas.setflags(write=False)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "sigmas", sigmas)

    def __len__(self) -> int:
        return len(self.means)


@dataclass(frozen=True)
class SamplerConfig:
    n_sequences: int = 30000
    seed: int = 0

    def __post_init__(self):
        require_int("n_sequences", self.n_sequences, 1, MAX_SEQUENCES)
        require_int("seed", self.seed, 0, 2**64 - 1)


def _stream(seed: int) -> "np.random.Generator":
    # the key's second word is 0: any other value would move every seed's draws
    key = np.array([np.uint64(seed), np.uint64(0)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _cpu_count() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _count_range(dist, seed, start, stop, block, ndtri, cut, bound) -> np.ndarray:
    """Winner counts of sequences [start, stop), drawn through `block`, with
    the cuts and bound of `_candidates`."""
    m = len(dist)
    rng = _stream(seed)
    # each Philox counter value yields four 64-bit draws, one uniform each
    rng.bit_generator.advance(start * m // 4)
    rng.random(start * m % 4)
    counts = np.zeros(m, dtype=np.int64)
    for lo in range(start, stop, len(block)):
        draws = block[: min(len(block), stop - lo)]
        rng.random(out=draws)
        np.clip(draws, 2.0**-53, None, out=draws)
        # the IEEE operations of means + sigmas * ndtri(u) on the candidates,
        # u >= cut, and each row's best of them (-inf where it has none)
        at = np.flatnonzero(draws >= cut)
        col = at % m
        x = ndtri(draws.take(at))
        x *= dist.sigmas[col]
        x += dist.means[col]
        best = np.full(len(draws), -np.inf)
        np.maximum.at(best, at // m, x)
        # rows whose best candidate does not clear `bound` (or a nan one) are
        # drawn in full
        redo = np.flatnonzero(~(best > bound))
        full = ndtri(draws[redo])
        full *= dist.sigmas
        full += dist.means
        # settled rows: the first of their best candidates, the rest -inf
        draws.fill(-np.inf)
        draws.put(at, x)
        win = np.argmax(draws, axis=1)
        win[redo] = np.argmax(full, axis=1)
        counts += np.bincount(win, minlength=m)
    return counts


def _candidates(dist, ndtri, ndtr) -> tuple:
    """The cuts c_k and the bound B of the prune the module docstring states.
    Where sigmas near the float limit overflow them, B is inf or nan, and
    every row falls back."""
    means, sigmas = dist.means, dist.sigmas
    with np.errstate(over="ignore", invalid="ignore"):
        # T by bisection: every strategy lies above lo and below hi but for 1e-19
        lo, hi = np.min(means - 9 * sigmas), np.max(means + 9 * sigmas)
        for _ in range(20):
            t = (lo + hi) / 2
            lo, hi = (t, hi) if ndtr((means - t) / sigmas).sum() > CANDIDATES else (lo, t)
        cut = ndtr((t - means) / sigmas)
        # a cut outside the clipped uniforms bounds no draw; inside, ndtri is finite
        x = sigmas * ndtri(np.clip(cut, 2.0**-53, 1 - 2.0**-53))
        return cut, np.max(means + x + 1e-9 * (1 + np.abs(means) + np.abs(x)))


def sample_y0(dist: StatementDistribution, config: SamplerConfig | None = None) -> np.ndarray:
    """Argmax-frequency estimate of initial strategy shares.

    Draws `n_sequences` independent rows of normals (one per strategy) and
    returns, for each strategy, the fraction of rows it wins; a tied row
    goes to the lowest canonical index. The rows are cut into contiguous
    ranges, one per thread: a thread per CPU the process may run on, but
    no more than there are blocks of `BLOCK_ROWS` rows or rows in the one
    buffer they share. The calling thread counts the first range. Each
    range is drawn from its own place in one stream, so the result
    depends on neither the block size nor the thread count.
    """
    # imported here, before any counting thread: every process that never samples
    # would pay 6 MB for numpy.random and 0.25 s and 26 MB for scipy.special
    import numpy.random
    from scipy.special import ndtr, ndtri

    cfg = config or SamplerConfig()
    n = cfg.n_sequences
    block = np.empty((min(n, BLOCK_ROWS), len(dist)))
    k = min(_cpu_count(), -(-n // BLOCK_ROWS), len(block))
    cut, bound = _candidates(dist, ndtri, ndtr)
    results: list = [None] * k

    def count(i: int) -> None:
        try:
            results[i] = _count_range(
                dist, cfg.seed, i * n // k, (i + 1) * n // k,
                block[i * len(block) // k: (i + 1) * len(block) // k], ndtri, cut, bound,
            )
        except BaseException as exc:  # re-raised in the calling thread
            results[i] = exc

    threads = [threading.Thread(target=count, args=(i,)) for i in range(1, k)]
    for t in threads:
        t.start()
    count(0)
    for t in threads:
        t.join()
    for r in results:
        if isinstance(r, BaseException):
            raise r
    return sum(results) / n


def load_distribution(path: str | Path) -> StatementDistribution:
    """Read per-strategy (mean, sigma) rows, reordered to canonical order;
    a sigma that is not strictly positive, or whose |mean| + 9 sigma
    overflows, names the path and the strategy."""
    means, sigmas = _read_code_table(path, width=2).T
    with np.errstate(over="ignore"):
        reach = np.abs(means) + 9 * sigmas
    for bad, what in ((sigmas <= 0, "is not strictly positive"),
                      (~np.isfinite(reach), "is too large: |mean| + 9 sigma overflows")):
        j = np.flatnonzero(bad)
        if len(j):
            raise QGameError(f"{path}: sigma of {CANONICAL_CODES[j[0]]} = {sigmas[j[0]]} {what}")
    return StatementDistribution(means, sigmas)
