"""Monte Carlo construction of initial strategy shares.

Each sequence draws one independent normal value per strategy; the share
of a strategy is the fraction of sequences in which it attains the
maximum, a tie going to the lowest canonical index. Draws use a
counter-based Philox stream keyed by the seed, with normals obtained
by inverse CDF from one uniform each, so sequence k consumes exactly
the uniforms at flat positions [k*m, (k+1)*m) of the stream. The inverse
CDF q is Wichura's AS241 (Applied Statistics 37, 1988), the algorithm of
`statistics.NormalDist.inv_cdf`, on numpy arrays. The result is
bit-for-bit reproducible for a fixed seed and independent of any
batching or scheduling, and `sample_y0` relies on both:
- it walks the stream in blocks of at most `BLOCK_ROWS` sequences
  through one reused buffer (4096 x 36 float64, about 1.2 MB), and builds
  the table below in slices of 4096 cells, so its memory does not grow
  with `n_sequences`: about 2.2 MB at its peak, besides the 1 MB table;
- it cuts the sequences into contiguous ranges, one per CPU the process
  may run on, and counts each range on its own thread from its own copy
  of the stream, advanced to the range's first uniform (Salmon et al.,
  "Parallel random numbers: as easy as 1, 2, 3", SC 2011);
- it looks only at the draws that can win their row. A common level T,
  with about `CANDIDATES` draws per row expected above it, gives
  strategy k a cut c_k = P(N(mu_k, sigma_k) < T), and uniforms u >= c_k
  are the row's candidates. f_k(u) = mu_k + sigma_k * q(u) is monotone
  in u up to a margin far wider than its rounding, so no draw below its
  cut exceeds the bound B = max_k f_k(c_k) plus that margin;
- it settles rows from a table of quantile brackets rather than from q.
  The table splits [0, 1) into `CELLS` cells of equal width and holds,
  for each, bounds lo <= q(u) <= hi over the cell, widened by the same
  margin. Rounding is monotone, so a draw in the cell lies in
  [f_k(lo), f_k(hi)] as computed. Where exactly one draw's upper bracket
  reaches the row's best lower bracket, that draw beats every other one
  strictly, and where that lower bracket clears B it beats the draws
  below their cuts too: the row is settled without q. Otherwise q maps
  the draws whose upper bracket reaches the best lower one, and the
  first of their maxima wins. A row whose best lower bracket does not
  clear B goes through the same step with all its draws (about 4% of
  rows on the symmetric distribution; every row where each draw rounds
  to its mean, which then maps every draw through q, still exactly).
Its shares equal those of one block of all rows on one thread.
"""

import functools
import math
import os
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import QGameError, first_bad, reading, require_int
from .qdata import _read_code_table
from .strategy_space import CANONICAL_CODES

BLOCK_ROWS = 4096  # sequences drawn per block: 4096 x 36 float64 is about 1.2 MB
# about 3.7 s of sampling at 0.37 us per row on one CPU, less where more are free
MAX_SEQUENCES = 10**7
CANDIDATES = 3.0  # draws per row expected above the common level of `_candidates`
CELLS = 2**16  # cells of the bracket table of `_brackets`

# AS241's rational approximations, numerator and denominator, highest power
# first: |u - 0.5| <= 0.425 in r = 0.180625 - (u - 0.5)^2, then the tails
# in r = sqrt(-log(min(u, 1 - u))) - 1.6 up to r = 5, and r - 5 beyond
_AS241 = (
    ((2.5090809287301226727e+3, 3.3430575583588128105e+4, 6.7265770927008700853e+4,
      4.5921953931549871457e+4, 1.3731693765509461125e+4, 1.9715909503065514427e+3,
      1.3314166789178437745e+2, 3.3871328727963666080e+0),
     (5.2264952788528545610e+3, 2.8729085735721942674e+4, 3.9307895800092710610e+4,
      2.1213794301586595867e+4, 5.3941960214247511077e+3, 6.8718700749205790830e+2,
      4.2313330701600911252e+1, 1.0)),
    ((7.7454501427834140764e-4, 2.2723844989269184583e-2, 2.4178072517745061177e-1,
      1.2704582524523683826e+0, 3.6478483247632045505e+0, 5.7694972214606914055e+0,
      4.6303378461565452959e+0, 1.4234371107496835773e+0),
     (1.0507500716444168432e-9, 5.4759380849953449460e-4, 1.5198666563616457197e-2,
      1.4810397642748007459e-1, 6.8976733498510000455e-1, 1.6763848301838038494e+0,
      2.0531916266377588219e+0, 1.0)),
    ((2.0103343992922881327e-7, 2.7115555687434875782e-5, 1.2426609473880784386e-3,
      2.6532189526576123093e-2, 2.9656057182850489123e-1, 1.7848265399172913358e+0,
      5.4637849111641143699e+0, 6.6579046435011037772e+0),
     (2.0442631033899397856e-15, 1.4215117583164458887e-7, 1.8463183175100546818e-5,
      7.8686913114561329059e-4, 1.4875361290850614853e-2, 1.3692988092273580531e-1,
      5.9983220655588793769e-1, 1.0)),
)


def _sigma_faults(means: np.ndarray, sigmas: np.ndarray) -> tuple:
    """(mask, reason) of each fault of finite sigmas, in the order they are checked."""
    # the prune's level searches mean +- 9 sigma, and a draw reaches about 8.3 sigma
    with np.errstate(over="ignore"):
        reach = np.abs(means) + 9 * sigmas
    return ((sigmas <= 0, "is not strictly positive"),
            (~np.isfinite(reach), "is too large: |mean| + 9 sigma overflows"))


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
        for bad, what in _sigma_faults(means, sigmas):
            first_bad("sigmas", sigmas, bad, what)
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


def _ndtri(u: np.ndarray) -> np.ndarray:
    """The standard normal quantile of each u, clipped to [2^-53, 1 - 2^-53], by
    AS241 with the operations of `statistics.NormalDist().inv_cdf` in the same
    order; `np.polyval` runs Horner's rule as it does."""
    u = np.clip(u, 2.0**-53, 1 - 2.0**-53)
    q = u - 0.5
    x = np.empty_like(q)
    mid = np.abs(q) <= 0.425
    i = np.flatnonzero(mid)
    qi = q[i]
    r = 0.180625 - qi * qi
    x[i] = np.polyval(_AS241[0][0], r) * qi / np.polyval(_AS241[0][1], r)
    j = np.flatnonzero(~mid)
    t = u[j]
    r = np.sqrt(-np.log(np.minimum(t, 1.0 - t)))
    far = r > 5.0
    for (num, den), shift, sel in zip(_AS241[1:], (1.6, 5.0), (~far, far)):
        k = np.flatnonzero(sel)
        rk = r[k] - shift
        x[j[k]] = np.polyval(num, rk) / np.polyval(den, rk)
    low = np.flatnonzero(q < -0.425)
    x[low] = -x[low]
    return x


def _ndtr(x: np.ndarray) -> np.ndarray:
    """The standard normal CDF of each x, erfc(-x / sqrt(2)) / 2."""
    return np.array([math.erfc(-v / math.sqrt(2)) / 2 for v in x.tolist()])


@functools.cache
def _brackets() -> np.ndarray:
    """Read-only rows (lo, hi) over the `CELLS` cells [i, i + 1) / CELLS of
    [0, 1]: lo[i] <= q(u) <= hi[i] for u in cell i, q clipping u as `_ndtri`
    does, each widened by the margin of `_candidates`' bound. Built at the
    first `sample_y0`."""
    table, step = np.empty((2, CELLS)), CELLS // 16
    # in slices of 4096 cells, whose edges overlap by one: q and the margin
    # work entry by entry, so the bits are those of one pass over every edge
    for a in range(0, CELLS, step):
        q = _ndtri(np.arange(a, a + step + 1) / CELLS)
        margin = 1e-9 * (1 + np.abs(q))
        np.subtract(q[:-1], margin[:-1], out=table[0, a: a + step])
        np.add(q[1:], margin[1:], out=table[1, a: a + step])
    table.setflags(write=False)
    return table


def _winners(dist, draws, at, table) -> tuple:
    """Over the draws at the ascending flat positions `at` of the block
    `draws`, each clipped as `_ndtri` clips it, each row's best lower bracket
    (-inf where it has none) and the column of its largest draw, the first
    of equal ones."""
    m, rows = len(dist), len(draws)
    row, col = np.divmod(at, m)
    # a draw below 2^-53 lies in cell 0, as it does clipped to 2^-53
    lower, upper = bounds = table.take((draws.take(at) * CELLS).astype(np.intp), axis=1)
    bounds *= dist.sigmas.take(col)
    bounds += dist.means.take(col)
    best = np.full(rows, -np.inf)
    np.maximum.at(best, row, lower)
    # the draws that may be their row's largest, the one at its best among them
    over = np.flatnonzero(upper >= best[row])
    over_row = row[over]
    win = np.zeros(rows, dtype=np.intp)
    win[over_row] = col[over]
    # rows where two or more of them are left are settled by q
    exact = over[np.bincount(over_row, minlength=rows)[over_row] > 1]
    if len(exact):
        x = _ndtri(draws.take(at[exact]))
        x *= dist.sigmas[col[exact]]
        x += dist.means[col[exact]]
        r = row[exact]
        top = np.full(rows, -np.inf)
        np.maximum.at(top, r, x)
        first = exact[x == top[r]]
        win[r] = m  # above every column, then lowered to the first maximum's
        np.minimum.at(win, row[first], col[first])
    return best, win


def _count_range(dist, seed, start, stop, block, cut, bound, table) -> np.ndarray:
    """Winner counts of sequences [start, stop), drawn through `block`, with
    the cuts and bound of `_candidates` and the brackets of `_brackets`."""
    m = len(dist)
    rng = _stream(seed)
    # each Philox counter value yields four 64-bit draws, one uniform each
    rng.bit_generator.advance(start * m // 4)
    rng.random(start * m % 4)
    counts = np.zeros(m, dtype=np.int64)
    # the draws stay unclipped: a draw of 0 below a cut under 2^-53 is no
    # candidate, but clipped it is at most B, which `_candidates` takes at
    # the clipped cut
    above = np.empty(block.shape, dtype=bool)
    for lo in range(start, stop, len(block)):
        draws = block[: min(len(block), stop - lo)]
        rng.random(out=draws)
        at = np.flatnonzero(np.greater_equal(draws, cut, out=above[: len(draws)]))
        best, win = _winners(dist, draws, at, table)
        # rows whose best candidate does not clear `bound` (or a nan one)
        # are settled from all their draws
        redo = np.flatnonzero(~(best > bound))
        if len(redo):
            every = (redo[:, None] * m + np.arange(m)).reshape(-1)
            win[redo] = _winners(dist, draws, every, table)[1][redo]
        counts += np.bincount(win, minlength=m)
    return counts


def _candidates(dist) -> tuple:
    """The cuts c_k and the bound B of the prune the module docstring states.
    Where sigmas near the float limit overflow them, B is inf or nan, and
    every row falls back."""
    means, sigmas = dist.means, dist.sigmas
    with np.errstate(over="ignore", invalid="ignore"):
        # T by bisection: every strategy lies above lo and below hi but for 1e-19
        lo, hi = np.min(means - 9 * sigmas), np.max(means + 9 * sigmas)
        for _ in range(20):
            t = (lo + hi) / 2
            lo, hi = (t, hi) if _ndtr((means - t) / sigmas).sum() > CANDIDATES else (lo, t)
        cut = _ndtr((t - means) / sigmas)
        # a cut outside the clipped uniforms bounds no draw; inside, q is finite
        x = sigmas * _ndtri(cut)
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
    # imported and built here, before any counting thread: every process that
    # never samples would pay 6 MB for numpy.random and 1 MB for the brackets
    import numpy.random

    cfg = config or SamplerConfig()
    n = cfg.n_sequences
    block = np.empty((min(n, BLOCK_ROWS), len(dist)))
    k = min(_cpu_count(), -(-n // BLOCK_ROWS), len(block))
    cut, bound = _candidates(dist)
    table = _brackets()
    results: list = [None] * k

    def count(i: int) -> None:
        try:
            results[i] = _count_range(
                dist, cfg.seed, i * n // k, (i + 1) * n // k,
                block[i * len(block) // k: (i + 1) * len(block) // k], cut, bound, table,
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
    with reading(path) as lines:
        means, sigmas = _read_code_table(lines, width=2).T
        for bad, what in _sigma_faults(means, sigmas):
            j = np.flatnonzero(bad)
            if len(j):
                raise QGameError(f"sigma of {CANONICAL_CODES[j[0]]} = {sigmas[j[0]]} {what}")
        return StatementDistribution(means, sigmas)
