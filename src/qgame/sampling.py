"""Monte Carlo construction of initial strategy shares.

Each sequence draws one independent normal value per strategy; the share
of a strategy is the fraction of sequences in which it attains the
maximum, a tie going to the lowest canonical index. Draws use a
counter-based Philox stream keyed by the seed, with normals obtained
by inverse CDF from one uniform each, so sequence k consumes exactly
the uniforms at flat positions [k*m, (k+1)*m) of the stream. The result
is bit-for-bit reproducible for a fixed seed and independent of any
batching or scheduling: `sample_y0` walks the stream in blocks of
`BLOCK_ROWS` sequences, so its memory does not grow with `n_sequences`,
and its shares equal those of one block of all rows.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import require_int
from .qdata import _read_code_table

BLOCK_ROWS = 4096  # sequences drawn per block: 4096 x 36 float64 is about 1.2 MB
MAX_SEQUENCES = 10**7  # about 13 s of sampling at 1.3 us per row


@dataclass(frozen=True)
class StatementDistribution:
    means: np.ndarray   # (n_strategies,), in canonical order from load_distribution
    sigmas: np.ndarray

    def __post_init__(self):
        # own contiguous copies: sample_y0 broadcasts them over every draw
        means = np.array(self.means, dtype=float)
        sigmas = np.array(self.sigmas, dtype=float)
        if means.shape != sigmas.shape or means.ndim != 1:
            raise ValueError("means and sigmas must be 1-d arrays of equal length")
        if np.any(sigmas <= 0):
            raise ValueError("every sigma must be strictly positive")
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


def _stream(seed: int) -> np.random.Generator:
    # the key's second word is 0: any other value would move every seed's draws
    key = np.array([np.uint64(seed), np.uint64(0)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_y0(dist: StatementDistribution, config: SamplerConfig | None = None) -> np.ndarray:
    """Argmax-frequency estimate of initial strategy shares.

    Draws `n_sequences` independent rows of normals (one per strategy) and
    returns, for each strategy, the fraction of rows it wins; a tied row
    goes to the lowest canonical index. Rows are drawn in blocks of
    `BLOCK_ROWS` from one stream, so the result does not depend on the
    block size.
    """
    # imported here: scipy.special costs every process that never samples
    # about 0.3 s and 26 MB
    from scipy.special import ndtri

    cfg = config or SamplerConfig()
    m = len(dist)
    rng = _stream(cfg.seed)
    counts = np.zeros(m, dtype=np.int64)
    block = np.empty((min(cfg.n_sequences, BLOCK_ROWS), m))
    for start in range(0, cfg.n_sequences, BLOCK_ROWS):
        draws = block[: min(BLOCK_ROWS, cfg.n_sequences - start)]
        rng.random(out=draws)
        np.clip(draws, 2.0**-53, None, out=draws)
        # the IEEE operations of means + sigmas * ndtri(u), in place
        ndtri(draws, out=draws)
        draws *= dist.sigmas
        draws += dist.means
        counts += np.bincount(np.argmax(draws, axis=1), minlength=m)
    return counts / cfg.n_sequences


def load_distribution(path: str | Path) -> StatementDistribution:
    """Read per-strategy (mean, sigma) rows, reordered to canonical order."""
    means, sigmas = _read_code_table(path, width=2).T
    return StatementDistribution(means, sigmas)
