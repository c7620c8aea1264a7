"""Monte Carlo construction of initial strategy shares.

Each sequence draws one independent normal value per strategy; the share
of a strategy is the fraction of sequences in which it attains the strict
maximum. Draws use a counter-based Philox stream keyed by the seed, with
normals obtained by inverse CDF from one uniform each, so sequence k
consumes exactly the uniforms at flat positions [k*m, (k+1)*m) of the
stream. The result is bit-for-bit reproducible for a fixed seed and
independent of any batching or scheduling: `sample_y0` walks the stream
in blocks of `BLOCK_ROWS` sequences, so its memory does not grow with
`n_sequences`, and its shares equal those of one block of all rows.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .qdata import _read_code_table
from .strategy_space import StrategySpace, build_strategy_space

TIE_RULES = ("first-index", "random-uniform")
BLOCK_ROWS = 4096  # sequences drawn per block: 4096 x 36 float64 is about 1.2 MB


@dataclass(frozen=True)
class StatementDistribution:
    means: np.ndarray
    sigmas: np.ndarray
    codes: tuple[str, ...]

    def __post_init__(self):
        # own contiguous copies: sample_y0 broadcasts them over every draw
        means = np.array(self.means, dtype=float)
        sigmas = np.array(self.sigmas, dtype=float)
        if means.shape != sigmas.shape or means.ndim != 1:
            raise ValueError("means and sigmas must be 1-d arrays of equal length")
        if len(self.codes) != len(means):
            raise ValueError("one (mean, sigma) pair per strategy code is required")
        if np.any(sigmas <= 0):
            raise ValueError("every sigma must be strictly positive")
        means.setflags(write=False)
        sigmas.setflags(write=False)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "sigmas", sigmas)

    def __len__(self) -> int:
        return len(self.codes)


@dataclass(frozen=True)
class SamplerConfig:
    n_sequences: int = 30000
    seed: int = 0
    tie_rule: str = "first-index"

    def __post_init__(self):
        if self.n_sequences < 1:
            raise ValueError("n_sequences must be at least 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        if self.tie_rule not in TIE_RULES:
            raise ValueError(f"tie_rule must be one of {TIE_RULES}")


def _stream(seed: int, lane: int) -> np.random.Generator:
    key = np.array([np.uint64(seed), np.uint64(lane)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _winners(draws: np.ndarray, tie_rule: str, tie_rng: np.random.Generator) -> np.ndarray:
    """Index of the strict per-row maximum; tied rows resolved per tie_rule."""
    winners = np.argmax(draws, axis=1)
    if tie_rule == "random-uniform":
        row_max = draws[np.arange(len(draws)), winners]
        tied = np.count_nonzero(draws == row_max[:, None], axis=1) > 1
        for row in np.flatnonzero(tied):
            candidates = np.flatnonzero(draws[row] == row_max[row])
            winners[row] = candidates[tie_rng.integers(len(candidates))]
    return winners


def sample_y0(dist: StatementDistribution, config: SamplerConfig | None = None) -> np.ndarray:
    """Argmax-frequency estimate of initial strategy shares.

    Draws `n_sequences` independent rows of normals (one per strategy) and
    returns, for each strategy, the fraction of rows it wins. Ties have
    probability zero for nondegenerate sigmas; the tie rule only matters
    for hand-built degenerate inputs.

    Rows are drawn in blocks of `BLOCK_ROWS` from one stream and tie
    draws come from a second stream in row order, so the result does not
    depend on the block size.
    """
    # imported here: scipy.special costs every process that never samples
    # about 0.3 s and 26 MB
    from scipy.special import ndtri

    cfg = config or SamplerConfig()
    m = len(dist)
    rng, tie_rng = _stream(cfg.seed, 0), _stream(cfg.seed, 1)
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
        counts += np.bincount(_winners(draws, cfg.tie_rule, tie_rng), minlength=m)
    return counts / cfg.n_sequences


def repeat_stability(
    dist: StatementDistribution,
    config: SamplerConfig,
    repeats: int,
    seeds: list[int] | None = None,
) -> float:
    """Largest pairwise L1 distance across repeated sampling runs.

    Run r uses seed (config.seed + r) mod 2**64 unless explicit seeds are
    given; passing identical seeds therefore yields distance 0.
    """
    if repeats < 2:
        raise ValueError("repeats must be at least 2")
    if seeds is None:
        seeds = [int((config.seed + r) % 2**64) for r in range(repeats)]
    elif len(seeds) != repeats:
        raise ValueError("one seed per repeat is required")
    runs = [
        sample_y0(dist, SamplerConfig(config.n_sequences, s, config.tie_rule))
        for s in seeds
    ]
    worst = 0.0
    for a in range(repeats):
        for b in range(a + 1, repeats):
            worst = max(worst, float(np.abs(runs[a] - runs[b]).sum()))
    return worst


def load_distribution(
    path: str | Path, space: StrategySpace | None = None
) -> StatementDistribution:
    """Read per-strategy (mean, sigma) rows, reordered to canonical order."""
    space = space or build_strategy_space()
    means, sigmas = _read_code_table(path, space, width=2).T
    return StatementDistribution(means, sigmas, space.codes)
