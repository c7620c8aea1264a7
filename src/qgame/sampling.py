"""Monte Carlo construction of initial strategy shares.

Each sequence draws one independent normal value per strategy; the share
of a strategy is the fraction of sequences in which it attains the strict
maximum. Draws use a counter-based Philox stream keyed by the seed, with
normals obtained by inverse CDF from one uniform each, so sequence k
consumes exactly the uniforms at flat positions [k*m, (k+1)*m) of the
stream. The result is bit-for-bit reproducible for a fixed seed and
independent of any batching or scheduling.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .qdata import _read_code_table
from .strategy_space import StrategySpace, build_strategy_space

TIE_RULES = ("first-index", "random-uniform")


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
    row_max = draws[np.arange(len(draws)), winners]
    tied = np.count_nonzero(draws == row_max[:, None], axis=1) > 1
    if tie_rule == "random-uniform" and np.any(tied):
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
    """
    # imported here: scipy.special costs every process that never samples
    # about 0.3 s and 26 MB
    from scipy.special import ndtri

    cfg = config or SamplerConfig()
    m = len(dist)
    u = _stream(cfg.seed, 0).random((cfg.n_sequences, m))
    np.clip(u, 2.0**-53, None, out=u)
    draws = dist.means + dist.sigmas * ndtri(u)
    winners = _winners(draws, cfg.tie_rule, _stream(cfg.seed, 1))
    counts = np.bincount(winners, minlength=m)
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
