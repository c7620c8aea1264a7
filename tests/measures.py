"""Measures of curves and of the sampler that the tests apply to the
package's outputs; they are not part of the package's API."""

import numpy as np

from qgame import SamplerConfig, StatementDistribution, sample_y0


def count_inflections(t: np.ndarray, series: np.ndarray, rel_tol: float = 1e-3) -> int:
    """Sign changes of the (divided) second difference of a sampled curve.

    Second differences are ignored when they fall below rel_tol times the
    largest magnitude or below the rounding noise the divided-difference
    stencil can amplify from the sample values, so flat stretches and
    saturation plateaus do not register spurious curvature flips. A
    sigmoid yields exactly 1, a straight line 0.
    """
    t = np.asarray(t, dtype=float)
    v = np.asarray(series, dtype=float)
    if len(v) < 3:
        return 0
    dt1 = t[1:-1] - t[:-2]
    dt2 = t[2:] - t[1:-1]
    d2 = 2.0 * ((v[2:] - v[1:-1]) / dt2 - (v[1:-1] - v[:-2]) / dt1) / (dt1 + dt2)
    # rounding in v propagates to d2 as ~ eps*|v| / (dt1*dt2); anything of
    # that size carries no curvature information
    eps = np.finfo(float).eps
    noise = 64.0 * eps * np.abs(v).max() * (1.0 / dt1 + 1.0 / dt2) / (dt1 + dt2)
    cap = np.abs(d2).max()
    if cap == 0.0:
        return 0
    keep = np.abs(d2) >= np.maximum(rel_tol * cap, noise)
    signs = np.sign(d2[keep])
    return int(np.count_nonzero(signs[1:] != signs[:-1]))


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
    runs = [sample_y0(dist, SamplerConfig(config.n_sequences, s)) for s in seeds]
    worst = 0.0
    for a in range(repeats):
        for b in range(a + 1, repeats):
            worst = max(worst, float(np.abs(runs[a] - runs[b]).sum()))
    return worst
