"""Metamorphic oracles over whole integrations: symmetries of the coupled
system that `integrate` must keep, on the case study and on random score
matrices.

- Time rescaling. Scores 2S with step/2 and t_end/2 give the same x, y
  and z bit for bit, with t halved and the utility doubled. Scaling by 2
  is exact in floating point, so the step controller, the error norm and
  the recentring see the same numbers, and every counter is equal.
- Relabelling. Permuting the factors (rows of S, x and z) and the
  strategies (columns of S and y) permutes the trajectory. Only the
  summation order changes, so the shares agree to rounding.
- Sign flip. Negating row i of S with z_i -> 1 - z_i leaves x, y and the
  utility as they are and maps z_i to 1 - z_i, to rounding.
"""

import numpy as np
import pytest

from qgame import GameState, IntegratorConfig, ZScoreMatrix, integrate

# rk4 runs 500 steps through the case study's fixation and recentrings;
# rk45 runs the same horizon in ~60 accepted steps
CONFIGS = {
    "rk4": IntegratorConfig(method="rk4", step=0.1, t_end=50.0),
    "rk45": IntegratorConfig(method="rk45", step=0.01, t_end=50.0),
}
# Bounds of the relabelling and sign-flip oracles, as method -> (shares,
# utility, t). On the case study the largest gaps were 8.9e-16 (rk4) and
# 3.0e-11 (rk45) for relabelling, and 7.8e-16 over the shares and 3.6e-15
# over the utility for the sign flip under rk4. Over 40 random score
# matrices of 2-6 factors and 2-36 strategies they reached 1.7e-14 and
# 2.4e-14 under rk4, and 2.9e-9 and 6.6e-9 under rk45, whose step sizes
# see the new summation order, so that its sample times moved by up to
# 1.5e-4 while every counter stayed equal. Each bound is some five times
# the largest gap.
BOUNDS = {
    "rk4": (1e-13, 1e-13, 0.0),
    "rk45": (2e-8, 3e-8, 1e-3),
}


def random_case(seed: int, n: int, m: int) -> tuple[ZScoreMatrix, GameState]:
    rng = np.random.default_rng(seed)
    scores = ZScoreMatrix(rng.normal(0.0, 1.5, (n, m)))
    state = GameState(x=rng.dirichlet(np.ones(n)), y=rng.dirichlet(np.ones(m)),
                      z=rng.uniform(0.05, 0.95, n))
    return scores, state


@pytest.fixture(scope="module", params=["case_study", "random_5x36", "random_3x8"])
def game(request, case_study):
    if request.param == "case_study":
        return case_study.scores, case_study.initial
    n, m = map(int, request.param.split("_")[1].split("x"))
    return random_case(n * m, n, m)


@pytest.fixture(scope="module")
def runs(game):
    """method -> the run of `game` under CONFIGS[method], made once."""
    scores, state = game
    return {method: integrate(state, scores, cfg) for method, cfg in CONFIGS.items()}


def counters(traj, scale=1.0) -> dict:
    """The integrator's counters, with the step range multiplied by `scale`."""
    meta = dict(traj.meta)
    if meta["min_step"] is not None:
        meta["min_step"] *= scale
        meta["max_step"] *= scale
    return meta


@pytest.mark.parametrize("method", ["rk4", "rk45"])
def test_time_rescaling_is_bit_for_bit(game, runs, method):
    scores, state = game
    cfg = CONFIGS[method]
    base = runs[method]
    fast = integrate(state, ZScoreMatrix(2.0 * scores.scores, scores.strategy_labels),
                     IntegratorConfig(method=method, step=cfg.step / 2, t_end=cfg.t_end / 2))
    assert fast.t.tobytes() == (base.t / 2).tobytes()
    for name in ("x", "y", "z"):
        assert getattr(fast, name).tobytes() == getattr(base, name).tobytes(), name
    assert fast.utility.tobytes() == (2 * base.utility).tobytes()
    assert counters(fast) == counters(base, 0.5)


@pytest.mark.parametrize("method", ["rk4", "rk45"])
def test_relabelling_permutes_the_trajectory(game, runs, method):
    scores, state = game
    base = runs[method]
    n, m = scores.scores.shape
    rng = np.random.default_rng(7)
    p, q = rng.permutation(n), rng.permutation(m)
    moved = integrate(GameState(x=state.x[p], y=state.y[q], z=state.z[p]),
                      ZScoreMatrix(scores.scores[p][:, q]), CONFIGS[method])
    shares, utility, t = BOUNDS[method]
    assert len(moved) == len(base)
    assert np.abs(moved.t - base.t).max() <= t
    assert np.abs(moved.x - base.x[:, p]).max() <= shares
    assert np.abs(moved.y - base.y[:, q]).max() <= shares
    assert np.abs(moved.z - base.z[:, p]).max() <= shares
    assert np.abs(moved.utility - base.utility).max() <= utility
    for key in ("accepted_steps", "rejected_steps", "field_evaluations", "recentrings"):
        assert moved.meta[key] == base.meta[key], key


@pytest.mark.parametrize("method", ["rk4", "rk45"])
def test_sign_flip_of_each_row_keeps_the_trajectory(game, runs, method):
    scores, state = game
    base = runs[method]
    shares, utility, t = BOUNDS[method]
    for i in range(scores.scores.shape[0]):
        S = scores.scores.copy()
        S[i] *= -1.0
        z = state.z.copy()
        z[i] = 1.0 - z[i]
        flipped = integrate(GameState(x=state.x, y=state.y, z=z),
                            ZScoreMatrix(S, scores.strategy_labels), CONFIGS[method])
        back = flipped.z.copy()
        back[:, i] = 1.0 - back[:, i]
        assert len(flipped) == len(base), i
        assert np.abs(flipped.t - base.t).max() <= t, i
        assert np.abs(flipped.x - base.x).max() <= shares, i
        assert np.abs(flipped.y - base.y).max() <= shares, i
        assert np.abs(back - base.z).max() <= shares, i
        assert np.abs(flipped.utility - base.utility).max() <= utility, i
