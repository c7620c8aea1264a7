"""Acceptance suite: ten go/no-go checks of the finished artifact.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL
line per criterion. Every tolerance is pinned here, not configured.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

import qgame
from qgame import GameState, IntegratorConfig, ZScoreMatrix, integrate
from qgame.analysis import MONOTONE_WINNER
from qgame.cli import main

from measures import count_inflections


@contextmanager
def criterion(num: int, title: str):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num}: FAIL - {title}")
        raise
    print(f"ACCEPTANCE {num}: PASS - {title} ({time.perf_counter() - t0:.2f}s)")


@pytest.fixture(scope="module")
def case_run(case_study):
    """Default-integrator case-study run with its integration wall time."""
    t0 = time.perf_counter()
    traj = qgame.run_scenario(case_study)
    return traj, time.perf_counter() - t0


def test_criterion_1_flagging_reproduction(loadings, capsys):
    with criterion(1, "flagging reproduces the published assignment"):
        t0 = time.perf_counter()
        assert main(["flag", str(qgame.case_study_path().parent.parent / "data" / "loadings.csv")]) == 0
        elapsed = time.perf_counter() - t0
        out = capsys.readouterr().out
        assert "counts: Q1=7 Q2=3 Q3=3 Q4=4 Q5=2" in out
        assert "unassigned: 1 (STK2)" in out
        flags = qgame.flag_stakeholders(loadings, 36, 0.05)
        assert tuple(flags.counts()) == (7, 3, 3, 4, 2)
        assert len(flags.unassigned) == 1
        assert elapsed < 1.0


def test_criterion_2_x_fixation(case_run):
    with criterion(2, "stakeholder population fixates on factor 1"):
        traj, wall = case_run
        assert traj.t[-1] >= 50.0
        assert traj.x[-1, 0] > 0.99
        assert np.all(traj.x[-1, 1:] < 0.01)
        assert wall < 10.0


def test_criterion_3_z_limits(case_run):
    with criterion(3, "sign frequencies resolve to (1, 1, 0, 1, 1)"):
        traj, _ = case_run
        z = traj.z[-1]
        assert z[0] > 0.99 and z[1] > 0.99 and z[3] > 0.99 and z[4] > 0.99
        assert z[2] < 0.01


def test_criterion_4_y_fixation_sigmoidal(case_run):
    with criterion(4, "D.R.A.PP wins with a single-inflection profile"):
        traj, _ = case_run
        j = traj.strategy_labels.index("D.R.A.PP")
        assert traj.y[-1, j] > 0.99
        profile = qgame.analyze(traj)["transients"]
        assert profile["winner"] == "D.R.A.PP"
        by_label = {label: r["classification"] for label, r in profile["per_strategy"].items()}
        assert by_label["D.R.A.PP"] == MONOTONE_WINNER
        assert count_inflections(traj.t, traj.y[:, j]) == 1


def test_criterion_5_utility_endpoints(case_run):
    with criterion(5, "utility starts negative and saturates at 5"):
        traj, _ = case_run
        assert traj.utility[0] < 0
        assert abs(traj.utility[-1] - 5.0) < 0.1


def test_criterion_6_two_phase_selection(case_run):
    with criterion(6, "a nonempty set of strategies grows then dies"):
        traj, _ = case_run
        profile = qgame.analyze(traj)["transients"]
        assert len(profile["grow_then_die"]) > 0


def test_criterion_7_numerical_robustness(
    case_trajectory, case_trajectory_half_step, case_trajectory_rk45
):
    with criterion(7, "step halving < 1e-6 and RK4/RK45 agreement < 1e-5"):
        def terminal_diff(a, b):
            return max(
                np.abs(a.x[-1] - b.x[-1]).max(),
                np.abs(a.y[-1] - b.y[-1]).max(),
                np.abs(a.z[-1] - b.z[-1]).max(),
            )

        assert terminal_diff(case_trajectory, case_trajectory_half_step) < 1e-6
        assert terminal_diff(case_trajectory, case_trajectory_rk45) < 1e-5


def test_criterion_8_invariant_suite(scores, case_run):
    with criterion(8, "invariant property suite (100 instances each)"):
        rng = np.random.default_rng(2024)

        # simplex conservation: the field is tangent to both simplices,
        # and the full case-study run drifts below 1e-6 pre-renormalization
        for _ in range(100):
            s = GameState(
                x=rng.dirichlet(np.ones(5)),
                y=rng.dirichlet(np.ones(36)),
                z=rng.uniform(0, 1, 5),
            )
            dx, dy, _ = qgame.vector_field(s, scores)
            assert abs(dx.sum()) < 1e-13
            assert abs(dy.sum()) < 1e-13
        traj, _ = case_run
        assert traj.meta["max_x_drift"] <= 1e-6
        assert traj.meta["max_y_drift"] <= 1e-6

        # face invariance: zeroed coordinates stay exactly zero to t = 50
        cfg = IntegratorConfig(step=0.05, t_end=50.0)
        for _ in range(100):
            x = rng.dirichlet(np.ones(5))
            y = rng.dirichlet(np.ones(36))
            z = rng.uniform(0, 1, 5)
            xi = rng.integers(5)
            yj = rng.choice(36, size=rng.integers(1, 4), replace=False)
            zi = rng.integers(5)
            x[xi] = 0.0
            x /= x.sum()
            y[yj] = 0.0
            y /= y.sum()
            z[zi] = 0.0
            traj_f = integrate(GameState(x=x, y=y, z=z), scores, cfg)
            assert np.array_equal(traj_f.x[:, xi], np.zeros(len(traj_f)))
            assert np.array_equal(traj_f.y[:, yj], np.zeros((len(traj_f), len(yj))))
            assert np.array_equal(traj_f.z[:, zi], np.zeros(len(traj_f)))

        # z boundary values are rest points of the sign dynamics
        for _ in range(100):
            z = rng.uniform(0, 1, 5)
            pin = rng.integers(5)
            z[pin] = float(rng.integers(2))
            s = GameState(x=rng.dirichlet(np.ones(5)), y=rng.dirichlet(np.ones(36)), z=z)
            _, _, dz = qgame.vector_field(s, scores)
            assert dz[pin] == 0.0

        # payoff sign flip under z -> 1 - z: dx, dy and the utility negate
        for _ in range(100):
            x = rng.dirichlet(np.ones(5))
            y = rng.dirichlet(np.ones(36))
            z = rng.uniform(0, 1, 5)
            dx, dy, _ = qgame.vector_field(GameState(x=x, y=y, z=z), scores)
            dx_f, dy_f, _ = qgame.vector_field(GameState(x=x, y=y, z=1 - z), scores)
            assert np.allclose(dx, -dx_f, atol=1e-12)
            assert np.allclose(dy, -dy_f, atol=1e-12)
            u = qgame.expected_total_utility(scores.scores, x, y, z)
            u_f = qgame.expected_total_utility(scores.scores, x, y, 1 - z)
            assert np.allclose(u, -u_f, atol=1e-12)

        # linearity of the factor utilities in the strategy mix: the
        # utilities of the five pure factor states at z = 1
        def factor_utilities(y):
            return qgame.expected_total_utility(scores.scores, np.eye(5), y, np.ones(5))

        for _ in range(100):
            y1 = rng.dirichlet(np.ones(36))
            y2 = rng.dirichlet(np.ones(36))
            alpha = rng.uniform()
            lhs = factor_utilities(alpha * y1 + (1 - alpha) * y2)
            rhs = alpha * factor_utilities(y1) + (1 - alpha) * factor_utilities(y2)
            assert np.allclose(lhs, rhs, atol=1e-12)


def test_criterion_9_sampler_oracle():
    with criterion(9, "symmetric sampling concentrates at 1/36"):
        dist = qgame.StatementDistribution(np.zeros(36), np.ones(36))
        tol = 3 * np.sqrt((1 / 36) * (35 / 36) / 30000)
        within = 0
        total = 0
        for seed in range(20):
            y0 = qgame.sample_y0(dist, qgame.SamplerConfig(n_sequences=30000, seed=seed))
            within += int(np.sum(np.abs(y0 - 1 / 36) <= tol))
            total += 36
        assert within >= 0.95 * total


def test_criterion_10_small_game_oracle():
    with criterion(10, "reduced game matches the closed-form logistic"):
        delta = 2.0
        scores2 = ZScoreMatrix(np.array([[delta, delta], [0.0, 0.0]]))
        for x0 in (0.05, 0.2, 0.5, 0.8, 0.95):
            for method in ("rk4", "rk45"):
                s0 = GameState(x=[x0, 1 - x0], y=[0.4, 0.6], z=[1.0, 1.0])
                cfg = IntegratorConfig(method=method, step=0.01, t_end=12.0)
                traj = integrate(s0, scores2, cfg)
                exact = x0 * np.exp(delta * traj.t) / (1 - x0 + x0 * np.exp(delta * traj.t))
                assert np.abs(traj.x[:, 0] - exact).max() < 1e-6
                assert traj.x[-1, 0] > 0.999
