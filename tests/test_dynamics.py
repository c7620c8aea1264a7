import numpy as np
import pytest

from qgame import (
    GameState,
    InitialConditions,
    IntegratorConfig,
    LoadingMatrix,
    PayoffMatrix,
    StatementDistribution,
    ZScoreMatrix,
    integrate,
    replicator_field,
    vector_field,
)
from qgame.dynamics import _DP_B4, _DP_B5, _DP_A, _DP_C, _guard
from qgame.errors import InvalidState, StepSizeUnderflow

from table_fixtures import CANONICAL_ORDER, PSI_AT_Y0_RAW, Y0, Z0


def random_state(rng, n=5, m=36) -> GameState:
    return GameState(
        x=rng.dirichlet(np.ones(n)),
        y=rng.dirichlet(np.ones(m)),
        z=rng.uniform(0, 1, n),
    )


def case_start() -> GameState:
    y0 = np.array([Y0[c] for c in CANONICAL_ORDER])
    return GameState(
        x=np.array([7, 3, 3, 4, 2]) / 19,
        y=y0 / y0.sum(),
        z=np.array(Z0),
    )


# --- tableau sanity ---

def test_dormand_prince_coefficients_are_consistent():
    from fractions import Fraction

    b5 = [Fraction(35, 384), Fraction(0), Fraction(500, 1113), Fraction(125, 192),
          Fraction(-2187, 6784), Fraction(11, 84)]
    b4 = [Fraction(5179, 57600), Fraction(0), Fraction(7571, 16695), Fraction(393, 640),
          Fraction(-92097, 339200), Fraction(187, 2100), Fraction(1, 40)]
    assert sum(b5) == 1 and sum(b4) == 1
    assert [float(b) for b in b5] == list(_DP_B5)
    assert [float(b) for b in b4] == list(_DP_B4)
    for row, c in zip(_DP_A, _DP_C):
        assert sum(row) == pytest.approx(c, abs=1e-15)


# --- vector field ---

def test_neutral_sign_frequencies_freeze_x_and_y(scores):
    rng = np.random.default_rng(1)
    for _ in range(20):
        s = GameState(
            x=rng.dirichlet(np.ones(5)),
            y=rng.dirichlet(np.ones(36)),
            z=np.full(5, 0.5),
        )
        d = vector_field(s, scores)
        assert np.array_equal(d.dx, np.zeros(5))
        assert np.array_equal(d.dy, np.zeros(36))
        expected_dz = 0.5 * 0.5 * 2.0 * (scores.scores @ s.y)
        assert d.dz == pytest.approx(expected_dz, abs=1e-12)


def test_vertices_are_rest_points(scores):
    rng = np.random.default_rng(2)
    for _ in range(20):
        x = np.zeros(5)
        x[rng.integers(5)] = 1.0
        y = np.zeros(36)
        y[rng.integers(36)] = 1.0
        d = vector_field(GameState(x=x, y=y, z=rng.uniform(0, 1, 5)), scores)
        assert np.array_equal(d.dx, np.zeros(5))
        assert np.array_equal(d.dy, np.zeros(36))


def test_initial_sign_frequency_drift_signs(scores):
    # at the case-study start every factor utility is positive, so every
    # z coordinate initially drifts upward (frozen oracle values)
    d = vector_field(case_start(), scores)
    assert all(v > 0 for v in PSI_AT_Y0_RAW)
    assert np.all(d.dz > 0)
    assert np.sign(d.dz[2]) == np.sign(PSI_AT_Y0_RAW[2])


def test_simplex_tangency(scores):
    rng = np.random.default_rng(3)
    for _ in range(100):
        d = vector_field(random_state(rng), scores)
        assert abs(d.dx.sum()) < 1e-13
        assert abs(d.dy.sum()) < 1e-13


def test_z_boundary_coordinates_are_fixed(scores):
    rng = np.random.default_rng(4)
    for _ in range(100):
        z = rng.uniform(0, 1, 5)
        z[rng.integers(5)] = float(rng.integers(2))  # pin one coordinate to 0 or 1
        s = GameState(x=rng.dirichlet(np.ones(5)), y=rng.dirichlet(np.ones(36)), z=z)
        d = vector_field(s, scores)
        pinned = (z == 0.0) | (z == 1.0)
        assert np.array_equal(d.dz[pinned], np.zeros(pinned.sum()))


def test_constant_shift_leaves_field_unchanged():
    rng = np.random.default_rng(5)
    for _ in range(100):
        A = rng.normal(size=(5, 36))
        x = rng.dirichlet(np.ones(5))
        y = rng.dirichlet(np.ones(36))
        c = rng.normal() * 10
        dx1, dy1 = replicator_field(A, x, y)
        dx2, dy2 = replicator_field(A + c, x, y)
        assert dx1 == pytest.approx(dx2, abs=1e-10)
        assert dy1 == pytest.approx(dy2, abs=1e-10)


def test_vector_field_rejects_invalid_states(scores):
    with pytest.raises(InvalidState):
        vector_field(GameState(x=[0.5, 0.5, 0.5, 0, 0], y=np.full(36, 1 / 36), z=np.full(5, 0.5)), scores)
    with pytest.raises(InvalidState):
        vector_field(GameState(x=[1, 0, 0, 0, 0], y=np.full(36, 1 / 36), z=[0.5, 0.5, 0.5, 0.5, 1.5]), scores)
    with pytest.raises(InvalidState):
        vector_field(GameState(x=[1, 0, 0], y=np.full(36, 1 / 36), z=[0.5, 0.5, 0.5]), scores)


# --- integration basics ---

def test_neutral_rest_point_stays_frozen(scores):
    # uniform y zeroes every factor utility on the balanced grid, and
    # z = 1/2 zeroes the payoff matrix: the whole coupled system rests
    s0 = GameState(x=np.full(5, 0.2), y=np.full(36, 1 / 36), z=np.full(5, 0.5))
    traj = integrate(s0, scores, IntegratorConfig(step=0.05, t_end=5.0))
    assert np.array_equal(traj.y[-1], s0.y)
    assert np.array_equal(traj.z[-1], s0.z)
    assert np.array_equal(traj.utility, np.zeros(len(traj)))


def test_vertex_start_stays_constant(scores):
    x = np.zeros(5)
    x[1] = 1.0
    y = np.zeros(36)
    y[3] = 1.0
    s0 = GameState(x=x, y=y, z=np.ones(5))
    traj = integrate(s0, scores, IntegratorConfig(step=0.05, t_end=5.0))
    assert np.array_equal(traj.x[-1], x)
    assert np.array_equal(traj.y[-1], y)
    assert np.array_equal(traj.z[-1], np.ones(5))


def test_zeroed_coordinates_never_revive(scores):
    rng = np.random.default_rng(6)
    y = rng.dirichlet(np.ones(36))
    dead = [0, 7, 26]
    y[dead] = 0.0
    y /= y.sum()
    x = rng.dirichlet(np.ones(5))
    x[2] = 0.0
    x /= x.sum()
    z = rng.uniform(0.1, 0.9, 5)
    z[4] = 0.0
    traj = integrate(GameState(x=x, y=y, z=z), scores, IntegratorConfig(step=0.02, t_end=10.0))
    assert np.array_equal(traj.y[:, dead], np.zeros((len(traj), 3)))
    assert np.array_equal(traj.x[:, 2], np.zeros(len(traj)))
    assert np.array_equal(traj.z[:, 4], np.zeros(len(traj)))


def test_sample_times_strictly_increase(case_trajectory):
    assert np.all(np.diff(case_trajectory.t) > 0)
    assert case_trajectory.t[0] == 0.0
    assert case_trajectory.t[-1] == 50.0
    assert len(case_trajectory) == 5001


# --- the simplex guard (n = 2: v = x0 x1 | z0 z1 | y0 y1) ---

INF, NAN = float("inf"), float("nan")


@pytest.mark.parametrize(
    "v, fault",
    [
        ([NAN, 1.0, 0.5, 0.5, 0.5, 0.5], "x[0] = nan is not finite"),
        ([INF, 0.0, 0.5, 0.5, 0.5, 0.5], "x[0] = inf is not finite"),
        ([0.5, 0.5, 0.5, 0.5, 0.5, INF], "y[1] = inf is not finite"),
        ([0.5, 0.5, INF, 0.5, 0.5, 0.5], "z[0] = inf is not finite"),
        ([0.5, 0.5, 0.5, 0.5, -INF, 1.0], "y[0] = -inf is not finite"),
        ([0.5, 0.5, 0.5, NAN, 0.5, 0.5], "z[1] = nan is not finite"),
        ([1.1, -0.1, 0.5, 0.5, 0.5, 0.5], "x[1] = -1.000e-01 is negative beyond clamp_eps"),
        ([0.5, 0.5, 1.5, 0.5, 0.5, 0.5], "z[0] = 1.500e+00 exceeds 1 beyond clamp_eps"),
        ([0.5, 0.5, 0.5, 0.5, 1e308, 1e308], "y[0] = 1.000e+308 overflows its block sum"),
    ],
)
def test_guard_fault_names_time_block_and_entry(v, fault):
    with pytest.raises(InvalidState) as info, np.errstate(over="ignore"):
        _guard(np.array(v), 2, IntegratorConfig(), [0.0, 0.0], 2.5)
    msg = str(info.value)
    assert msg.startswith("at t=2.5: ") and fault in msg
    assert msg.endswith("reduce --step or use --method rk45")


def test_guard_hint_under_rk45():
    with pytest.raises(InvalidState, match="y\\[0\\].*tighten abs_tol and rel_tol$"):
        _guard(np.array([0.5, 0.5, 0.5, 0.5, -1.0, 2.0]), 2,
               IntegratorConfig(method="rk45"), [0.0, 0.0], 1.0)


def test_guard_clamps_within_clamp_eps_and_renormalizes():
    drift = [0.0, 0.0]
    v = np.array([1.2, -1e-13, 0.3, 1.0 + 1e-13, 0.0, 1.0 + 1e-13])
    out = _guard(v, 2, IntegratorConfig(), drift, 0.1)
    # x: clamped to [1.2, 0], drift 0.2 > renorm_tol, so renormalized
    # z: clamped to 1; y: drift 1e-13 < renorm_tol, left as it is, zero kept
    assert out.tolist() == [1.0, 0.0, 0.3, 1.0, 0.0, 1.0 + 1e-13]
    assert drift[0] == pytest.approx(0.2) and drift[1] == pytest.approx(1e-13, rel=1e-3)
    assert _guard(out, 2, IntegratorConfig(), drift, 0.2) is out
    assert drift[0] == pytest.approx(0.2)  # the worst drift is kept


def test_sample_stride(scores):
    s0 = case_start()
    traj = integrate(s0, scores, IntegratorConfig(step=0.01, t_end=1.0, sample_stride=10))
    assert len(traj) == 11
    assert traj.t[1] == pytest.approx(0.1)


def test_invalid_initial_state_is_rejected(scores):
    bad = GameState(x=[0.6, 0.6, 0, 0, -0.2], y=np.full(36, 1 / 36), z=np.full(5, 0.5))
    with pytest.raises(InvalidState):
        integrate(bad, scores, IntegratorConfig(t_end=1.0))


def test_adaptive_step_underflow():
    # payoffs this violent make the acceptable step smaller than the
    # hard floor, so the controller must give up instead of looping
    stiff = ZScoreMatrix(np.array([[1e30, -1e30], [-1e30, 1e30]]))
    s0 = GameState(x=[0.5, 0.5], y=[0.5, 0.5], z=[1.0, 0.0])
    cfg = IntegratorConfig(method="rk45", step=0.01, t_end=5.0)
    with pytest.raises(StepSizeUnderflow):
        integrate(s0, stiff, cfg)


def test_early_stop_on_convergence(scores):
    cfg = IntegratorConfig(step=0.01, t_end=500.0, stop_on_convergence=True)
    traj = integrate(case_start(), scores, cfg)
    assert traj.t[-1] < 500.0
    assert traj.x[-1, 0] > 0.999


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(method="euler")
    with pytest.raises(ValueError):
        IntegratorConfig(step=-0.1)
    with pytest.raises(ValueError):
        IntegratorConfig(sample_stride=0)
    with pytest.raises(ValueError, match="conv_window"):
        IntegratorConfig(conv_window=0)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize(
    "name", ["step", "t_end", "abs_tol", "rel_tol", "renorm_tol", "clamp_eps", "conv_tol"]
)
def test_config_rejects_non_finite(name, value):
    with pytest.raises(ValueError, match=name):
        IntegratorConfig(**{name: value})


@pytest.mark.parametrize(
    "cls, arrays, extra",
    [
        (GameState, {"x": [0.5, 0.5], "y": [1.0], "z": [0.5, 0.5]}, {}),
        (PayoffMatrix, {"values": [[1.0, -1.0]], "sign_freqs": [0.5]}, {}),
        (ZScoreMatrix, {"scores": [[1.0, -1.0]]}, {}),
        (LoadingMatrix, {"loadings": [[0.5, -0.5]]}, {"stakeholder_ids": ("S1",), "factor_count": 2}),
        (InitialConditions, {"x0": [0.5, 0.5], "y0": [1.0], "z0": [0.5, 0.5]}, {}),
        (StatementDistribution, {"means": [0.0, 1.0], "sigmas": [1.0, 2.0]}, {"codes": ("a", "b")}),
    ],
)
def test_frozen_types_copy_the_callers_arrays(cls, arrays, extra):
    given = {name: np.array(v, dtype=float) for name, v in arrays.items()}
    obj = cls(**given, **extra)
    for name, arr in given.items():
        arr.flat[0] = 0.25  # raises if the caller's array was made read-only
        stored = getattr(obj, name)
        assert not stored.flags.writeable
        assert stored.flat[0] == np.ravel(arrays[name])[0]


# --- case-study asymptotics (shared session fixtures) ---

def test_case_study_fixates_on_first_factor(case_trajectory):
    assert case_trajectory.x[-1, 0] > 0.99
    assert np.all(case_trajectory.x[-1, 1:] < 0.01)


def test_case_study_sign_frequency_limits(case_trajectory):
    z = case_trajectory.z[-1]
    assert np.all(z[[0, 1, 3, 4]] > 0.99)
    assert z[2] < 0.01


def test_case_study_winning_strategy(case_trajectory):
    j = case_trajectory.strategy_labels.index("D.R.A.PP")
    assert case_trajectory.y[-1, j] > 0.99


def test_case_study_utility_endpoints(case_trajectory):
    assert case_trajectory.utility[0] < 0
    assert abs(case_trajectory.utility[-1] - 5.0) < 0.1


def test_simplex_drift_stays_tiny(case_trajectory):
    assert case_trajectory.max_x_drift <= 1e-6
    assert case_trajectory.max_y_drift <= 1e-6


def test_step_halving_agreement(case_trajectory, case_trajectory_half_step):
    a, b = case_trajectory, case_trajectory_half_step
    diff = max(
        np.abs(a.x[-1] - b.x[-1]).max(),
        np.abs(a.y[-1] - b.y[-1]).max(),
        np.abs(a.z[-1] - b.z[-1]).max(),
    )
    assert diff < 1e-6


def test_cross_method_agreement(case_trajectory, case_trajectory_rk45):
    a, b = case_trajectory, case_trajectory_rk45
    diff = max(
        np.abs(a.x[-1] - b.x[-1]).max(),
        np.abs(a.y[-1] - b.y[-1]).max(),
        np.abs(a.z[-1] - b.z[-1]).max(),
    )
    assert diff < 1e-5


def test_agreement_with_external_solver(scores, case_trajectory):
    # independent implementation check over the transient window, before
    # fixation collapses every solver onto the same vertex
    from scipy.integrate import solve_ivp

    s0 = case_start()
    v0 = np.concatenate([s0.x, s0.z, s0.y])

    def rhs(_, v):
        x, z, y = v[:5], v[5:10], v[10:]
        A = scores.scores * (2.0 * z - 1.0)[:, None]
        Ay = A @ y
        ATx = A.T @ x
        return np.concatenate([
            x * (Ay - x @ Ay),
            z * (1.0 - z) * 2.0 * (scores.scores @ y),
            y * (ATx - y @ ATx),
        ])

    sol = solve_ivp(rhs, (0.0, 8.0), v0, method="RK45", rtol=1e-10, atol=1e-12,
                    t_eval=[2.0, 5.0, 8.0])
    ours = case_trajectory
    for col, t_chk in enumerate(sol.t):
        k = int(np.searchsorted(ours.t, t_chk))
        assert ours.t[k] == pytest.approx(t_chk, abs=1e-12)
        mine = np.concatenate([ours.x[k], ours.z[k], ours.y[k]])
        assert np.abs(mine - sol.y[:, col]).max() < 1e-6


def test_trajectory_accessors(case_trajectory):
    s = case_trajectory.state(0)
    assert s.t == 0.0
    assert np.array_equal(s.x, case_trajectory.x[0])
    assert case_trajectory.terminal.t == case_trajectory.t[-1]
    assert [case_trajectory.state(i).t for i in range(3)] == list(case_trajectory.t[:3])


# --- reduced-game analytic oracle ---

def logistic(x0, delta, t):
    return x0 * np.exp(delta * t) / (1 - x0 + x0 * np.exp(delta * t))


@pytest.mark.parametrize("method", ["rk4", "rk45"])
@pytest.mark.parametrize("x0", [0.01, 0.2, 0.5, 0.9])
def test_dominant_row_reduction_matches_logistic(method, x0):
    # rows (delta, delta) and (0, 0) at z = 1: x follows the closed-form
    # logistic of the one-dimensional replicator equation, y and z freeze
    delta = 2.0
    scores = ZScoreMatrix(np.array([[delta, delta], [0.0, 0.0]]))
    s0 = GameState(x=[x0, 1 - x0], y=[0.3, 0.7], z=[1.0, 1.0])
    cfg = IntegratorConfig(method=method, step=0.01, t_end=10.0)
    traj = integrate(s0, scores, cfg)
    assert np.abs(traj.x[:, 0] - logistic(x0, delta, traj.t)).max() < 1e-6
    assert traj.x[-1, 0] > 0.999
    # y is analytically constant (held to rounding noise); z = 1 is an
    # exact fixed point of the sign dynamics
    assert traj.y[-1] == pytest.approx([0.3, 0.7], abs=1e-12)
    assert np.array_equal(traj.z[-1], [1.0, 1.0])


def test_dominant_column_reduction_freezes_x():
    # columns (delta, 0) for both rows: y follows the logistic, x freezes
    delta = 1.5
    scores = ZScoreMatrix(np.array([[delta, 0.0], [delta, 0.0]]))
    s0 = GameState(x=[0.4, 0.6], y=[0.25, 0.75], z=[1.0, 1.0])
    traj = integrate(s0, scores, IntegratorConfig(step=0.01, t_end=10.0))
    assert np.abs(traj.y[:, 0] - logistic(0.25, delta, traj.t)).max() < 1e-6
    assert traj.x[-1] == pytest.approx([0.4, 0.6], abs=1e-12)
