import math
import warnings

import numpy as np
import pytest

from qgame import (
    GameState,
    IntegratorConfig,
    LoadingMatrix,
    StatementDistribution,
    ZScoreMatrix,
    integrate,
    vector_field,
)
import qgame
from qgame import dynamics
from qgame.dynamics import (
    BLOCK, LOG_BOUND, T_EPS, _DP, _DP_B4, _DP_B5, _DP_A, _DP_E, _RK4, _recentre, _stepper,
    _to_log,
)
from qgame.errors import InvalidSetting, QGameError

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


def log_start() -> np.ndarray:
    """The case-study start in the integrator's log coordinates (u, a, c)."""
    s0 = case_start()
    return _to_log(s0.x, s0.z, s0.y)


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
    for row, c in zip(_DP_A, (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)):
        assert sum(row) == pytest.approx(c, abs=1e-15)


@pytest.mark.parametrize("h", [0.01, 0.5])
def test_stacked_dormand_prince_step_matches_the_stage_sums(scores, h):
    """One step on the stage array equals the textbook sums over _DP_A, _DP_B5
    and _DP_B4, and its last stage is the field at the 5th-order value."""
    S, n = scores.scores, scores.scores.shape[0]
    v = log_start()
    k = [dynamics._rhs(v, S, n)]
    for row in _DP_A[1:]:
        k.append(dynamics._rhs(v + h * sum(a * ki for a, ki in zip(row, k)), S, n))
    v5 = v + h * sum(b * ki for b, ki in zip(_DP_B5, k))
    k.append(dynamics._rhs(v5, S, n))
    v4 = v + h * sum(b * ki for b, ki in zip(_DP_B4, k))

    V, K, step = _stepper(S, n, _DP)
    V[0], K[0] = v, k[0]
    step(h)
    got_v5 = V[-1]
    assert np.abs(got_v5 - v5).max() <= 1e-15
    assert np.abs(h * (_DP_E @ K) - (v5 - v4)).max() <= 1e-15
    assert np.array_equal(K[6], dynamics._rhs(got_v5, S, n))


def classic_rk4_step(v, h, S, n):
    """The textbook RK4 step, k1 included."""
    k1 = dynamics._rhs(v, S, n)
    k2 = dynamics._rhs(v + 0.5 * h * k1, S, n)
    k3 = dynamics._rhs(v + 0.5 * h * k2, S, n)
    k4 = dynamics._rhs(v + h * k3, S, n)
    return v + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)


@pytest.mark.parametrize("h", [0.01, 0.5])
def test_rk4_tableau_step_is_the_classic_sum(scores, h):
    """One step on the RK4 tableau equals the classic formula bit for bit,
    and its last stage is the field at the new state."""
    S, n = scores.scores, scores.scores.shape[0]
    v = log_start()
    V, K, step = _stepper(S, n, _RK4)
    V[0], K[0] = v, dynamics._rhs(v, S, n)
    step(h)
    got = V[-1]
    assert np.array_equal(got, classic_rk4_step(v, h, S, n))
    assert np.array_equal(K[4], dynamics._rhs(got, S, n))


def spy_on_steps(monkeypatch) -> list:
    """Has every step of `integrate` recorded as a dict: its h, and V[0],
    K[0] before it and V[0], K[0], V[-1], K[-1] after it."""
    build, steps = dynamics._stepper, []

    def spied(*args):
        V, K, step = build(*args)

        def spied_step(h):
            before = dict(h=h, v=V[0].copy(), f=K[0].copy())
            step(h)
            steps.append(dict(before, v_after=V[0].copy(), f_after=K[0].copy(),
                              new=V[-1].copy(), f_new=K[-1].copy()))

        return V, K, spied_step

    monkeypatch.setattr(dynamics, "_stepper", spied)
    return steps


def test_consecutive_rk4_steps_are_the_classic_steps(scores, monkeypatch):
    """50 steps of one run on its fixed buffers are 50 classic steps bit for
    bit, each taken from the new state of the step before, so neither V[0]
    nor K[0] is ever stale."""
    S, n = scores.scores, scores.scores.shape[0]
    steps = spy_on_steps(monkeypatch)
    traj = integrate(case_start(), scores, IntegratorConfig(step=0.01, t_end=0.5))
    assert len(steps) == traj.meta["accepted_steps"] == 50
    assert traj.meta["recentrings"] == 0
    v = log_start()
    for i, s in enumerate(steps):
        assert s["h"] == traj.t[i + 1] - traj.t[i]
        assert np.array_equal(s["v"], v), i
        assert np.array_equal(s["f"], dynamics._rhs(v, S, n)), i
        v = classic_rk4_step(v, s["h"], S, n)
        assert np.array_equal(s["new"], v), i


def test_rejected_rk45_step_keeps_the_state_and_its_field(scores, monkeypatch):
    """A rejected attempt leaves V[0] and K[0] as they were, bit for bit, and
    the retried step equals the same step taken on fresh buffers."""
    S, n = scores.scores, scores.scores.shape[0]
    steps = spy_on_steps(monkeypatch)
    traj = integrate(case_start(), scores, IntegratorConfig(method="rk45", step=200.0))
    first, retry = steps[:2]
    assert first["h"] == 50.0 and traj.t[1] < 50.0  # the first attempt was rejected
    assert traj.meta["rejected_steps"] > 0
    v = log_start()
    for s in (first, retry):
        assert np.array_equal(s["v"], v)
        assert np.array_equal(s["f"], dynamics._rhs(v, S, n))
    assert np.array_equal(first["v_after"], v) and np.array_equal(first["f_after"], first["f"])
    V, K, step = _stepper(S, n, _DP)  # fresh buffers; the spy replaced only dynamics._stepper
    V[0], K[0] = v, dynamics._rhs(v, S, n)
    step(retry["h"])
    assert retry["h"] < first["h"]
    assert np.array_equal(V[-1], retry["new"]) and np.array_equal(K[-1], retry["f_new"])


# --- vector field ---

def test_neutral_sign_frequencies_freeze_x_and_y(scores):
    rng = np.random.default_rng(1)
    for _ in range(20):
        s = GameState(
            x=rng.dirichlet(np.ones(5)),
            y=rng.dirichlet(np.ones(36)),
            z=np.full(5, 0.5),
        )
        dx, dy, dz = vector_field(s, scores)
        assert np.array_equal(dx, np.zeros(5))
        assert np.array_equal(dy, np.zeros(36))
        expected_dz = 0.5 * 0.5 * 2.0 * (scores.scores @ s.y)
        assert dz == pytest.approx(expected_dz, abs=1e-12)


def test_vertices_are_rest_points(scores):
    rng = np.random.default_rng(2)
    for _ in range(20):
        x = np.zeros(5)
        x[rng.integers(5)] = 1.0
        y = np.zeros(36)
        y[rng.integers(36)] = 1.0
        dx, dy, _ = vector_field(GameState(x=x, y=y, z=rng.uniform(0, 1, 5)), scores)
        assert np.array_equal(dx, np.zeros(5))
        assert np.array_equal(dy, np.zeros(36))


def test_initial_sign_frequency_drift_signs(scores):
    # at the case-study start every factor utility is positive, so every
    # z coordinate initially drifts upward (frozen oracle values)
    _, _, dz = vector_field(case_start(), scores)
    assert all(v > 0 for v in PSI_AT_Y0_RAW)
    assert np.all(dz > 0)
    assert np.sign(dz[2]) == np.sign(PSI_AT_Y0_RAW[2])


def test_simplex_tangency(scores):
    rng = np.random.default_rng(3)
    for _ in range(100):
        dx, dy, _ = vector_field(random_state(rng), scores)
        assert abs(dx.sum()) < 1e-13
        assert abs(dy.sum()) < 1e-13


def test_z_boundary_coordinates_are_fixed(scores):
    rng = np.random.default_rng(4)
    for _ in range(100):
        z = rng.uniform(0, 1, 5)
        z[rng.integers(5)] = float(rng.integers(2))  # pin one coordinate to 0 or 1
        s = GameState(x=rng.dirichlet(np.ones(5)), y=rng.dirichlet(np.ones(36)), z=z)
        _, _, dz = vector_field(s, scores)
        pinned = (z == 0.0) | (z == 1.0)
        assert np.array_equal(dz[pinned], np.zeros(pinned.sum()))


def payoff_matrix(scores, z) -> np.ndarray:
    """Test-local oracle: A(z) = S * (2z - 1), row by row."""
    return scores.scores * (2 * z - 1)[:, None]


def test_vector_field_matches_the_textbook_form(scores):
    rng = np.random.default_rng(5)
    for s in [case_start()] + [random_state(rng) for _ in range(100)]:
        A = payoff_matrix(scores, s.z)
        Ay = A @ s.y
        ATx = A.T @ s.x
        dx, dy, dz = vector_field(s, scores)
        assert dx == pytest.approx(s.x * (Ay - s.x @ Ay), abs=1e-12)
        assert dy == pytest.approx(s.y * (ATx - s.y @ ATx), abs=1e-12)
        assert dz == pytest.approx(s.z * (1 - s.z) * 2 * (scores.scores @ s.y), abs=1e-12)


def test_vector_field_rejects_invalid_states(scores):
    with pytest.raises(QGameError, match=r"^x sums to 1\.5, outside 1 \+/- 1e-09$"):
        vector_field(GameState(x=[0.5, 0.5, 0.5, 0, 0], y=np.full(36, 1 / 36), z=np.full(5, 0.5)), scores)
    with pytest.raises(QGameError, match=r"^z\[4\] = 1\.5 is outside \[0, 1\]$"):
        vector_field(GameState(x=[1, 0, 0, 0, 0], y=np.full(36, 1 / 36), z=[0.5, 0.5, 0.5, 0.5, 1.5]), scores)
    with pytest.raises(QGameError, match=r"^state shapes x\(3,\), y\(36,\), z\(3,\) do not match "):
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


def test_rk45_with_zeroed_entries_raises_no_warning(scores):
    """Zero shares and z = 0 or 1 are infinite log coordinates; converting
    them, stepping them and measuring their error warns of nothing."""
    rng = np.random.default_rng(9)
    x = rng.dirichlet(np.ones(5))
    x[[1, 3]] = 0.0
    x /= x.sum()
    y = rng.dirichlet(np.ones(36))
    y[[0, 7, 26]] = 0.0
    y /= y.sum()
    z = rng.uniform(0.1, 0.9, 5)
    z[[0, 4]] = [0.0, 1.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = integrate(GameState(x=x, y=y, z=z), scores,
                         IntegratorConfig(method="rk45", t_end=50.0))
    assert np.array_equal(traj.x[:, [1, 3]], np.zeros((len(traj), 2)))
    assert np.array_equal(traj.y[:, [0, 7, 26]], np.zeros((len(traj), 3)))
    assert np.array_equal(traj.z[:, 0], np.zeros(len(traj)))
    assert np.array_equal(traj.z[:, 4], np.ones(len(traj)))


@pytest.mark.parametrize("method, step", [("rk4", 0.1), ("rk45", 0.01)])
def test_case_study_to_t_1000_ends_at_the_headline(case_study, method, step):
    """Long after fixation the winners' log coordinates keep growing and the
    guard recentres them again and again; the run warns of nothing and ends
    at the headline. rk4 takes 10000 steps of 0.1 here."""
    cfg = IntegratorConfig(method=method, step=step, t_end=1000.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = qgame.run_scenario(case_study, cfg)
    assert traj.t[-1] == 1000.0
    assert traj.meta["recentrings"] > 10
    fixation = qgame.analyze(traj)["fixation"]
    assert fixation["winner_x"]["label"] == "Q1"
    assert fixation["winner_y"]["label"] == "D.R.A.PP"
    assert fixation["z_limits"] == [1, 1, 0, 1, 1]
    assert np.array_equal(traj.z[-1], [1.0, 1.0, 0.0, 1.0, 1.0])


def test_sample_times_strictly_increase(case_trajectory):
    assert np.all(np.diff(case_trajectory.t) > 0)
    assert case_trajectory.t[0] == 0.0
    assert case_trajectory.t[-1] == 50.0
    assert len(case_trajectory) == 5001


# --- the sample buffer and its blocks ---

TIGHT = dict(method="rk45", tol=1e-14)  # ~580 rk45 samples to t = 10


@pytest.fixture(scope="module")
def tight_rk45_times(scores):
    """Sample times of a tight-tolerance rk45 run; ending a run at times[k - 1]
    gives it k samples."""
    return integrate(case_start(), scores, IntegratorConfig(t_end=10.0, **TIGHT)).t


def block_run(scores, method, samples, rk45_times):
    """A case-study run of `samples` samples and the copied blocks of rows
    it passed to on_samples."""
    if method == "rk4":
        cfg = IntegratorConfig(step=0.01, t_end=(samples - 1) * 0.01)
    else:
        cfg = IntegratorConfig(t_end=float(rk45_times[samples - 1]), **TIGHT)
    blocks = []
    traj = integrate(
        case_start(), scores, cfg, on_samples=lambda rows: blocks.append(rows.copy())
    )
    assert len(traj) == samples
    return traj, blocks


@pytest.mark.parametrize("samples", [2, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
@pytest.mark.parametrize("method", ["rk4", "rk45"])
def test_on_samples_blocks_concatenate_to_the_trajectory(
    scores, method, samples, tight_rk45_times
):
    traj, blocks = block_run(scores, method, samples, tight_rk45_times)
    sizes = [len(rows) for rows in blocks]
    assert sizes == [BLOCK] * (samples // BLOCK) + ([samples % BLOCK] if samples % BLOCK else [])
    rows = np.concatenate(blocks)
    assert np.array_equal(rows[:, 0], traj.t)
    assert np.array_equal(rows[:, 1:-1], np.column_stack([traj.x, traj.z, traj.y]))
    assert np.array_equal(rows[:, -1], traj.utility)
    for block in blocks:  # each block's utility is its own rows' product
        x, z, y = block[:, 1:6], block[:, 6:11], block[:, 11:-1]
        assert np.array_equal(block[:, -1], qgame.expected_total_utility(scores.scores, x, y, z))


def loop_steps(step, t_end):
    """Steps of the rk4 loop in `integrate`, counted by running its clock."""
    t, steps = 0.0, 0
    while t < t_end - T_EPS:
        steps += 1
        t = min(steps * step, t_end)
    return steps


def random_rk4_cases(rng, count, max_steps):
    """(step, t_end) pairs near a multiple of the step, on either side."""
    return [(float(h), float(h * k * (1 + e)))
            for h, k, e in zip(rng.uniform(1e-3, 1.0, count), rng.integers(1, max_steps, count),
                               rng.choice([0.0, 1e-16, -1e-16, 1e-13, -1e-13], count))]


RK4_FIXED = [(0.1, 0.3), (0.3, 1.0), (0.7, 1000.0), (0.01, 1e-15),
             (0.01, 0.01 + 5e-15), (1.0, 1e-14), (2.0, 1.0)]


def rk4_short_and_long_cases():
    """40 random short runs and 300 random long ones, the same on every call."""
    rng = np.random.default_rng(8)
    return random_rk4_cases(rng, 40, 40), random_rk4_cases(rng, 300, 3000)


def test_rk4_step_count_is_known_before_the_first_step():
    """Before the first step, 1 + ceil(t_end / step) bounds the steps the
    loop takes, so the buffer's 2 + ceil(t_end / step) rows hold them all."""
    short, long = rk4_short_and_long_cases()
    for step, t_end in RK4_FIXED + short + long:
        assert loop_steps(step, t_end) <= 1 + math.ceil(t_end / step), (step, t_end)


def test_rk4_buffer_holds_exactly_its_samples(scores, case_trajectory):
    """The trajectory holds exactly its 1 + steps samples, as views of the
    one buffer of 2 + ceil(t_end / step) rows t, x, z, y, utility: an rk4
    run never doubles it."""
    short, _ = rk4_short_and_long_cases()
    # a vertex with z = 1 is a rest point where the field is exactly zero,
    # so no step size throws it off the simplex
    rest = GameState(x=np.eye(5)[1], y=np.eye(36)[3], z=np.ones(5))
    runs = [(0.01, 50.0, case_trajectory)]
    runs += [(step, t_end, integrate(rest, scores, IntegratorConfig(step=step, t_end=t_end)))
             for step, t_end in RK4_FIXED + short]
    for step, t_end, traj in runs:
        assert len(traj) == 1 + loop_steps(step, t_end), (step, t_end)
        assert traj.x.base.shape == (2 + math.ceil(t_end / step), 48), (step, t_end)


# --- the overflow guard (n = 2: v = u0 u1 | a0 a1 | c0 c1) ---

INF, NAN = float("inf"), float("nan")


@pytest.mark.parametrize(
    "v, fault",
    [
        pytest.param([NAN, 1.0, 0.5, 0.5, 0.5, 0.5], "x[0] = nan is not finite",
                     id="v0-x[0] = nan is not finite"),
        pytest.param([INF, 0.0, 0.5, 0.5, 0.5, 0.5], "x[0] = inf is not finite",
                     id="v1-x[0] = inf is not finite"),
        pytest.param([0.5, 0.5, 0.5, 0.5, 0.5, INF], "y[1] = inf is not finite",
                     id="v2-y[1] = inf is not finite"),
        pytest.param([0.5, 0.5, 0.5, 0.5, -INF, -INF], "y[0] = -inf is not finite",
                     id="v4-y[0] = -inf is not finite"),
        pytest.param([0.5, 0.5, 0.5, NAN, 0.5, 0.5], "z[1] = nan is not finite",
                     id="v5-z[1] = nan is not finite"),
        pytest.param([-INF, -INF, INF, -INF, 0.0, 0.0], "x[0] = -inf is not finite",
                     id="no x share left"),
        pytest.param([NAN, 0.0, NAN, 0.0, 0.0, NAN], "y[1] = nan is not finite",
                     id="y named before z and x"),
        pytest.param([NAN, 0.0, NAN, 0.0, 0.0, 0.0], "z[0] = nan is not finite",
                     id="z named before x"),
    ],
)
def test_guard_fault_names_time_block_and_entry(v, fault):
    """A NaN anywhere, or a log block whose max is not finite, is a fault;
    a = +inf or -inf (z = 1 or 0) is not."""
    with pytest.raises(QGameError) as info:
        _recentre(np.array(v), 2, 2.5, IntegratorConfig())
    msg = str(info.value)
    assert msg.startswith("at t=2.5: ") and fault in msg
    assert msg.endswith("reduce --step or use --method rk45")


def test_guard_hint_under_rk45():
    with pytest.raises(QGameError, match="y\\[0\\].*tighten tol$"):
        _recentre(np.array([0.5, 0.5, 0.5, 0.5, NAN, 2.0]), 2, 1.0,
                  IntegratorConfig(method="rk45"))


def test_guard_shifts_each_log_block_to_a_max_of_zero():
    """u and c are shifted by their maxima, above or below the bound;
    -inf entries and a = +-inf stay."""
    v = np.array([LOG_BOUND + 6.0, -INF, INF, -INF, -LOG_BOUND - 16.0, -LOG_BOUND - 26.0])
    _recentre(v, 2, 1.0, IntegratorConfig())
    assert v.tolist() == [0.0, -INF, INF, -INF, 0.0, -10.0]


@pytest.mark.parametrize("v", [[70.0, 70.0, 0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0, -70.0, -70.0],
                               [-70.0, -70.0, 0.0, 0.0, 70.0, 70.0]])
def test_guard_reports_each_kind_of_write(v):
    """A step that leaves u above the bound, c below it, or u below and c
    above it is recentred and counted, with f(v) evaluated anew, and the
    shares are those of the step without the shift."""
    scores = ZScoreMatrix(np.array([[1.0, -2.0], [-1.0, 3.0]]))
    s0 = GameState(x=[0.4, 0.6], y=[0.3, 0.7], z=[0.8, 0.3])
    cfg = IntegratorConfig(step=0.01, t_end=0.01)
    plain = integrate(s0, scores, cfg)
    build = dynamics._stepper

    def shifted(*args):
        V, K, step = build(*args)

        def shifted_step(h):
            step(h)
            V[-1] += v

        return V, K, shifted_step

    with pytest.MonkeyPatch.context() as m:
        m.setattr(dynamics, "_stepper", shifted)
        moved = integrate(s0, scores, cfg)
    assert plain.meta["recentrings"] == 0 and moved.meta["recentrings"] == 1
    assert moved.meta["field_evaluations"] == plain.meta["field_evaluations"] + 1 == 6
    for name in ("x", "y", "z"):
        assert getattr(moved, name)[-1] == pytest.approx(getattr(plain, name)[-1], abs=1e-15)


def test_rk4_nan_stage_faults_at_the_step_it_reaches():
    """An exp that overflows in a stage leaves NaN in the new state; the
    run stops there, naming the time and the entry, with no numpy warning."""
    scores = ZScoreMatrix(np.array([[5.0, -5.0], [-5.0, 5.0]]))
    s0 = GameState(x=[0.5, 0.5], y=[0.3, 0.7], z=[0.9, 0.2])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QGameError, match=r"^at t=200: [xzy]\[\d\] = nan is not finite; "
                                               "reduce --step or use --method rk45$"):
            integrate(s0, scores, IntegratorConfig(step=200.0, t_end=400.0))


def test_rk45_rejects_nan_stages_instead_of_faulting(scores):
    """Under rk45 a stage that overflows gives a NaN error norm, so the step
    is rejected and retried smaller: a huge first step still completes."""
    traj = integrate(case_start(), scores, IntegratorConfig(method="rk45", step=200.0, t_end=50.0))
    assert traj.meta["rejected_steps"] > 0
    assert np.isfinite(np.column_stack([traj.x, traj.z, traj.y])).all()


def test_shape_mismatch_message_is_shared(scores):
    """vector_field and integrate reject a mis-shaped state with one message."""
    bad = GameState(x=np.full(4, 0.25), y=np.full(36, 1 / 36), z=np.full(5, 0.5))
    messages = []
    for call in (lambda: vector_field(bad, scores), lambda: integrate(bad, scores)):
        with pytest.raises(QGameError) as info:
            call()
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert messages[0] == "state shapes x(4,), y(36,), z(5,) do not match the 5x36 score matrix"


def test_invalid_initial_state_is_rejected(scores):
    bad = GameState(x=[0.6, 0.6, 0, 0, -0.2], y=np.full(36, 1 / 36), z=np.full(5, 0.5))
    with pytest.raises(QGameError, match=r"^x\[4\] = -0\.2 is negative$"):
        integrate(bad, scores, IntegratorConfig(t_end=1.0))


@pytest.mark.parametrize(
    "block, index, value",
    [("x", 0, np.nan), ("x", 2, np.inf), ("y", 5, -np.inf), ("z", 3, np.nan), ("z", 1, np.inf)],
)
def test_validate_names_the_entry_that_is_not_finite(block, index, value):
    blocks = {"x": np.full(5, 0.2), "y": np.full(36, 1 / 36), "z": np.full(5, 0.5)}
    blocks[block][index] = value
    with pytest.raises(QGameError, match=rf"^{block}\[{index}\] = {value} is not finite$"):
        GameState(**blocks).validate()


@pytest.mark.parametrize(
    "block, index, value, what",
    [
        ("x", 4, -0.2, "is negative"),
        ("y", 0, -0.1, "is negative"),
        ("z", 4, 1.5, r"is outside \[0, 1\]"),
        ("z", 2, -0.25, r"is outside \[0, 1\]"),
    ],
)
def test_validate_names_the_entry_out_of_range(block, index, value, what):
    blocks = {"x": np.full(5, 0.2), "y": np.full(36, 1 / 36), "z": np.full(5, 0.5)}
    blocks[block][index] = value
    with pytest.raises(QGameError, match=rf"^{block}\[{index}\] = {value} {what}$"):
        GameState(**blocks).validate()


def test_adaptive_step_underflow():
    # payoffs this violent make the acceptable step smaller than the
    # hard floor, so the controller must give up instead of looping
    stiff = ZScoreMatrix(np.array([[1e30, -1e30], [-1e30, 1e30]]))
    s0 = GameState(x=[0.5, 0.5], y=[0.5, 0.5], z=[1.0, 0.0])
    cfg = IntegratorConfig(method="rk45", step=0.01, t_end=5.0)
    with pytest.raises(QGameError, match=r"^adaptive step fell to \S+ at t=\S+$"):
        integrate(s0, stiff, cfg)


def test_rk4_over_step_budget_fails_before_the_first_step(scores, monkeypatch):
    build = dynamics._stepper

    def no_step(*args):
        V, K, _ = build(*args)

        def step(h):
            raise AssertionError("stepped")

        return V, K, step

    monkeypatch.setattr(dynamics, "_stepper", no_step)
    cfg = IntegratorConfig(step=1e-5, t_end=50.0)  # 5e6 steps
    with pytest.raises(QGameError, match="MAX_STEPS=1000000"):
        integrate(case_start(), scores, cfg)
    with pytest.raises(QGameError, match="inf steps"):
        integrate(case_start(), scores, IntegratorConfig(step=1e-300, t_end=1e300))


def test_rk4_at_the_step_budget_runs(scores, monkeypatch):
    monkeypatch.setattr(dynamics, "MAX_STEPS", 100)
    traj = integrate(case_start(), scores, IntegratorConfig(step=0.01, t_end=1.0))
    assert traj.meta["accepted_steps"] == 100


def test_rk4_blowup_names_time_and_entry_without_warnings():
    huge = ZScoreMatrix(np.array([[1e200, -1e200], [-1e200, 1e200]]))
    s0 = GameState(x=[0.5, 0.5], y=[0.3, 0.7], z=[0.9, 0.2])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a RuntimeWarning would escape pytest.raises
        with pytest.raises(QGameError, match=r"^at t=0\.01: [xzy]\[\d\] = \S+ is not finite; "
                                               "reduce --step or use --method rk45$"):
            integrate(s0, huge, IntegratorConfig(step=0.01, t_end=1.0))


def test_rk45_over_step_budget_names_time_and_count(scores, monkeypatch):
    monkeypatch.setattr(dynamics, "MAX_STEPS", 10)
    cfg = IntegratorConfig(method="rk45", step=0.01, t_end=50.0)
    with pytest.raises(QGameError, match=r"^at t=\S+: 10 rk45 step attempts"):
        integrate(case_start(), scores, cfg)


# --- integrator counters and the reused last stage ---

def test_rk4_counts_four_evaluations_per_step(case_trajectory):
    meta = case_trajectory.meta
    assert meta["accepted_steps"] == 5000
    # the first stage of each step is the last of the one before, except
    # after the guard recentred the log coordinates
    assert meta["recentrings"] == 3
    assert meta["field_evaluations"] == 1 + 4 * meta["accepted_steps"] + meta["recentrings"]
    assert meta["rejected_steps"] == 0
    assert meta["min_step"] == pytest.approx(0.01, rel=1e-9)
    assert meta["max_step"] == pytest.approx(0.01, rel=1e-9)


def test_rk45_reuses_the_last_stage(case_trajectory_rk45):
    meta = case_trajectory_rk45.meta
    attempts = meta["accepted_steps"] + meta["rejected_steps"]
    assert meta["field_evaluations"] == 1 + 6 * attempts + meta["recentrings"]
    assert meta["field_evaluations"] <= 1320  # 7 per attempt before: 1526
    # the post-fixation tail is a straight line in log coordinates
    assert meta["accepted_steps"] <= 80
    assert meta["min_step"] == 0.01  # the first step is accepted
    assert meta["max_step"] > 10.0


def test_step_range_is_none_without_a_step(scores):
    meta = integrate(case_start(), scores, IntegratorConfig(step=0.01, t_end=1e-15)).meta
    assert meta["accepted_steps"] == 0
    assert meta["min_step"] is None and meta["max_step"] is None


def _assert_reuse_is_exact(case_study, cfg, monkeypatch):
    """The run as it is, and with the overflow guard entered after every
    accepted step, so that every first stage is evaluated anew; the guard
    then recentres only where the plain run does."""
    plain = qgame.run_scenario(case_study, cfg)
    recentre = dynamics._recentre

    def only_out_of_range(v, n, t, cfg):
        tu, _, tc = np.maximum.reduceat(v, (0, n, 2 * n))
        if max(abs(tu), abs(tc)) > LOG_BOUND:
            recentre(v, n, t, cfg)

    with monkeypatch.context() as m:
        m.setattr(dynamics, "LOG_BOUND", -1.0)
        m.setattr(dynamics, "_recentre", only_out_of_range)
        anew = qgame.run_scenario(case_study, cfg)
    for name in ("t", "x", "y", "z", "utility"):
        assert np.array_equal(getattr(plain, name), getattr(anew, name)), name
    accepted = plain.meta["accepted_steps"]
    assert anew.meta["accepted_steps"] == accepted
    assert anew.meta["recentrings"] == accepted
    assert anew.meta["field_evaluations"] == (
        plain.meta["field_evaluations"] + accepted - plain.meta["recentrings"]
    )
    return plain


@pytest.mark.parametrize("tol", [1e-9, 1e-4])
def test_reused_last_stage_is_exact(case_study, monkeypatch, tol):
    cfg = IntegratorConfig(method="rk45", tol=tol, t_end=10.0)
    assert _assert_reuse_is_exact(case_study, cfg, monkeypatch).meta["recentrings"] == 0


@pytest.mark.parametrize("tol", [1e-9, 1e-4])
def test_reused_last_stage_is_exact_when_the_guard_writes(case_study, monkeypatch, tol):
    # the winners' log coordinates grow linearly after fixation, so by
    # t = 50 the guard has recentred them, and f(v) is recomputed there
    cfg = IntegratorConfig(method="rk45", tol=tol)
    plain = _assert_reuse_is_exact(case_study, cfg, monkeypatch)
    assert 0 < plain.meta["recentrings"] < plain.meta["accepted_steps"]


def test_reused_last_stage_is_exact_under_rk4(case_study, monkeypatch):
    cfg = IntegratorConfig(t_end=10.0)
    assert _assert_reuse_is_exact(case_study, cfg, monkeypatch).meta["recentrings"] == 0


def test_reused_last_stage_is_exact_under_rk4_when_the_guard_writes(case_study, monkeypatch):
    plain = _assert_reuse_is_exact(case_study, IntegratorConfig(t_end=20.0), monkeypatch)
    assert plain.meta["recentrings"] == 1
    # and every sample is the classic step from the one before in log
    # coordinates, recentred out of range, then converted to shares
    S, n = case_study.scores.scores, case_study.scores.scores.shape[0]
    samples = np.column_stack([plain.x, plain.z, plain.y])
    s0 = case_study.initial
    with np.errstate(divide="ignore"):
        v = _to_log(s0.x, s0.z, s0.y)
    for i in range(1, len(plain)):
        v = classic_rk4_step(v, plain.t[i] - plain.t[i - 1], S, n)
        tu, _, tc = np.maximum.reduceat(v, (0, n, 2 * n))
        if max(abs(tu), abs(tc)) > LOG_BOUND:
            _recentre(v, n, plain.t[i], IntegratorConfig())
        row = v[None, :].copy()
        with np.errstate(over="ignore"):
            dynamics._to_shares(row, n)
        assert np.array_equal(row[0], samples[i]), i


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(method="euler")
    with pytest.raises(ValueError):
        IntegratorConfig(step=-0.1)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("name", ["step", "t_end", "tol"])
def test_config_rejects_non_finite(name, value):
    with pytest.raises(ValueError, match=name):
        IntegratorConfig(**{name: value})


@pytest.mark.parametrize("value", [True, "0.1", None])
@pytest.mark.parametrize("name", ["step", "t_end", "tol"])
def test_config_rejects_non_numbers(name, value):
    with pytest.raises(InvalidSetting, match=f"{name}: expected a number"):
        IntegratorConfig(**{name: value})


@pytest.mark.parametrize(
    "cls, arrays, extra",
    [
        pytest.param(
            GameState, {"x": [0.5, 0.5], "y": [1.0], "z": [0.5, 0.5]}, {},
            id="GameState-arrays0-extra0",
        ),
        pytest.param(
            ZScoreMatrix, {"scores": [[1.0, -1.0]]}, {},
            id="ZScoreMatrix-arrays2-extra2",
        ),
        pytest.param(
            LoadingMatrix, {"loadings": [[0.5, -0.5]]},
            {"stakeholder_ids": ("S1",)},
            id="LoadingMatrix-arrays3-extra3",
        ),
        pytest.param(
            StatementDistribution, {"means": [0.0, 1.0], "sigmas": [1.0, 2.0]}, {},
            id="StatementDistribution-arrays5-extra5",
        ),
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
    assert case_trajectory.meta["max_x_drift"] <= 1e-6
    assert case_trajectory.meta["max_y_drift"] <= 1e-6


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
