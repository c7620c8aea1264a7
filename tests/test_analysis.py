import numpy as np
import pytest

from qgame import (
    AnalysisThresholds,
    Trajectory,
    classify_transients,
    count_inflections,
    detect_fixation,
    utility_diagnostics,
)
from qgame.analysis import GROW_THEN_DIE, MONOTONE_WINNER, NEVER_GROWS, OTHER
from qgame.errors import EmptyTrajectory


def make_traj(t, y, x=None, z=None, utility=None, labels=None) -> Trajectory:
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    k, m = y.shape
    x = np.asarray(x, dtype=float) if x is not None else np.tile([1.0, 0.0], (k, 1))
    z = np.asarray(z, dtype=float) if z is not None else np.ones((k, x.shape[1]))
    return Trajectory(
        t=t,
        x=x,
        y=y,
        z=z,
        utility=np.asarray(utility, dtype=float) if utility is not None else np.zeros(k),
        factor_utility=np.zeros((k, x.shape[1])),
        factor_labels=tuple(f"Q{i+1}" for i in range(x.shape[1])),
        strategy_labels=tuple(labels or (f"s{j}" for j in range(m))),
    )


def sigmoid(t, mid, rate=1.0):
    return 1.0 / (1.0 + np.exp(-rate * (t - mid)))


def empty_traj() -> Trajectory:
    return make_traj(np.empty(0), np.empty((0, 2)), x=np.empty((0, 2)), z=np.empty((0, 2)))


# --- thresholds ---

@pytest.mark.parametrize(
    "name, value",
    [
        ("winner_threshold", 0.49),
        ("winner_threshold", 1.0),
        ("winner_threshold", 5.0),
        ("z_tol", 0.0),
        ("z_tol", 0.5),
        ("rise_tol", -0.01),
        ("die_tol", -1.0),
        ("mono_slack", -1e-12),
    ]
    + [(name, v) for name in ("winner_threshold", "z_tol", "rise_tol", "die_tol", "mono_slack")
       for v in (float("nan"), float("inf"))],
)
def test_thresholds_reject_out_of_range(name, value):
    with pytest.raises(ValueError, match=name):
        AnalysisThresholds(**{name: value})


def test_thresholds_accept_range_edges():
    AnalysisThresholds(winner_threshold=0.5, z_tol=0.499, rise_tol=0.0, die_tol=0.0, mono_slack=0.0)


# --- fixation ---

def test_constant_vertex_trajectory_wins_at_full_share():
    t = np.linspace(0, 5, 11)
    y = np.tile([0.0, 1.0, 0.0], (11, 1))
    x = np.tile([0.0, 1.0], (11, 1))
    rep = detect_fixation(make_traj(t, y, x=x), winner_threshold=0.99)
    assert rep.winner_x.label == "Q2" and rep.winner_x.share == 1.0
    assert rep.winner_y.label == "s1" and rep.winner_y.share == 1.0
    assert rep.winner_x.t_crossing == 0.0
    assert rep.converged and rep.t_convergence == 0.0


def test_unconverged_trajectory_has_no_winners():
    t = np.linspace(0, 1, 5)
    y = np.tile([0.5, 0.3, 0.2], (5, 1))
    x = np.tile([0.6, 0.4], (5, 1))
    z = np.tile([0.4, 0.6], (5, 1))
    rep = detect_fixation(make_traj(t, y, x=x, z=z))
    assert rep.winner_x is None and rep.winner_y is None
    assert rep.z_limits == (None, None)
    assert not rep.converged and rep.t_convergence is None


def test_z_limit_resolution():
    t = np.array([0.0, 1.0])
    y = np.tile([1.0, 0.0], (2, 1))
    z = np.array([[0.5, 0.5, 0.5], [0.999, 0.002, 0.5]])
    x = np.tile([1.0, 0.0, 0.0], (2, 1))
    rep = detect_fixation(make_traj(t, y, x=x, z=z), z_tol=0.01)
    assert rep.z_limits == (1, 0, None)


def test_stable_crossing_skips_transient_dips():
    t = np.arange(6.0)
    s = np.array([0.5, 0.995, 0.9, 0.995, 0.999, 1.0])  # dips back below once
    y = np.column_stack([s, 1 - s])
    rep = detect_fixation(make_traj(t, y), winner_threshold=0.99)
    assert rep.winner_y.t_crossing == 3.0


def test_fixation_invariant_under_subsampling(case_trajectory):
    full = detect_fixation(case_trajectory)
    sub = case_trajectory
    thin = Trajectory(
        t=sub.t[::50],
        x=sub.x[::50],
        y=sub.y[::50],
        z=sub.z[::50],
        utility=sub.utility[::50],
        factor_utility=sub.factor_utility[::50],
        factor_labels=sub.factor_labels,
        strategy_labels=sub.strategy_labels,
    )
    thinned = detect_fixation(thin)
    assert thinned.winner_x.label == full.winner_x.label
    assert thinned.winner_y.label == full.winner_y.label
    assert thinned.z_limits == full.z_limits
    assert thinned.converged == full.converged


def test_empty_trajectory_raises():
    with pytest.raises(EmptyTrajectory):
        detect_fixation(empty_traj())
    with pytest.raises(EmptyTrajectory):
        classify_transients(empty_traj())
    with pytest.raises(EmptyTrajectory):
        utility_diagnostics(empty_traj())


# --- transients ---

def test_two_phase_classification():
    t = np.linspace(0, 30, 301)
    winner = sigmoid(t, 15, 0.8)
    riser = 0.5 * np.exp(-((t - 5) ** 2) / 8)        # grows, then collapses
    flat = np.full_like(t, 0.001)
    rest = np.clip(1.0 - winner - riser - flat, 0.0, None)
    y = np.column_stack([winner, riser, flat, rest])
    prof = classify_transients(make_traj(t, y), rise_tol=0.01, die_tol=1e-3)
    by_label = {r.label: r.classification for r in prof.per_strategy}
    assert by_label["s0"] == MONOTONE_WINNER
    assert by_label["s1"] == GROW_THEN_DIE
    assert by_label["s2"] == NEVER_GROWS
    assert prof.winner == "s0"
    assert prof.grow_then_die == ("s1",)
    assert prof.per_strategy[1].peak_time == pytest.approx(5.0, abs=0.2)


def test_grower_that_survives_but_dips_is_other():
    t = np.linspace(0, 10, 101)
    a = 0.3 + 0.4 * sigmoid(t, 3, 2) - 0.2 * sigmoid(t, 7, 2)   # up then partway down
    y = np.column_stack([a, 1 - a])
    prof = classify_transients(make_traj(t, y), rise_tol=0.01, die_tol=1e-4)
    assert prof.per_strategy[0].classification == OTHER
    assert prof.winner is None


def test_constant_trajectory_has_no_growers():
    t = np.linspace(0, 4, 9)
    y = np.tile([0.25, 0.25, 0.5], (9, 1))
    prof = classify_transients(make_traj(t, y))
    assert {r.classification for r in prof.per_strategy} == {NEVER_GROWS}
    assert prof.grow_then_die == ()
    assert prof.winner is None


def test_classification_invariant_under_time_rescaling():
    t = np.linspace(0, 30, 301)
    winner = sigmoid(t, 15, 0.8)
    riser = 0.5 * np.exp(-((t - 5) ** 2) / 8)
    y = np.column_stack([winner, riser, np.clip(1 - winner - riser, 0, None)])
    a = classify_transients(make_traj(t, y))
    b = classify_transients(make_traj(t * 7.3, y))
    assert [r.classification for r in a.per_strategy] == [
        r.classification for r in b.per_strategy
    ]
    assert b.per_strategy[1].peak_time == pytest.approx(7.3 * a.per_strategy[1].peak_time)


def test_case_study_transients(case_trajectory):
    prof = classify_transients(case_trajectory)
    assert prof.winner == "D.R.A.PP"
    assert len(prof.grow_then_die) > 0
    by_label = {r.label: r for r in prof.per_strategy}
    assert by_label["D.R.A.PP"].classification == MONOTONE_WINNER


# --- utility diagnostics ---

def test_utility_diagnostics_summary():
    t = np.linspace(0, 5, 6)
    u = np.array([-0.5, -0.7, 0.2, 1.0, 3.0, 5.0])
    y = np.tile([1.0, 0.0], (6, 1))
    d = utility_diagnostics(make_traj(t, y, utility=u))
    assert d.initial == -0.5 and d.terminal == 5.0
    assert d.minimum == -0.7 and d.maximum == 5.0
    assert d.monotone_after == 1.0  # decreasing step ends at t=1


def test_utility_monotone_from_start():
    t = np.linspace(0, 5, 6)
    u = np.linspace(-1, 5, 6)
    y = np.tile([1.0, 0.0], (6, 1))
    assert utility_diagnostics(make_traj(t, y, utility=u)).monotone_after == 0.0


def test_constant_utility_is_flat():
    t = np.linspace(0, 5, 6)
    y = np.tile([1.0, 0.0], (6, 1))
    d = utility_diagnostics(make_traj(t, y, utility=np.zeros(6)))
    assert d.initial == d.terminal == d.minimum == d.maximum == 0.0
    assert d.monotone_after == 0.0


# --- inflection counting ---

def test_sigmoid_has_single_inflection():
    t = np.linspace(0, 30, 601)
    assert count_inflections(t, sigmoid(t, 15, 0.7)) == 1


def test_line_has_no_inflection():
    t = np.linspace(0, 10, 101)
    assert count_inflections(t, 0.3 * t + 1) == 0


def test_double_sigmoid_has_three_inflections():
    t = np.linspace(0, 40, 801)
    s = sigmoid(t, 10, 1.0) + sigmoid(t, 30, 1.0)
    assert count_inflections(t, s) == 3


def test_inflection_count_on_nonuniform_grid():
    rng = np.random.default_rng(12)
    t = np.sort(rng.uniform(0, 30, 400))
    assert count_inflections(t, sigmoid(t, 15, 0.7)) == 1
