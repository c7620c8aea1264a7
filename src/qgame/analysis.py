"""Post-processing of trajectories into the report dict.

`analyze` builds the JSON-ready report of docs/report.schema.json, one
section each for fixation, transients and utility, with the thresholds
of one `AnalysisThresholds`. Classification rules (values only, so
results are invariant under uniform time rescaling):

* a winner is declared when the terminal share exceeds `winner_threshold`
  and its crossing time is the first sample after which it never falls
  back below the threshold;
* a strategy "grows" when its peak exceeds its initial share by
  `rise_tol`; it is `grow-then-die` when it grew but ends below
  `die_tol`; the `monotone-winner` is the strategy with the largest
  terminal share provided it grew and its largest drawdown from the
  running peak stays within `mono_slack` (tolerating integration-scale
  dips, orders below a genuine transient collapse).
"""

from dataclasses import dataclass, fields

import numpy as np

from .dynamics import Trajectory
from .errors import EmptyTrajectory, InvalidSetting, require_real

NEVER_GROWS = "never-grows"
GROW_THEN_DIE = "grow-then-die"
MONOTONE_WINNER = "monotone-winner"
OTHER = "other"
UTILITY_SLACK = 1e-9  # utility drops smaller than this do not end monotonicity


@dataclass(frozen=True)
class AnalysisThresholds:
    winner_threshold: float = 0.99
    z_tol: float = 0.01
    rise_tol: float = 0.01
    die_tol: float = 1e-4
    mono_slack: float = 0.01

    def __post_init__(self):
        for f in fields(self):
            require_real(f.name, getattr(self, f.name))
        if not 0.5 <= self.winner_threshold < 1.0:
            raise InvalidSetting(
                "winner_threshold", f"must lie in [0.5, 1), got {self.winner_threshold!r}"
            )
        if not 0.0 < self.z_tol < 0.5:
            raise InvalidSetting("z_tol", f"must lie in (0, 0.5), got {self.z_tol!r}")
        for name in ("rise_tol", "die_tol", "mono_slack"):
            if getattr(self, name) < 0.0:
                raise InvalidSetting(name, f"must be nonnegative, got {getattr(self, name)!r}")


def _stable_crossing(t: np.ndarray, series: np.ndarray, threshold: float) -> float:
    """Time of the first sample after which `series` stays above threshold."""
    below = np.flatnonzero(series <= threshold)
    if len(below) == 0:
        return float(t[0])
    return float(t[below[-1] + 1])


def _fixation(traj: Trajectory, th: AnalysisThresholds) -> dict:
    """Terminal-state dominance.

    A factor/strategy wins when its terminal share exceeds the threshold.
    z limits resolve to 1 above 1 - z_tol, to 0 below z_tol, otherwise
    stay unresolved (None). The run is converged when both winners exist
    and every z limit is resolved; its convergence time is the later of
    the two winners' stable crossings.
    """

    def winner(series: np.ndarray, labels: tuple[str, ...]) -> dict | None:
        idx = int(np.argmax(series[-1]))
        share = float(series[-1, idx])
        if share <= th.winner_threshold:
            return None
        return {
            "label": labels[idx],
            "index": idx,
            "share": share,
            "t_crossing": _stable_crossing(traj.t, series[:, idx], th.winner_threshold),
        }

    winner_x = winner(traj.x, traj.factor_labels)
    winner_y = winner(traj.y, traj.strategy_labels)
    z_limits = [1 if v > 1.0 - th.z_tol else 0 if v < th.z_tol else None for v in traj.z[-1]]
    converged = winner_x is not None and winner_y is not None and None not in z_limits
    return {
        "winner_x": winner_x,
        "winner_y": winner_y,
        "z_limits": z_limits,
        "converged": converged,
        "t_convergence": (
            max(winner_x["t_crossing"], winner_y["t_crossing"]) if converged else None
        ),
    }


def _transients(traj: Trajectory, th: AnalysisThresholds) -> dict:
    """Classify every strategy's time course (see module docstring)."""
    terminal_winner = int(np.argmax(traj.y[-1]))
    per_strategy = {}
    grow_then_die = []
    winner = None
    for j in range(traj.y.shape[1]):
        label = traj.strategy_labels[j]
        series = traj.y[:, j]
        initial = float(series[0])
        terminal = float(series[-1])
        peak_idx = int(np.argmax(series))
        peak = float(series[peak_idx])
        if not peak > initial + th.rise_tol:
            klass = NEVER_GROWS
        elif terminal < th.die_tol:
            klass = GROW_THEN_DIE
            grow_then_die.append(label)
        else:
            drawdown = float(np.max(np.maximum.accumulate(series) - series))
            if j == terminal_winner and drawdown <= th.mono_slack:
                klass = MONOTONE_WINNER
                winner = label
            else:
                klass = OTHER
        per_strategy[label] = {
            "classification": klass,
            "initial": initial,
            "terminal": terminal,
            "peak_value": peak,
            "peak_time": float(traj.t[peak_idx]),
        }
    return {"per_strategy": per_strategy, "grow_then_die": grow_then_die, "winner": winner}


def _utility(traj: Trajectory) -> dict:
    """Endpoints and extremes of the expected total utility series, and
    the earliest time after which it never decreases."""
    u = traj.utility
    decreasing = np.flatnonzero(np.diff(u) < -UTILITY_SLACK)
    monotone_after = traj.t[0] if len(decreasing) == 0 else traj.t[decreasing[-1] + 1]
    return {
        "initial": float(u[0]),
        "terminal": float(u[-1]),
        "min": float(u.min()),
        "max": float(u.max()),
        "monotone_after": float(monotone_after),
    }


def analyze(traj: Trajectory, thresholds: AnalysisThresholds | None = None) -> dict:
    """The report dict of `traj`: its fixation, transients and utility."""
    if len(traj) == 0:
        raise EmptyTrajectory("trajectory has no samples")
    th = thresholds or AnalysisThresholds()
    return {
        "fixation": _fixation(traj, th),
        "transients": _transients(traj, th),
        "utility": _utility(traj),
    }


def render_summary(report: dict) -> str:
    """Human-readable rendering of an analysis report dict."""
    fx = report["fixation"]
    ut = report["utility"]
    lines = []
    for side, name in (("winner_x", "factor winner"), ("winner_y", "strategy winner")):
        w = fx[side]
        if w is None:
            lines.append(f"{name}: none")
        else:
            lines.append(
                f"{name}: {w['label']} (share {w['share']:.4f}, stable from t={w['t_crossing']:g})"
            )
    z_text = " ".join("?" if v is None else str(v) for v in fx["z_limits"])
    lines.append(f"sign-frequency limits: {z_text}")
    if fx["converged"]:
        lines.append(f"converged at t={fx['t_convergence']:g}")
    else:
        lines.append("not converged")
    g2d = report["transients"]["grow_then_die"]
    lines.append(f"grow-then-die strategies ({len(g2d)}): {', '.join(g2d) or '-'}")
    lines.append(
        f"utility: {ut['initial']:.4f} -> {ut['terminal']:.4f}"
        f" (min {ut['min']:.4f}, nondecreasing from t={ut['monotone_after']:g})"
    )
    return "\n".join(lines)
