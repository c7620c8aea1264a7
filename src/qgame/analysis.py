"""Post-processing of trajectories: fixation, transients, utility diagnostics.

Classification rules (values only, so results are invariant under uniform
time rescaling):

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

import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .dynamics import Trajectory
from .errors import EmptyTrajectory

NEVER_GROWS = "never-grows"
GROW_THEN_DIE = "grow-then-die"
MONOTONE_WINNER = "monotone-winner"
OTHER = "other"


@dataclass(frozen=True)
class AnalysisThresholds:
    winner_threshold: float = 0.99
    z_tol: float = 0.01
    rise_tol: float = 0.01
    die_tol: float = 1e-4
    mono_slack: float = 0.01

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
        if not 0.5 <= self.winner_threshold < 1.0:
            raise ValueError(
                f"winner_threshold must lie in [0.5, 1), got {self.winner_threshold!r}"
            )
        if not 0.0 < self.z_tol < 0.5:
            raise ValueError(f"z_tol must lie in (0, 0.5), got {self.z_tol!r}")
        for name in ("rise_tol", "die_tol", "mono_slack"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)!r}")


@dataclass(frozen=True)
class Winner:
    label: str
    index: int
    share: float
    t_crossing: float


@dataclass(frozen=True)
class FixationReport:
    winner_x: Winner | None
    winner_y: Winner | None
    z_limits: tuple[int | None, ...]  # 1, 0, or None (unresolved) per factor
    converged: bool
    t_convergence: float | None


@dataclass(frozen=True)
class StrategyTransient:
    label: str
    classification: str
    initial: float
    terminal: float
    peak_value: float
    peak_time: float


@dataclass(frozen=True)
class TransientProfile:
    per_strategy: tuple[StrategyTransient, ...]
    grow_then_die: tuple[str, ...] = field(default=())
    winner: str | None = None


@dataclass(frozen=True)
class UtilityDiagnostics:
    initial: float
    terminal: float
    min: float
    max: float
    monotone_after: float  # earliest time after which the series never decreases


def _require_samples(traj: Trajectory) -> None:
    if len(traj) == 0:
        raise EmptyTrajectory("trajectory has no samples")


def _stable_crossing(t: np.ndarray, series: np.ndarray, threshold: float) -> float:
    """Time of the first sample after which `series` stays above threshold."""
    below = np.flatnonzero(series <= threshold)
    if len(below) == 0:
        return float(t[0])
    return float(t[below[-1] + 1])


def detect_fixation(
    traj: Trajectory, winner_threshold: float = 0.99, z_tol: float = 0.01
) -> FixationReport:
    """Terminal-state dominance report.

    A factor/strategy wins when its terminal share exceeds the threshold.
    z limits resolve to 1 above 1 - z_tol, to 0 below z_tol, otherwise
    stay unresolved. The report is converged when both winners exist and
    every z limit is resolved; its convergence time is the later of the
    two winners' stable crossings.
    """
    _require_samples(traj)

    def find_winner(series: np.ndarray, labels) -> Winner | None:
        idx = int(np.argmax(series[-1]))
        share = float(series[-1, idx])
        if share <= winner_threshold:
            return None
        label = labels[idx] if idx < len(labels) else str(idx)
        return Winner(
            label=label,
            index=idx,
            share=share,
            t_crossing=_stable_crossing(traj.t, series[:, idx], winner_threshold),
        )

    winner_x = find_winner(traj.x, traj.factor_labels)
    winner_y = find_winner(traj.y, traj.strategy_labels)
    z_terminal = traj.z[-1]
    z_limits = tuple(
        1 if v > 1.0 - z_tol else 0 if v < z_tol else None for v in z_terminal
    )
    converged = (
        winner_x is not None
        and winner_y is not None
        and all(v is not None for v in z_limits)
    )
    t_convergence = (
        max(winner_x.t_crossing, winner_y.t_crossing) if converged else None
    )
    return FixationReport(winner_x, winner_y, z_limits, converged, t_convergence)


def classify_transients(
    traj: Trajectory,
    rise_tol: float = 0.01,
    die_tol: float = 1e-4,
    mono_slack: float = 0.01,
) -> TransientProfile:
    """Classify every strategy's time course (see module docstring)."""
    _require_samples(traj)
    terminal_winner = int(np.argmax(traj.y[-1]))
    records = []
    grow_then_die = []
    winner_label = None
    for j in range(traj.y.shape[1]):
        series = traj.y[:, j]
        label = traj.strategy_labels[j] if j < len(traj.strategy_labels) else str(j)
        initial = float(series[0])
        terminal = float(series[-1])
        peak_idx = int(np.argmax(series))
        peak = float(series[peak_idx])
        grew = peak > initial + rise_tol
        if not grew:
            klass = NEVER_GROWS
        elif terminal < die_tol:
            klass = GROW_THEN_DIE
            grow_then_die.append(label)
        else:
            drawdown = float(np.max(np.maximum.accumulate(series) - series))
            if j == terminal_winner and drawdown <= mono_slack:
                klass = MONOTONE_WINNER
                winner_label = label
            else:
                klass = OTHER
        records.append(
            StrategyTransient(
                label=label,
                classification=klass,
                initial=initial,
                terminal=terminal,
                peak_value=peak,
                peak_time=float(traj.t[peak_idx]),
            )
        )
    return TransientProfile(tuple(records), tuple(grow_then_die), winner_label)


def utility_diagnostics(traj: Trajectory, slack: float = 1e-9) -> UtilityDiagnostics:
    """Endpoint/extremum summary of the expected total utility series."""
    _require_samples(traj)
    u = traj.utility
    if len(u) == 0:
        raise EmptyTrajectory("trajectory has no utility series")
    decreasing = np.flatnonzero(np.diff(u) < -slack)
    monotone_after = float(traj.t[0] if len(decreasing) == 0 else traj.t[decreasing[-1] + 1])
    return UtilityDiagnostics(
        initial=float(u[0]),
        terminal=float(u[-1]),
        min=float(u.min()),
        max=float(u.max()),
        monotone_after=monotone_after,
    )


def analyze(traj: Trajectory, thresholds: AnalysisThresholds | None = None) -> dict:
    """Run all three analyses with the given thresholds; returns the report dict."""
    th = thresholds or AnalysisThresholds()
    fixation = detect_fixation(traj, th.winner_threshold, th.z_tol)
    transients = classify_transients(traj, th.rise_tol, th.die_tol, th.mono_slack)
    report = {
        "fixation": asdict(fixation),
        "transients": asdict(transients),
        "utility": asdict(utility_diagnostics(traj)),
    }
    # asdict keeps tuples; the JSON-ready report holds lists
    report["fixation"]["z_limits"] = list(fixation.z_limits)
    report["transients"]["grow_then_die"] = list(transients.grow_then_die)
    report["transients"]["per_strategy"] = {
        r.pop("label"): r for r in report["transients"]["per_strategy"]
    }
    return report


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
