"""The coupled replicator vector field and its numerical integration.

State is (x, y, z): stakeholder factor shares x on the n-simplex,
community strategy shares y on the m-simplex, and per-factor
positive-sign frequencies z in [0, 1]^n. The stakeholders play against
the community strategy mix with payoff matrix A(z) = S * (2z - 1), row
by row over the scores S: a factor's row keeps its scores when its
positive-sign frequency z_i is 1, flips sign when z_i is 0, and
vanishes at z_i = 1/2. The community side uses the transpose. With A(z)
taken at the instantaneous z, Runge-Kutta substages included:

    dx_i/dt = x_i * ((A y)_i - x' A y)
    dy_j/dt = y_j * ((A' x)_j - y' A' x)
    dz_i/dt = z_i * (1 - z_i) * 2 * (S y)_i

x' A y is the average stakeholder payoff. A(z) itself is never built;
`_rhs` states the identities it evaluates instead.

Replicator flow preserves the simplices analytically, so the integrator
treats any violation as numerical error: tiny negative entries are
clamped to zero and x, y are renormalized once their sums drift beyond a
threshold. Coordinates that start at exactly zero stay exactly zero.
rk4 and rk45 (Dormand-Prince 5(4)) are one explicit Runge-Kutta stepper
on two Butcher tableaus, and both reuse a step's last stage as the next
step's first unless the guard wrote.
"""

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidState, StepBudgetExceeded, StepSizeUnderflow, require_real
from .qdata import ZScoreMatrix

STATE_SUM_TOL = 1e-9   # allowed drift of simplex sums in a valid state
MIN_STEP = 1e-12       # hard floor for the adaptive step size
MAX_STEPS = 10**6      # step budget: rk4 steps, or rk45 attempts, per integration
RENORM_TOL = 1e-9      # renormalize x, y when |sum - 1| exceeds this
CLAMP_EPS = 1e-12      # entries in [-CLAMP_EPS, 0) are clamped to 0
T_EPS = 1e-14          # a run ends once t is within T_EPS of t_end
BLOCK = 256            # samples per on_samples call


@dataclass(frozen=True)
class GameState:
    x: np.ndarray  # factor shares
    y: np.ndarray  # strategy shares
    z: np.ndarray  # positive-sign frequencies

    def __post_init__(self):
        for name in ("x", "y", "z"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def validate(self) -> None:
        """Raise InvalidState naming the first entry that is not finite, then the
        first negative x or y entry or block off its simplex, then the first z
        entry outside [0, 1]."""
        blocks = (("x", self.x), ("y", self.y), ("z", self.z))
        for name, vec in blocks:
            _first_bad(name, vec, ~np.isfinite(vec), "is not finite")
        for name, vec in blocks[:2]:
            _first_bad(name, vec, vec < 0.0, "is negative")
            if abs(vec.sum() - 1.0) > STATE_SUM_TOL:
                raise InvalidState(
                    f"{name} sums to {vec.sum():.12g}, outside 1 +/- {STATE_SUM_TOL}"
                )
        _first_bad("z", self.z, (self.z < 0.0) | (self.z > 1.0), "is outside [0, 1]")


def _first_bad(name: str, vec: np.ndarray, bad: np.ndarray, what: str) -> None:
    """Raise InvalidState naming the first entry of vec where bad holds."""
    i = np.flatnonzero(bad)
    if len(i):
        raise InvalidState(f"{name}[{i[0]}] = {vec[i[0]]} {what}")


@dataclass(frozen=True)
class IntegratorConfig:
    method: str = "rk4"          # "rk4" (fixed step) or "rk45" (adaptive)
    step: float = 0.01           # fixed step / initial adaptive step
    t_end: float = 50.0
    abs_tol: float = 1e-9
    rel_tol: float = 1e-9

    def __post_init__(self):
        if self.method not in ("rk4", "rk45"):
            raise ValueError(f"unknown method {self.method!r}")
        for name in ("step", "t_end", "abs_tol", "rel_tol"):
            require_real(name, getattr(self, name))
        if self.step <= 0 or self.t_end <= 0:
            raise ValueError("step and t_end must be positive")
        if min(self.abs_tol, self.rel_tol) <= 0:
            raise ValueError("tolerances must be positive")


@dataclass
class Trajectory:
    """Time-ordered samples of the integrated system plus derived series.

    From `integrate`, x, z and y are column views of one (k, 2n + m)
    sample buffer, and `meta` holds the counts `accepted_steps`,
    `rejected_steps`, `field_evaluations` and `guard_writes` (accepted
    states that were clamped or renormalized), and `max_x_drift` and
    `max_y_drift`, the largest |sum - 1| of x and y before renormalization.
    """

    t: np.ndarray                  # (k,)
    x: np.ndarray                  # (k, n_factors)
    y: np.ndarray                  # (k, n_strategies)
    z: np.ndarray                  # (k, n_factors)
    utility: np.ndarray            # (k,) expected total utility x' A(z) y
    factor_labels: tuple[str, ...]
    strategy_labels: tuple[str, ...]
    meta: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.t)


def _payoffs(S: np.ndarray, y: np.ndarray, z: np.ndarray):
    """(g, S y, A(z) y) with g = 2z - 1, for one state or a stack of states."""
    g = 2.0 * z - 1.0
    Sy = y @ S.T
    return g, Sy, g * Sy


def expected_total_utility(
    scores: np.ndarray, x: np.ndarray, y: np.ndarray, z: np.ndarray
) -> np.ndarray:
    """Average stakeholder payoff x' A(z) y, on bare arrays and without checks:
    a scalar for one state, of shapes (n,), (m,) and (n,), or a (k,) series
    for a stack of k states, of shapes (k, n), (k, m) and (k, n)."""
    return np.einsum("...i,...i->...", x, _payoffs(scores, y, z)[2])


def _rhs(v: np.ndarray, S: np.ndarray, n: int, out: np.ndarray | None = None) -> np.ndarray:
    """The coupled field at v = (x, z, y), into out if given, without building A(z).

    With g = 2z - 1, A(z) = g * S row by row, so A y = g * (S y) and
    A' x = (g * x) @ S, and dz = z * (1 - z) * 2 * (S y) reuses S y.
    """
    x, z, y = v[:n], v[n:2 * n], v[2 * n:]
    g, Sy, Ay = _payoffs(S, y, z)
    ATx = (g * x) @ S
    d = np.empty_like(v) if out is None else out
    np.multiply(x, Ay - x @ Ay, out=d[:n])
    np.multiply(y, ATx - y @ ATx, out=d[2 * n:])
    np.multiply(z * (1.0 - z), 2.0 * Sy, out=d[n:2 * n])
    return d


def _check_shapes(state: GameState, n: int, m: int) -> None:
    if state.x.shape != (n,) or state.y.shape != (m,) or state.z.shape != (n,):
        raise InvalidState(
            f"state shapes x{state.x.shape}, y{state.y.shape}, z{state.z.shape} do not "
            f"match the {n}x{m} score matrix"
        )


def vector_field(
    state: GameState, scores: ZScoreMatrix
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Time derivative (dx, dy, dz) of a valid state under the coupled system."""
    state.validate()
    n, m = scores.scores.shape
    _check_shapes(state, n, m)
    v = np.concatenate([state.x, state.z, state.y])
    d = _rhs(v, scores.scores, n)
    return d[:n], d[2 * n:], d[n:2 * n]


# Butcher tableaus as (weights, divisor) rows: row s is the stage value
# v + h / divisor * (weights . K[:s]), with its field in K[s]. The last row
# is the new state, so K[-1] is the next step's first stage. RK4's last row
# keeps the bits of v + h / 6 * (k1 + 2 k2 + 2 k3 + k4).
_RK4 = tuple((np.array(w), d) for w, d in (
    ((0.5,), 1.0), ((0.0, 0.5), 1.0), ((0.0, 0.0, 1.0), 1.0), ((1.0, 2.0, 2.0, 1.0), 6.0)))
# Dormand-Prince 5(4); the error weights are B5 - B4
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_DP_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)
_DP = tuple((np.array(row), 1.0) for row in _DP_A[1:] + (_DP_B5,))
_DP_E = np.array(_DP_B5 + (0.0,)) - np.array(_DP_B4)


def _rk_step(v, h, scores, n, K, tableau):
    """One explicit Runge-Kutta step of size h from v, with K[0] = f(v) in
    place: fills K[1:] and returns the new state."""
    for s, (row, divisor) in enumerate(tableau, 1):
        vs = np.dot(row, K[:s])
        vs *= h / divisor
        vs += v
        _rhs(vs, scores, n, out=K[s])
    return vs


def _fault(v, k, n, t, cfg, what):
    """InvalidState naming the time, the block and the entry of v[k]."""
    block, i = ("x", k) if k < n else ("z", k - n) if k < 2 * n else ("y", k - 2 * n)
    hint = (
        "reduce --step or use --method rk45"
        if cfg.method == "rk4"
        else "tighten abs_tol and rel_tol"
    )
    return InvalidState(f"at t={t:.6g}: {block}[{i}] = {v[k]:.3e} {what}; {hint}")


def _non_finite(v, start, stop, n, t, cfg):
    """The fault for a non-finite entry of v[start:stop], or, if every
    entry is finite, for the largest one, whose block sum overflowed."""
    bad = ~np.isfinite(v[start:stop])
    if bad.any():
        return _fault(v, start + int(bad.argmax()), n, t, cfg, "is not finite")
    return _fault(v, start + int(v[start:stop].argmax()), n, t, cfg, "overflows its block sum")


def _guard(v, n, cfg, drift, t):
    """Clamp tiny negatives, renormalize drifting simplices, reject blowups.

    Works on v in place and returns whether it wrote (clamped or
    renormalized). Updates drift[0]/drift[1] with the worst |sum - 1|
    observed for x / y before renormalization. Exact zeros are preserved.
    A failure names the time t, the block and the entry.
    """
    z = v[n:2 * n]
    v_min = v.min()  # NaN if any entry is NaN
    z_max = z.max()
    if not (math.isfinite(v_min) and math.isfinite(z_max)):
        raise _non_finite(v, 0, len(v), n, t, cfg)
    if v_min < 0.0:
        if v_min < -CLAMP_EPS:
            raise _fault(v, int(v.argmin()), n, t, cfg,
                         f"is negative beyond clamp_eps={CLAMP_EPS:.1e}")
        v[v < 0.0] = 0.0
    if z_max > 1.0:
        if z_max > 1.0 + CLAMP_EPS:
            raise _fault(v, n + int(z.argmax()), n, t, cfg,
                         f"exceeds 1 beyond clamp_eps={CLAMP_EPS:.1e}")
        z[z > 1.0] = 1.0
    wrote = bool(v_min < 0.0 or z_max > 1.0)
    for start, stop, slot in ((0, n, 0), (2 * n, len(v), 1)):
        # a +inf in x or y passes the min check but not its block sum
        s = float(v[start:stop].sum())
        if not math.isfinite(s):
            raise _non_finite(v, start, stop, n, t, cfg)
        err = abs(s - 1.0)
        if err > drift[slot]:
            drift[slot] = err
        if err > RENORM_TOL:
            v[start:stop] /= s
            wrote = True
    return wrote


def integrate(
    state0: GameState,
    scores: ZScoreMatrix,
    config: IntegratorConfig | None = None,
    on_samples: Callable[[np.ndarray, np.ndarray], None] | None = None,
) -> Trajectory:
    """Integrate the coupled system from state0 to config.t_end.

    Args:
        state0: valid initial state, at t = 0.
        scores: score matrix defining the payoffs; shapes set the system size.
        config: integrator settings; defaults to fixed-step RK4.
        on_samples: called as on_samples(t, v) with every BLOCK new samples,
            and once more with the rest when the run ends; t is (k,) and v
            is (k, 2n + m), holding x, z and y in that column order. Both are
            views of the trajectory's own arrays, final when passed. It runs
            with numpy's overflow, invalid and divide warnings off.

    Returns:
        Trajectory sampled at t=0 and after every accepted step, the last
        at t_end; factors are labelled Q1..Qn, strategies by the scores.

    Raises StepBudgetExceeded, before the first step, when rk4 would take
    more than MAX_STEPS steps, and, at the time reached, when rk45 has
    attempted more than MAX_STEPS steps, accepted and rejected together.
    """
    cfg = config or IntegratorConfig()
    state0.validate()
    S = scores.scores
    n, m = S.shape
    _check_shapes(state0, n, m)
    rk4 = cfg.method == "rk4"
    # for an integer budget, t_end / step > MAX_STEPS is the same test as
    # ceil(t_end / step) > MAX_STEPS, and it holds when the quotient is inf
    if rk4 and cfg.t_end / cfg.step > MAX_STEPS:
        raise StepBudgetExceeded(
            f"rk4 needs {cfg.t_end / cfg.step:.3g} steps of {cfg.step:g} to reach "
            f"t_end={cfg.t_end:g}, over MAX_STEPS={MAX_STEPS}; increase --step or "
            "reduce --t-end"
        )

    v = np.concatenate([state0.x, state0.z, state0.y])
    # one buffer for all samples: rk4 takes at most ceil(t_end / step) + 1
    # steps, rk45 starts with one block; a full buffer doubles
    rows = 2 + math.ceil(cfg.t_end / cfg.step) if rk4 else BLOCK
    ts = np.empty(rows)
    vs = np.empty((rows, len(v)))
    ts[0] = t = 0.0
    vs[0] = v
    k = 1  # samples stored
    sent = 0  # samples passed to on_samples
    drift = [0.0, 0.0]
    accepted = 0
    rejected = 0  # rk45 steps tried and rejected
    guard_writes = 0  # accepted states that _guard clamped or renormalized
    h = cfg.step
    tableau = _RK4 if rk4 else _DP
    K = np.empty((len(tableau) + 1, len(v)))  # the stages, K[0] = f(v)
    _rhs(v, S, n, out=K[0])
    evaluations = 1  # field evaluations

    # overflow inside a trial step is not an error: rk45 sees a non-finite
    # err_norm and rejects the step, and _guard stops on a non-finite state
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while t < cfg.t_end - T_EPS:
            if rk4:
                # counter-based time avoids accumulation drift and spurious
                # sub-steps when t_end is a multiple of the step
                t_next = min((accepted + 1) * h, cfg.t_end)
                h_try = t_next - t
            else:
                if accepted + rejected == MAX_STEPS:
                    raise StepBudgetExceeded(
                        f"at t={t:.6g}: {MAX_STEPS} rk45 step attempts ({accepted} accepted) "
                        f"used up MAX_STEPS={MAX_STEPS} before t_end={cfg.t_end:g}; "
                        "loosen abs_tol and rel_tol or reduce --t-end"
                    )
                h_try = min(h, cfg.t_end - t)
                t_next = t + h_try
            v_new = _rk_step(v, h_try, S, n, K, tableau)
            if not rk4:
                err = np.dot(_DP_E, K)
                err *= h_try
                err /= cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(v), np.abs(v_new))
                err_norm = math.sqrt((err * err).sum() / len(err))  # nan or inf: rejected
            evaluations += len(tableau)
            if not (rk4 or err_norm <= 1.0):
                rejected += 1
                h = h_try * (max(0.2, 0.9 * err_norm ** -0.2) if math.isfinite(err_norm) else 0.2)
                if h < MIN_STEP:
                    raise StepSizeUnderflow(f"adaptive step fell to {h:.3e} at t={t:.6g}")
                continue
            v = v_new
            if _guard(v, n, cfg, drift, t_next):  # v moved: f(v) anew
                guard_writes += 1
                evaluations += 1
                _rhs(v, S, n, out=K[0])
            else:  # K[-1] = f(v); a rejection keeps K[0]
                K[0] = K[-1]
            t = t_next
            accepted += 1
            if not rk4:
                h = h_try * (5.0 if err_norm == 0.0 else min(5.0, 0.9 * err_norm ** -0.2))
            if k == len(ts):
                ts = np.concatenate([ts, np.empty_like(ts)])
                vs = np.concatenate([vs, np.empty_like(vs)])
            ts[k] = t
            vs[k] = v
            k += 1
            if on_samples is not None and k - sent == BLOCK:
                on_samples(ts[sent:k], vs[sent:k])
                sent = k
        if on_samples is not None and k > sent:
            on_samples(ts[sent:k], vs[sent:k])

    x, z, y = vs[:k, :n], vs[:k, n:2 * n], vs[:k, 2 * n:]
    return Trajectory(
        t=ts[:k], x=x, y=y, z=z,
        utility=expected_total_utility(S, x, y, z),
        factor_labels=tuple(f"Q{i + 1}" for i in range(n)),
        strategy_labels=scores.strategy_labels,
        meta={"accepted_steps": accepted, "rejected_steps": rejected,
              "field_evaluations": evaluations, "guard_writes": guard_writes,
              "max_x_drift": drift[0], "max_y_drift": drift[1]},
    )
