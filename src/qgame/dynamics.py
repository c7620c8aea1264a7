"""The coupled replicator vector field and its numerical integration.

State is (x, y, z): stakeholder factor shares x on the n-simplex,
community strategy shares y on the m-simplex, and per-factor
positive-sign frequencies z in [0, 1]^n. With A(z) the payoff matrix
built from the instantaneous z (rebuilt inside every derivative
evaluation, including Runge-Kutta substages):

    dx_i/dt = x_i * ((A y)_i - x' A y)
    dy_j/dt = y_j * ((A' x)_j - y' A' x)
    dz_i/dt = z_i * (1 - z_i) * 2 * (scores @ y)_i

Replicator flow preserves the simplices analytically, so the integrator
treats any violation as numerical error: tiny negative entries are
clamped to zero and x, y are renormalized once their sums drift beyond a
threshold. Coordinates that start at exactly zero stay exactly zero.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidState, StepSizeUnderflow
from .payoff import payoff_values, sign_gains
from .qdata import ZScoreMatrix

STATE_SUM_TOL = 1e-9   # allowed drift of simplex sums in a valid state
MIN_STEP = 1e-12       # hard floor for the adaptive step size


@dataclass(frozen=True)
class GameState:
    x: np.ndarray  # factor shares
    y: np.ndarray  # strategy shares
    z: np.ndarray  # positive-sign frequencies
    t: float = 0.0

    def __post_init__(self):
        for name in ("x", "y", "z"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def validate(self) -> None:
        for name, vec in (("x", self.x), ("y", self.y)):
            if np.any(vec < 0.0):
                raise InvalidState(f"{name} has negative entries")
            if abs(vec.sum() - 1.0) > STATE_SUM_TOL:
                raise InvalidState(
                    f"{name} sums to {vec.sum():.12g}, outside 1 +/- {STATE_SUM_TOL}"
                )
        if np.any(self.z < 0.0) or np.any(self.z > 1.0):
            raise InvalidState("z has entries outside [0, 1]")
        if not (
            np.all(np.isfinite(self.x))
            and np.all(np.isfinite(self.y))
            and np.all(np.isfinite(self.z))
        ):
            raise InvalidState("state contains non-finite entries")


@dataclass(frozen=True)
class StateDerivative:
    dx: np.ndarray
    dy: np.ndarray
    dz: np.ndarray


@dataclass(frozen=True)
class IntegratorConfig:
    method: str = "rk4"          # "rk4" (fixed step) or "rk45" (adaptive)
    step: float = 0.01           # fixed step / initial adaptive step
    t_end: float = 50.0
    abs_tol: float = 1e-9
    rel_tol: float = 1e-9
    renorm_tol: float = 1e-9     # renormalize x, y when |sum - 1| exceeds this
    clamp_eps: float = 1e-12     # entries in [-clamp_eps, 0) are clamped to 0
    sample_stride: int = 1       # record every k-th accepted step
    stop_on_convergence: bool = False
    conv_tol: float = 1e-10      # max-norm of the field counted as converged
    conv_window: int = 10        # consecutive quiet samples required to stop

    def __post_init__(self):
        if self.method not in ("rk4", "rk45"):
            raise ValueError(f"unknown method {self.method!r}")
        for name in ("step", "t_end", "abs_tol", "rel_tol", "renorm_tol", "clamp_eps", "conv_tol"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.step <= 0 or self.t_end <= 0:
            raise ValueError("step and t_end must be positive")
        if min(self.abs_tol, self.rel_tol, self.renorm_tol, self.clamp_eps) <= 0:
            raise ValueError("tolerances must be positive")
        if self.sample_stride < 1:
            raise ValueError("sample_stride must be at least 1")
        if self.conv_window < 1:
            raise ValueError("conv_window must be at least 1")


@dataclass
class Trajectory:
    """Time-ordered samples of the integrated system plus derived series."""

    t: np.ndarray                  # (k,)
    x: np.ndarray                  # (k, n_factors)
    y: np.ndarray                  # (k, n_strategies)
    z: np.ndarray                  # (k, n_factors)
    utility: np.ndarray            # (k,) expected total utility x' A(z) y
    factor_utility: np.ndarray     # (k, n_factors) scores @ y per sample
    factor_labels: tuple[str, ...] = ()
    strategy_labels: tuple[str, ...] = ()
    max_x_drift: float = 0.0       # largest |sum(x) - 1| seen before renormalization
    max_y_drift: float = 0.0
    method: str = "rk4"
    meta: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.t)

    def state(self, i: int) -> GameState:
        return GameState(x=self.x[i], y=self.y[i], z=self.z[i], t=float(self.t[i]))

    @property
    def terminal(self) -> GameState:
        return self.state(len(self) - 1)


def replicator_field(
    A: np.ndarray, x: np.ndarray, y: np.ndarray, out: tuple | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Bimatrix replicator field for a fixed payoff matrix A (B = A').

    With `out`, a pair of arrays (dx, dy), the field is written into them.
    """
    Ay = A @ y
    ATx = A.T @ x
    dx, dy = out or (None, None)
    return np.multiply(x, Ay - x @ Ay, out=dx), np.multiply(y, ATx - y @ ATx, out=dy)


def _rhs(v: np.ndarray, scores: np.ndarray, n: int) -> np.ndarray:
    x = v[:n]
    z = v[n:2 * n]
    y = v[2 * n:]
    d = np.empty_like(v)
    replicator_field(payoff_values(scores, z), x, y, out=(d[:n], d[2 * n:]))
    np.multiply(z * (1.0 - z), 2.0 * (scores @ y), out=d[n:2 * n])
    return d


def vector_field(state: GameState, scores: ZScoreMatrix) -> StateDerivative:
    """Time derivative of a valid state under the coupled system."""
    state.validate()
    n, m = scores.scores.shape
    if state.x.shape != (n,) or state.y.shape != (m,) or state.z.shape != (n,):
        raise InvalidState(
            f"state shapes {state.x.shape}/{state.y.shape}/{state.z.shape} do not "
            f"match the {n}x{m} score matrix"
        )
    v = np.concatenate([state.x, state.z, state.y])
    d = _rhs(v, scores.scores, n)
    return StateDerivative(dx=d[:n], dz=d[n:2 * n], dy=d[2 * n:])


def _rk4_step(v, h, scores, n):
    k1 = _rhs(v, scores, n)
    k2 = _rhs(v + 0.5 * h * k1, scores, n)
    k3 = _rhs(v + 0.5 * h * k2, scores, n)
    k4 = _rhs(v + h * k3, scores, n)
    return v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


# Dormand-Prince 5(4) tableau
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
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


def _dp_step(v, h, scores, n):
    """One Dormand-Prince step; returns (5th-order value, error estimate)."""
    k = [_rhs(v, scores, n)]
    for stage in range(1, 6):
        vi = v + h * sum(a * ki for a, ki in zip(_DP_A[stage], k))
        k.append(_rhs(vi, scores, n))
    v5 = v + h * sum(b * ki for b, ki in zip(_DP_B5, k))
    k.append(_rhs(v5, scores, n))
    v4 = v + h * sum(b * ki for b, ki in zip(_DP_B4, k))
    return v5, v5 - v4


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

    Updates drift[0]/drift[1] with the worst |sum - 1| observed for x / y
    before renormalization. Exact zeros are preserved. A failure names
    the time t, the block and the entry.
    """
    z = v[n:2 * n]
    v_min = v.min()  # NaN if any entry is NaN
    z_max = z.max()
    if not (math.isfinite(v_min) and math.isfinite(z_max)):
        raise _non_finite(v, 0, len(v), n, t, cfg)
    if v_min < 0.0:
        if v_min < -cfg.clamp_eps:
            raise _fault(
                v, int(v.argmin()), n, t, cfg,
                f"is negative beyond clamp_eps={cfg.clamp_eps:.1e}",
            )
        v[v < 0.0] = 0.0
    if z_max > 1.0:
        if z_max > 1.0 + cfg.clamp_eps:
            raise _fault(
                v, n + int(z.argmax()), n, t, cfg,
                f"exceeds 1 beyond clamp_eps={cfg.clamp_eps:.1e}",
            )
        z[z > 1.0] = 1.0
    for start, stop, slot in ((0, n, 0), (2 * n, len(v), 1)):
        # a +inf in x or y passes the min check but not its block sum
        s = float(v[start:stop].sum())
        if not math.isfinite(s):
            raise _non_finite(v, start, stop, n, t, cfg)
        err = abs(s - 1.0)
        if err > drift[slot]:
            drift[slot] = err
        if err > cfg.renorm_tol:
            v[start:stop] /= s
    return v


def integrate(
    state0: GameState,
    scores: ZScoreMatrix,
    config: IntegratorConfig | None = None,
    factor_labels: tuple[str, ...] | None = None,
    strategy_labels: tuple[str, ...] | None = None,
) -> Trajectory:
    """Integrate the coupled system from state0 to config.t_end.

    Args:
        state0: valid initial state (t is taken as 0).
        scores: score matrix defining the payoffs; shapes set the system size.
        config: integrator settings; defaults to fixed-step RK4.

    Returns:
        Trajectory sampled at t=0, every `sample_stride`-th accepted step,
        and t_end. With `stop_on_convergence` the run ends early once the
        field stays below `conv_tol` for `conv_window` consecutive samples.
    """
    cfg = config or IntegratorConfig()
    state0.validate()
    S = scores.scores
    n, m = S.shape
    if state0.x.shape != (n,) or state0.y.shape != (m,) or state0.z.shape != (n,):
        raise InvalidState("initial state does not match the score matrix shape")
    factor_labels = factor_labels or tuple(f"Q{i + 1}" for i in range(n))
    strategy_labels = strategy_labels or scores.strategy_labels

    v = np.concatenate([state0.x, state0.z, state0.y])
    t = 0.0
    drift = [0.0, 0.0]
    ts = [0.0]
    vs = [v.copy()]
    quiet = 0
    accepted = 0
    h = cfg.step

    def record(tq, vq):
        ts.append(tq)
        vs.append(vq.copy())

    while t < cfg.t_end - 1e-14:
        if cfg.method == "rk4":
            # counter-based time avoids accumulation drift and spurious
            # sub-steps when t_end is a multiple of the step
            t_next = min((accepted + 1) * h, cfg.t_end)
            v = _rk4_step(v, t_next - t, S, n)
            v = _guard(v, n, cfg, drift, t_next)
            t = t_next
            accepted += 1
        else:
            h_try = min(h, cfg.t_end - t)
            # overflow inside a trial step is not an error: it shows up as a
            # non-finite err_norm and the step gets rejected and shrunk
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                v_new, err = _dp_step(v, h_try, S, n)
                scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(v), np.abs(v_new))
                err_norm = float(np.sqrt(np.mean((err / scale) ** 2)))
            if np.isfinite(err_norm) and err_norm <= 1.0:
                v = _guard(v_new, n, cfg, drift, t + h_try)
                t += h_try
                accepted += 1
                grow = 5.0 if err_norm == 0.0 else min(5.0, 0.9 * err_norm ** -0.2)
                h = h_try * grow
            else:
                shrink = (
                    0.2
                    if not np.isfinite(err_norm)
                    else max(0.2, 0.9 * err_norm ** -0.2)
                )
                h = h_try * shrink
                if h < MIN_STEP:
                    raise StepSizeUnderflow(
                        f"adaptive step fell to {h:.3e} at t={t:.6g}"
                    )
                continue
        if accepted % cfg.sample_stride == 0 or t >= cfg.t_end - 1e-14:
            record(t, v)
            if cfg.stop_on_convergence:
                if np.max(np.abs(_rhs(v, S, n))) < cfg.conv_tol:
                    quiet += 1
                    if quiet >= cfg.conv_window:
                        break
                else:
                    quiet = 0

    t_arr = np.array(ts)
    v_arr = np.array(vs)
    x = v_arr[:, :n]
    z = v_arr[:, n:2 * n]
    y = v_arr[:, 2 * n:]
    gains = sign_gains(z)
    factor_utility = y @ S.T
    utility = np.einsum("ki,ki->k", x * gains, factor_utility)
    return Trajectory(
        t=t_arr,
        x=x,
        y=y,
        z=z,
        utility=utility,
        factor_utility=factor_utility,
        factor_labels=tuple(factor_labels),
        strategy_labels=tuple(strategy_labels),
        max_x_drift=drift[0],
        max_y_drift=drift[1],
        method=cfg.method,
        meta={"accepted_steps": accepted},
    )
