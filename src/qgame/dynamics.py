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

x' A y is the average stakeholder payoff. A(z) itself is never built.

The integrator works on the exponential-weights form of the same system
(Hofbauer & Sigmund 1998, ch. 7), in log coordinates v = (u, a, c) with
x = softmax(u), z = (1 + tanh a) / 2 and y = softmax(c). With g = tanh a
= 2z - 1 the field is

    u' = g * (S y)    a' = S y    c' = (g * x) @ S

(`_rhs`): the mean payoffs drop out, because softmax ignores a common
shift, and so does the factor z (1 - z). The simplices and [0, 1] hold by
construction, so nothing repairs them. A share that is exactly zero has a
log coordinate of -inf, where the field is finite, so it stays exactly
zero; z = 0 and z = 1 sit at a = -inf and +inf. `integrate` converts at
both edges: shares come in, and shares go out in blocks of rows t, x, z,
y, utility, trajectory.csv's layout, each block given its utility as it
is converted. rk4 and rk45 (Dormand-Prince 5(4), advancing the
fifth-order solution) run one explicit Runge-Kutta step on two Butcher
tableaus: `_stepper` allocates the stage values V and their fields K once
per run, and each step writes every stage and its field (`_field`) into
them with numpy calls that allocate nothing. Between recentrings the first
stage of each step is the last stage of the step before, bit for bit.
"""

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidSetting, QGameError, first_bad, require_real
from .qdata import ZScoreMatrix

STATE_SUM_TOL = 1e-9   # allowed drift of simplex sums in a valid state
MIN_STEP = 1e-12       # hard floor for the adaptive step size
MAX_STEPS = 10**6      # step budget: rk4 steps, or rk45 attempts, per integration
LOG_BOUND = 64.0       # a log block whose max leaves [-LOG_BOUND, LOG_BOUND] is recentred
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
        """Raise QGameError naming the first entry that is not finite, then
        the fault that `_state_fault` finds: the first negative x or y entry
        or block off its simplex, then the first z entry outside [0, 1].
        `analyze` checks each row it reads by the same rule."""
        blocks = (("x", self.x), ("y", self.y), ("z", self.z))
        for name, vec in blocks:
            first_bad(name, vec, ~np.isfinite(vec), "is not finite")
        fault = _state_fault(*(vec.reshape(1, -1) for _, vec in blocks))
        if fault:
            _, name, i, text = fault
            raise QGameError(f"{name} sums to {text}" if i is None else f"{name}[{i}] = {text}")


def _state_fault(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> tuple | None:
    """The first of the stacked states x (k, n), y (k, m) and z (k, n)
    that is not a state, as (row, block, entry, text): its first negative
    x or y entry, or x or y block whose sum is off 1 by more than
    STATE_SUM_TOL (entry None, text the sum), then its first z entry
    outside [0, 1]. None where every row is a state."""
    sums = (x.sum(axis=1), y.sum(axis=1))
    bad = ((z < 0.0) | (z > 1.0)).any(axis=1)
    for vec, total in zip((x, y), sums):
        bad |= (vec < 0.0).any(axis=1) | (np.abs(total - 1.0) > STATE_SUM_TOL)
    if not bad.any():
        return None
    r = int(np.argmax(bad))
    for name, vec, total in zip("xy", (x, y), sums):
        i = np.flatnonzero(vec[r] < 0.0)
        if len(i):
            return r, name, i[0], f"{vec[r, i[0]]} is negative"
        if abs(total[r] - 1.0) > STATE_SUM_TOL:
            return r, name, None, f"{total[r]:.12g}, outside 1 +/- {STATE_SUM_TOL}"
    i = np.flatnonzero((z[r] < 0.0) | (z[r] > 1.0))[0]
    return r, "z", i, f"{z[r, i]} is outside [0, 1]"


@dataclass(frozen=True)
class IntegratorConfig:
    method: str = "rk4"          # "rk4" (fixed step) or "rk45" (adaptive)
    step: float = 0.01           # fixed step / initial adaptive step
    t_end: float = 50.0
    tol: float = 1e-9            # rk45's absolute and relative error bound

    def __post_init__(self):
        if self.method not in ("rk4", "rk45"):
            raise InvalidSetting("method", f"must be 'rk4' or 'rk45', got {self.method!r}")
        for name in ("step", "t_end", "tol"):
            value = getattr(self, name)
            require_real(name, value)
            if value <= 0:
                raise InvalidSetting(name, f"must be positive, got {value!r}")


@dataclass
class Trajectory:
    """Time-ordered samples of the integrated system plus derived series.

    From `integrate` and `from_rows`, every series is a column view of one
    (k, 2n + m + 2) array of rows t, x, z, y, utility, trajectory.csv's
    column order. From `integrate`, `meta` holds the counts `accepted_steps`,
    `rejected_steps`, `field_evaluations` and `recentrings` (accepted
    states whose log coordinates were shifted back into range), the
    smallest and largest accepted step, `min_step` and `max_step` (None
    when no step was taken), and `max_x_drift` and `max_y_drift`, the
    largest |sum - 1| of x and y over the samples.
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

    @classmethod
    def from_rows(cls, rows: np.ndarray, factor_labels: tuple, strategy_labels: tuple):
        """The trajectory whose series are views of the columns t, x, z, y
        and utility of `rows`, with len(factor_labels) factors."""
        n = len(factor_labels)
        return cls(t=rows[:, 0], x=rows[:, 1:1 + n], z=rows[:, 1 + n:1 + 2 * n],
                   y=rows[:, 1 + 2 * n:-1], utility=rows[:, -1],
                   factor_labels=factor_labels, strategy_labels=strategy_labels)


def expected_total_utility(
    scores: np.ndarray, x: np.ndarray, y: np.ndarray, z: np.ndarray
) -> np.ndarray:
    """Average stakeholder payoff x' A(z) y, on bare arrays and without checks:
    a scalar for one state, of shapes (n,), (m,) and (n,), or a (k,) series
    for a stack of k states, of shapes (k, n), (k, m) and (k, n)."""
    return np.einsum("...i,...i->...", x, (2.0 * z - 1.0) * (y @ scores.T))


def _to_log(x: np.ndarray, z: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Log coordinates v = (u, a, c) of shares (x, z, y): u and c are log x
    and log y shifted to a max of 0, and a = atanh(2z - 1) = log(z / (1 - z)) / 2.
    Zero shares map to -inf, z = 1 to +inf; call it with divide warnings off."""
    u, c = np.log(x), np.log(y)
    u -= u.max()
    c -= c.max()
    return np.concatenate([u, 0.5 * np.log(z / (1.0 - z)), c])


def _to_shares(w: np.ndarray, n: int) -> None:
    """Overwrite rows w = (u, a, c) of log coordinates with their shares
    (x, z, y); call it with overflow warnings off."""
    for b in (w[:, :n], w[:, 2 * n:]):
        b -= b.max(axis=1, keepdims=True)
        np.exp(b, out=b)
        b /= b.sum(axis=1, keepdims=True)
    a = w[:, n:2 * n]  # z = (1 + tanh a) / 2 = 1 / (1 + exp(-2a)), exact near 0
    a *= -2.0
    np.exp(a, out=a)
    a += 1.0
    np.reciprocal(a, out=a)


def _field(v: np.ndarray, d: np.ndarray, S: np.ndarray, n: int) -> Callable[[], None]:
    """A function that writes the coupled field at log coordinates
    v = (u, a, c) into d each time it is called, through views and scratch
    fixed here.

    With ex = exp(u), ey = exp(c) and g = tanh a: S y = S @ ey / sum(ey),
    u' = A y = g * (S y), a' = S y and c' = A' x = (g * ex) @ S / sum(ex).
    A -inf entry of u or c adds nothing to the sums; the exp of a is unused.
    """
    e, g, sy, sx = np.empty_like(v), np.empty(n), np.empty(()), np.empty(())
    ex, ey, a = e[:n], e[2 * n:], v[n:2 * n]
    du, Sy, dc = d[:n], d[n:2 * n], d[2 * n:]

    def evaluate() -> None:
        np.exp(v, e)
        np.dot(S, ey, Sy)
        np.add.reduce(ey, 0, None, sy)
        np.divide(Sy, sy, Sy)
        np.tanh(a, g)
        np.multiply(g, Sy, du)
        np.multiply(g, ex, g)
        np.dot(g, S, dc)
        np.add.reduce(ex, 0, None, sx)
        np.divide(dc, sx, dc)

    return evaluate


def _rhs(v: np.ndarray, S: np.ndarray, n: int) -> np.ndarray:
    """The coupled field at log coordinates v, in a new array."""
    d = np.empty_like(v)
    _field(v, d, S, n)()
    return d


def _check_shapes(state: GameState, n: int, m: int) -> None:
    if state.x.shape != (n,) or state.y.shape != (m,) or state.z.shape != (n,):
        raise QGameError(
            f"state shapes x{state.x.shape}, y{state.y.shape}, z{state.z.shape} do not "
            f"match the {n}x{m} score matrix"
        )


def vector_field(
    state: GameState, scores: ZScoreMatrix
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Time derivative (dx, dy, dz) of a valid state under the coupled system:
    the log-coordinate field through the chain rule."""
    state.validate()
    n, m = scores.scores.shape
    _check_shapes(state, n, m)
    x, y, z = state.x, state.y, state.z
    with np.errstate(divide="ignore"):
        d = _rhs(_to_log(x, z, y), scores.scores, n)
    du, da, dc = d[:n], d[n:2 * n], d[2 * n:]
    return x * (du - x @ du), y * (dc - y @ dc), 2.0 * z * (1.0 - z) * da


# Butcher tableaus as (weights, divisor) rows: row s is the stage value
# V[s] = v + h / divisor * (weights . K[:s]), with its field in K[s]. The
# last row is the new state, so K[-1] is the next step's first stage.
# RK4's last row keeps the bits of v + h / 6 * (k1 + 2 k2 + 2 k3 + k4).
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


def _stepper(S: np.ndarray, n: int, tableau) -> tuple:
    """The buffers and the step of one run on a Butcher tableau.

    Returns (V, K, step). The caller puts the state in V[0] and its field
    in K[0]; step(h) takes one explicit Runge-Kutta step of size h from
    there, filling the stage values V[1:] and their fields K[1:], so V[-1]
    is the new state and K[-1] its field. A step writes nothing that the
    caller owns: V[0] and K[0] keep their bits. Every step works on the
    same buffers, and each stage's field on its own scratch, all fixed here.
    """
    V = np.empty((len(tableau) + 1, 2 * n + S.shape[1]))  # the stage values, V[0] = v
    K = np.empty_like(V)  # their fields, K[0] = f(v)
    v = V[0]
    stages = [(row, K[:s], V[s], divisor, _field(V[s], K[s], S, n))
              for s, (row, divisor) in enumerate(tableau, 1)]

    def step(h: float) -> None:
        for row, k, vs, divisor, evaluate in stages:
            np.dot(row, k, vs)
            vs *= h / divisor
            vs += v
            evaluate()

    return V, K, step


def _fault(v, k, n, t, cfg) -> QGameError:
    """QGameError naming the time, the block and the entry of v[k]."""
    block, i = ("x", k) if k < n else ("z", k - n) if k < 2 * n else ("y", k - 2 * n)
    hint = "reduce --step or use --method rk45" if cfg.method == "rk4" else "tighten tol"
    return QGameError(f"at t={t:.6g}: {block}[{i}] = {v[k]:.3e} is not finite; {hint}")


def _recentre(v, n, t, cfg):
    """Shift the log blocks u and c of v in place so that each max is 0.

    A NaN anywhere, or a log block whose max is not finite (an overflow to
    +inf, or no share left), is a fault naming the time t, the block and
    the entry. The blocks are checked in the order `_rhs` reads them: y
    (S y), z (g), then x.
    """
    tu, ta, tc = np.maximum.reduceat(v, (0, n, 2 * n)).tolist()  # nan if any entry is
    for start, stop, top in ((2 * n, len(v), tc), (n, 2 * n, ta), (0, n, tu)):
        if math.isnan(top) or (start != n and math.isinf(top)):  # z = 0, 1 at a = -inf, inf
            block = v[start:stop]
            bad = np.isnan(block) | (block == top)
            raise _fault(v, start + int(bad.argmax()), n, t, cfg)
    v[:n] -= tu
    v[2 * n:] -= tc


def integrate(
    state0: GameState,
    scores: ZScoreMatrix,
    config: IntegratorConfig | None = None,
    on_samples: Callable[[np.ndarray], None] | None = None,
) -> Trajectory:
    """Integrate the coupled system from state0 to config.t_end.

    Args:
        state0: valid initial state, at t = 0.
        scores: score matrix defining the payoffs; shapes set the system size.
        config: integrator settings; defaults to fixed-step RK4. Under rk45,
            tol bounds the local error of the log coordinates, absolute and
            relative alike, which is a relative error on small shares.
        on_samples: called as on_samples(rows) with every BLOCK new samples,
            and once more with the rest when the run ends; rows is
            (k, 2n + m + 2), its columns t, x, z, y and utility. It is a view
            of the trajectory's own buffer, final when passed. It runs with
            numpy's overflow, invalid and divide warnings off.

    Returns:
        Trajectory sampled at t=0 and after every accepted step, the last
        at t_end, labelled by the scores. The first sample holds state0's
        own shares.

    Raises QGameError, naming t, the block and the entry, when an
    accepted state holds a NaN or its log coordinates overflow; before
    the first step, when rk4 would take more than MAX_STEPS steps; and,
    at the time reached, when rk45 has attempted more than MAX_STEPS
    steps, accepted and rejected together.
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
        raise QGameError(
            f"rk4 needs {cfg.t_end / cfg.step:.3g} steps of {cfg.step:g} to reach "
            f"t_end={cfg.t_end:g}, over MAX_STEPS={MAX_STEPS}; increase --step or "
            "reduce --t-end"
        )

    # one buffer for all samples, rows t, v, utility: rk4 takes at most
    # ceil(t_end / step) + 1 steps, rk45 starts with one block; a full
    # buffer doubles. v holds log coordinates until _finish_block converts
    # them; row 0 holds state0's shares from the start
    rows = 2 + math.ceil(cfg.t_end / cfg.step) if rk4 else BLOCK
    buf = np.empty((rows, 2 * n + m + 2))
    t = 0.0
    buf[0, :-1] = np.concatenate([[t], state0.x, state0.z, state0.y])
    k = 1  # samples stored; rows up to the last multiple of BLOCK are converted
    accepted = 0
    rejected = 0  # rk45 steps tried and rejected
    recentrings = 0  # accepted states whose log blocks were shifted
    h_min, h_max = math.inf, 0.0  # accepted step sizes
    h = cfg.step
    V, K, step = _stepper(S, n, _RK4 if rk4 else _DP)
    v, v_new = V[0], V[-1]  # the state and the step's new state
    edges = np.array([0, n, 2 * n])  # the u, a and c blocks

    # overflow inside a trial step is not an error: rk45 sees a non-finite
    # err_norm and rejects the step, and _recentre stops on a state that
    # holds a NaN or an overflowed log block
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        v[:] = _to_log(state0.x, state0.z, state0.y)
        field_of_v = _field(v, K[0], S, n)  # K[0] = f(v) where the last stage does not give it
        field_of_v()
        while t < cfg.t_end - T_EPS:
            if rk4:
                # counter-based time avoids accumulation drift and spurious
                # sub-steps when t_end is a multiple of the step
                t_next = min((accepted + 1) * h, cfg.t_end)
                h_try = t_next - t
            else:
                if accepted + rejected == MAX_STEPS:
                    raise QGameError(
                        f"at t={t:.6g}: {MAX_STEPS} rk45 step attempts ({accepted} accepted) "
                        f"used up MAX_STEPS={MAX_STEPS} before t_end={cfg.t_end:g}; "
                        "loosen tol or reduce --t-end"
                    )
                h_try = min(h, cfg.t_end - t)
                t_next = t + h_try
            step(h_try)
            if not rk4:
                # a -inf coordinate has an infinite scale and a finite error,
                # so it adds 0 to the norm
                err = np.dot(_DP_E, K)
                err *= h_try
                err /= cfg.tol + cfg.tol * np.maximum(np.abs(v), np.abs(v_new))
                err_norm = math.sqrt((err * err).sum() / len(err))  # nan or inf: rejected
                if not err_norm <= 1.0:
                    rejected += 1
                    h = h_try * (max(0.2, 0.9 * err_norm ** -0.2) if math.isfinite(err_norm) else 0.2)
                    if h < MIN_STEP:
                        raise QGameError(f"adaptive step fell to {h:.3e} at t={t:.6g}")
                    continue
                h = h_try * (5.0 if err_norm == 0.0 else min(5.0, 0.9 * err_norm ** -0.2))
            v[:] = v_new  # the next step starts from V[0]
            tu, ta, tc = np.maximum.reduceat(v, edges).tolist()  # nan if any entry is
            if -LOG_BOUND <= tu <= LOG_BOUND and -LOG_BOUND <= tc <= LOG_BOUND and ta == ta:
                K[0] = K[-1]  # = f(v); a rejection keeps K[0]
            else:  # v moved: f(v) anew
                _recentre(v, n, t_next, cfg)
                recentrings += 1
                field_of_v()
            t = t_next
            accepted += 1
            h_min, h_max = min(h_min, h_try), max(h_max, h_try)
            if k == len(buf):
                buf = np.concatenate([buf, np.empty_like(buf)])
            buf[k, 0] = t
            buf[k, 1:-1] = v
            k += 1
            if k % BLOCK == 0:
                _finish_block(buf, k - BLOCK, k, scores, on_samples)
        if k % BLOCK:
            _finish_block(buf, k - k % BLOCK, k, scores, on_samples)

    traj = Trajectory.from_rows(buf[:k], scores.factor_labels, scores.strategy_labels)
    traj.meta.update(
        accepted_steps=accepted, rejected_steps=rejected,
        field_evaluations=1 + (len(K) - 1) * (accepted + rejected) + recentrings,
        recentrings=recentrings, min_step=h_min if accepted else None,
        max_step=h_max if accepted else None,
        max_x_drift=float(np.abs(traj.x.sum(axis=1) - 1.0).max()),
        max_y_drift=float(np.abs(traj.y.sum(axis=1) - 1.0).max()),
    )
    return traj


def _finish_block(buf, start, stop, scores, on_samples):
    """Convert buffer rows start..stop-1 to shares (row 0 holds state0's
    already), fill in their utility and pass them to on_samples."""
    _to_shares(buf[max(start, 1):stop, 1:-1], len(scores.factor_labels))
    block = Trajectory.from_rows(buf[start:stop], scores.factor_labels, scores.strategy_labels)
    block.utility[:] = expected_total_utility(scores.scores, block.x, block.y, block.z)
    if on_samples is not None:
        on_samples(buf[start:stop])
