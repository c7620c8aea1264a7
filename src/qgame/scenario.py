"""Scenario file ingestion (schema v1, see docs/scenario.md).

A scenario is a JSON object naming the score table, how to obtain each
initial-condition block, and optional integrator/analysis settings.
Relative paths resolve against the scenario file's directory. Explicit
x0/y0 vectors must already be on the simplex; a derived x0 and a
table-sourced y0 are renormalized after validation. z0 is always an
explicit vector.
"""

import json
import math
from collections.abc import Callable, Iterable
from dataclasses import dataclass, fields
from functools import partial
from importlib import resources
from pathlib import Path

import numpy as np

from .analysis import AnalysisThresholds
from .dynamics import GameState, IntegratorConfig, Trajectory, integrate
from .errors import InvalidSetting, QGameError, ValidationError, reading, require_real
from .qdata import (
    ZScoreMatrix,
    derive_x0,
    flag_stakeholders,
    flagging_threshold,
    load_loadings,
    load_share_table,
    load_zscores,
)
from .sampling import SamplerConfig, load_distribution, sample_y0
from .strategy_space import CANONICAL_CODES

SCHEMA_VERSION = 1
EXPLICIT_SUM_TOL = 1e-6   # explicit vectors must be this close to the simplex
TABLE_SUM_TOL = 0.05      # table-sourced shares may carry printing truncation

_TOP_KEYS = {
    "schema_version", "zscores", "loadings", "x0", "z0", "y0",
    "flagging", "integrator", "analysis",
}


@dataclass(frozen=True)
class ResolvedScenario:
    scores: ZScoreMatrix
    initial: GameState
    integrator: IntegratorConfig
    analysis: AnalysisThresholds


def _resolve_path(base: Path, value, field: str) -> Path:
    if not isinstance(value, str):
        raise ValidationError(field, f"expected a path string, got {value!r}")
    p = Path(value)
    if not p.is_absolute():
        p = base / p
    if not p.exists():
        raise FileNotFoundError(f"{field}: no such file: {p}")
    if not p.is_file():
        raise ValidationError(field, f"{value!r} does not name a file ({p})")
    return p


def _explicit_vector(value: list, field: str, length: int) -> np.ndarray:
    for i, v in enumerate(value):
        try:
            require_real(f"{field}[{i}]", v)
        except InvalidSetting as exc:
            raise ValidationError(exc.field, exc.reason) from None
    vec = np.asarray(value, dtype=float)
    if vec.shape != (length,):
        raise ValidationError(field, f"expected {length} entries, got {vec.shape}")
    return vec


def _reject_first(field: str, vec: np.ndarray, bad: np.ndarray, what: str) -> None:
    """Raise ValidationError naming field[i], the first entry where bad holds."""
    i = np.flatnonzero(bad)
    if len(i):
        raise ValidationError(f"{field}[{i[0]}]", f"{vec[i[0]]} {what}")


def _simplex_vector(value, field: str, length: int) -> np.ndarray:
    vec = _explicit_vector(value, field, length)
    _reject_first(field, vec, vec < 0, "is negative")
    if abs(vec.sum() - 1.0) > EXPLICIT_SUM_TOL:
        raise ValidationError(field, f"entries must sum to 1 (got {vec.sum():.6g})")
    return vec / vec.sum()


def _settings(block: str, spec, build: Callable, allowed: Iterable[str]):
    """build(**spec), the settings of one scenario block. spec must be an
    object whose keys are all in `allowed`; a setting that build rejects
    is a ValidationError on `block.<field>`."""
    if not isinstance(spec, dict):
        raise ValidationError(block, f"expected an object, got {spec!r}")
    unknown = sorted(set(spec) - set(allowed))
    if unknown:
        raise ValidationError(
            block, f"unknown key {unknown[0]!r}; allowed keys: {sorted(allowed)}"
        )
    try:
        return build(**spec)
    except InvalidSetting as exc:
        raise ValidationError(f"{block}.{exc.field}", exc.reason) from exc


def _require_finite(value, field: str) -> None:
    """Reject NaN and infinite numbers anywhere in parsed JSON, naming the
    field. Python's json parser yields them for the NaN and Infinity
    literals and for numbers that overflow a float, such as 1e400."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ValidationError(field, f"expected a finite number, got {value}")
    if isinstance(value, dict):
        for key, item in value.items():
            _require_finite(item, f"{field}.{key}" if field else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _require_finite(item, f"{field}[{i}]")


def load_scenario(path: str | Path, sampler_seed: int | None = None) -> ResolvedScenario:
    """Load, validate, and resolve a scenario file into ready-to-run inputs.

    `sampler_seed` overrides the seed of a sampled y0 block (CLI --seed);
    giving it for a y0 that is not sampled is a ValidationError. A sampled
    y0 is drawn only once every block has been validated.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such scenario file: {path}")
    try:
        with reading(path) as lines:
            try:
                raw = json.loads("".join(lines))
            except json.JSONDecodeError as exc:
                raise QGameError(f"not valid JSON ({exc})") from exc
            if not isinstance(raw, dict):
                raise QGameError("top level must be a JSON object")
        # outside the block: a fault that names a field names no file
        _require_finite(raw, "")
    except RecursionError:  # from the parser or from _require_finite
        raise QGameError(f"{path}: JSON nested too deeply") from None
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ValidationError(sorted(unknown)[0], "unknown scenario field")
    if raw.get("schema_version") != SCHEMA_VERSION:
        raise ValidationError(
            "schema_version", f"expected {SCHEMA_VERSION}, got {raw.get('schema_version')!r}"
        )
    if "zscores" not in raw:
        raise ValidationError("zscores", "required field is missing")

    base = path.parent
    scores = load_zscores(_resolve_path(base, raw["zscores"], "zscores"))
    n, m = scores.scores.shape

    loadings = None
    if "loadings" in raw:
        loadings_path = _resolve_path(base, raw["loadings"], "loadings")
        loadings = load_loadings(loadings_path)
        if loadings.loadings.shape[1] != n:
            raise ValidationError(
                "loadings", f"{loadings.loadings.shape[1]} factor columns, "
                f"but the zscores have {n} factors"
            )

    flagging = raw.get("flagging", {})
    _settings("flagging", flagging, partial(flagging_threshold, n_statements=m),
              ("n_statements", "p_threshold"))

    # x0
    x0_spec = raw.get("x0")
    if x0_spec == "derive-from-loadings":
        if loadings is None:
            raise ValidationError("x0", "derive-from-loadings requires a loadings file")
        try:
            x0 = derive_x0(flag_stakeholders(loadings, **{"n_statements": m, **flagging}))
        except QGameError as exc:  # no stakeholder was flagged
            raise ValidationError("x0", f"{exc} in {loadings_path}") from None
    elif isinstance(x0_spec, list):
        x0 = _simplex_vector(x0_spec, "x0", n)
    else:
        raise ValidationError("x0", "expected a vector or 'derive-from-loadings'")

    # z0
    z0_spec = raw.get("z0")
    if not isinstance(z0_spec, list):
        raise ValidationError("z0", f"expected a vector, got {z0_spec!r}")
    z0 = _explicit_vector(z0_spec, "z0", n)
    _reject_first("z0", z0, (z0 < 0) | (z0 > 1), "is outside [0, 1]")

    # y0
    y0_spec = raw.get("y0")
    mode = y0_spec.get("mode") if isinstance(y0_spec, dict) else None
    if sampler_seed is not None and mode != "sample":
        raise ValidationError("y0", "a sampler seed (--seed) needs y0 in sample mode")
    if isinstance(y0_spec, list):
        y0 = _simplex_vector(y0_spec, "y0", m)
    elif mode == "table":
        _settings("y0", y0_spec, dict, ("mode", "path"))
        if "path" not in y0_spec:
            raise ValidationError("y0.path", "table mode requires a path")
        y0 = load_share_table(_resolve_path(base, y0_spec["path"], "y0.path"))
        negative = np.flatnonzero(y0 < 0)
        if len(negative):
            j = negative[0]
            raise ValidationError("y0", f"table share of {CANONICAL_CODES[j]} = {y0[j]} is negative")
        if abs(y0.sum() - 1.0) > TABLE_SUM_TOL:
            raise ValidationError("y0", f"table shares must be near the simplex (sum {y0.sum():.6g})")
        y0 = y0 / y0.sum()
    elif mode == "sample":
        if sampler_seed is not None:
            y0_spec = {**y0_spec, "seed": sampler_seed}
        sampler = _settings(
            "y0", y0_spec, lambda mode, distribution=None, **kw: SamplerConfig(**kw),
            ["mode", "distribution"] + [f.name for f in fields(SamplerConfig)],
        )
        if "distribution" not in y0_spec:
            raise ValidationError("y0.distribution", "sample mode requires a distribution path")
        dist = load_distribution(_resolve_path(base, y0_spec["distribution"], "y0.distribution"))
        y0 = None  # drawn once every block is valid
    elif isinstance(y0_spec, dict):
        got = f"got {mode!r}" if "mode" in y0_spec else "the key is missing"
        raise ValidationError("y0.mode", f"expected 'table' or 'sample', {got}")
    else:
        raise ValidationError("y0", "expected a vector or a table/sample object")

    integrator = _settings("integrator", raw.get("integrator", {}), IntegratorConfig,
                           [f.name for f in fields(IntegratorConfig)])
    thresholds = _settings("analysis", raw.get("analysis", {}), AnalysisThresholds,
                           [f.name for f in fields(AnalysisThresholds)])

    if y0 is None:
        y0 = sample_y0(dist, sampler)
    initial = GameState(x=x0, y=y0, z=z0)
    try:
        initial.validate()
    except QGameError as exc:
        raise ValidationError("initial conditions", str(exc)) from exc
    return ResolvedScenario(
        scores=scores, initial=initial, integrator=integrator, analysis=thresholds
    )


def run_scenario(
    scenario: ResolvedScenario,
    config: IntegratorConfig | None = None,
    on_samples: Callable[[np.ndarray], None] | None = None,
) -> Trajectory:
    """Integrate a resolved scenario (optionally overriding the integrator);
    `on_samples` is passed on to `integrate`."""
    return integrate(
        scenario.initial, scenario.scores, config or scenario.integrator, on_samples
    )


def case_study_path() -> Path:
    """Path of the bundled immersive-tourism case-study scenario."""
    return Path(resources.files("qgame") / "scenarios" / "casestudy.json")


def load_case_study() -> ResolvedScenario:
    return load_scenario(case_study_path())


def run_case_study(config: IntegratorConfig | None = None) -> Trajectory:
    """Load the bundled case study and integrate it."""
    return run_scenario(load_case_study(), config)
