"""Scenario file ingestion (schema v1, see docs/scenario.md).

A scenario is a JSON object naming the score table, how to obtain each
initial-condition block, and optional integrator/analysis settings.
Relative paths resolve against the scenario file's directory. Explicit
x0/y0 vectors must already be on the simplex; derived and table-sourced
vectors are renormalized after validation.
"""

import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .analysis import AnalysisThresholds
from .dynamics import GameState, IntegratorConfig, Trajectory, integrate
from .errors import ParseError, ValidationError
from .qdata import (
    InitialConditions,
    LoadingMatrix,
    ZScoreMatrix,
    derive_x0,
    derive_z0,
    flag_stakeholders,
    load_loadings,
    load_share_table,
    load_zscores,
)
from .sampling import SamplerConfig, load_distribution, sample_y0

SCHEMA_VERSION = 1
EXPLICIT_SUM_TOL = 1e-6   # explicit vectors must be this close to the simplex
TABLE_SUM_TOL = 0.05      # table-sourced shares may carry printing truncation

_INTEGRATOR_KEYS = {
    "method", "step", "t_end", "abs_tol", "rel_tol", "renorm_tol",
    "clamp_eps", "sample_stride", "stop_on_convergence", "conv_tol",
    "conv_window",
}
_ANALYSIS_KEYS = {"winner_threshold", "z_tol", "rise_tol", "die_tol", "mono_slack"}
_TOP_KEYS = {
    "schema_version", "zscores", "loadings", "x0", "z0", "y0",
    "flagging", "integrator", "analysis",
}


@dataclass(frozen=True)
class ResolvedScenario:
    scores: ZScoreMatrix
    initial: InitialConditions
    integrator: IntegratorConfig
    analysis: AnalysisThresholds
    loadings: LoadingMatrix | None
    path: Path


def _resolve_path(base: Path, value: str, field: str) -> Path:
    p = Path(value)
    if not p.is_absolute():
        p = base / p
    if not p.exists():
        raise FileNotFoundError(f"{field}: no such file: {p}")
    return p


def _explicit_vector(value, field: str, length: int) -> np.ndarray:
    try:
        vec = np.asarray([float(v) for v in value], dtype=float)
    except (TypeError, ValueError):
        raise ValidationError(field, "expected a list of numbers") from None
    if vec.shape != (length,):
        raise ValidationError(field, f"expected {length} entries, got {vec.shape}")
    return vec


def _simplex_vector(value, field: str, length: int) -> np.ndarray:
    vec = _explicit_vector(value, field, length)
    if np.any(vec < 0):
        raise ValidationError(field, "entries must be nonnegative")
    if abs(vec.sum() - 1.0) > EXPLICIT_SUM_TOL:
        raise ValidationError(field, f"entries must sum to 1 (got {vec.sum():.6g})")
    return vec / vec.sum()


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

    `sampler_seed` overrides the seed of a sampled y0 block (CLI --seed).
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such scenario file: {path}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: top level must be a JSON object")
    _require_finite(raw, "")
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
        loadings = load_loadings(_resolve_path(base, raw["loadings"], "loadings"))

    def need_loadings(field: str) -> LoadingMatrix:
        if loadings is None:
            raise ValidationError(field, "derive-from-loadings requires a loadings file")
        return loadings

    flagging = raw.get("flagging", {})
    if not isinstance(flagging, dict) or set(flagging) - {"n_statements", "p_threshold"}:
        raise ValidationError("flagging", "expected n_statements/p_threshold settings")

    # x0
    x0_spec = raw.get("x0")
    if x0_spec == "derive-from-loadings":
        try:
            flags = flag_stakeholders(
                need_loadings("x0"),
                int(flagging.get("n_statements", m)),
                float(flagging.get("p_threshold", 0.05)),
            )
        except (TypeError, ValueError) as exc:
            raise ValidationError("flagging", str(exc)) from exc
        x0 = derive_x0(flags, n)
    elif isinstance(x0_spec, list):
        x0 = _simplex_vector(x0_spec, "x0", n)
    else:
        raise ValidationError("x0", "expected a vector or 'derive-from-loadings'")

    # z0
    z0_spec = raw.get("z0")
    if z0_spec == "derive-from-loadings":
        z0 = derive_z0(need_loadings("z0"))
    elif isinstance(z0_spec, list):
        z0 = _explicit_vector(z0_spec, "z0", n)
        if np.any(z0 < 0) or np.any(z0 > 1):
            raise ValidationError("z0", "entries must lie in [0, 1]")
    else:
        raise ValidationError("z0", "expected a vector or 'derive-from-loadings'")

    # y0
    y0_spec = raw.get("y0")
    if isinstance(y0_spec, list):
        y0 = _simplex_vector(y0_spec, "y0", m)
    elif isinstance(y0_spec, dict) and y0_spec.get("mode") == "table":
        if "path" not in y0_spec:
            raise ValidationError("y0.path", "table mode requires a path")
        y0 = load_share_table(_resolve_path(base, y0_spec["path"], "y0.path"), scores.space)
        if np.any(y0 < 0):
            raise ValidationError("y0", "table shares must be nonnegative")
        if abs(y0.sum() - 1.0) > TABLE_SUM_TOL:
            raise ValidationError("y0", f"table shares must be near the simplex (sum {y0.sum():.6g})")
        y0 = y0 / y0.sum()
    elif isinstance(y0_spec, dict) and y0_spec.get("mode") == "sample":
        if "distribution" not in y0_spec:
            raise ValidationError("y0.distribution", "sample mode requires a distribution path")
        dist = load_distribution(
            _resolve_path(base, y0_spec["distribution"], "y0.distribution"), scores.space
        )
        try:
            seed = sampler_seed if sampler_seed is not None else int(y0_spec.get("seed", 0))
            sampler = SamplerConfig(
                n_sequences=int(y0_spec.get("n_sequences", 30000)),
                seed=seed,
                tie_rule=y0_spec.get("tie_rule", "first-index"),
            )
        except (TypeError, ValueError) as exc:
            raise ValidationError("y0", str(exc)) from exc
        y0 = sample_y0(dist, sampler)
    else:
        raise ValidationError("y0", "expected a vector or a table/sample object")

    integrator_spec = raw.get("integrator", {})
    if not isinstance(integrator_spec, dict) or set(integrator_spec) - _INTEGRATOR_KEYS:
        raise ValidationError("integrator", f"allowed keys: {sorted(_INTEGRATOR_KEYS)}")
    try:
        integrator = IntegratorConfig(**integrator_spec)
    except (TypeError, ValueError) as exc:
        raise ValidationError("integrator", str(exc)) from exc

    analysis_spec = raw.get("analysis", {})
    if not isinstance(analysis_spec, dict) or set(analysis_spec) - _ANALYSIS_KEYS:
        raise ValidationError("analysis", f"allowed keys: {sorted(_ANALYSIS_KEYS)}")
    for key, value in analysis_spec.items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ValidationError(f"analysis.{key}", "expected a number")
    try:
        thresholds = AnalysisThresholds(**analysis_spec)
    except ValueError as exc:
        raise ValidationError("analysis", str(exc)) from exc

    try:
        initial = InitialConditions(x0=x0, y0=y0, z0=z0)
    except ValueError as exc:
        raise ValidationError("initial conditions", str(exc)) from exc
    return ResolvedScenario(
        scores=scores,
        initial=initial,
        integrator=integrator,
        analysis=thresholds,
        loadings=loadings,
        path=path,
    )


def run_scenario(
    scenario: ResolvedScenario, config: IntegratorConfig | None = None
) -> Trajectory:
    """Integrate a resolved scenario (optionally overriding the integrator)."""
    state0 = GameState(
        x=scenario.initial.x0, y=scenario.initial.y0, z=scenario.initial.z0
    )
    return integrate(state0, scenario.scores, config or scenario.integrator)


def case_study_path() -> Path:
    """Path of the bundled immersive-tourism case-study scenario."""
    return Path(resources.files("qgame") / "scenarios" / "casestudy.json")


def load_case_study() -> ResolvedScenario:
    return load_scenario(case_study_path())


def run_case_study(config: IntegratorConfig | None = None) -> Trajectory:
    """Load the bundled case study and integrate it."""
    return run_scenario(load_case_study(), config)
