import json
import re
import shutil
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import qgame
from qgame import scenario
from qgame.errors import QGameError, ValidationError

from table_fixtures import CANONICAL_ORDER, Y0, Z0


@pytest.fixture
def sandbox(tmp_path):
    """A writable copy of the bundled scenario plus its data files."""
    data = tmp_path / "data"
    data.mkdir()
    src = qgame.case_study_path().parent.parent / "data"
    for name in ("zscores.csv", "loadings.csv", "y0.csv", "symmetric_distribution.csv"):
        shutil.copy(src / name, data / name)
    scen_dir = tmp_path / "scenarios"
    scen_dir.mkdir()
    base = json.loads(qgame.case_study_path().read_text())
    return scen_dir, base


def write_scenario(scen_dir, spec) -> str:
    p = scen_dir / "scenario.json"
    p.write_text(json.dumps(spec))
    return str(p)


def test_bundled_case_study_resolves(case_study):
    assert case_study.initial.x == pytest.approx(np.array([7, 3, 3, 4, 2]) / 19, abs=1e-15)
    assert np.array_equal(case_study.initial.z, Z0)
    y_raw = np.array([Y0[c] for c in CANONICAL_ORDER])
    assert case_study.initial.y == pytest.approx(y_raw / y_raw.sum(), abs=1e-15)
    assert case_study.integrator.method == "rk4"
    assert case_study.integrator.step == 0.01
    assert case_study.integrator.t_end == 50.0
    assert case_study.analysis.winner_threshold == 0.99


def test_explicit_vectors_accepted(sandbox):
    scen_dir, base = sandbox
    base["x0"] = [0.2, 0.2, 0.2, 0.2, 0.2]
    base["z0"] = [0.0, 0.25, 0.5, 0.75, 1.0]
    resolved = qgame.load_scenario(write_scenario(scen_dir, base))
    assert np.array_equal(resolved.initial.x, [0.2] * 5)
    assert np.array_equal(resolved.initial.z, [0.0, 0.25, 0.5, 0.75, 1.0])


def test_explicit_x0_must_be_on_simplex(sandbox):
    scen_dir, base = sandbox
    base["x0"] = [0.5, 0.5, 0.1, 0.0, 0.0]
    with pytest.raises(ValidationError, match="x0"):
        qgame.load_scenario(write_scenario(scen_dir, base))


def test_explicit_x0_must_be_nonnegative(sandbox):
    scen_dir, base = sandbox
    base["x0"] = [0.6, 0.6, -0.2, 0.0, 0.0]
    with pytest.raises(ValidationError, match="x0"):
        qgame.load_scenario(write_scenario(scen_dir, base))


def test_z0_range_validated(sandbox):
    scen_dir, base = sandbox
    base["z0"] = [0.5, 0.5, 0.5, 0.5, 1.2]
    with pytest.raises(ValidationError, match="z0"):
        qgame.load_scenario(write_scenario(scen_dir, base))


@pytest.mark.parametrize(
    "key, index, value, what",
    [
        ("x0", 4, -0.2, "is negative"),
        ("x0", 0, -1.0, "is negative"),
        ("z0", 4, 1.2, r"is outside \[0, 1\]"),
        ("z0", 1, -0.5, r"is outside \[0, 1\]"),
    ],
)
def test_out_of_range_entry_is_named(sandbox, key, index, value, what):
    scen_dir, base = sandbox
    base[key] = [0.25, 0.25, 0.25, 0.25, 0.25] if key == "z0" else [0.6, 0.2, 0.2, 0.0, 0.0]
    base[key][index] = value
    with pytest.raises(ValidationError, match=rf"^{key}\[{index}\]: {value} {what}$") as info:
        qgame.load_scenario(write_scenario(scen_dir, base))
    assert info.value.field == f"{key}[{index}]"


def test_missing_scenario_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        qgame.load_scenario(tmp_path / "absent.json")


def test_missing_data_file(sandbox, tmp_path):
    scen_dir, base = sandbox
    base["zscores"] = "../data/absent.csv"
    with pytest.raises(FileNotFoundError):
        qgame.load_scenario(write_scenario(scen_dir, base))


def test_invalid_json_is_a_parse_error(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(QGameError, match=r"broken\.json: not valid JSON \(Expecting "):
        qgame.load_scenario(p)
    p.write_text('["a", "list"]')
    with pytest.raises(QGameError, match=r"broken\.json: top level must be a JSON object$"):
        qgame.load_scenario(p)


def deep_json(path, depth=100000):
    path.write_text('{"a": ' + "[" * depth + "]" * depth + "}")
    return path


def test_deeply_nested_json_is_a_parse_error(tmp_path, monkeypatch):
    p = deep_json(tmp_path / "deep.json")
    with pytest.raises(QGameError, match=r"deep\.json: JSON nested too deeply$"):
        qgame.load_scenario(p)
    # nesting that the parser accepts can still be too deep for the
    # non-finite check, which recurses on its own
    nested = []
    for _ in range(100000):
        nested = [nested]
    monkeypatch.setattr(scenario, "json", SimpleNamespace(
        loads=lambda text: {"a": nested}, JSONDecodeError=json.JSONDecodeError))
    with pytest.raises(QGameError, match=r"deep\.json: JSON nested too deeply$"):
        qgame.load_scenario(p)


def test_unknown_schema_version(sandbox):
    scen_dir, base = sandbox
    base["schema_version"] = 2
    with pytest.raises(ValidationError, match="schema_version"):
        qgame.load_scenario(write_scenario(scen_dir, base))


def test_unknown_top_level_key(sandbox):
    scen_dir, base = sandbox
    base["extra"] = 1
    with pytest.raises(ValidationError, match="extra"):
        qgame.load_scenario(write_scenario(scen_dir, base))


def test_unknown_integrator_key(sandbox):
    scen_dir, base = sandbox
    base["integrator"] = {"method": "rk4", "dt": 0.1}
    with pytest.raises(ValidationError, match="integrator"):
        qgame.load_scenario(write_scenario(scen_dir, base))


@pytest.mark.parametrize(
    "key",
    ["renorm_tol", "clamp_eps", "sample_stride", "stop_on_convergence", "conv_tol",
     "conv_window"],
)
def test_removed_integrator_keys_are_unknown(sandbox, key):
    """"stop_on_convergence": "false" once turned early stopping on."""
    scen_dir, base = sandbox
    base["integrator"] = {"method": "rk4", key: "false"}
    with pytest.raises(ValidationError, match="allowed keys") as info:
        qgame.load_scenario(write_scenario(scen_dir, base))
    assert info.value.field == "integrator"


@pytest.mark.parametrize("value", ["0.05", True, 0.1])
def test_p_threshold_must_be_0_05_or_0_01(sandbox, value):
    scen_dir, base = sandbox
    base["flagging"] = {"n_statements": 36, "p_threshold": value}
    with pytest.raises(ValidationError, match="must be one of") as info:
        qgame.load_scenario(write_scenario(scen_dir, base))
    assert info.value.field == "flagging.p_threshold"


def test_wrong_types_are_validation_errors(sandbox):
    scen_dir, base = sandbox
    base["integrator"] = {"step": "small"}
    with pytest.raises(ValidationError, match="integrator"):
        qgame.load_scenario(write_scenario(scen_dir, base))

    scen_dir2, base2 = sandbox
    base2["integrator"] = {}
    base2["analysis"] = {"winner_threshold": "high"}
    with pytest.raises(ValidationError, match="analysis"):
        qgame.load_scenario(write_scenario(scen_dir2, base2))

    base2["analysis"] = {}
    base2["flagging"] = {"n_statements": [36]}
    with pytest.raises(ValidationError, match="flagging"):
        qgame.load_scenario(write_scenario(scen_dir2, base2))

    base2["flagging"] = {}
    base2["y0"] = {"mode": "sample",
                   "distribution": "../data/symmetric_distribution.csv",
                   "n_sequences": [10]}
    with pytest.raises(ValidationError, match="y0"):
        qgame.load_scenario(write_scenario(scen_dir2, base2))


@pytest.mark.parametrize("literal", ["Infinity", "-Infinity", "NaN", "1e400"])
@pytest.mark.parametrize(
    "key, field", [("integrator", r"integrator\.t_end"), ("z0", r"z0\[1\]")]
)
def test_non_finite_numbers_are_rejected(sandbox, literal, key, field):
    """Loading does not integrate, so t_end = Infinity cannot hang here."""
    scen_dir, base = sandbox
    if key == "integrator":
        base["integrator"] = {"method": "rk4", "t_end": "HOLE"}
    else:
        base["z0"] = [0.39, "HOLE", 0.39, 0.28, 0.28]
    p = scen_dir / "scenario.json"
    p.write_text(json.dumps(base).replace('"HOLE"', literal))
    with pytest.raises(ValidationError, match=field):
        qgame.load_scenario(p)


@pytest.mark.parametrize(
    "block, key, value",
    [
        ("y0", "n_sequences", 2.7),
        ("y0", "n_sequences", True),
        ("y0", "seed", 1.9),
        ("flagging", "n_statements", 36.9),
    ],
)
def test_integer_fields_reject_floats_and_bools(sandbox, block, key, value):
    scen_dir, base = sandbox
    if block == "y0":
        base["y0"] = {"mode": "sample", "distribution": "../data/symmetric_distribution.csv",
                      "n_sequences": 100, "seed": 1}
    base.setdefault(block, {})[key] = value
    with pytest.raises(ValidationError, match="expected an integer") as info:
        qgame.load_scenario(write_scenario(scen_dir, base))
    assert info.value.field == f"{block}.{key}"


@pytest.mark.parametrize("key", ["step", "t_end", "tol"])
def test_float_fields_reject_bools(sandbox, key):
    """"step": true once ran rk4 with step 1."""
    scen_dir, base = sandbox
    base["integrator"] = {"method": "rk4", key: True}
    with pytest.raises(ValidationError, match="expected a number") as info:
        qgame.load_scenario(write_scenario(scen_dir, base))
    assert info.value.field == f"integrator.{key}"


@pytest.mark.parametrize(
    "flagging, field",
    [({"p_threshold": "abc"}, "p_threshold"), ({"n_statements": -4}, "n_statements")],
)
def test_flagging_is_checked_under_explicit_x0(sandbox, flagging, field):
    scen_dir, base = sandbox
    base["x0"] = [0.2] * 5
    base["flagging"] = flagging
    with pytest.raises(ValidationError) as info:
        qgame.load_scenario(write_scenario(scen_dir, base))
    assert info.value.field == f"flagging.{field}"


@pytest.mark.parametrize("key, length", [("x0", 5), ("y0", 36), ("z0", 5)])
@pytest.mark.parametrize("head", [[0.0, True], [0.8, "0.2"]], ids=["bool", "string"])
def test_explicit_vectors_hold_json_numbers(sandbox, key, length, head):
    """Each vector is valid once coerced with float(): true once loaded as 1
    and "0.2" as 0.2."""
    scen_dir, base = sandbox
    base[key] = head + [0.0] * (length - 2)
    with pytest.raises(ValidationError, match="expected a number") as info:
        qgame.load_scenario(write_scenario(scen_dir, base))
    assert info.value.field == f"{key}[1]"


@pytest.mark.parametrize(
    "key, value, field",
    [
        ("zscores", 5, "zscores"),
        ("loadings", ["a"], "loadings"),
        ("y0", {"mode": "table", "path": 7}, "y0.path"),
        ("y0", {"mode": "sample", "distribution": None}, "y0.distribution"),
    ],
    ids=["zscores", "loadings", "y0.path", "y0.distribution"],
)
def test_path_fields_must_be_strings(sandbox, key, value, field):
    scen_dir, base = sandbox
    base[key] = value
    with pytest.raises(ValidationError, match="expected a path string") as info:
        qgame.load_scenario(write_scenario(scen_dir, base))
    assert info.value.field == field


PATH_FIELDS = [
    ("zscores", lambda v: v),
    ("loadings", lambda v: v),
    ("y0.path", lambda v: {"mode": "table", "path": v}),
    ("y0.distribution", lambda v: {"mode": "sample", "distribution": v}),
]


@pytest.mark.parametrize("value", ["", "../data"], ids=["empty", "directory"])
@pytest.mark.parametrize("field, spec", PATH_FIELDS, ids=[f for f, _ in PATH_FIELDS])
def test_path_fields_must_name_a_file(sandbox, field, spec, value):
    scen_dir, base = sandbox
    base[field.split(".")[0]] = spec(value)
    with pytest.raises(ValidationError, match="does not name a file") as info:
        qgame.load_scenario(write_scenario(scen_dir, base))
    assert info.value.field == field
    assert repr(value) in str(info.value)


def test_analysis_out_of_range_is_a_validation_error(sandbox):
    scen_dir, base = sandbox
    base["analysis"] = {"winner_threshold": 5}
    with pytest.raises(ValidationError, match=r"analysis\.winner_threshold: must lie") as info:
        qgame.load_scenario(write_scenario(scen_dir, base))
    assert info.value.field == "analysis.winner_threshold"


# one out-of-range value for every integrator and analysis key
BAD_SETTINGS = {
    "integrator": {"method": "euler", "step": -1, "t_end": 0, "tol": 0},
    "analysis": {"winner_threshold": 5, "z_tol": 0.7, "rise_tol": -0.5, "die_tol": -1,
                 "mono_slack": -0.25},
}


@pytest.mark.parametrize(
    "block, cls", [("integrator", qgame.IntegratorConfig), ("analysis", qgame.AnalysisThresholds)]
)
def test_every_key_is_documented_and_has_a_bad_value(block, cls):
    """The first paragraph under "Integrator keys" or "Analysis keys" in
    docs/scenario.md names each key as `key` (default), and BAD_SETTINGS
    holds an out-of-range value for each."""
    keys = [f.name for f in fields(cls)]
    doc = (Path(__file__).parent.parent / "docs" / "scenario.md").read_text(encoding="utf-8")
    first = doc.split(f"## {block.capitalize()} keys\n", 1)[1].strip().split("\n\n", 1)[0]
    assert re.findall(r"`(\w+)` \(", first) == keys
    assert list(BAD_SETTINGS[block]) == keys


@pytest.mark.parametrize(
    "block, key, value",
    [(block, key, value) for block, spec in BAD_SETTINGS.items() for key, value in spec.items()],
)
def test_every_bad_setting_is_named(sandbox, block, key, value):
    scen_dir, base = sandbox
    base[block] = {key: value}
    with pytest.raises(ValidationError) as info:
        qgame.load_scenario(write_scenario(scen_dir, base))
    assert info.value.field == f"{block}.{key}"
    assert repr(value) in info.value.reason


@pytest.mark.parametrize("value", ["derive-from-loadings", None, 0.5])
def test_z0_must_be_an_explicit_vector(sandbox, value):
    scen_dir, base = sandbox
    base["z0"] = value
    with pytest.raises(ValidationError, match="z0: expected a vector, got ") as info:
        qgame.load_scenario(write_scenario(scen_dir, base))
    assert info.value.field == "z0"


def test_derive_without_loadings_fails(sandbox):
    scen_dir, base = sandbox
    del base["loadings"]
    with pytest.raises(ValidationError, match="x0"):
        qgame.load_scenario(write_scenario(scen_dir, base))


def test_sampled_y0_is_deterministic(sandbox):
    scen_dir, base = sandbox
    base["y0"] = {
        "mode": "sample",
        "distribution": "../data/symmetric_distribution.csv",
        "n_sequences": 2000,
        "seed": 42,
    }
    path = write_scenario(scen_dir, base)
    a = qgame.load_scenario(path)
    b = qgame.load_scenario(path)
    assert np.array_equal(a.initial.y, b.initial.y)
    assert a.initial.y.sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "block, spec", [("integrator", {"stepp": 0.01}), ("analysis", {"winner_threshold": "high"})]
)
def test_bad_settings_fail_before_sampling(sandbox, monkeypatch, block, spec):
    scen_dir, base = sandbox
    base["y0"] = {"mode": "sample", "distribution": "../data/symmetric_distribution.csv"}
    base[block] = spec
    calls = []
    monkeypatch.setattr(scenario, "sample_y0", lambda *args: calls.append(args))
    with pytest.raises(ValidationError, match=block) as info:
        qgame.load_scenario(write_scenario(scen_dir, base))
    assert info.value.field.startswith(block)
    assert calls == []


def test_sampler_seed_override_changes_result(sandbox):
    scen_dir, base = sandbox
    base["y0"] = {
        "mode": "sample",
        "distribution": "../data/symmetric_distribution.csv",
        "n_sequences": 2000,
        "seed": 42,
    }
    path = write_scenario(scen_dir, base)
    a = qgame.load_scenario(path)
    c = qgame.load_scenario(path, sampler_seed=7)
    assert not np.array_equal(a.initial.y, c.initial.y)


@pytest.mark.parametrize("y0", [None, [1 / 36] * 36], ids=["table", "vector"])
def test_sampler_seed_needs_sampled_y0(sandbox, y0):
    scen_dir, base = sandbox
    if y0 is not None:
        base["y0"] = y0
    with pytest.raises(ValidationError, match="sample mode") as info:
        qgame.load_scenario(write_scenario(scen_dir, base), sampler_seed=5)
    assert info.value.field == "y0"


@pytest.mark.parametrize(
    "mode, key",
    [("sample", "n_sequence"), ("sample", "path"), ("table", "seed"), ("table", "n_sequences")],
)
def test_y0_rejects_unknown_keys(sandbox, mode, key):
    scen_dir, base = sandbox
    if mode == "sample":
        base["y0"] = {"mode": "sample", "distribution": "../data/symmetric_distribution.csv",
                      "n_sequences": 100}
    base["y0"][key] = 10
    with pytest.raises(ValidationError, match=f"^y0: unknown key '{key}'; allowed keys: ") as info:
        qgame.load_scenario(write_scenario(scen_dir, base))
    assert info.value.field == "y0"


@pytest.mark.parametrize("mode, got", [("tabel", "got 'tabel'"), (None, "the key is missing")],
                         ids=["misspelt", "missing"])
def test_y0_bad_mode_names_the_field(sandbox, mode, got):
    scen_dir, base = sandbox
    del base["y0"]["mode"]
    if mode is not None:
        base["y0"]["mode"] = mode
    with pytest.raises(ValidationError) as info:
        qgame.load_scenario(write_scenario(scen_dir, base))
    assert info.value.field == "y0.mode"
    assert info.value.reason == f"expected 'table' or 'sample', {got}"
    assert str(info.value) == f"y0.mode: expected 'table' or 'sample', {got}"


def test_table_y0_normalizes_truncated_shares(sandbox):
    scen_dir, base = sandbox
    resolved = qgame.load_scenario(write_scenario(scen_dir, base))
    assert resolved.initial.y.sum() == pytest.approx(1.0, abs=1e-12)


def test_run_scenario_uses_strategy_labels(case_study):
    traj = qgame.run_scenario(
        case_study, qgame.IntegratorConfig(step=0.05, t_end=0.1)
    )
    assert traj.strategy_labels == tuple(CANONICAL_ORDER)
    assert traj.factor_labels == ("Q1", "Q2", "Q3", "Q4", "Q5")


@pytest.mark.parametrize("code", ["D.R.T.Pu", "I.C.A.PP"])
def test_negative_table_share_names_the_strategy_and_value(sandbox, code):
    scen_dir, base = sandbox
    table = scen_dir.parent / "data" / "y0.csv"
    lines = table.read_text().splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith(code + ","))
    share = float(lines[i].split(",")[1])
    lines[i] = f"{code},{-share}"
    table.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValidationError) as info:
        qgame.load_scenario(write_scenario(scen_dir, base))
    assert info.value.field == "y0"
    assert info.value.reason == f"table share of {code} = {-share} is negative"
