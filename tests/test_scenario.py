import json
import shutil

import numpy as np
import pytest

import qgame
from qgame.errors import ParseError, ValidationError

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
    assert case_study.initial.x0 == pytest.approx(np.array([7, 3, 3, 4, 2]) / 19, abs=1e-15)
    assert np.array_equal(case_study.initial.z0, Z0)
    y_raw = np.array([Y0[c] for c in CANONICAL_ORDER])
    assert case_study.initial.y0 == pytest.approx(y_raw / y_raw.sum(), abs=1e-15)
    assert case_study.integrator.method == "rk4"
    assert case_study.integrator.step == 0.01
    assert case_study.integrator.t_end == 50.0
    assert case_study.analysis.winner_threshold == 0.99


def test_explicit_vectors_accepted(sandbox):
    scen_dir, base = sandbox
    base["x0"] = [0.2, 0.2, 0.2, 0.2, 0.2]
    base["z0"] = [0.0, 0.25, 0.5, 0.75, 1.0]
    resolved = qgame.load_scenario(write_scenario(scen_dir, base))
    assert np.array_equal(resolved.initial.x0, [0.2] * 5)
    assert np.array_equal(resolved.initial.z0, [0.0, 0.25, 0.5, 0.75, 1.0])


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
    with pytest.raises(ParseError):
        qgame.load_scenario(p)
    p.write_text('["a", "list"]')
    with pytest.raises(ParseError):
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


def test_analysis_out_of_range_is_a_validation_error(sandbox):
    scen_dir, base = sandbox
    base["analysis"] = {"winner_threshold": 5}
    with pytest.raises(ValidationError, match="analysis: winner_threshold"):
        qgame.load_scenario(write_scenario(scen_dir, base))


def test_derived_z0_uses_positive_fractions(sandbox):
    scen_dir, base = sandbox
    base["z0"] = "derive-from-loadings"
    resolved = qgame.load_scenario(write_scenario(scen_dir, base))
    assert resolved.initial.z0 == pytest.approx([0.70, 0.60, 0.70, 0.50, 0.50])


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
    assert np.array_equal(a.initial.y0, b.initial.y0)
    assert a.initial.y0.sum() == pytest.approx(1.0, abs=1e-12)


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
    assert not np.array_equal(a.initial.y0, c.initial.y0)


def test_table_y0_normalizes_truncated_shares(sandbox):
    scen_dir, base = sandbox
    resolved = qgame.load_scenario(write_scenario(scen_dir, base))
    assert resolved.initial.y0.sum() == pytest.approx(1.0, abs=1e-12)


def test_run_scenario_uses_strategy_labels(case_study):
    traj = qgame.run_scenario(
        case_study, qgame.IntegratorConfig(step=0.05, t_end=0.1)
    )
    assert traj.strategy_labels == tuple(CANONICAL_ORDER)
    assert traj.factor_labels == ("Q1", "Q2", "Q3", "Q4", "Q5")
