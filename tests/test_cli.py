import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qgame
from qgame.cli import build_parser, main, read_trajectory_csv, write_trajectory_csv

DATA = qgame.case_study_path().parent.parent / "data"
SRC = Path(qgame.__file__).resolve().parent.parent
SCHEMA = None


def run_python(*args, timeout=None):
    """A fresh interpreter that imports this checkout's qgame; it is killed,
    and the test fails, if it runs longer than `timeout` seconds."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=timeout
    )


def report_schema():
    global SCHEMA
    if SCHEMA is None:
        import pathlib

        SCHEMA = json.loads(
            (pathlib.Path(__file__).parent.parent / "docs" / "report.schema.json").read_text()
        )
    return SCHEMA


@pytest.fixture(scope="module")
def short_run(tmp_path_factory):
    """A fast truncated simulate run shared by the output-shape tests."""
    out = tmp_path_factory.mktemp("short_run")
    code = main(["simulate", str(qgame.case_study_path()), "-o", str(out), "--t-end", "2.0"])
    assert code == 0
    return out


def test_simulate_writes_all_outputs(short_run):
    assert (short_run / "trajectory.csv").exists()
    assert (short_run / "report.json").exists()
    for name in ("x.csv", "z.csv", "utility.csv", "y_tool_T.csv", "y_tool_S.csv", "y_tool_A.csv"):
        assert (short_run / "plotdata" / name).exists()


def test_trajectory_csv_header_and_first_utility(short_run):
    header, first = (short_run / "trajectory.csv").read_text().splitlines()[:2]
    cols = header.split(",")
    assert cols[0] == "t" and cols[-1] == "utility"
    assert cols[1:6] == [f"x_Q{i}" for i in range(1, 6)]
    assert cols[6:11] == [f"z_Q{i}" for i in range(1, 6)]
    assert cols[11] == "y_D.R.T.Pu" and cols[46] == "y_I.C.A.PP"
    assert len(cols) == 1 + 5 + 5 + 36 + 1
    assert float(first.split(",")[-1]) < 0  # utility starts negative


def test_trajectory_round_trip_is_exact(short_run, case_study):
    traj = qgame.run_scenario(case_study, qgame.IntegratorConfig(step=0.01, t_end=2.0))
    parsed = read_trajectory_csv(short_run / "trajectory.csv")
    assert np.array_equal(parsed.t, traj.t)
    assert np.array_equal(parsed.x, traj.x)
    assert np.array_equal(parsed.z, traj.z)
    assert np.array_equal(parsed.y, traj.y)
    assert np.array_equal(parsed.utility, traj.utility)
    assert parsed.strategy_labels == traj.strategy_labels


PANELS = ["utility.csv", "x.csv", "y_tool_A.csv", "y_tool_S.csv", "y_tool_T.csv", "z.csv"]


def columns(path):
    """Header name -> tuple of that column's cells, as text."""
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    cells = list(zip(*(line.split(",") for line in lines[1:])))
    assert len(cells) == len(header)
    return dict(zip(header, cells))


def assert_panels_slice_trajectory(out, names=PANELS):
    """Every plotdata panel starts with t, and each of its columns equals
    the trajectory.csv column of the same name, cell for cell."""
    traj = columns(out / "trajectory.csv")
    assert sorted(p.name for p in (out / "plotdata").iterdir()) == names
    covered = set()
    for name in names:
        panel = columns(out / "plotdata" / name)
        assert next(iter(panel)) == "t"
        for col, cells in panel.items():
            assert cells == traj[col]
        covered |= set(panel)
    assert covered == set(traj)


def test_csv_cells_are_17_significant_digits(short_run, case_study, tmp_path):
    rk45 = tmp_path / "rk45"
    assert main(["simulate", str(qgame.case_study_path()), "-o", str(rk45),
                 "--t-end", "2.0", "--method", "rk45"]) == 0
    for out, method in ((short_run, "rk4"), (rk45, "rk45")):
        cfg = qgame.IntegratorConfig(method=method, step=0.01, t_end=2.0)
        traj = qgame.run_scenario(case_study, cfg)
        lines = (out / "trajectory.csv").read_text().splitlines()
        rows = np.column_stack([traj.t, traj.x, traj.z, traj.y, traj.utility])
        assert len(lines) == len(rows) + 1
        for line, row in zip(lines[1:], rows):
            assert line == ",".join(format(v, ".17g") for v in row)
        assert_panels_slice_trajectory(out)


def test_report_conforms_to_schema(short_run):
    import jsonschema

    report = json.loads((short_run / "report.json").read_text())
    jsonschema.validate(report, report_schema())


def keys_in_schema_order(value, schema, path="report") -> int:
    """Assert that every object in `value` lists its keys in the order of
    its schema's `required`; returns how many objects were checked."""
    if not isinstance(value, dict):
        return 0
    if "$ref" in schema:
        schema = report_schema()["$defs"][schema["$ref"].rsplit("/", 1)[1]]
    schema = next((s for s in schema.get("oneOf", ()) if s.get("type") == "object"), schema)
    if "required" in schema:
        assert list(value) == schema["required"], path
        children = [(key, schema["properties"][key]) for key in value]
    else:
        children = [(key, schema["additionalProperties"]) for key in value]
    return ("required" in schema) + sum(
        keys_in_schema_order(value[key], sub, f"{path}.{key}") for key, sub in children
    )


@pytest.mark.parametrize("trajectory", ["case_trajectory", "case_trajectory_rk45"])
def test_report_keys_follow_the_schema_order(trajectory, case_study, request):
    """report.json's byte layout is the key order of the schema's `required`."""
    report = qgame.analyze(request.getfixturevalue(trajectory), case_study.analysis)
    written = json.loads(json.dumps(report, indent=2))
    # the report, fixation, two winners, transients, 36 strategies, utility
    assert keys_in_schema_order(written, report_schema()) == 42


def test_plotdata_panels_have_expected_columns(short_run):
    x_header = (short_run / "plotdata" / "x.csv").read_text().splitlines()[0]
    assert x_header == "t," + ",".join(f"x_Q{i}" for i in range(1, 6))
    yt = (short_run / "plotdata" / "y_tool_T.csv").read_text().splitlines()[0]
    names = yt.split(",")[1:]
    assert len(names) == 12
    assert all(name.split(".")[2] == "T" for name in (n[2:] for n in names))


def test_analyze_matches_simulate_report(short_run, tmp_path):
    code = main(["analyze", str(short_run / "trajectory.csv"), "-o", str(tmp_path)])
    assert code == 0
    a = json.loads((short_run / "report.json").read_text())
    b = json.loads((tmp_path / "report.json").read_text())
    assert a == b


def test_full_run_report_names_winners(tmp_path):
    out = tmp_path / "full"
    assert main(["simulate", str(qgame.case_study_path()), "-o", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["fixation"]["winner_x"]["label"] == "Q1"
    assert report["fixation"]["winner_y"]["label"] == "D.R.A.PP"
    assert report["utility"]["initial"] < 0
    import jsonschema

    jsonschema.validate(report, report_schema())
    # 5001 rows take many of write_plotdata's read blocks
    assert (out / "trajectory.csv").stat().st_size > 4 * (1 << 16)
    assert_panels_slice_trajectory(out)


def test_flag_verb_prints_counts(capsys):
    assert main(["flag", str(DATA / "loadings.csv")]) == 0
    out = capsys.readouterr().out
    assert "counts: Q1=7 Q2=3 Q3=3 Q4=4 Q5=2" in out
    assert "unassigned: 1 (STK2)" in out


def test_flag_verb_stricter_threshold(capsys):
    assert main(["flag", str(DATA / "loadings.csv"), "--p", "0.01"]) == 0
    out = capsys.readouterr().out
    assert "counts: Q1=7 Q2=3 Q3=3 Q4=4 Q5=2" in out


def test_flag_rejects_duplicate_stakeholder(tmp_path):
    dup = tmp_path / "loadings.csv"
    lines = (DATA / "loadings.csv").read_text().splitlines()
    first = next(ln for ln in lines if ln.startswith("STK1,"))
    dup.write_text("\n".join(lines + [first]) + "\n")
    proc = run_python("-m", "qgame", "flag", str(dup))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert "STK1" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_flag_bad_loading_exits_1_naming_the_cell(tmp_path):
    bad = tmp_path / "loadings.csv"
    text = (DATA / "loadings.csv").read_text()
    bad.write_text(text.replace("STK1,0.84,", "STK1,abc,", 1))
    proc = run_python("-m", "qgame", "flag", str(bad))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert str(bad) in proc.stderr and "'STK1'" in proc.stderr and "Q1" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_sample_y0_deterministic_files(tmp_path):
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sample-y0", str(DATA / "symmetric_distribution.csv"),
            "--n-sequences", "2000", "--seed", "11"]
    assert main(args + ["-o", str(f1)]) == 0
    assert main(args + ["-o", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()
    lines = f1.read_text().splitlines()
    assert lines[0] == "strategy,share"
    assert len(lines) == 37


def test_sample_y0_prints_when_no_output(capsys):
    assert main(["sample-y0", str(DATA / "symmetric_distribution.csv"),
                 "--n-sequences", "500", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("strategy,share")


def test_sample_y0_short_row_exits_1_without_traceback(tmp_path):
    bad = tmp_path / "short.csv"
    lines = (DATA / "symmetric_distribution.csv").read_text().splitlines()
    lines[-1] = lines[-1].rsplit(",", 1)[0]
    bad.write_text("\n".join(lines) + "\n")
    proc = run_python("-m", "qgame", "sample-y0", str(bad))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


VERB_OPTIONS = {
    "simulate": {"--seed", "--t-end", "--step", "--method", "-o", "--output"},
    "flag": {"--n-statements", "--p"},
    "sample-y0": {"--seed", "--n-sequences", "--tie-rule", "-o", "--output"},
    "analyze": {"--winner-threshold", "--z-tol", "--rise-tol", "--die-tol", "--mono-slack",
                "-o", "--output"},
}


def test_each_verb_declares_only_the_flags_it_reads():
    parser = build_parser()
    (verbs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = {
        name: {s for a in sub._actions for s in a.option_strings} - {"-h", "--help"}
        for name, sub in verbs.choices.items()
    }
    assert options == VERB_OPTIONS


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "t.csv", "--step", "5"],
        ["flag", "loadings.csv", "-o", "nowhere", "--step", "7"],
        ["sample-y0", "dist.csv", "--t-end", "4", "--method", "rk45"],
    ],
)
def test_flags_a_verb_does_not_read_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_simulate_seed_without_sampled_y0_exits_1(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["simulate", str(qgame.case_study_path()), "--t-end", "0.1",
                 "--seed", "5", "-o", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: y0: ")
    assert not out.exists()


def test_missing_scenario_exits_2(capsys):
    assert main(["simulate", "/no/such/scenario.json"]) == 2


def test_invalid_scenario_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not valid json")
    assert main(["simulate", str(bad)]) == 1


def test_analyze_rejects_rows_narrower_than_header(short_run, tmp_path, capsys):
    lines = (short_run / "trajectory.csv").read_text().splitlines()
    narrow = tmp_path / "narrow.csv"
    narrow.write_text("\n".join([lines[0]] + [ln.rsplit(",", 1)[0] for ln in lines[1:]]) + "\n")
    assert main(["analyze", str(narrow), "-o", str(tmp_path)]) == 1
    assert "header" in capsys.readouterr().err


def test_analyze_rejects_negative_die_tol(short_run, tmp_path, capsys):
    args = ["analyze", str(short_run / "trajectory.csv"), "-o", str(tmp_path)]
    assert main(args + ["--die-tol", "-1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "die_tol" in err
    assert not (tmp_path / "report.json").exists()


def test_analyze_rejects_negative_mono_slack(short_run, tmp_path, capsys):
    args = ["analyze", str(short_run / "trajectory.csv"), "-o", str(tmp_path)]
    assert main(args + ["--mono-slack", "-1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "mono_slack" in err
    assert not (tmp_path / "report.json").exists()


def test_analyze_mono_slack_reaches_the_thresholds(short_run, tmp_path):
    traj = read_trajectory_csv(short_run / "trajectory.csv")
    expected = qgame.analyze(traj, qgame.AnalysisThresholds(mono_slack=0.001))
    assert expected != qgame.analyze(traj)  # the value changes this report
    args = ["analyze", str(short_run / "trajectory.csv"), "-o", str(tmp_path)]
    assert main(args + ["--mono-slack", "0.001"]) == 0
    assert json.loads((tmp_path / "report.json").read_text()) == expected


def test_simulate_step_too_large_names_time_block_and_hint(tmp_path):
    proc = run_python("-m", "qgame", "simulate", str(qgame.case_study_path()),
                      "--step", "0.5", "-o", str(tmp_path))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: at t=")
    assert "y[" in proc.stderr and "--method rk45" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_simulate_over_step_budget_exits_1_without_traceback(tmp_path):
    proc = run_python("-m", "qgame", "simulate", str(qgame.case_study_path()),
                      "--step", "1e-300", "-o", str(tmp_path / "out"), timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: rk4 needs")
    assert "MAX_STEPS=1000000" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


def test_sample_y0_over_sequence_limit_exits_1():
    # the config rejects the count before a single row is drawn
    proc = run_python("-m", "qgame", "sample-y0", str(DATA / "symmetric_distribution.csv"),
                      "--n-sequences", "10000000000", timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: n_sequences: must be at most 10000000,")
    assert "Traceback" not in proc.stderr


def test_missing_trajectory_exits_2():
    assert main(["analyze", "/no/such/trajectory.csv"]) == 2


def test_empty_loadings_file_exits_1(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert main(["flag", str(empty)]) == 1


def test_method_and_step_overrides(tmp_path):
    out = tmp_path / "rk45run"
    code = main(["simulate", str(qgame.case_study_path()), "-o", str(out),
                 "--t-end", "1.0", "--method", "rk45", "--step", "0.05"])
    assert code == 0
    rows = (out / "trajectory.csv").read_text().splitlines()
    times = [float(r.split(",")[0]) for r in rows[1:]]
    assert times[-1] == pytest.approx(1.0, abs=1e-12)
    assert len(times) < 50  # adaptive stepping takes far fewer samples


def test_console_entry_point_runs():
    proc = run_python("-m", "qgame", "flag", str(DATA / "loadings.csv"))
    assert proc.returncode == 0
    assert "Q1=7" in proc.stdout


def test_loading_a_scenario_does_not_import_scipy():
    code = (
        "import sys, qgame, qgame.cli\n"
        "qgame.load_scenario(qgame.case_study_path())\n"
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)\n"
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr


def test_round_trip_writer_reader(tmp_path, case_study):
    traj = qgame.run_scenario(case_study, qgame.IntegratorConfig(step=0.01, t_end=0.5))
    p = tmp_path / "traj.csv"
    write_trajectory_csv(traj, p)
    again = read_trajectory_csv(p)
    assert np.array_equal(again.y, traj.y)
    assert np.array_equal(again.t, traj.t)
