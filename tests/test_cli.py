import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qgame
from qgame.cli import build_parser, main, read_trajectory_csv
from qgame.dynamics import BLOCK

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


TIGHT = {"method": "rk45", "abs_tol": 1e-13, "rel_tol": 1e-13}  # ~600 samples to t = 10


@pytest.fixture(scope="module")
def tight_rk45(tmp_path_factory, case_study):
    """The case study under a tight-tolerance rk45, as a scenario file, and
    the sample times of a run of it to t = 10; a run ending at times[k - 1]
    has k samples."""
    spec = json.loads(qgame.case_study_path().read_text())
    for key in ("zscores", "loadings"):
        spec[key] = str(DATA / Path(spec[key]).name)
    spec["y0"]["path"] = str(DATA / Path(spec["y0"]["path"]).name)
    spec["integrator"] = dict(TIGHT, t_end=10.0)
    path = tmp_path_factory.mktemp("tight") / "tight.json"
    path.write_text(json.dumps(spec))
    times = qgame.run_scenario(case_study, qgame.IntegratorConfig(t_end=10.0, **TIGHT)).t
    return path, times


@pytest.mark.parametrize("samples", [2, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
@pytest.mark.parametrize("method", ["rk4", "rk45"])
def test_csv_lines_across_block_boundaries(method, samples, tight_rk45, case_study, tmp_path):
    """Rows formatted block by block in the writer process are the rows of
    one in-process run, every cell at 17 significant digits."""
    if method == "rk4":
        scenario, t_end = qgame.case_study_path(), (samples - 1) * 0.01
        cfg = qgame.IntegratorConfig(step=0.01, t_end=t_end)
    else:
        scenario, times = tight_rk45
        t_end = float(times[samples - 1])
        cfg = qgame.IntegratorConfig(t_end=t_end, **TIGHT)
    assert main(["simulate", str(scenario), "-o", str(tmp_path), "--t-end", repr(t_end)]) == 0
    traj = qgame.run_scenario(case_study, cfg)
    assert len(traj) == samples
    rows = np.column_stack([traj.t, traj.x, traj.z, traj.y, traj.utility])
    lines = (tmp_path / "trajectory.csv").read_text().split("\n")
    assert lines[-1] == "" and len(lines) == samples + 2
    for line, row in zip(lines[1:-1], rows):
        assert line == ",".join(format(v, ".17g") for v in row)


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


@pytest.mark.parametrize("method", ["rk4", "rk45"])
def test_report_holds_no_integrator_counters(tmp_path, method):
    """The counters in Trajectory.meta stay out of report.json, so analyze
    rebuilds simulate's report byte for byte."""
    sim, again = tmp_path / "sim", tmp_path / "again"
    args = ["simulate", str(qgame.case_study_path()), "-o", str(sim), "--t-end", "2.0"]
    assert main(args + ["--method", method]) == 0
    assert main(["analyze", str(sim / "trajectory.csv"), "-o", str(again)]) == 0
    report = (sim / "report.json").read_bytes()
    assert report == (again / "report.json").read_bytes()
    for name in ("accepted_steps", "rejected_steps", "field_evaluations", "guard_writes"):
        assert name.encode() not in report


def test_full_run_report_names_winners(tmp_path):
    out = tmp_path / "full"
    assert main(["simulate", str(qgame.case_study_path()), "-o", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["fixation"]["winner_x"]["label"] == "Q1"
    assert report["fixation"]["winner_y"]["label"] == "D.R.A.PP"
    assert report["utility"]["initial"] < 0
    import jsonschema

    jsonschema.validate(report, report_schema())
    # 5001 rows take many of the writer process's 64 KB panel blocks
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
    "sample-y0": {"--seed", "--n-sequences", "-o", "--output"},
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
        ["sample-y0", "dist.csv", "--tie-rule", "first-index"],
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


def test_simulate_deeply_nested_scenario_exits_1_without_traceback(tmp_path):
    scenario = tmp_path / "deep.json"
    scenario.write_text('{"a": ' + "[" * 100000 + "]" * 100000 + "}")
    proc = run_python("-m", "qgame", "simulate", str(scenario), "-o", str(tmp_path / "out"))
    assert proc.returncode == 1
    assert proc.stderr == f"error: {scenario}: JSON nested too deeply\n"
    assert not (tmp_path / "out").exists()


def test_simulate_path_field_not_a_string_exits_1(tmp_path):
    spec = json.loads(qgame.case_study_path().read_text())
    spec["zscores"] = 5
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(spec))
    proc = run_python("-m", "qgame", "simulate", str(scenario), "-o", str(tmp_path / "out"))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: zscores: expected a path string, got 5")
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("factors", [4, 6], ids=["4-factors", "6-factors"])
def test_simulate_loadings_factor_count_must_match_the_scores(tmp_path, capsys, factors):
    header, *rows = (
        line.split(",")
        for line in (DATA / "loadings.csv").read_text().splitlines()
        if not line.startswith("#")
    )
    # drop Q5, or add a Q6 of zeros
    table = [(header + ["Q6"])[:factors + 1]] + [(row + ["0.0"])[:factors + 1] for row in rows]
    loadings = tmp_path / "loadings.csv"
    loadings.write_text("".join(",".join(row) + "\n" for row in table))
    spec = json.loads(qgame.case_study_path().read_text())
    spec.update(zscores=str(DATA / "zscores.csv"), loadings=str(loadings))
    spec["y0"]["path"] = str(DATA / "y0.csv")
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(spec))
    out = tmp_path / "out"
    assert main(["simulate", str(scenario), "--t-end", "0.1", "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: loadings: {factors} factor columns")
    assert "zscores have 5 factors" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_analyze_rejects_rows_narrower_than_header(short_run, tmp_path, capsys):
    lines = (short_run / "trajectory.csv").read_text().splitlines()
    narrow = tmp_path / "narrow.csv"
    narrow.write_text("\n".join([lines[0]] + [ln.rsplit(",", 1)[0] for ln in lines[1:]]) + "\n")
    assert main(["analyze", str(narrow), "-o", str(tmp_path)]) == 1
    assert "header" in capsys.readouterr().err


def by_columns(edit):
    """A trajectory edit that takes and returns a list of columns, each a
    tuple of its name and cells, as an edit of rows."""
    return lambda rows: [list(row) for row in zip(*edit(list(zip(*rows))))]


@pytest.mark.parametrize(
    "edit, message",
    [
        (by_columns(lambda c: [c[0], c[-1]]), "header column 2 must be the first x_ column"),
        (by_columns(lambda c: c[:11] + c[-1:]), "header column 12 must be the first y_ column"),
        (by_columns(lambda c: c[:-1] + [("foo",) + c[-1][1:], c[-1]]),
         "header column 48, 'foo', is out of place"),
        (by_columns(lambda c: c[:-1] + [c[37], c[-1]]),
         "header column 48, 'y_D.R.A.PP', repeats column 38"),
        (by_columns(lambda c: c[:6] + [c[7], c[6]] + c[8:]),
         "header column 7, 'z_Q2', is out of place"),
        (by_columns(lambda c: c[:10] + c[11:]), "header column 11, 'y_D.R.T.Pu', is out of place"),
        (by_columns(lambda c: c[1:2] + c[:1] + c[2:]), "header column 1, 'x_Q1', is out of place"),
        (by_columns(lambda c: c[:-2] + [c[-1], c[-2]]),
         "header column 47, 'utility', is out of place"),
        (lambda r: [r[0], r[2], r[1]] + r[3:],
         "row 2 after the header: t = 0.0 does not rise above the previous row's 0.01"),
        (lambda r: r[:2] + r[1:],
         "row 2 after the header: t = 0.0 does not rise above the previous row's 0.0"),
    ],
    ids=["t_utility", "no_y", "unknown_name", "repeated_name", "z_order", "z_missing",
         "t_not_first", "utility_not_last", "t_backwards", "t_repeated"],
)
def test_analyze_checks_header_and_clock(short_run, tmp_path, capsys, edit, message):
    rows = [line.split(",") for line in (short_run / "trajectory.csv").read_text().splitlines()]
    bad = tmp_path / "bad.csv"
    bad.write_text("".join(",".join(row) + "\n" for row in edit(rows[:6])))
    out = tmp_path / "report"
    assert main(["analyze", str(bad), "-o", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {bad}: {message}")
    assert not out.exists()


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


def test_sample_y0_bad_sigma_names_the_file_and_strategy(tmp_path, capsys):
    bad = tmp_path / "dist.csv"
    text = (DATA / "symmetric_distribution.csv").read_text()
    bad.write_text(text.replace("I.R.T.Pr,0.0,1.0", "I.R.T.Pr,0.0,-0.5", 1))
    assert main(["sample-y0", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {bad}: sigma of I.R.T.Pr = -0.5 is not strictly positive\n"


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_analyze_rejects_non_finite_cells(short_run, tmp_path, capsys, cell):
    lines = (short_run / "trajectory.csv").read_text().splitlines()
    header = lines[0].split(",")
    row = lines[3].split(",")
    row[header.index("y_D.R.A.PP")] = cell
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines[:3] + [",".join(row)] + lines[4:]) + "\n")
    out = tmp_path / "report"
    assert main(["analyze", str(bad), "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: row 3 after the header, column y_D.R.A.PP: ")
    assert "not a finite number" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda row: row[:3], "row 2 after the header has 3 values, the header names 48"),
        (lambda row: row[:3] + ["abc"] + row[4:],
         "row 2 after the header, column x_Q3: 'abc' is not a number"),
        (lambda row: row + [""], "row 2 after the header has 49 values, the header names 48"),
        # float() reads '1_0', so only numpy's own message can name it
        (lambda row: row[:1] + ["1_0"] + row[2:], "could not convert string '1_0'"),
    ],
    ids=["ragged", "not_a_number", "trailing_comma", "numpy_only"],
)
def test_analyze_names_the_row_and_column_it_cannot_parse(short_run, tmp_path, capsys,
                                                          edit, message):
    lines = (short_run / "trajectory.csv").read_text().splitlines()
    lines[2] = ",".join(edit(lines[2].split(",")))
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    out = tmp_path / "report"
    assert main(["analyze", str(bad), "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: {message}") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("verb", ["simulate", "analyze"])
def test_a_non_finite_report_is_not_written(short_run, tmp_path, monkeypatch, capsys, verb):
    monkeypatch.setattr(qgame.analysis, "analyze", lambda *args: {"utility": float("nan")})
    out = tmp_path / "out"
    source = qgame.case_study_path() if verb == "simulate" else short_run / "trajectory.csv"
    argv = [verb, str(source), "-o", str(out)] + (["--t-end", "0.1"] if verb == "simulate" else [])
    assert main(argv) == 1
    assert "not JSON compliant" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_output_over_a_file_exits_1(tmp_path):
    taken = tmp_path / "taken"
    taken.write_text("")
    proc = run_python("-m", "qgame", "simulate", str(qgame.case_study_path()),
                      "--t-end", "0.1", "-o", str(taken), timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: [Errno 17] File exists: ")
    assert str(taken) in proc.stderr
    assert "Traceback" not in proc.stderr


def test_simulate_write_failure_in_the_writer_process_exits_1(tmp_path):
    out = tmp_path / "out"
    (out / "trajectory.csv").mkdir(parents=True)
    proc = run_python("-m", "qgame", "simulate", str(qgame.case_study_path()),
                      "--t-end", "0.1", "-o", str(out), timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: [Errno 21] Is a directory: ")
    assert str(out / "trajectory.csv") in proc.stderr
    assert "Traceback" not in proc.stderr
    assert sorted(p.name for p in out.iterdir()) == ["trajectory.csv"]


def test_simulate_panel_write_failure_exits_1(tmp_path):
    out = tmp_path / "out"
    (out / "plotdata" / "x.csv").mkdir(parents=True)
    proc = run_python("-m", "qgame", "simulate", str(qgame.case_study_path()),
                      "--t-end", "0.1", "-o", str(out), timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: [Errno 21] Is a directory: ")
    assert str(out / "plotdata" / "x.csv") in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (out / "report.json").exists()


def test_simulate_reads_no_output_back(tmp_path, monkeypatch):
    """simulate writes every output from what it holds; this process opens
    no file of its own for reading."""
    import builtins

    reads = []

    def recording_open(file, mode="r", *args, **kwargs):
        if "r" in mode:
            reads.append(file)
        return builtins.open(file, mode, *args, **kwargs)

    monkeypatch.setattr(qgame.cli, "open", recording_open, raising=False)
    assert main(["simulate", str(qgame.case_study_path()), "-o", str(tmp_path),
                 "--t-end", "0.5"]) == 0
    assert reads == []


def test_writer_process_started_by_spawn_writes_the_same_bytes(short_run, tmp_path):
    """The start method used where a platform has no fork."""
    import multiprocessing

    from qgame.cli import _TrajectoryWriter, write_plotdata, write_trajectory_csv

    traj = read_trajectory_csv(short_run / "trajectory.csv")
    with _TrajectoryWriter(multiprocessing.get_context("spawn")) as writer:
        v = np.column_stack([traj.x, traj.z, traj.y])
        for start in range(0, len(traj), BLOCK):
            writer.add_samples(traj.t[start:start + BLOCK], v[start:start + BLOCK])
        write_trajectory_csv(traj, tmp_path / "trajectory.csv", writer)
        write_plotdata(traj, tmp_path / "plotdata", writer)
    assert (tmp_path / "trajectory.csv").read_bytes() == (short_run / "trajectory.csv").read_bytes()
    assert sorted(p.name for p in (tmp_path / "plotdata").iterdir()) == PANELS
    for name in PANELS:
        panel = (tmp_path / "plotdata" / name).read_bytes()
        assert panel == (short_run / "plotdata" / name).read_bytes(), name


def test_failed_simulate_leaves_no_directory_and_no_process(tmp_path, capsys):
    import multiprocessing

    out = tmp_path / "out"
    assert main(["simulate", str(qgame.case_study_path()), "--step", "0.5", "-o", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: at t=")
    assert not out.exists()
    assert multiprocessing.active_children() == []


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


def test_import_does_not_load_the_process_machinery():
    code = (
        "import sys, qgame, qgame.cli\n"
        "assert 'multiprocessing' not in sys.modules\n"
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr


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
    assert main(["simulate", str(qgame.case_study_path()), "-o", str(tmp_path),
                 "--t-end", "0.5"]) == 0
    again = read_trajectory_csv(tmp_path / "trajectory.csv")
    assert np.array_equal(again.y, traj.y)
    assert np.array_equal(again.t, traj.t)
