import argparse
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import qgame
from qgame.cli import READ_PART_ROWS, _line_ranges, build_parser, main, read_trajectory_csv
from qgame.dynamics import BLOCK, STATE_SUM_TOL
from qgame.errors import QGameError

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


TIGHT = {"method": "rk45", "tol": 1e-14}  # ~580 samples to t = 10


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


def block_run(method, samples, tight_rk45, out):
    """Simulates a case-study run of `samples` samples into `out`; returns
    the integrator settings of the same run."""
    if method == "rk4":
        scenario, t_end = qgame.case_study_path(), (samples - 1) * 0.01
        cfg = qgame.IntegratorConfig(step=0.01, t_end=t_end)
    else:
        scenario, times = tight_rk45
        t_end = float(times[samples - 1])
        cfg = qgame.IntegratorConfig(t_end=t_end, **TIGHT)
    assert main(["simulate", str(scenario), "-o", str(out), "--t-end", repr(t_end)]) == 0
    return cfg


@pytest.mark.parametrize("samples", [2, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
@pytest.mark.parametrize("method", ["rk4", "rk45"])
def test_csv_lines_across_block_boundaries(method, samples, tight_rk45, case_study, tmp_path):
    """Rows formatted block by block in the writer process are the rows of
    one in-process run, every cell at 17 significant digits."""
    cfg = block_run(method, samples, tight_rk45, tmp_path)
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


def test_analyze_matches_simulate_report(short_run, tight_rk45, tmp_path):
    """analyze rebuilds simulate's report.json byte for byte, also from runs
    whose last block of samples holds one row or three: the report and the
    utility cells come from the same per-block utility."""
    runs = [short_run]
    for method in ("rk4", "rk45"):
        for samples in (BLOCK + 1, 2 * BLOCK + 3):
            runs.append(tmp_path / f"{method}-{samples}")
            block_run(method, samples, tight_rk45, runs[-1])
    for i, out in enumerate(runs):
        again = tmp_path / f"again-{i}"
        assert main(["analyze", str(out / "trajectory.csv"), "-o", str(again)]) == 0
        a, b = (out / "report.json").read_bytes(), (again / "report.json").read_bytes()
        assert json.loads(a) == json.loads(b)
        assert a == b, out


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
    for name in ("accepted_steps", "rejected_steps", "field_evaluations", "recentrings",
                 "min_step", "max_step", "max_x_drift"):
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
    # 5001 rows, 20 blocks in the writer process and well over 256 KB of text
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


SEED_42_SHA256 = "ee80a428ecd05057ecab4d53009df81424b3539334e802cc9b92e440a7d04cfb"


def test_sample_y0_seed_42_bytes_are_pinned(tmp_path):
    # the 30000-row default sample: any change to the stream, the clip, the
    # tie rule or the formatting moves this hash
    out = tmp_path / "y0.csv"
    assert main(["sample-y0", str(DATA / "symmetric_distribution.csv"),
                 "--seed", "42", "-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SEED_42_SHA256


def test_sample_y0_runs_where_scipy_cannot_be_imported(tmp_path):
    # numpy is the one runtime dependency: a None entry makes `import scipy` fail
    out = tmp_path / "y0.csv"
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import qgame.cli\n"
        "sys.exit(qgame.cli.main(sys.argv[1:]))\n"
    )
    proc = run_python("-c", code, "sample-y0", str(DATA / "symmetric_distribution.csv"),
                      "--seed", "42", "-o", str(out), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SEED_42_SHA256


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


# exp of a log coordinate overflows within an rk4 step of 200; a step of
# 100 still completes (the field is bounded by max |S|)
OVERFLOWING_STEP = ["--step", "200", "--t-end", "400"]


def test_simulate_step_too_large_names_time_block_and_hint(tmp_path):
    proc = run_python("-m", "qgame", "simulate", str(qgame.case_study_path()),
                      *OVERFLOWING_STEP, "-o", str(tmp_path))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: at t=")
    assert "y[" in proc.stderr and "--method rk45" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_simulate_bad_step_names_the_setting_and_value(tmp_path, capsys):
    args = ["simulate", str(qgame.case_study_path()), "--step", "-1", "-o", str(tmp_path / "out")]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: step: ") and "-1" in err
    assert not (tmp_path / "out").exists()


def test_coarse_step_completes_on_the_simplex(tmp_path, capsys):
    """In log coordinates a step of 0.5 stays on the simplices and in
    [0, 1]: every written sample is a valid state."""
    assert main(["simulate", str(qgame.case_study_path()), "--step", "0.5",
                 "-o", str(tmp_path)]) == 0
    assert "sign-frequency limits: 1 1 0 1 1" in capsys.readouterr().out
    traj = read_trajectory_csv(tmp_path / "trajectory.csv")
    assert len(traj) == 101
    for k in range(len(traj)):
        qgame.GameState(x=traj.x[k], y=traj.y[k], z=traj.z[k]).validate()
    assert np.abs(traj.x.sum(axis=1) - 1.0).max() <= 1e-12
    assert np.abs(traj.y.sum(axis=1) - 1.0).max() <= 1e-12


def test_rk45_case_study_utility_is_nondecreasing_from_t0(tmp_path, capsys):
    """The rk45 utility climbs to 5 with no drop beyond UTILITY_SLACK."""
    assert main(["simulate", str(qgame.case_study_path()), "--method", "rk45",
                 "-o", str(tmp_path)]) == 0
    assert "nondecreasing from t=0)" in capsys.readouterr().out
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["utility"]["monotone_after"] == 0


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
    for code, sigma, what in [
        ("I.R.T.Pr", "-0.5", "is not strictly positive"),
        ("D.R.T.Pu", "1e308", "is too large: |mean| + 9 sigma overflows"),
    ]:
        bad.write_text(text.replace(f"{code},0.0,1.0", f"{code},0.0,{sigma}", 1))
        assert main(["sample-y0", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {bad}: sigma of {code} = {float(sigma)} {what}\n"


@pytest.mark.parametrize("verb", ["simulate", "analyze", "sample-y0", "flag"])
def test_an_input_that_is_not_utf8_names_the_file(tmp_path, capsys, verb):
    bad = tmp_path / "input"
    bad.write_bytes(b"\xff" + (DATA / "loadings.csv").read_bytes())
    assert main([verb, str(bad)] + (["-o", str(tmp_path / "out")] if verb != "flag" else [])) == 1
    assert capsys.readouterr().err == f"error: {bad}: not UTF-8 text\n"
    assert not (tmp_path / "out").exists()


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


LONG_ROWS = 3 * READ_PART_ROWS + 1  # three ranges on three CPUs, and an odd count


@pytest.fixture(scope="module")
def long_lines(tmp_path_factory):
    """The header and the first `LONG_ROWS` rows of a simulate run."""
    out = tmp_path_factory.mktemp("long_run")
    t_end = str(0.01 * (LONG_ROWS + 10))
    assert main(["simulate", str(qgame.case_study_path()), "-o", str(out), "--t-end", t_end]) == 0
    lines = (out / "trajectory.csv").read_text().splitlines()[:1 + LONG_ROWS]
    assert len(lines) == 1 + LONG_ROWS
    return lines


def write_lines(path: Path, lines: list[str]) -> Path:
    path.write_text("\n".join(lines) + "\n")
    return path


def spy_on_forks(monkeypatch) -> list:
    """Record the pid that each os.fork returns in this process."""
    forks = []
    fork = os.fork

    def spy():
        pid = fork()
        forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", spy)
    return forks


def all_columns(traj) -> np.ndarray:
    return np.column_stack([traj.t, traj.x, traj.z, traj.y, traj.utility])


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_split_parse_equals_one_process_bit_for_bit(monkeypatch, tmp_path, long_lines, cpus):
    path = write_lines(tmp_path / "trajectory.csv", long_lines)
    want = np.loadtxt(long_lines[1:], delimiter=",", ndmin=2)
    monkeypatch.setattr(qgame.cli, "_cpu_count", lambda: cpus)
    forks = spy_on_forks(monkeypatch)
    traj = read_trajectory_csv(path)
    assert len(forks) == (cpus if cpus > 1 else 0)
    assert all_columns(traj).tobytes() == want.tobytes()
    assert_no_child_left()


@pytest.mark.parametrize("where", ["first", "last"])
@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda row: row[:3] + ["abc"] + row[4:], ", column x_Q3: 'abc' is not a number"),
        (lambda row: row[:3], " has 3 values, the header names 48"),
    ],
    ids=["bad_cell", "short_row"],
)
def test_split_parse_fault_reads_as_in_one_process(monkeypatch, tmp_path, capsys, long_lines,
                                                   where, edit, message):
    row = 2 if where == "first" else LONG_ROWS
    lines = list(long_lines)
    lines[row] = ",".join(edit(lines[row].split(",")))
    bad = write_lines(tmp_path / "bad.csv", lines)
    monkeypatch.setattr(qgame.cli, "_cpu_count", lambda: 3)
    forks = spy_on_forks(monkeypatch)
    out = tmp_path / "report"
    assert main(["analyze", str(bad), "-o", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {bad}: row {row} after the header{message}\n"
    assert len(forks) == 3
    assert not out.exists()
    assert_no_child_left()


@pytest.mark.parametrize("cpus", [1, 3])
@pytest.mark.parametrize(
    "column, cell, message",
    [
        ("x_Q1", "7", "columns x_Q1 to x_Q5 sum to 7.00000"),
        ("x_Q2", "-3", "column x_Q2: -3.0 is negative"),
        ("z_Q3", "2.5", "column z_Q3: 2.5 is outside [0, 1]"),
        ("y_D.R.A.PP", "-1", "column y_D.R.A.PP: -1.0 is negative"),
        ("y_D.R.A.PP", "0.5", "columns y_D.R.T.Pu to y_I.C.A.PP sum to 0.50022"),
        ("z_Q5", "-0.0001", "column z_Q5: -0.0001 is outside [0, 1]"),
    ],
    ids=["x_sum", "x_negative", "z_above", "y_negative", "y_sum", "z_below"],
)
def test_analyze_rejects_a_row_that_is_not_a_state(monkeypatch, tmp_path, capsys, long_lines,
                                                   cpus, column, cell, message):
    """Each fault names the row and the column, the same from the forked
    parse and from the one-process parse."""
    lines = list(long_lines)
    row = lines[1000].split(",")
    row[lines[0].split(",").index(column)] = cell
    lines[1000] = ",".join(row)
    bad = write_lines(tmp_path / "bad.csv", lines)
    monkeypatch.setattr(qgame.cli, "_cpu_count", lambda: cpus)
    forks = spy_on_forks(monkeypatch)
    out = tmp_path / "report"
    assert main(["analyze", str(bad), "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: row 1000 after the header, {message}")
    assert err.count("\n") == 1
    assert len(forks) == (cpus if cpus > 1 else 0)
    assert not out.exists()
    assert_no_child_left()


def with_blank_lines(lines: list[str]) -> list[str]:
    """`lines` with a blank line above the header and an empty and a
    whitespace-only line above row 500: row r from 500 on sits on line
    r + 2 after the header."""
    return [""] + lines[:500] + ["", "  \t"] + lines[500:]


@pytest.mark.parametrize("cpus", [1, 3])
@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda row: row[:3], " has 3 values, the header names 48"),
        (lambda row: row[:3] + ["abc"] + row[4:], ", column x_Q3: 'abc' is not a number"),
        (lambda row: row[:37] + ["inf"] + row[38:],
         ", column y_D.R.A.PP: inf is not a finite number"),
        (lambda row: row[:2] + ["-3"] + row[3:], ", column x_Q2: -3.0 is negative"),
        (lambda row: ["0"] + row[1:], ": t = 0.0 does not rise above the previous row's 9.98"),
    ],
    ids=["width", "not_a_number", "not_finite", "not_a_state", "t_not_rising"],
)
def test_row_numbers_count_blank_lines(monkeypatch, tmp_path, capsys, long_lines, cpus, edit,
                                       message):
    """A fault names the line after the header that it sits on, counting
    the blank lines the reader skips, the same from both read paths."""
    lines = list(long_lines)
    lines[1000] = ",".join(edit(lines[1000].split(",")))
    bad = write_lines(tmp_path / "bad.csv", with_blank_lines(lines))
    monkeypatch.setattr(qgame.cli, "_cpu_count", lambda: cpus)
    forks = spy_on_forks(monkeypatch)
    out = tmp_path / "report"
    assert main(["analyze", str(bad), "-o", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {bad}: row 1002 after the header{message}\n"
    assert len(forks) == (cpus if cpus > 1 else 0)
    assert not out.exists()
    assert_no_child_left()


@pytest.mark.parametrize("cpus", [1, 3])
def test_blank_lines_read_as_if_absent(monkeypatch, tmp_path, long_lines, cpus):
    path = write_lines(tmp_path / "trajectory.csv", with_blank_lines(long_lines) + [""])
    monkeypatch.setattr(qgame.cli, "_cpu_count", lambda: cpus)
    want = np.loadtxt(long_lines[1:], delimiter=",", ndmin=2)
    assert all_columns(read_trajectory_csv(path)).tobytes() == want.tobytes()


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("trailing", [False, True], ids=["comment_line", "trailing_comment"])
def test_a_hash_is_not_a_comment(monkeypatch, tmp_path, capsys, long_lines, cpus, trailing):
    """np.loadtxt would read `#` as the start of a comment, and trajectory.csv
    has none: a `# note` line and a `#x` after a row's last cell each name
    their row, from the forked and the one-process parse."""
    lines = list(long_lines)
    if trailing:
        lines[1000] += "#x"
        message = f", column utility: {lines[1000].split(',')[-1]!r} is not a number"
    else:
        lines.insert(1000, "# note")
        message = " has 1 values, the header names 48"
    bad = write_lines(tmp_path / "bad.csv", lines)
    monkeypatch.setattr(qgame.cli, "_cpu_count", lambda: cpus)
    forks = spy_on_forks(monkeypatch)
    out = tmp_path / "report"
    assert main(["analyze", str(bad), "-o", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {bad}: row 1000 after the header{message}\n"
    assert len(forks) == (cpus if cpus > 1 else 0)
    assert not out.exists()
    assert_no_child_left()


def columns_of(header: list[str], block: str) -> list[str]:
    return [name for name in header if name.startswith(block + "_")]


@pytest.mark.parametrize(
    "column, edit, rejected",
    [
        ("x_Q1", lambda cell: "7", True),
        ("x_Q2", lambda cell: "-3", True),
        ("z_Q3", lambda cell: "2.5", True),
        ("y_D.R.A.PP", lambda cell: "-1", True),
        ("utility", lambda cell: "1e300", False),
        # sums off 1 by just over and just under the tolerance
        ("y_D.R.A.PP", lambda cell: repr(float(cell) + 2 * STATE_SUM_TOL), True),
        ("y_D.R.A.PP", lambda cell: repr(float(cell) + STATE_SUM_TOL / 2), False),
    ],
    ids=["x_sum", "x_negative", "z_above", "y_negative", "utility", "y_sum_over_tol",
         "y_sum_under_tol"],
)
def test_validate_and_analyze_apply_one_state_rule(tmp_path, long_lines, column, edit, rejected):
    """GameState.validate on an edited row and read_trajectory_csv on a
    file holding it name the same block, entry and value, or both accept
    the row."""
    header = long_lines[0].split(",")
    row = long_lines[1000].split(",")
    j = header.index(column)
    row[j] = edit(row[j])
    values = dict(zip(header, map(float, row)))
    state = qgame.GameState(
        **{block: [values[name] for name in columns_of(header, block)] for block in "xyz"}
    )
    path = write_lines(tmp_path / "edited.csv", long_lines[:1000] + [",".join(row)]
                       + long_lines[1001:])
    faults = []
    for check in (state.validate, lambda: read_trajectory_csv(path)):
        try:
            check()
        except QGameError as exc:
            faults.append(str(exc))
    if not rejected:
        assert faults == []
        return
    fault, read_fault = faults
    if entry := re.fullmatch(r"(\w)\[(\d+)\] = (.*)", fault):
        block, i, text = entry.groups()
        want = f"column {columns_of(header, block)[int(i)]}: {text}"
    else:
        block, text = re.fullmatch(r"(\w) sums to (.*)", fault).groups()
        names = columns_of(header, block)
        want = f"columns {names[0]} to {names[-1]} sum to {text}"
    assert read_fault == f"{path}: row 1000 after the header, {want}"


@pytest.mark.parametrize("edit, values",[(lambda row: row[:1], 1), (lambda row: row + ["0"], 49)],
                         ids=["narrow", "wide"])
def test_a_range_of_one_other_width_reads_as_in_one_process(monkeypatch, tmp_path, capsys,
                                                            long_lines, edit, values):
    """Every row of the last range has the same wrong width, so np.loadtxt
    parses that range without a fault: only the child's check of its shape
    keeps rows one value wide from broadcasting into the result."""
    first = 2 * LONG_ROWS // 3 + 1  # the last range's first row on three CPUs
    lines = list(long_lines[:first]) + [",".join(edit(ln.split(","))) for ln in long_lines[first:]]
    bad = write_lines(tmp_path / "bad.csv", lines)
    monkeypatch.setattr(qgame.cli, "_cpu_count", lambda: 3)
    forks = spy_on_forks(monkeypatch)
    out = tmp_path / "report"
    assert main(["analyze", str(bad), "-o", str(out)]) == 1
    message = f"row {first} after the header has {values} values, the header names 48"
    assert capsys.readouterr().err == f"error: {bad}: {message}\n"
    assert len(forks) == 3
    assert not out.exists()
    assert_no_child_left()


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("edit, values", [(lambda row: row[:-1], 47), (lambda row: row + ["0"], 49)],
                         ids=["narrow", "wide"])
def test_a_file_of_one_other_width_names_its_first_row(monkeypatch, tmp_path, capsys, long_lines,
                                                       cpus, edit, values):
    """Every row has the same wrong width, so np.loadtxt parses the whole
    file without a fault: the fault still names the first row."""
    lines = long_lines[:1] + [",".join(edit(ln.split(","))) for ln in long_lines[1:]]
    bad = write_lines(tmp_path / "bad.csv", lines)
    monkeypatch.setattr(qgame.cli, "_cpu_count", lambda: cpus)
    forks = spy_on_forks(monkeypatch)
    out = tmp_path / "report"
    assert main(["analyze", str(bad), "-o", str(out)]) == 1
    message = f"row 1 after the header has {values} values, the header names 48"
    assert capsys.readouterr().err == f"error: {bad}: {message}\n"
    assert len(forks) == (cpus if cpus > 1 else 0)
    assert not out.exists()
    assert_no_child_left()


def test_a_fault_in_the_first_range_returns_promptly(tmp_path, long_lines):
    """The first range's child fails while the next child parses a range
    that does: the parent waits only for the children to exit, and reads
    the fault from one process."""
    lines = list(long_lines)
    lines[2] += ",0"
    bad = write_lines(tmp_path / "bad.csv", lines)
    code = (
        "import sys, qgame.cli\n"
        "qgame.cli._cpu_count = lambda: 2\n"
        "sys.exit(qgame.cli.main(sys.argv[1:]))\n"
    )
    proc = run_python("-c", code, "analyze", str(bad), "-o", str(tmp_path / "r"), timeout=60)
    assert proc.returncode == 1
    message = "row 2 after the header has 49 values, the header names 48"
    assert proc.stderr == f"error: {bad}: {message}\n"


def test_a_fork_that_fails_partway_waits_for_the_started_children(monkeypatch, tmp_path,
                                                                  long_lines):
    path = write_lines(tmp_path / "trajectory.csv", long_lines)
    monkeypatch.setattr(qgame.cli, "_cpu_count", lambda: 3)
    forks = spy_on_forks(monkeypatch)
    fork = os.fork

    def fail_second():
        if forks:
            raise OSError(11, "Resource temporarily unavailable")
        return fork()

    monkeypatch.setattr(os, "fork", fail_second)
    traj = read_trajectory_csv(path)
    assert len(forks) == 1
    want = np.loadtxt(long_lines[1:], delimiter=",", ndmin=2)
    assert all_columns(traj).tobytes() == want.tobytes()
    assert_no_child_left()


@pytest.mark.parametrize(
    "rows, cpus, long_last_line",
    [(LONG_ROWS, None, False), (2 * READ_PART_ROWS - 1, 8, False), (1100, 2, True)],
    ids=["one-cpu", "short-file", "long-last-line"],
)
def test_fewer_than_two_ranges_start_no_process(monkeypatch, tmp_path, long_lines, rows, cpus,
                                                long_last_line):
    """long-last-line: zeros that end the last row's x_Q1 cell make that row
    over half the file, so the one cut on two CPUs falls at the file's end
    and one range is left."""
    lines = long_lines[:1 + rows]
    if long_last_line:
        cells = lines[-1].split(",")
        cells[1] += "0" * sum(map(len, lines))
        lines = lines[:-1] + [",".join(cells)]
    path = write_lines(tmp_path / "trajectory.csv", lines)
    if cpus is None:  # the CPU count comes from the affinity mask, as under taskset
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    else:
        monkeypatch.setattr(qgame.cli, "_cpu_count", lambda: cpus)
    forks = spy_on_forks(monkeypatch)
    traj = read_trajectory_csv(path)
    assert forks == []
    want = np.loadtxt(long_lines[1:1 + rows], delimiter=",", ndmin=2)
    assert all_columns(traj).tobytes() == want.tobytes()


def test_line_ranges_cut_after_line_feeds_and_count_each_range():
    """Seeded files of lines 0 to 140 KB long, some with no final newline,
    so that many targets fall in a line that crosses the 64 KB read buffer:
    the cuts run from `start` to the end, ascend, and each one between
    follows a line feed; each count is its range's line feeds, plus one for
    a last line with no end."""
    rng = random.Random(0)
    for _ in range(300):
        lines = [b"x" * rng.randrange(rng.choice((2, 100, 140_000)))
                 for _ in range(rng.randint(1, 8))]
        data = b"\n".join(lines) + b"\n" * (rng.random() < 0.7)
        start = rng.choice((0, data.find(b"\n") + 1))  # 0 or the first line's end
        k = rng.randint(2, 5)
        cuts, counts = _line_ranges(io.BytesIO(data), start, len(data), k)
        assert cuts[0] == start and cuts[-1] == len(data) and len(counts) <= k
        assert all(lo < hi for lo, hi in zip(cuts, cuts[1:]))
        assert all(data[cut - 1] == ord("\n") for cut in cuts[1:-1])
        assert counts == [data.count(b"\n", lo, hi) + (hi == len(data) and data[-1:] != b"\n")
                          for lo, hi in zip(cuts, cuts[1:])]


def test_the_forked_read_holds_no_text(monkeypatch, tmp_path, long_lines):
    """On the forked path this process reads the header and counts line
    ends: the rows land in a shared mapping, which tracemalloc does not
    see, and their text is read only by the children."""
    path = write_lines(tmp_path / "trajectory.csv", long_lines)
    monkeypatch.setattr(qgame.cli, "_cpu_count", lambda: 2)
    forks = spy_on_forks(monkeypatch)
    tracemalloc.start()
    try:
        traj = read_trajectory_csv(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(forks) == 2
    assert peak < path.stat().st_size / 8  # the lines alone are the file's size
    want = np.loadtxt(long_lines[1:], delimiter=",", ndmin=2)
    assert all_columns(traj).tobytes() == want.tobytes()


def odd_file(lines: list[str], edit: str, rng: random.Random) -> bytes:
    """The bytes of `lines`, the header and `LONG_ROWS` rows, with one edit
    that a reader of byte ranges could take otherwise than one of lines.
    The rows picked by `rng` sit inside the second and the last of three
    ranges where the edit names one."""
    rows = [line.encode() for line in lines]
    second, last = rng.randrange(600, 940), rng.randrange(1100, LONG_ROWS)
    end = b"\n"
    if edit == "crlf":
        end = b"\r\n"
    elif edit == "blank_and_cr_lines":
        rows[second:second] = [b"", b"\r"] if rng.random() < 0.5 else [b"\r", b"", b"\r"]
    elif edit == "not_utf8":
        cell = rng.randrange(len(rows[last]))
        rows[last] = rows[last][:cell] + b"\xff" + rows[last][cell + 1:]
    elif edit == "truncated_last_row":
        rows[-1] = rows[-1][:rng.randrange(1, len(rows[-1]))]
    elif edit == "dropped_row":
        del rows[rng.randrange(1, len(rows))]
    elif edit == "duplicated_row":
        row = rng.randrange(1, len(rows))
        rows.insert(row, rows[row])
    elif edit == "swapped_rows":
        row = rng.randrange(1, len(rows) - 1)
        rows[row:row + 2] = rows[row + 1], rows[row]
    elif edit == "empty_last_range":  # as many empty lines as the rows have bytes
        rows += [b""] * sum(map(len, rows))
    elif edit == "header_only":
        rows = rows[:1]
    elif edit == "blank_lines_only":
        rows = [b"", b" ", b"\t"]
    elif edit == "header_ends_in_cr":
        rows[:2] = [rows[0] + b"\r" + rows[1]]
    elif edit == "1100_rows":
        rows = rows[:1101]
    text = end.join(rows) + end
    return text[:-len(end)] if edit == "no_final_newline" else text


# (edit, forked, exit code): the forked result stands, or the file is read
# again in one process, as where a range's line count is not its row count
ODD_FILES = [
    ("crlf", True, 0),
    ("no_final_newline", True, 0),
    ("dropped_row", True, 0),
    ("blank_and_cr_lines", False, 0),
    ("not_utf8", False, 1),
    ("truncated_last_row", False, 1),
    ("duplicated_row", False, 1),
    ("swapped_rows", False, 1),
]
UNSEEDED = ("crlf", "no_final_newline")


@pytest.mark.parametrize(
    "edit, forked, code, seed",
    [(*odd, seed) for odd in ODD_FILES for seed in ([0] if odd[0] in UNSEEDED else [0, 1])],
)
def test_both_read_paths_agree_on_odd_files(monkeypatch, tmp_path, capfd, long_lines, edit,
                                            forked, code, seed):
    """The one-process and the forked reader give the same exit code, the
    same stderr, with any output of the children, and the same report.json
    bytes."""
    bad = tmp_path / "trajectory.csv"
    bad.write_bytes(odd_file(long_lines, edit, random.Random(seed)))
    reads = []
    reading = qgame.cli.reading
    monkeypatch.setattr(qgame.cli, "reading", lambda path: reads.append(path) or reading(path))
    got, _, forks = analyze_on_one_and_three_cpus(monkeypatch, tmp_path, capfd, bad)
    assert (got, forks) == (code, 3)
    assert len(reads) == (1 if forked else 2)  # one CPU's read, and three's where it falls back


@pytest.mark.parametrize(
    "edit, code, forks",
    [("header_only", 1, 0), ("blank_lines_only", 1, 0), ("header_ends_in_cr", 0, 0),
     ("1100_rows", 0, 2)],
)
def test_both_read_paths_agree_where_the_reader_decides_before_forking(
        monkeypatch, tmp_path, capfd, long_lines, edit, code, forks):
    """A file with no rows, or whose header ends in a lone \\r that a binary
    file's lines do not end, forks nothing; 1100 rows on three CPUs are cut
    again into two ranges, as READ_PART_ROWS allows."""
    bad = tmp_path / "trajectory.csv"
    bad.write_bytes(odd_file(long_lines, edit, random.Random(0)))
    got, err, got_forks = analyze_on_one_and_three_cpus(monkeypatch, tmp_path, capfd, bad)
    assert (got, got_forks) == (code, forks)
    if code:
        assert err == f"error: {bad}: no trajectory rows\n"


def analyze_on_one_and_three_cpus(monkeypatch, tmp_path, capfd, path) -> tuple:
    """`analyze` of `path` on one CPU, which forks nothing, and on three:
    both give the same exit code, the same stderr, with any output of the
    children, and the same report.json bytes, and leave no child. Returns
    the exit code, the stderr and the number of forks on three CPUs."""
    forks = spy_on_forks(monkeypatch)
    seen = []
    for cpus in (1, 3):
        monkeypatch.setattr(qgame.cli, "_cpu_count", lambda: cpus)
        del forks[:]
        out = tmp_path / f"cpus{cpus}"
        seen.append((main(["analyze", str(path), "-o", str(out)]), capfd.readouterr().err,
                     (out / "report.json").exists() and (out / "report.json").read_bytes()))
        assert_no_child_left()
        assert forks == [] or cpus > 1
    assert seen[0] == seen[1]
    code, err, _ = seen[0]
    return code, err, len(forks)


def test_a_range_of_empty_lines_is_read_without_a_warning(tmp_path, long_lines):
    """np.loadtxt warns of a range of empty lines, which parses to no rows:
    its child fails the range without printing the warning, and the file
    is read again in one process."""
    bad = tmp_path / "trajectory.csv"
    bad.write_bytes(odd_file(long_lines, "empty_last_range", random.Random(0)))
    code = (
        "import sys, qgame.cli\n"
        "qgame.cli._cpu_count = lambda: 3\n"
        "sys.exit(qgame.cli.main(sys.argv[1:]))\n"
    )
    proc = run_python("-c", code, "analyze", str(bad), "-o", str(tmp_path / "r"), timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_a_fifo_is_opened_once(tmp_path, long_lines):
    """A FIFO's text can be read only once, and its writer fails if the
    reader closes it early: on two CPUs the FIFO is opened only by the
    one-process read, as a file would be."""
    path = write_lines(tmp_path / "trajectory.csv", long_lines)
    fifo = tmp_path / "fifo.csv"
    os.mkfifo(fifo)
    code = (
        "import sys, threading, qgame.cli\n"
        "qgame.cli._cpu_count = lambda: 2\n"
        "def feed():\n"
        "    with open(sys.argv[1]) as text, open(sys.argv[2], 'w') as fh:\n"
        "        fh.write(text.read())\n"
        "threading.Thread(target=feed, daemon=True).start()\n"
        "sys.exit(qgame.cli.main(['analyze', sys.argv[2], '-o', sys.argv[3]]))\n"
    )
    proc = run_python("-c", code, str(path), str(fifo), str(tmp_path / "fifo"), timeout=30)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert main(["analyze", str(path), "-o", str(tmp_path / "file")]) == 0
    report = (tmp_path / "fifo" / "report.json").read_bytes()
    assert report == (tmp_path / "file" / "report.json").read_bytes()


@pytest.mark.parametrize("verb", ["simulate", "analyze"])
def test_a_non_finite_report_is_not_written(short_run, tmp_path, monkeypatch, capsys, verb):
    monkeypatch.setattr(qgame.analysis, "analyze", lambda *args: {"utility": float("nan")})
    out = tmp_path / "out"
    source = qgame.case_study_path() if verb == "simulate" else short_run / "trajectory.csv"
    argv = [verb, str(source), "-o", str(out)] + (["--t-end", "0.1"] if verb == "simulate" else [])
    assert main(argv) == 1
    assert "not JSON compliant" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.skipif(not Path("/proc/self").exists(), reason="needs a /proc to refuse an output")
@pytest.mark.parametrize(
    "verb, output, named",
    [
        ("simulate", "/proc/qgame/out", "/proc/qgame"),
        ("sample-y0", "/proc/qgame/y0.csv", "/proc/qgame"),
        ("analyze", "/proc/qgame/out", "/proc/qgame"),
        ("simulate", "/proc/self", "/proc/self/trajectory.csv"),
        ("sample-y0", "/proc/self/y0.csv", "/proc/self/y0.csv"),
        ("analyze", "/proc/self", "/proc/self/report.json"),
    ],
    ids=["simulate", "sample-y0", "analyze", "simulate-file", "sample-y0-file", "analyze-file"],
)
def test_an_output_directory_that_cannot_be_made_exits_1(short_run, capsys, verb, output, named):
    """Exit 2 is for a missing input; /proc refuses a new directory, and a
    new file in an existing one, with the same errno, and both are output
    faults."""
    argv = {
        "simulate": ["simulate", str(qgame.case_study_path()), "--t-end", "0.1"],
        "sample-y0": ["sample-y0", str(DATA / "symmetric_distribution.csv")],
        "analyze": ["analyze", str(short_run / "trajectory.csv")],
    }[verb]
    assert main([*argv, "-o", output]) == 1
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{named}'\n"


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


def test_writer_process_started_by_spawn_writes_the_same_bytes(short_run, tmp_path, monkeypatch):
    """The start method used where a platform has no fork."""
    import multiprocessing

    from qgame.cli import _header, _TrajectoryWriter, write_plotdata, write_trajectory_csv

    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    traj = read_trajectory_csv(short_run / "trajectory.csv")
    header = _header(traj.factor_labels, traj.strategy_labels)
    with _TrajectoryWriter(header) as writer:
        assert type(writer._proc).__name__ == "SpawnProcess"
        rows = np.column_stack([traj.t, traj.x, traj.z, traj.y, traj.utility])
        for start in range(0, len(traj), BLOCK):
            writer.add_samples(rows[start:start + BLOCK])
        write_trajectory_csv(traj, tmp_path / "trajectory.csv", writer)
        write_plotdata(traj, tmp_path / "plotdata", writer)
    assert (tmp_path / "trajectory.csv").read_bytes() == (short_run / "trajectory.csv").read_bytes()
    assert sorted(p.name for p in (tmp_path / "plotdata").iterdir()) == PANELS
    for name in PANELS:
        panel = (tmp_path / "plotdata" / name).read_bytes()
        assert panel == (short_run / "plotdata" / name).read_bytes(), name


def ends_after_one_block(conn, parent_end, header):
    """A writer process body that reads one block of rows and exits."""
    parent_end.close()
    conn.recv()


@pytest.mark.parametrize("t_end", [[], ["--t-end", "1"]], ids=["many-blocks", "one-block"])
def test_a_writer_process_that_ends_is_reported(tmp_path, monkeypatch, capsys, t_end):
    """Whether the parent finds the writer process gone while sending a
    block or a write request, or waiting for the reply, the run fails
    naming the file it did not write."""
    import multiprocessing

    monkeypatch.setattr(qgame.cli, "_format_rows", ends_after_one_block)
    out = tmp_path / "out"
    assert main(["simulate", str(qgame.case_study_path()), "-o", str(out), *t_end]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {out / 'trajectory.csv'}: the writer process ended without writing it\n"
    assert not (out / "report.json").exists()
    assert multiprocessing.active_children() == []


def test_a_writer_process_that_outlives_its_wait_is_killed(tmp_path, monkeypatch):
    """Once its pipe is closed, the writer process has WRITER_EXIT_S to
    exit before it is killed, and the run still succeeds."""
    import multiprocessing
    import time

    format_rows = qgame.cli._format_rows

    def lingers(*args):
        format_rows(*args)
        time.sleep(60)

    monkeypatch.setattr(qgame.cli, "_format_rows", lingers)
    monkeypatch.setattr(qgame.cli, "WRITER_EXIT_S", 0.2)
    out = tmp_path / "out"
    start = time.monotonic()
    assert main(["simulate", str(qgame.case_study_path()), "-o", str(out), "--t-end", "0.5"]) == 0
    assert time.monotonic() - start < 30
    assert (out / "report.json").exists()
    assert multiprocessing.active_children() == []


def test_failed_simulate_leaves_no_directory_and_no_process(tmp_path, capsys):
    import multiprocessing

    out = tmp_path / "out"
    assert main(["simulate", str(qgame.case_study_path()), *OVERFLOWING_STEP, "-o", str(out)]) == 1
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


WATCHED = ("numpy.random", "scipy", "multiprocessing", "mmap", "signal", "hashlib")


@pytest.fixture(scope="module")
def loaded_after(tmp_path_factory):
    """One fresh interpreter runs `import qgame`, loads a scenario, runs
    simulate and analyze, then a first `sample_y0`; maps each step to the
    WATCHED modules in sys.modules after it, and to "brackets" once the
    sampler's bracket table is built."""
    out = tmp_path_factory.mktemp("steps")
    code = (
        "import sys\n"
        "def loaded():\n"
        f"    print('loaded', *[m for m in {WATCHED!r} if m in sys.modules],\n"
        "          *['brackets'] * qgame.sampling._brackets.cache_info().currsize)\n"
        "import qgame, qgame.cli\n"
        "loaded()\n"
        "qgame.load_scenario(qgame.case_study_path())\n"
        "loaded()\n"
        "out = sys.argv[1]\n"
        "assert qgame.cli.main(['simulate', str(qgame.case_study_path()), '-o', out,\n"
        "                       '--t-end', '0.5']) == 0\n"
        "assert qgame.cli.main(['analyze', out + '/trajectory.csv', '-o', out + '/a']) == 0\n"
        "loaded()\n"
        "dist = qgame.load_distribution(sys.argv[2])\n"
        "qgame.sample_y0(dist, qgame.SamplerConfig(n_sequences=10))\n"
        "loaded()\n"
    )
    proc = run_python("-c", code, str(out), str(DATA / "symmetric_distribution.csv"))
    assert proc.returncode == 0, proc.stderr
    steps = ["import", "load_scenario", "simulate+analyze", "sample_y0"]
    found = [line.split()[1:] for line in proc.stdout.splitlines() if line.startswith("loaded")]
    return dict(zip(steps, map(set, found), strict=True))


def test_import_does_not_load_the_process_machinery(loaded_after):
    assert loaded_after["import"] == set()


def test_loading_a_scenario_does_not_import_scipy(loaded_after):
    assert loaded_after["load_scenario"] == set()


def test_each_step_loads_only_what_it_needs(loaded_after):
    """simulate and analyze load no sampler module, no OpenSSL and build no
    bracket table; the first `sample_y0` loads numpy.random and builds the
    table, which shows the checks can fail, and still loads no scipy."""
    assert loaded_after["simulate+analyze"].isdisjoint({"numpy.random", "scipy", "hashlib",
                                                         "brackets"})
    assert {"numpy.random", "brackets"} <= loaded_after["sample_y0"]
    assert "scipy" not in loaded_after["sample_y0"]


def test_round_trip_writer_reader(tmp_path, case_study):
    traj = qgame.run_scenario(case_study, qgame.IntegratorConfig(step=0.01, t_end=0.5))
    assert main(["simulate", str(qgame.case_study_path()), "-o", str(tmp_path),
                 "--t-end", "0.5"]) == 0
    again = read_trajectory_csv(tmp_path / "trajectory.csv")
    assert np.array_equal(again.y, traj.y)
    assert np.array_equal(again.t, traj.t)
