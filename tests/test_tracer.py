"""perfbench's tracer, loaded as it is, against the functions it wraps.

perfbench/tracer.py replaces functions at the module attributes their
callers look up. This runs it over one simulate and one analyze, so that
a renamed or reordered traced function fails here and not in the next
traced benchmark run.
"""

import importlib.util
from pathlib import Path

import qgame
import qgame.analysis
import qgame.cli
import qgame.scenario

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
MODULES = {"qgame.cli": qgame.cli, "qgame.scenario": qgame.scenario, "qgame.analysis": qgame.analysis}

# each span's children, in call order, for simulate of the case study and
# analyze of its trajectory
SIMULATE_TREE = {
    "op": ["cli.main"],
    "cli.main": ["scenario.load_scenario", "scenario.run_scenario", "analysis.analyze",
                 "cli.write_trajectory_csv", "cli.write_plotdata"],
    "scenario.load_scenario": ["qdata.load_zscores", "qdata.load_loadings",
                               "qdata.load_share_table"],
    "scenario.run_scenario": ["dynamics.integrate"],
}
ANALYZE_TREE = {"op": ["cli.main"], "cli.main": ["cli.read_trajectory_csv", "analysis.analyze"]}


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_ok(argv):
    assert qgame.cli.main(argv) == 0


def test_tracer_wraps_every_target_and_its_spans_nest(tmp_path):
    tracing = load_tracer()
    tracer = tracing.Tracer()
    out = tmp_path / "out"
    tracer.install(MODULES)
    try:
        for module, attr, _ in tracing.TARGETS:
            assert hasattr(getattr(MODULES[module], attr), "__wrapped__"), (module, attr)
        tracer.operation(0, 0, run_ok, ["simulate", str(qgame.case_study_path()),
                                        "--t-end", "0.1", "-o", str(out)])
        tracer.operation(1, 0, run_ok, ["analyze", str(out / "trajectory.csv"),
                                        "-o", str(tmp_path / "again")])
    finally:
        tracer.uninstall()
    for module, attr, _ in tracing.TARGETS:
        assert not hasattr(getattr(MODULES[module], attr), "__wrapped__"), (module, attr)

    spans = tracer.spans
    for span in spans:
        assert span["start"] <= span["end"]
        if span["parent"] is not None:
            parent = spans[span["parent"]]
            assert parent["op"] == span["op"]
            assert parent["start"] <= span["start"] and span["end"] <= parent["end"]
    assert min(tracing.self_times(spans).values()) >= 0

    for op, tree in ((0, SIMULATE_TREE), (1, ANALYZE_TREE)):
        got = {}
        for span in spans:
            if span["op"] == op and span["parent"] is not None:
                got.setdefault(spans[span["parent"]]["name"], []).append(span["name"])
        assert got == tree

    counts = {s["name"]: s["counts"] for s in spans}
    assert counts["cli.write_trajectory_csv"]["bytes_written"] > 0
    assert counts["cli.write_plotdata"]["bytes_written"] > 0
    size = (out / "trajectory.csv").stat().st_size
    assert counts["cli.read_trajectory_csv"] == {"bytes_read": size}
    assert counts["dynamics.integrate"]["samples"] == 11
