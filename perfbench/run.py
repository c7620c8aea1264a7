"""qgame benchmark: one workload, one seed, timed end to end or traced per module.

    python3 perfbench/run.py --workload simulate-rk4 --seed 1 --seconds 35 --trace 0

Run from anywhere inside a checkout; the package is taken from the
checkout's ``src``. Each run

1. generates the workload's inputs from the seed (untimed),
2. runs the workload as a closed loop with one client in one fresh
   interpreter with BLAS pools limited to one thread (worker.py),
   checking every operation's output, and between operations times
   fresh interpreters that import qgame and load the workload's
   scenario (``setup_s``, the median),
3. prints each metric by name with its unit, and as the last line one
   JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Every time is scaled to a reference CPU speed with the kernel of
calibrate.py; the raw wall times are printed beside the scaled ones.

With ``--trace 0`` the metrics are the end-to-end set, with ``--trace 1``
the per-layer set from spans recorded around the calls into each module
(tracer.py). Scratch files live in ``perfbench/.work/<workload>/``.
The exit status is 0 when a result was printed, whether or not every
operation passed its check; it is 1 when no result could be measured.
Any failed operation sets ``correct`` to false: that flag is the gate,
and ``ok_ratio`` only tracks the rate.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
# before numpy is imported, here and in every process started from here
os.environ.update({var: "1" for var in BLAS_THREAD_VARS})

from calibrate import REF_S, scale  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CASESTUDY = SRC / "qgame" / "scenarios" / "casestudy.json"
DISTRIBUTION = SRC / "qgame" / "data" / "symmetric_distribution.csv"

WORKLOADS = ("simulate-rk4", "sweep-y0", "reanalyze")
TIME_BUDGET_S = 170    # the whole run, set-up included
TAIL_BEYOND = 10       # operations that must lie beyond the tail percentile

# per-layer time metric -> spans whose self times it sums
LAYER_SPANS = {
    "cli.self_s": ("cli.main",),
    "cli.write_trajectory_s": ("cli.write_trajectory_csv",),
    "cli.write_plotdata_s": ("cli.write_plotdata",),
    "cli.read_trajectory_s": ("cli.read_trajectory_csv",),
    "scenario.load_scenario_s": ("scenario.load_scenario",),
    "qdata.read_s": ("qdata.load_zscores", "qdata.load_loadings", "qdata.load_share_table"),
    "sampling.load_distribution_s": ("sampling.load_distribution",),
    "sampling.sample_y0_s": ("sampling.sample_y0",),
    "dynamics.integrate_s": ("dynamics.integrate",),
    "analysis.analyze_s": ("analysis.analyze",),
}
# per-layer count metric -> (spans, count recorded on them)
LAYER_COUNTS = {
    "dynamics.accepted_steps": (("dynamics.integrate",), "accepted_steps"),
    "dynamics.samples": (("dynamics.integrate",), "samples"),
    "cli.bytes_written": (("cli.write_trajectory_csv", "cli.write_plotdata"), "bytes_written"),
    "cli.bytes_read": (("cli.read_trajectory_csv",), "bytes_read"),
    "sampling.draws": (("sampling.sample_y0",), "draws"),
    "analysis.samples": (("analysis.analyze",), "samples"),
}


class BenchError(Exception):
    """No result can be measured."""


def remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError(f"time budget of {TIME_BUDGET_S} s used up")
    return left


def write_sweep_scenario(path: Path) -> None:
    """The case study with y0 sampled over the symmetric distribution and
    integrated by RK45 to the same horizon; table paths made absolute."""
    case = json.loads(CASESTUDY.read_text(encoding="utf-8"))
    sweep = dict(case)
    for key in ("zscores", "loadings"):
        sweep[key] = str((CASESTUDY.parent / case[key]).resolve())
    sweep["y0"] = {"mode": "sample", "distribution": str(DISTRIBUTION), "n_sequences": 30000, "seed": 0}
    sweep["integrator"] = {"method": "rk45", "t_end": case["integrator"]["t_end"]}
    path.write_text(json.dumps(sweep, indent=2) + "\n", encoding="utf-8")


def make_inputs(args, work: Path, env: dict, deadline: float) -> dict:
    """The worker's spec, with the scenario the set-up probes load."""
    spec = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "work": str(work),
        "casestudy": str(CASESTUDY),
        "probe_scenario": str(CASESTUDY),
    }
    if args.workload == "sweep-y0":
        spec["sweep_scenario"] = spec["probe_scenario"] = str(work / "sweep.json")
        write_sweep_scenario(Path(spec["sweep_scenario"]))
    elif args.workload == "reanalyze":
        # written by a separate process, so that the worker's peak memory
        # is that of analyze alone
        ref = work / "reference"
        code = "import sys, qgame.cli; sys.exit(qgame.cli.main(sys.argv[1:]))"
        proc = subprocess.run(
            [sys.executable, "-c", code, "simulate", str(CASESTUDY), "-o", str(ref)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=remaining(deadline),
        )
        if proc.returncode != 0:
            raise BenchError(f"writing the reanalyze input failed: {proc.stderr.strip()}")
        spec["trajectory"] = str(ref / "trajectory.csv")
    return spec


def run_worker(spec: dict, work: Path, env: dict, deadline: float) -> dict:
    spec_path, result_path = work / "spec.json", work / "result.json"
    spec_path.write_text(json.dumps(spec, indent=2), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), str(spec_path), str(result_path)],
        env=env, stdout=subprocess.DEVNULL, timeout=remaining(deadline),
    )
    if proc.returncode != 0:
        raise BenchError(f"worker exited with status {proc.returncode}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def tail(values: list[float]) -> tuple[int, float]:
    """Highest whole percentile with at least TAIL_BEYOND values beyond it,
    by nearest rank; with too few values, the maximum as p100."""
    n = len(values)
    s = sorted(values)
    p = min(99, 100 * (n - TAIL_BEYOND) // n)
    if p < 1:
        return 100, s[-1]
    return p, s[math.ceil(p * n / 100) - 1]


def op_times(result: dict, traced: bool, raw: bool = False) -> list[float]:
    """Wall times of the passed operations, scaled to the reference speed
    unless raw."""
    return [
        op["s"] if raw else scale(op["s"], op["k"])
        for op in result["ops"]
        if op["traced"] == traced and op["s"] is not None
    ]


def end_to_end(result: dict) -> tuple[dict, dict]:
    probes = result["probes"]
    ops, raw = op_times(result, False), op_times(result, False, raw=True)
    if not ops:
        raise BenchError("no operation succeeded")
    p, tail_value = tail(ops)
    attempted, failed = result["attempted"], len(result["failures"])
    kernels = [op["k"] for op in result["ops"] if op["k"] is not None]
    metrics = {
        "setup_s": (statistics.median(scale(pr["wall_s"], pr["k"]) for pr in probes), "s"),
        "op_s.p50": (statistics.median(ops), "s"),
        "op_s.tail": (tail_value, "s"),
        "peak_rss_mb": (result["peak_rss_kib"] * 1024 / 1e6, "MB"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    notes = {
        "setup_s": (
            f"median of {len(probes)} fresh interpreters spread through the loop; raw wall median "
            f"{statistics.median(pr['wall_s'] for pr in probes):.6f} s"
        ),
        "op_s.p50": (
            f"median of {len(ops)} operations; raw wall median {statistics.median(raw):.6f} s, "
            f"calibration kernel median {statistics.median(kernels) * 1e3:.4f} ms against {REF_S * 1e3:g} ms"
        ),
        "op_s.tail": f"p{p} of {len(ops)} operations; raw wall p{p} {tail(raw)[1]:.6f} s",
        "peak_rss_mb": "ru_maxrss of the workload process",
        "ok_ratio": f"fail_ratio {failed / attempted:g} = {failed}/{attempted}",
    }
    return metrics, notes


def check_spans(spans: list[dict], root: dict) -> list[str]:
    """What is wrong with the spans of one operation, if anything.

    Self times add up to the root span only when every span lies inside
    its parent, so that is what is checked, together with the root span
    lying inside the operation's own timed interval.
    """
    by_id = {s["id"]: s for s in spans}
    wrong = []
    if not root["op_start"] <= root["start"] <= root["end"] <= root["op_end"]:
        wrong.append("the op span lies outside the operation's timed interval")
    for s in spans:
        if s["self"] < 0:
            wrong.append(f"span {s['name']} has negative self time {s['self']:.3e} s")
        parent = by_id.get(s["parent"])
        if s is not root and (parent is None or not parent["start"] <= s["start"] <= s["end"] <= parent["end"]):
            wrong.append(f"span {s['name']} does not lie inside its parent span of the same operation")
    return wrong


def per_layer(result: dict) -> tuple[dict, dict, list[dict]]:
    """Per-op medians of each layer's self time and counts of work done."""
    probes = result["probes"]
    by_op: dict[int, list[dict]] = {}
    for s in result["spans"]:
        by_op.setdefault(s["op"], []).append(s)
    layer_times = {name: [] for name in LAYER_SPANS}
    us_per_step = []
    counts_by_key: dict[int, dict] = {}
    span_selfs: dict[str, list[float]] = {}
    problems = []
    checked = gap = 0
    for op, spans in sorted(by_op.items()):
        root = next(s for s in spans if s["parent"] is None)
        if not root.get("ok"):
            continue
        kernel = result["ops"][op]["k"]
        problems += [{"op": op, "reason": reason} for reason in check_spans(spans, root)]
        checked += len(spans)
        gap = max(gap, (root["op_end"] - root["op_start"]) - (root["end"] - root["start"]))
        per_name: dict[str, float] = {}
        for s in spans:
            per_name[s["name"]] = per_name.get(s["name"], 0.0) + scale(s["self"], kernel)
        for name, total in per_name.items():
            span_selfs.setdefault(name, []).append(total)
        for metric, names in LAYER_SPANS.items():
            layer_times[metric].append(sum(per_name.get(n, 0.0) for n in names))
        counts = {
            metric: sum(s["counts"].get(key, 0) for s in spans if s["name"] in names)
            for metric, (names, key) in LAYER_COUNTS.items()
        }
        if counts["dynamics.accepted_steps"]:
            us_per_step.append(1e6 * per_name["dynamics.integrate"] / counts["dynamics.accepted_steps"])
        seen = counts_by_key.setdefault(root["key"], counts)
        if seen != counts:
            problems.append({"op": op, "reason": f"counts {counts} differ from {seen} on the same input"})
    if not counts_by_key:
        raise BenchError("no traced operation succeeded")

    def med(values):
        return statistics.median(values) if values else 0.0

    metrics = {
        "setup.import_s": (statistics.median(scale(p["import_s"], p["k"]) for p in probes), "s"),
        "setup.load_s": (statistics.median(scale(p["load_s"], p["k"]) for p in probes), "s"),
    }
    metrics.update({m: (med(v), "s") for m, v in layer_times.items()})
    metrics["dynamics.us_per_step"] = (med(us_per_step), "us")
    for metric in LAYER_COUNTS:
        # median over distinct inputs, so it does not depend on how many
        # operations fit in the run; the lower one, so it is a count seen
        metrics[metric] = (statistics.median_low(c[metric] for c in counts_by_key.values()), "count")
    # each traced operation against the untraced one right after it, so
    # that both ran in the same machine state
    ops = result["ops"]
    pairs = [
        scale(a["s"], a["k"]) - scale(b["s"], b["k"])
        for a, b in zip(ops[0::2], ops[1::2])
        if a["traced"] and a["s"] is not None and b["s"] is not None
    ]
    metrics["trace.overhead_s"] = (med(pairs), "s")
    traced, untraced = op_times(result, True), op_times(result, False)
    notes = {
        "trace.overhead_s": (
            f"median over {len(pairs)} adjacent traced/untraced pairs; op_s.p50 "
            f"traced {med(traced):.6f} s, untraced {med(untraced):.6f} s"
        ),
        "span check": (
            f"{checked} spans: each lies inside its parent, none has a negative self time, "
            f"every op span lies inside its operation's timed interval (largest gap {gap:.3e} s)"
        ),
        "span self times": ", ".join(
            f"{name} {statistics.median(v):.6f} s" for name, v in sorted(span_selfs.items())
        ),
    }
    return metrics, notes, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if not (SRC / "qgame" / "cli.py").is_file():
        print(f"error: no qgame sources under {SRC}", file=sys.stderr)
        return 1

    deadline = time.monotonic() + TIME_BUDGET_S
    work = BENCH / ".work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    try:
        spec = make_inputs(args, work, env, deadline)
        result = run_worker(spec, work, env, deadline)
        if args.trace:
            metrics, notes, problems = per_layer(result)
        else:
            (metrics, notes), problems = end_to_end(result), []
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        for bulky in ("reference", "simulate-out", "reanalyze-out"):
            shutil.rmtree(work / bulky, ignore_errors=True)

    failures = result["failures"] + problems
    mode = "traced per module" if args.trace else "end to end"
    print(
        f"workload {args.workload}, seed {args.seed}, {mode}: {result['attempted']} operations "
        f"in {args.seconds:g} s, closed loop with one client"
    )
    for name, (value, unit) in metrics.items():
        note = notes.get(name)
        print(f"  {name} = {value!r} {unit}" + (f"  ({note})" if note else ""))
    for name in ("span check", "span self times"):
        if name in notes:
            print(f"  {name}: {notes[name]}")
    for f in failures:
        print(f"  FAILED operation {f['op']}: {f['reason']}")
    if args.trace:
        print(f"  spans written to {work / 'result.json'}")
    print(json.dumps({
        "correct": not failures,
        "attempted": result["attempted"],
        "failed": len({f["op"] for f in failures}),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
