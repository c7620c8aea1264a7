"""One workload as a closed loop with one client, in a fresh interpreter.

Started by run.py with the checkout's ``src`` on PYTHONPATH and BLAS
thread pools limited to one. It prepares references in an untimed
set-up pass, then starts each operation only after the previous one
returned, until the run length is used up. Every operation is checked.
Between operations, spread evenly through the loop, it times
``SETUP_PROBES`` fresh interpreters that import qgame and load the
workload's scenario (probe_setup.py); the loop's run length does not
count them. The result (wall times, probes, failures, spans) goes to a
JSON file, because the CLI prints to stdout on every operation.

    python3 perfbench/worker.py SPEC.json RESULT.json
"""

import json
import random
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

import qgame.analysis
import qgame.cli
import qgame.scenario

from calibrate import kernel_s
from tracer import Tracer, path_bytes, self_times

BENCH = Path(__file__).resolve().parent

# Acceptance gate on the case study (tests/test_acceptance.py).
CASE_X = "Q1"
CASE_Y = "D.R.A.PP"
CASE_Z = [1, 1, 0, 1, 1]
CASE_UTILITY = 5.0
UTILITY_TOL = 0.1

# Member seeds per sweep run; each gets a reference in set-up and the
# timed loop cycles through them. Odd, so that the traced (even)
# operations of a trace run visit every member.
SWEEP_POOL = 15

# Set-up probes per run. The host's speed changes in phases, so they are
# spread through the loop like the operations, not taken at its ends.
# The worker has imported qgame and read the workload's files before the
# first probe, so no probe pays for compiling bytecode or a cold cache.
SETUP_PROBES = 10
PROBE_TIMEOUT_S = 60

MODULES = {"qgame.cli": qgame.cli, "qgame.scenario": qgame.scenario, "qgame.analysis": qgame.analysis}


class OpFailure(Exception):
    pass


def check_case_report(report: dict) -> None:
    fx = report["fixation"]
    got = (
        (fx["winner_x"] or {}).get("label"),
        (fx["winner_y"] or {}).get("label"),
        fx["z_limits"],
    )
    if got != (CASE_X, CASE_Y, CASE_Z):
        raise OpFailure(f"fixation {got} is not ({CASE_X}, {CASE_Y}, {CASE_Z})")
    terminal = report["utility"]["terminal"]
    if abs(terminal - CASE_UTILITY) >= UTILITY_TOL:
        raise OpFailure(f"terminal utility {terminal!r} is not {CASE_UTILITY} +/- {UTILITY_TOL}")


def call_cli(argv: list[str]) -> None:
    status = qgame.cli.main(argv)
    if status != 0:
        raise OpFailure(f"qgame {argv[0]} exited with status {status}")


class SimulateRK4:
    """cli simulate on the bundled case study; outputs must not change."""

    def __init__(self, spec: dict):
        self.scenario = spec["casestudy"]
        self.out = Path(spec["work"]) / "simulate-out"
        # warm-up operation, untimed: its files are the reference
        self.prepare(-1)
        self.op(-1)
        check_case_report(json.loads((self.out / "report.json").read_bytes()))
        self.ref = self._outputs()

    def _outputs(self) -> dict:
        return {
            "trajectory.csv": (self.out / "trajectory.csv").read_bytes(),
            "report.json": (self.out / "report.json").read_bytes(),
            "bytes_written": path_bytes(self.out) - (self.out / "report.json").stat().st_size,
        }

    def key(self, i: int) -> int:
        return 0

    def prepare(self, i: int) -> None:
        shutil.rmtree(self.out, ignore_errors=True)

    def op(self, i: int) -> None:
        call_cli(["simulate", self.scenario, "-o", str(self.out)])

    def check(self, i: int) -> None:
        got = self._outputs()
        for name, want in self.ref.items():
            if got[name] != want:
                raise OpFailure(f"{name} differs from the warm-up operation's")


class Reanalyze:
    """cli analyze on a simulate output; report.json must equal simulate's."""

    def __init__(self, spec: dict):
        self.trajectory = spec["trajectory"]
        self.ref = (Path(self.trajectory).parent / "report.json").read_bytes()
        check_case_report(json.loads(self.ref))
        self.out = Path(spec["work"]) / "reanalyze-out"
        self.prepare(-1)
        self.op(-1)
        self.check(-1)

    def key(self, i: int) -> int:
        return 0

    def prepare(self, i: int) -> None:
        shutil.rmtree(self.out, ignore_errors=True)

    def op(self, i: int) -> None:
        call_cli(["analyze", self.trajectory, "-o", str(self.out)])

    def check(self, i: int) -> None:
        if (self.out / "report.json").read_bytes() != self.ref:
            raise OpFailure("report.json differs from the one simulate wrote")


class SweepY0:
    """One Monte Carlo member: load with a member seed, integrate, analyze."""

    def __init__(self, spec: dict):
        self.scenario = spec["sweep_scenario"]
        rng = random.Random(spec["seed"])
        self.seeds = [rng.getrandbits(63) for _ in range(SWEEP_POOL)]
        self.ref = [self._member(s) for s in self.seeds]
        for seed, (report, _) in zip(self.seeds, self.ref):
            if not report["fixation"]["converged"]:
                raise OpFailure(f"reference for member seed {seed} did not converge")
        self.result = None

    def _member(self, seed: int):
        sc = qgame.scenario.load_scenario(self.scenario, sampler_seed=seed)
        traj = qgame.scenario.run_scenario(sc)
        report = qgame.analysis.analyze(traj, sc.analysis)
        return report, traj.meta["accepted_steps"]

    def key(self, i: int) -> int:
        return i % SWEEP_POOL

    def prepare(self, i: int) -> None:
        self.result = None

    def op(self, i: int) -> None:
        self.result = self._member(self.seeds[i % SWEEP_POOL])

    def check(self, i: int) -> None:
        seed = self.seeds[i % SWEEP_POOL]
        report, steps = self.result
        want_report, want_steps = self.ref[i % SWEEP_POOL]
        if report != want_report:
            raise OpFailure(f"member seed {seed}: report differs from its reference")
        if not report["fixation"]["converged"]:
            raise OpFailure(f"member seed {seed}: run did not converge")
        if steps != want_steps:
            raise OpFailure(f"member seed {seed}: {steps} accepted steps, reference {want_steps}")


WORKLOADS = {"simulate-rk4": SimulateRK4, "sweep-y0": SweepY0, "reanalyze": Reanalyze}


def probe_setup(scenario: str) -> dict:
    """Import and load times reported by one fresh interpreter, its wall
    time from outside, and the calibration kernel around it."""
    k0 = kernel_s()
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "probe_setup.py"), scenario],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
    )
    wall = time.perf_counter() - t0
    k1 = kernel_s()
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return dict(json.loads(proc.stdout), wall_s=wall, k=(k0 + k1) / 2)


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    workload = WORKLOADS[spec["workload"]](spec)
    tracer = Tracer() if spec["trace"] else None

    ops = []  # per attempted operation, in order: traced?, wall s if it passed, kernel s
    failures = []
    probes = []
    kernel_s()  # warm-up
    # Traced and untraced operations alternate in trace mode, so both
    # see the same machine state and their difference is the overhead.
    interval = spec["seconds"] / SETUP_PROBES
    next_probe = time.perf_counter() + interval / 2
    deadline = time.perf_counter() + spec["seconds"]
    while time.perf_counter() < deadline:
        if len(probes) < SETUP_PROBES and time.perf_counter() >= next_probe:
            t = time.perf_counter()
            probes.append(probe_setup(spec["probe_scenario"]))
            spent = time.perf_counter() - t
            deadline += spent
            next_probe += interval + spent
            continue
        i = len(ops)
        traced = tracer is not None and i % 2 == 0
        workload.prepare(i)
        if traced:
            tracer.install(MODULES)
        root = None
        k0 = kernel_s()
        t0 = time.perf_counter()
        try:
            if traced:
                root = tracer.operation(i, workload.key(i), workload.op, i)
            else:
                workload.op(i)
            t1 = time.perf_counter()
            elapsed = t1 - t0
            kernel = (k0 + kernel_s()) / 2
            workload.check(i)
            ok = True
        except Exception as exc:  # any failure of the program counts, the loop goes on
            ok = False
            failures.append({"op": i, "reason": f"{type(exc).__name__}: {exc}"})
            traceback.print_exc(file=sys.stderr)
        finally:
            if traced:
                tracer.uninstall()
        if root is not None:
            root.update(ok=ok, op_start=t0, op_end=t1)
        ops.append({"traced": traced, "s": elapsed if ok else None, "k": kernel if ok else None})

    while len(probes) < SETUP_PROBES:  # a run too short to spread them
        probes.append(probe_setup(spec["probe_scenario"]))

    result = {
        "attempted": len(ops),
        "failures": failures,
        "ops": ops,
        "probes": probes,
        # the workload process alone; probes are children, not counted
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        # spans leave memory only here, once the loop is over
        selfs = self_times(tracer.spans)
        result["spans"] = [dict(s, self=selfs[s["id"]]) for s in tracer.spans]
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
