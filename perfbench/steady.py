"""Steadiness self-check: do two sets of runs of the same code agree?

    python3 perfbench/steady.py

Each set runs run.py once per seed 1..RUNS on every workload of
BENCHMARK.json, untraced, for its ``run_seconds``. For every end-to-end
metric of every workload it reports

* the spread of each set: (Q3 - Q1) / median over the runs, with the
  quartiles of ``statistics.quantiles(values, n=4)``; it must stay within
  the metric's bound in BENCHMARK.json and should stay below a third of
  it ("steady");
* the drift between sets: how far the second median lies from the
  first, in either direction, which must stay within the bound.

Then one traced run per workload and set, on seed 1, prints the tracing
overhead and checks that every count repeats exactly. The exit status is
0 when every check holds. Raw results go to perfbench/.work/steady.json.
"""

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETS = 2
RUNS = 10


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise SystemExit(f"run.py failed on {workload} seed {seed}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        print(proc.stdout, file=sys.stderr)
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed operations")
    return {name: m["value"] for name, m in result["metrics"].items()}


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse `second` is than `first`, as a share of `first`;
    negative when it is better."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    seeds = range(1, RUNS + 1)

    values = {w: [{} for _ in range(SETS)] for w in workloads}
    traced = {w: [] for w in workloads}
    for s in range(SETS):
        for seed in seeds:
            for w in workloads:
                t0 = time.monotonic()
                for name, v in run(w, seed, seconds, 0).items():
                    values[w][s].setdefault(name, []).append(v)
                print(f"set {s + 1}, seed {seed}, {w}: {time.monotonic() - t0:.1f} s",
                      file=sys.stderr, flush=True)
        for w in workloads:
            traced[w].append(run(w, 1, seconds, 1))

    ok = True
    print(f"{'workload':<14}{'metric':<14}{'median 1':>12}{'median 2':>12}"
          f"{'spread 1':>10}{'spread 2':>10}{'drift':>9}{'bound':>7}  verdict")
    for w in workloads:
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            meds, spreads = [], []
            for s in range(SETS):
                vals = values[w][s][name]
                q1, q2, q3 = statistics.quantiles(vals, n=4)
                meds.append(statistics.median(vals))
                spreads.append((q3 - q1) / meds[-1])
            drift = worse_by(meds[0], meds[1], metric["better"])
            good = abs(drift) <= bound and max(spreads) <= bound
            steady = good and max(spreads) < bound / 3
            ok &= good
            verdict = "steady" if steady else ("agree" if good else "DISAGREE")
            print(f"{w:<14}{name:<14}{meds[0]:>12.6g}{meds[1]:>12.6g}"
                  f"{spreads[0]:>10.4f}{spreads[1]:>10.4f}{drift:>9.4f}{bound:>7.3f}  {verdict}")
    print()
    for w in workloads:
        first, second = traced[w]
        counts = [m["name"] for m in bench["per_layer"] if m["unit"] == "count"]
        differ = [c for c in counts if first[c] != second[c]]
        ok &= not differ
        print(f"{w}: tracing overhead {first['trace.overhead_s']:.6f} s and "
              f"{second['trace.overhead_s']:.6f} s per operation; counts "
              + (f"DIFFER: {differ}" if differ else "repeat exactly: "
                 + ", ".join(f"{c}={first[c]}" for c in counts)))
    out = BENCH / ".work" / "steady.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"values": values, "traced": traced}, indent=1), encoding="utf-8")
    print(f"\n{'all checks hold' if ok else 'SOME CHECKS FAIL'}; raw results in {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
