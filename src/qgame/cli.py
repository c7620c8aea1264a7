"""Command-line interface: simulate, flag, sample-y0, analyze.

All verbs are file-in/file-out and deterministic: identical inputs and
seeds produce byte-identical outputs. Floats are written with 17
significant digits so re-parsing a trajectory reproduces it exactly.
`simulate` formats each value once, into trajectory.csv; the plotdata/
panels are column slices of that file's text, cell for cell.

Exit status: 0 on success, 2 when an input file is missing, 1 on any
other validation or runtime failure.
"""

import argparse
import dataclasses
import json
import sys
from contextlib import ExitStack
from operator import itemgetter
from pathlib import Path

import numpy as np

from . import analysis as an
from .dynamics import Trajectory
from .errors import QGameError
from .qdata import flag_stakeholders, load_loadings
from .sampling import TIE_RULES, SamplerConfig, load_distribution, sample_y0
from .scenario import load_scenario, run_scenario
from .strategy_space import TOOL_LEVELS, parse_code

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_FOUND = 2


def write_trajectory_csv(traj: Trajectory, path: Path) -> None:
    """One header line, then one row per sample with every value at 17
    significant digits."""
    header = (
        ["t"]
        + [f"x_{q}" for q in traj.factor_labels]
        + [f"z_{q}" for q in traj.factor_labels]
        + [f"y_{s}" for s in traj.strategy_labels]
        + ["utility"]
    )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        np.savetxt(
            fh, np.column_stack([traj.t, traj.x, traj.z, traj.y, traj.utility]),
            fmt="%.17g", delimiter=",", header=",".join(header), comments="",
        )


def _parse_header(path: Path, line: str) -> tuple[list[str], list[int], list[int], list[int]]:
    """Names of a trajectory header and the indices of its x_, z_ and y_
    columns; t comes first and utility last."""
    header = line.rstrip("\n").split(",")
    if header[0] != "t" or header[-1] != "utility":
        raise QGameError(f"{path}: unexpected trajectory header")
    x_cols, z_cols, y_cols = (
        [i for i, h in enumerate(header) if h.startswith(prefix)]
        for prefix in ("x_", "z_", "y_")
    )
    return header, x_cols, z_cols, y_cols


def read_trajectory_csv(path: Path) -> Trajectory:
    """Rebuild a trajectory from its CSV export (factor utilities are not
    stored in the file and come back as zeros)."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh if ln.strip()]
    if len(lines) < 2:
        raise QGameError(f"{path}: no trajectory rows")
    header, x_cols, z_cols, y_cols = _parse_header(path, lines[0])
    data = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
    if data.shape[1] != len(header):
        raise QGameError(
            f"{path}: rows have {data.shape[1]} values, the header names {len(header)}"
        )
    return Trajectory(
        t=data[:, 0],
        x=data[:, x_cols],
        z=data[:, z_cols],
        y=data[:, y_cols],
        utility=data[:, -1],
        factor_utility=np.zeros((len(data), len(x_cols))),
        factor_labels=tuple(header[i][2:] for i in x_cols),
        strategy_labels=tuple(header[i][2:] for i in y_cols),
    )


def write_plotdata(trajectory_csv: Path, plot_dir: Path) -> None:
    """Per-figure CSV panels: x, z, utility, and y split by Tool level
    (one y panel when the y labels are not strategy codes).

    Each panel is a column slice of `trajectory_csv`, copied cell for
    cell, so no value is formatted twice. The file is read in blocks of
    lines, never whole.
    """
    plot_dir.mkdir(parents=True, exist_ok=True)
    with open(trajectory_csv, encoding="utf-8") as src, ExitStack() as stack:
        header, x_cols, z_cols, y_cols = _parse_header(trajectory_csv, src.readline())
        panels = {"x": x_cols, "z": z_cols, "utility": [len(header) - 1]}
        try:
            tools = [parse_code(header[j][2:]).tool for j in y_cols]
        except QGameError:
            panels["y"] = y_cols
        else:
            for tool in TOOL_LEVELS:
                panels[f"y_tool_{tool}"] = [j for j, lv in zip(y_cols, tools) if lv == tool]
        outs = []
        for name, cols in panels.items():
            cols = [0] + cols
            fh = stack.enter_context(
                open(plot_dir / f"{name}.csv", "w", encoding="utf-8", newline="\n")
            )
            fh.write(",".join(header[j] for j in cols) + "\n")
            # itemgetter returns a bare cell, not a tuple, for one index
            cells = itemgetter(*cols) if len(cols) > 1 else lambda row: row[:1]
            outs.append((fh, cells))
        while block := src.readlines(1 << 16):
            rows = [line.rstrip("\n").split(",") for line in block]
            if any(len(row) != len(header) for row in rows):
                raise QGameError(
                    f"{trajectory_csv}: a row's width differs from the header's {len(header)}"
                )
            for fh, cells in outs:
                fh.write("".join(",".join(cells(row)) + "\n" for row in rows))


def cmd_simulate(args) -> int:
    scenario = load_scenario(args.scenario, sampler_seed=args.seed)
    integrator = scenario.integrator
    overrides = {}
    if args.t_end is not None:
        overrides["t_end"] = args.t_end
    if args.step is not None:
        overrides["step"] = args.step
    if args.method is not None:
        overrides["method"] = args.method
    if overrides:
        integrator = dataclasses.replace(integrator, **overrides)
    traj = run_scenario(scenario, integrator)
    report = an.analyze(traj, scenario.analysis)

    out_dir = Path(args.output or "out")
    out_dir.mkdir(parents=True, exist_ok=True)
    write_trajectory_csv(traj, out_dir / "trajectory.csv")
    (out_dir / "report.json").write_text(
        json.dumps(report, indent=2) + "\n", encoding="utf-8"
    )
    write_plotdata(out_dir / "trajectory.csv", out_dir / "plotdata")

    print(f"simulated {len(traj)} samples to t={traj.t[-1]:g} ({traj.method})")
    print(an.render_summary(report))
    print(f"outputs written to {out_dir}")
    return EXIT_OK


def cmd_flag(args) -> int:
    loadings = load_loadings(args.loadings)
    flags = flag_stakeholders(loadings, args.n_statements, args.p)
    print(f"flagging threshold: |loading| > {flags.threshold:.4f}")
    print("stakeholder,factor,sign")
    for sid, f, s in zip(flags.stakeholder_ids, flags.factors, flags.signs):
        if f is None:
            print(f"{sid},unassigned,")
        else:
            print(f"{sid},Q{f + 1},{'+' if s > 0 else '-'}")
    counts = flags.counts(loadings.factor_count)
    print("counts: " + " ".join(f"Q{i + 1}={c}" for i, c in enumerate(counts)))
    print(f"unassigned: {len(flags.unassigned)} ({', '.join(flags.unassigned) or '-'})")
    return EXIT_OK


def cmd_sample_y0(args) -> int:
    dist = load_distribution(args.distribution)
    cfg = SamplerConfig(
        n_sequences=args.n_sequences,
        seed=args.seed if args.seed is not None else 0,
        tie_rule=args.tie_rule,
    )
    shares = sample_y0(dist, cfg)
    lines = ["strategy,share"] + [
        f"{code},{v:.17g}" for code, v in zip(dist.codes, shares)
    ]
    if args.output:
        Path(args.output).parent.mkdir(parents=True, exist_ok=True)
        Path(args.output).write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"wrote {args.output}")
    else:
        print("\n".join(lines))
    return EXIT_OK


def cmd_analyze(args) -> int:
    traj = read_trajectory_csv(Path(args.trajectory))
    thresholds = an.AnalysisThresholds(
        winner_threshold=args.winner_threshold,
        z_tol=args.z_tol,
        rise_tol=args.rise_tol,
        die_tol=args.die_tol,
        mono_slack=args.mono_slack,
    )
    report = an.analyze(traj, thresholds)
    out_dir = Path(args.output) if args.output else Path(args.trajectory).parent
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(
        json.dumps(report, indent=2) + "\n", encoding="utf-8"
    )
    print(an.render_summary(report))
    print(f"report written to {out_dir / 'report.json'}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qgame",
        description="Coupled replicator-dynamics simulator over factor-scored strategy games.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, help="sampler seed override")
    common.add_argument("--t-end", type=float, dest="t_end", help="integration horizon override")
    common.add_argument("--step", type=float, help="integration step override")
    common.add_argument("--method", choices=("rk4", "rk45"), help="integrator override")
    common.add_argument("-o", "--output", help="output directory (or file for sample-y0)")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", parents=[common], help="run a scenario end to end")
    p.add_argument("scenario", help="scenario JSON file")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("flag", parents=[common], help="flag stakeholders on factors")
    p.add_argument("loadings", help="loading matrix CSV")
    p.add_argument("--n-statements", type=int, default=36)
    p.add_argument("--p", type=float, default=0.05, choices=(0.05, 0.01))
    p.set_defaults(func=cmd_flag)

    p = sub.add_parser("sample-y0", parents=[common], help="Monte Carlo initial shares")
    p.add_argument("distribution", help="per-strategy (mean, sigma) CSV")
    p.add_argument("--n-sequences", type=int, default=30000)
    p.add_argument("--tie-rule", choices=TIE_RULES, default="first-index")
    p.set_defaults(func=cmd_sample_y0)

    p = sub.add_parser("analyze", parents=[common], help="re-analyze a trajectory CSV")
    p.add_argument("trajectory", help="trajectory.csv from a previous run")
    p.add_argument("--winner-threshold", type=float, default=0.99)
    p.add_argument("--z-tol", type=float, default=0.01)
    p.add_argument("--rise-tol", type=float, default=0.01)
    p.add_argument("--die-tol", type=float, default=1e-4)
    p.add_argument("--mono-slack", type=float, default=0.01)
    p.set_defaults(func=cmd_analyze)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_FOUND
    except (QGameError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def entry() -> None:
    sys.exit(main())
