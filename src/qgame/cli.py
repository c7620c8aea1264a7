"""Command-line interface: simulate, flag, sample-y0, analyze.

All verbs are file-in/file-out and deterministic: identical inputs and
seeds produce byte-identical outputs. Floats are written with 17
significant digits so re-parsing a trajectory reproduces it exactly.
`simulate` formats each value once, into trajectory.csv; the plotdata/
panels are column slices of that file's text, cell for cell.

`simulate` uses a second process: it formats the rows of trajectory.csv
while the first one integrates, so the run is faster only where two
cores are free.

Each verb takes only the flags it reads. Exit status: 0 on success, 2
when an input file is missing or a flag is not one the verb takes, 1 on
any other validation, runtime or output failure.
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
WRITER_EXIT_S = 10  # wait for the writer process to exit before killing it


def _format_rows(conn, parent_end) -> None:
    """Body of the writer process that `simulate` starts.

    Formats each block of samples as it arrives and keeps the row text
    without its last cell. Then, given the path, the header and the
    utility column, appends the utility cells and writes the file. Replies
    None once the file is written, or the errno and message of the OSError
    that stopped it. Ends without writing when the parent's end closes.
    """
    import signal  # here, like multiprocessing: the CLI's import does not load it

    parent_end.close()  # a forked copy, which would keep the pipe open
    # Ctrl-C reaches the parent too, which ends this process by closing the pipe
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    prefixes = []
    while True:
        try:
            msg = conn.recv()
        except EOFError:
            return
        if msg[0] == "rows":
            t, v = msg[1:]
            fmt = "%.17g," * (1 + v.shape[1])
            prefixes.extend(fmt % tuple(row) for row in np.column_stack([t, v]).tolist())
            continue
        path, header, utility = msg[1:]
        try:
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(header + "\n")
                cells = zip(prefixes, utility.tolist(), strict=True)
                fh.writelines(p + "%.17g\n" % u for p, u in cells)
        except OSError as exc:
            conn.send((exc.errno, exc.strerror))
        else:
            conn.send(None)
        return


class _TrajectoryWriter:
    """The writer process and its pipe; `add_samples` is `integrate`'s
    `on_samples`. The process is started from `context`, the
    multiprocessing context of the caller's choice, and ended on close."""

    def __init__(self, context):
        self._conn, child_end = context.Pipe()
        self._proc = context.Process(
            target=_format_rows, args=(child_end, self._conn), daemon=True
        )
        self._proc.start()
        child_end.close()

    def add_samples(self, t: np.ndarray, v: np.ndarray) -> None:
        self._conn.send(("rows", t, v))

    def write(self, path: Path, header: str, utility: np.ndarray) -> None:
        self._conn.send(("write", path, header, utility))
        try:
            failure = self._conn.recv()
        except EOFError:
            raise QGameError(f"{path}: the writer process ended without writing it") from None
        if failure is not None:
            raise OSError(*failure, str(path))

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self._conn.close()
        self._proc.join(WRITER_EXIT_S)
        if self._proc.exitcode is None:
            self._proc.kill()
            self._proc.join()


def write_trajectory_csv(traj: Trajectory, path: Path, writer: _TrajectoryWriter) -> None:
    """One header line, then one row per sample with every value at 17
    significant digits. `writer` has formatted every row but the utility
    cells from the samples `integrate` passed it; this hands it the
    header and the utility column and returns once it has written the file.
    """
    header = (
        ["t"]
        + [f"x_{q}" for q in traj.factor_labels]
        + [f"z_{q}" for q in traj.factor_labels]
        + [f"y_{s}" for s in traj.strategy_labels]
        + ["utility"]
    )
    writer.write(path, ",".join(header), traj.utility)


def _report_json(report: dict) -> str:
    """report.json's text; a NaN or infinity in the report is an error."""
    return json.dumps(report, indent=2, allow_nan=False) + "\n"


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
    """Rebuild a trajectory from its CSV export."""
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
    bad = ~np.isfinite(data)
    if bad.any():
        row, col = np.argwhere(bad)[0]
        raise QGameError(
            f"{path}: row {row + 1} after the header, column {header[col]}: "
            f"{data[row, col]} is not a finite number"
        )
    return Trajectory(
        t=data[:, 0],
        x=data[:, x_cols],
        z=data[:, z_cols],
        y=data[:, y_cols],
        utility=data[:, -1],
        factor_labels=tuple(header[i][2:] for i in x_cols),
        strategy_labels=tuple(header[i][2:] for i in y_cols),
    )


def write_plotdata(trajectory_csv: Path, plot_dir: Path) -> None:
    """Per-figure CSV panels: x, z, utility, and y split by Tool level.

    Each panel is a column slice of `trajectory_csv`, copied cell for
    cell, so no value is formatted twice. The file is read in blocks of
    lines, never whole.
    """
    plot_dir.mkdir(parents=True, exist_ok=True)
    with open(trajectory_csv, encoding="utf-8") as src, ExitStack() as stack:
        header, x_cols, z_cols, y_cols = _parse_header(trajectory_csv, src.readline())
        panels = {"x": x_cols, "z": z_cols, "utility": [len(header) - 1]}
        tools = [parse_code(header[j][2:]).tool for j in y_cols]
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
    # imported here, so that `import qgame` does not load it
    import multiprocessing

    # fork, not forkserver (Python 3.14's default on Linux) or spawn: the
    # child is a copy of this process and starts at once, importing
    # nothing. Spawn only where there is no fork, as on Windows.
    methods = multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
    with _TrajectoryWriter(context) as writer:
        scenario = load_scenario(args.scenario, sampler_seed=args.seed)
        overrides = {
            key: value
            for key in ("t_end", "step", "method")
            if (value := getattr(args, key)) is not None
        }
        config = dataclasses.replace(scenario.integrator, **overrides)
        traj = run_scenario(scenario, config, on_samples=writer.add_samples)
        report = an.analyze(traj, scenario.analysis)
        report_text = _report_json(report)

        out_dir = Path(args.output or "out")
        out_dir.mkdir(parents=True, exist_ok=True)
        write_trajectory_csv(traj, out_dir / "trajectory.csv", writer)
    (out_dir / "report.json").write_text(report_text, encoding="utf-8")
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
    cfg = SamplerConfig(n_sequences=args.n_sequences, seed=args.seed, tie_rule=args.tie_rule)
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
        **{f.name: getattr(args, f.name) for f in dataclasses.fields(an.AnalysisThresholds)}
    )
    report = an.analyze(traj, thresholds)
    report_text = _report_json(report)
    out_dir = Path(args.output) if args.output else Path(args.trajectory).parent
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(report_text, encoding="utf-8")
    print(an.render_summary(report))
    print(f"report written to {out_dir / 'report.json'}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qgame",
        description="Coupled replicator-dynamics simulator over factor-scored strategy games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a scenario end to end")
    p.add_argument("scenario", help="scenario JSON file")
    p.add_argument("--seed", type=int, help="seed of a sampled y0 (y0 in sample mode only)")
    p.add_argument("--t-end", type=float, dest="t_end", help="integration horizon override")
    p.add_argument("--step", type=float, help="integration step override")
    p.add_argument("--method", choices=("rk4", "rk45"), help="integrator override")
    p.add_argument("-o", "--output", help="output directory (default: out)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("flag", help="flag stakeholders on factors")
    p.add_argument("loadings", help="loading matrix CSV")
    p.add_argument("--n-statements", type=int, default=36)
    p.add_argument("--p", type=float, default=0.05, choices=(0.05, 0.01))
    p.set_defaults(func=cmd_flag)

    p = sub.add_parser("sample-y0", help="Monte Carlo initial shares")
    p.add_argument("distribution", help="per-strategy (mean, sigma) CSV")
    p.add_argument("--seed", type=int, default=SamplerConfig.seed)
    p.add_argument("--n-sequences", type=int, default=SamplerConfig.n_sequences)
    p.add_argument("--tie-rule", choices=TIE_RULES, default=SamplerConfig.tie_rule)
    p.add_argument("-o", "--output", help="output file (default: stdout)")
    p.set_defaults(func=cmd_sample_y0)

    p = sub.add_parser("analyze", help="re-analyze a trajectory CSV")
    p.add_argument("trajectory", help="trajectory.csv from a previous run")
    for f in dataclasses.fields(an.AnalysisThresholds):
        p.add_argument("--" + f.name.replace("_", "-"), type=float, default=f.default)
    p.add_argument("-o", "--output", help="output directory (default: the trajectory's)")
    p.set_defaults(func=cmd_analyze)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_FOUND
    except (QGameError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def entry() -> None:
    sys.exit(main())
