"""Command-line interface: simulate, flag, sample-y0, analyze.

All verbs are file-in/file-out and deterministic: identical inputs and
seeds produce byte-identical outputs. Floats are written with 17
significant digits so re-parsing a trajectory reproduces it exactly.

`simulate` uses a second process: while the first one integrates, it
formats each row of trajectory.csv once as its block arrives and adds
the row's line to trajectory.csv's text and to each plotdata/ panel's,
a column slice of the same cells. At the end it only writes the files,
so the run is faster where two cores are free. `simulate` reads none of
its outputs back and writes report.json last. `read_trajectory_csv` is
the one reader of trajectory.csv.

Each verb takes only the flags it reads. Exit status: 0 on success, 2
when an input file is missing or a flag is not one the verb takes, 1 on
any other validation, runtime or output failure.
"""

import argparse
import dataclasses
import json
import sys
from operator import itemgetter
from pathlib import Path

import numpy as np

from . import analysis as an
from .dynamics import Trajectory
from .errors import QGameError
from .qdata import flag_stakeholders, load_loadings
from .sampling import SamplerConfig, load_distribution, sample_y0
from .scenario import load_scenario, run_scenario
from .strategy_space import CANONICAL_CODES, parse_code

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_FOUND = 2
WRITER_EXIT_S = 10  # wait for the writer process to exit before killing it


def _format_rows(conn, parent_end, header: list[str]) -> None:
    """Body of the writer process that `simulate` starts.

    Derives each plotdata/ panel's columns from `header` once: t and its
    own. Formats each row of a block once as the block arrives: that line
    is trajectory.csv's, and its cells are cut into every panel's line. A
    request (path, panels) writes trajectory.csv to path, or the panels
    into the directory path, and is answered None or with the errno,
    message and file name of the OSError that stopped it. Ends when the
    parent's end closes.
    """
    import signal  # here, like multiprocessing: the CLI's import does not load it

    parent_end.close()  # a forked copy, which would keep the pipe open
    # Ctrl-C reaches the parent too, which ends this process by closing the pipe
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    columns = {}  # panel file name -> its columns
    for j, name in enumerate(header[1:], 1):
        panel = f"y_tool_{parse_code(name[2:]).tool}" if name[:2] == "y_" else name.split("_")[0]
        columns.setdefault(f"{panel}.csv", [0]).append(j)
    cuts = {name: itemgetter(*cols) for name, cols in columns.items()}
    # file name -> its text; "" is trajectory.csv, written to the request's path itself
    texts = {"": [",".join(header) + "\n"]}
    texts.update((name, [",".join(header[j] for j in cols) + "\n"]) for name, cols in columns.items())
    fmt = ",".join(["%.17g"] * len(header))
    while True:
        try:
            message = conn.recv()
        except EOFError:
            return
        if isinstance(message, np.ndarray):  # a block of rows
            lines = [fmt % tuple(row) for row in message.tolist()]
            texts[""].append("\n".join(lines) + "\n")
            rows = [line.split(",") for line in lines]
            for name, get in cuts.items():
                texts[name].append("".join(",".join(get(row)) + "\n" for row in rows))
            continue
        path, panels = message
        try:
            if panels:
                path.mkdir(exist_ok=True)
            for name, text in texts.items():
                if bool(name) == panels:  # path / "" is path
                    with open(path / name, "w", encoding="utf-8", newline="\n") as fh:
                        fh.writelines(text)
        except OSError as exc:
            conn.send((exc.errno, exc.strerror, exc.filename or str(path)))
        else:
            conn.send(None)


class _TrajectoryWriter:
    """The writer process and its pipe; `add_samples` is `integrate`'s
    `on_samples`. The process is started from `context`, the
    multiprocessing context of the caller's choice, with trajectory.csv's
    `header`, and ended on close."""

    def __init__(self, context, header: list[str]):
        self._conn, child_end = context.Pipe()
        self._proc = context.Process(
            target=_format_rows, args=(child_end, self._conn, header), daemon=True
        )
        self._proc.start()
        child_end.close()

    def _exchange(self, message, path=None):
        """Sends `message` and, for a write request to `path`, returns the
        reply. Once the writer process has ended, blocks are dropped and
        the next write request fails, naming its path."""
        try:
            self._conn.send(message)
            return None if path is None else self._conn.recv()
        except (BrokenPipeError, ConnectionResetError, EOFError):
            if path is not None:
                raise QGameError(f"{path}: the writer process ended without writing it") from None

    def add_samples(self, rows: np.ndarray) -> None:
        self._exchange(rows)

    def write(self, path: Path, panels: bool = False) -> None:
        """Has the writer process write trajectory.csv to `path`, or with
        `panels` the plotdata/ panels into the directory `path`."""
        failure = self._exchange((path, panels), path)
        if failure is not None:
            raise OSError(*failure)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self._conn.close()
        self._proc.join(WRITER_EXIT_S)
        if self._proc.exitcode is None:
            self._proc.kill()
            self._proc.join()


def _header(factors, strategies) -> list[str]:
    """trajectory.csv's column names."""
    xz = [f"{p}_{q}" for p in "xz" for q in factors]
    return ["t", *xz, *(f"y_{s}" for s in strategies), "utility"]


def write_trajectory_csv(traj: Trajectory, path: Path, writer: _TrajectoryWriter) -> None:
    """One header line, then one row per sample of `traj` with every value
    at 17 significant digits, as `writer` formatted them from the blocks
    `integrate` passed it; returns once the file is written."""
    writer.write(path)


def _report_json(report: dict) -> str:
    """report.json's text; a NaN or infinity in the report is an error."""
    return json.dumps(report, indent=2, allow_nan=False) + "\n"


def _parse_header(path: Path, line: str) -> tuple[list[str], tuple[str, ...], tuple[str, ...]]:
    """Names of a trajectory header and its factor and strategy labels.

    The header reads t, x_<f>..., z_<f>... over the same factors in the
    same order, at least one y_<s>, then utility, and repeats no name. A
    fault names the column.
    """
    header = line.rstrip("\n").split(",")
    n = next((i for i, h in enumerate(header[1:]) if h[:2] != "x_"), len(header) - 1)
    factors = tuple(h[2:] for h in header[1:1 + n])
    strategies = tuple(h[2:] for h in header[1 + 2 * n:-1])
    for i, (name, want) in enumerate(zip(header, _header(factors, strategies))):
        if name in header[:i]:
            raise QGameError(
                f"{path}: header column {i + 1}, {name!r}, repeats column {header.index(name) + 1}"
            )
        if name != want:
            raise QGameError(
                f"{path}: header column {i + 1}, {name!r}, is out of place: expected t, "
                "x_<f>..., z_<f>... over the same factors, y_<s>..., utility"
            )
    if not factors or not strategies:
        col, kind = (2 + 2 * n, "y_") if factors else (2, "x_")
        raise QGameError(f"{path}: header column {col} must be the first {kind} column")
    return header, factors, strategies


def _row_fault(path: Path, header: list[str], rows: list[str], exc: ValueError) -> QGameError:
    """The first row, counted from 1 after the header, that is not as
    wide as the header or holds a cell that is not a number. `exc` is
    np.loadtxt's own account, for a cell such as '1_0' that float()
    reads and np.loadtxt does not."""
    for i, line in enumerate(rows, 1):
        cells = line.rstrip("\n").split(",")
        if len(cells) != len(header):
            return QGameError(
                f"{path}: row {i} after the header has {len(cells)} values, "
                f"the header names {len(header)}"
            )
        for name, cell in zip(header, cells):
            try:
                float(cell)
            except ValueError:
                return QGameError(
                    f"{path}: row {i} after the header, column {name}: {cell!r} is not a number"
                )
    return QGameError(f"{path}: {exc}")


def read_trajectory_csv(path: Path) -> Trajectory:
    """Rebuild a trajectory from its CSV export; t must rise strictly."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh if ln.strip()]
    if len(lines) < 2:
        raise QGameError(f"{path}: no trajectory rows")
    header, factors, strategies = _parse_header(path, lines[0])
    try:
        data = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
    except ValueError as exc:
        raise _row_fault(path, header, lines[1:], exc) from None
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
    t = data[:, 0]
    stalls = np.flatnonzero(t[1:] <= t[:-1])
    if len(stalls):
        row = stalls[0] + 1
        raise QGameError(
            f"{path}: row {row + 1} after the header: t = {t[row]} does not rise "
            f"above the previous row's {t[row - 1]}"
        )
    return Trajectory.from_rows(data, factors, strategies)


def write_plotdata(traj: Trajectory, plot_dir: Path, writer: _TrajectoryWriter) -> None:
    """Per-figure CSV panels of `traj`: x, z, utility, and y split by Tool
    level, each t and some of trajectory.csv's columns with the same text,
    which `writer` cut from each row as it formatted it."""
    writer.write(plot_dir, panels=True)


def cmd_simulate(args) -> int:
    # imported here, so that `import qgame` does not load it
    import multiprocessing

    # fork, not forkserver (Python 3.14's default on Linux) or spawn: the
    # child is a copy of this process and starts at once, importing
    # nothing. Spawn only where there is no fork, as on Windows.
    methods = multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
    scenario = load_scenario(args.scenario, sampler_seed=args.seed)
    overrides = {
        key: value
        for key in ("t_end", "step", "method")
        if (value := getattr(args, key)) is not None
    }
    config = dataclasses.replace(scenario.integrator, **overrides)
    header = _header(scenario.scores.factor_labels, scenario.scores.strategy_labels)
    with _TrajectoryWriter(context, header) as writer:
        traj = run_scenario(scenario, config, on_samples=writer.add_samples)
        report = an.analyze(traj, scenario.analysis)
        report_text = _report_json(report)

        out_dir = Path(args.output or "out")
        out_dir.mkdir(parents=True, exist_ok=True)
        write_trajectory_csv(traj, out_dir / "trajectory.csv", writer)
        write_plotdata(traj, out_dir / "plotdata", writer)
    (out_dir / "report.json").write_text(report_text, encoding="utf-8")

    print(f"simulated {len(traj)} samples to t={traj.t[-1]:g} ({config.method})")
    print(an.render_summary(report))
    print(f"outputs written to {out_dir}")
    return EXIT_OK


def cmd_flag(args) -> int:
    flags = flag_stakeholders(load_loadings(args.loadings), args.n_statements, args.p)
    print(f"flagging threshold: |loading| > {flags.threshold:.4f}")
    print("stakeholder,factor,sign")
    for sid, f, s in zip(flags.stakeholder_ids, flags.factors, flags.signs):
        if f is None:
            print(f"{sid},unassigned,")
        else:
            print(f"{sid},Q{f + 1},{'+' if s > 0 else '-'}")
    counts = flags.counts()
    print("counts: " + " ".join(f"Q{i + 1}={c}" for i, c in enumerate(counts)))
    print(f"unassigned: {len(flags.unassigned)} ({', '.join(flags.unassigned) or '-'})")
    return EXIT_OK


def cmd_sample_y0(args) -> int:
    dist = load_distribution(args.distribution)
    cfg = SamplerConfig(n_sequences=args.n_sequences, seed=args.seed)
    shares = sample_y0(dist, cfg)
    lines = ["strategy,share"] + [
        f"{code},{v:.17g}" for code, v in zip(CANONICAL_CODES, shares)
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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def entry() -> None:
    sys.exit(main())
