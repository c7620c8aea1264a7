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
the one reader of trajectory.csv. From `2 * READ_PART_ROWS` rows on, it
parses one contiguous range of rows per free CPU, each in a forked
process that writes its values into its own slice of one shared result,
so `analyze` is faster where two cores are free; any fault there falls
back to one process, whose errors are the ones reported.

Each verb takes only the flags it reads. Exit status: 0 on success, 2
when an input file is missing or a flag is not one the verb takes, 1 on
any other validation, runtime or output failure.
"""

import argparse
import dataclasses
import json
import os
import sys
from operator import itemgetter
from pathlib import Path

import numpy as np

from . import analysis as an
from .dynamics import Trajectory, _state_fault
from .errors import QGameError, reading
from .qdata import flag_stakeholders, load_loadings
from .sampling import SamplerConfig, _cpu_count, load_distribution, sample_y0
from .scenario import load_scenario, run_scenario
from .strategy_space import CANONICAL_CODES, parse_code

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_FOUND = 2
WRITER_EXIT_S = 10  # wait for the writer process to exit before killing it
# fewest rows a child of `_parse_split` parses: two children lose to one
# process on 500 rows in all, and win on 1000
READ_PART_ROWS = 512


def _write(path: Path, chunks) -> None:
    """Writes the strings `chunks` to `path`, creating its directory. Any
    fault is an output fault: a QGameError with the OS's text, which names
    `path` where the OS names no file."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        exc.filename = exc.filename or str(path)
        raise QGameError(str(exc)) from None


def _format_rows(conn, parent_end, header: list[str]) -> None:
    """Body of the writer process that `simulate` starts.

    Derives each plotdata/ panel's columns from `header` once: t and its
    own. Formats each row of a block once as the block arrives: that line
    is trajectory.csv's, and its cells are cut into every panel's line. A
    request (path, panels) writes trajectory.csv to path, or the panels
    into the directory path, through `_write`, and is answered None or
    with the text of the fault that stopped it. Ends when the parent's end
    closes.
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
            for name, text in texts.items():
                if bool(name) == panels:  # path / "" is path
                    _write(path / name, text)
        except QGameError as exc:
            conn.send(str(exc))
        else:
            conn.send(None)


class _TrajectoryWriter:
    """The writer process and its pipe; `add_samples` is `integrate`'s
    `on_samples`. The process is started with trajectory.csv's `header`,
    and ended on close."""

    def __init__(self, header: list[str]):
        # imported here, so that `import qgame` does not load it
        import multiprocessing

        # fork, not forkserver (Python 3.14's default on Linux) or spawn: the
        # child is a copy of this process and starts at once, importing
        # nothing. Spawn only where there is no fork, as on Windows.
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
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
        `panels` the plotdata/ panels into the directory `path`; a fault
        there is a QGameError with the writer process's text."""
        fault = self._exchange((path, panels), path)
        if fault is not None:
            raise QGameError(fault)

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


def _parse_header(line: str) -> tuple[list[str], tuple[str, ...], tuple[str, ...]]:
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
            raise QGameError(f"header column {i + 1}, {name!r}, repeats column "
                             f"{header.index(name) + 1}")
        if name != want:
            raise QGameError(f"header column {i + 1}, {name!r}, is out of place: expected t, "
                             "x_<f>..., z_<f>... over the same factors, y_<s>..., utility")
    if not factors or not strategies:
        col, kind = (2 + 2 * n, "y_") if factors else (2, "x_")
        raise QGameError(f"header column {col} must be the first {kind} column")
    return header, factors, strategies


def _row_name(lines: list[str], r: int) -> str:
    """'row N after the header' for the row r, counted from 0 after the
    header, of the lines that are not blank: N counts every line of the
    file after the header, blank ones too."""
    kept = [i for i, line in enumerate(lines) if line.strip()]
    return f"row {kept[r + 1] - kept[0]} after the header"


def _row_fault(header: list[str], lines: list[str], rows: list[str],
               exc: ValueError) -> QGameError:
    """The first of `rows`, the lines of `lines` after the header that are
    not blank, that is not as wide as the header or holds a cell that is
    not a number; else `exc`, the fault the caller saw: np.loadtxt's own
    account, for a cell such as '1_0' that float() reads and it does not."""
    for r, line in enumerate(rows):
        cells = line.rstrip("\n").split(",")
        if len(cells) != len(header):
            return QGameError(
                f"{_row_name(lines, r)} has {len(cells)} values, the header names {len(header)}"
            )
        for name, cell in zip(header, cells):
            try:
                float(cell)
            except ValueError:
                return QGameError(f"{_row_name(lines, r)}, column {name}: {cell!r} is not a number")
    return QGameError(str(exc))


def _parse_split(rows: list[str], width: int) -> np.ndarray | None:
    """`rows` parsed as np.loadtxt parses them all at once, cut into
    contiguous ranges of at least `READ_PART_ROWS` rows, one per CPU. The
    result is one anonymous shared mapping, allocated before the forks, and
    each range is parsed in a forked child that writes its values straight
    into the range's slice, so the parent only waits for the children's
    exit statuses. None, and no process started, where there are fewer than
    two ranges or no fork. None where a range does not parse as exactly
    `width` values a row or a process cannot be started, so that the
    caller parses the rows again in one process."""
    n = len(rows)
    k = min(_cpu_count(), n // READ_PART_ROWS)
    if k < 2 or not hasattr(os, "fork"):
        return None
    import mmap  # here, like multiprocessing: the CLI's import does not load it

    cuts = [i * n // k for i in range(k + 1)]
    data = np.frombuffer(mmap.mmap(-1, n * width * 8), dtype=np.float64).reshape(n, width)
    pids = []
    try:
        for lo, hi in zip(cuts, cuts[1:]):
            pid = os.fork()
            if pid == 0:  # the child
                code = 1
                try:
                    part = np.loadtxt(rows[lo:hi], delimiter=",", ndmin=2, comments=None)
                    # rows all one value wide would broadcast into the slice
                    if part.shape == (hi - lo, width):
                        data[lo:hi] = part
                        code = 0
                finally:
                    os._exit(code)
            pids.append(pid)
    except OSError:
        return None
    finally:
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]
    return data if not any(statuses) else None


def read_trajectory_csv(path: Path) -> Trajectory:
    """Rebuild a trajectory from its CSV export. Blank lines are skipped,
    and counted in the row numbers of a fault. Every cell must be a finite
    number, every row a state by the rule `GameState.validate` checks
    (x and y on their simplices, z in [0, 1]) and t must rise strictly.
    The utility column is not checked against the state: that needs the
    scores, which the file does not hold."""
    with reading(path) as lines:
        kept = [ln for ln in lines if ln.strip()]
        if len(kept) < 2:
            raise QGameError("no trajectory rows")
        header, factors, strategies = _parse_header(kept[0])
        rows = kept[1:]
        data = _parse_split(rows, len(header))
        if data is None:
            try:
                data = np.loadtxt(rows, delimiter=",", ndmin=2, comments=None)
                if data.shape[1] != len(header):  # rows all of one other width: the first is named
                    raise QGameError("the rows are not as wide as the header")
            except ValueError as exc:  # a QGameError is one too
                raise _row_fault(header, lines, rows, exc) from None
        bad = ~np.isfinite(data)
        if bad.any():
            row, col = np.argwhere(bad)[0]
            raise QGameError(f"{_row_name(lines, row)}, column {header[col]}: "
                             f"{data[row, col]} is not a finite number")
        traj = Trajectory.from_rows(data, factors, strategies)
        fault = _state_fault(traj.x, traj.y, traj.z)
        if fault:
            row, block, i, text = fault
            labels = strategies if block == "y" else factors
            what = (f"columns {block}_{labels[0]} to {block}_{labels[-1]} sum to {text}"
                    if i is None else f"column {block}_{labels[i]}: {text}")
            raise QGameError(f"{_row_name(lines, row)}, {what}")
        stalls = np.flatnonzero(traj.t[1:] <= traj.t[:-1])
        if len(stalls):
            row = stalls[0] + 1
            raise QGameError(f"{_row_name(lines, row)}: t = {traj.t[row]} does not rise "
                             f"above the previous row's {traj.t[row - 1]}")
        return traj


def write_plotdata(traj: Trajectory, plot_dir: Path, writer: _TrajectoryWriter) -> None:
    """Per-figure CSV panels of `traj`: x, z, utility, and y split by Tool
    level, each t and some of trajectory.csv's columns with the same text,
    which `writer` cut from each row as it formatted it."""
    writer.write(plot_dir, panels=True)


def cmd_simulate(args) -> int:
    scenario = load_scenario(args.scenario, sampler_seed=args.seed)
    overrides = {
        key: value
        for key in ("t_end", "step", "method")
        if (value := getattr(args, key)) is not None
    }
    config = dataclasses.replace(scenario.integrator, **overrides)
    header = _header(scenario.scores.factor_labels, scenario.scores.strategy_labels)
    out_dir = Path(args.output or "out")
    with _TrajectoryWriter(header) as writer:
        traj = run_scenario(scenario, config, on_samples=writer.add_samples)
        report = an.analyze(traj, scenario.analysis)
        report_text = _report_json(report)

        write_trajectory_csv(traj, out_dir / "trajectory.csv", writer)
        write_plotdata(traj, out_dir / "plotdata", writer)
    _write(out_dir / "report.json", [report_text])

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
        _write(Path(args.output), ["\n".join(lines) + "\n"])
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
    _write(out_dir / "report.json", [report_text])
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
