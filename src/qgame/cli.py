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
cuts the file at line starts into one byte range per free CPU, and a
forked process reads, decodes and parses each range into its own slice
of one shared result. The first process reads the header and counts
line ends, so it holds the parsed rows but never the file's text, and
`analyze` is faster where two cores are free. Any fault there, or in
the checks of the parsed rows, falls back to one process that reads the
file's lines, whose errors are the ones reported.

Each verb takes only the flags it reads. Exit status: 0 on success, 2
when an input file is missing or a flag is not one the verb takes, 1 on
any other validation, runtime or output failure.
"""

import argparse
import dataclasses
import io
import json
import os
import sys
import warnings
from itertools import accumulate
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
# fewest rows a forked child of `_parse_ranges` parses, give or take the
# lines that a cut at a byte offset moves: two children lose to one
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


def _line_ranges(fh, start: int, size: int, k: int) -> tuple[list[int], list[int]]:
    """Cuts the bytes of the binary file `fh` from `start` to its end at the
    first line start at or after each of start + (size - start) * i / k,
    0 < i < k, and counts each range's lines: its line feeds, and a last
    line with no end. A target in the last line cuts at the end itself,
    and no empty range follows that cut.
    Reads through one reused buffer, so that no line's text is held;
    returns the cuts, ends included, and the counts."""
    buf = bytearray(2**16)
    targets = [start + (size - start) * i // k for i in range(1, k)]
    cuts, counts = [start], []
    at, count, last = start, 0, ord("\n")  # buf[0]'s offset; lines since the last cut
    fh.seek(start)
    while got := fh.readinto(buf):
        done = 0  # buf[:done] is counted
        while targets and targets[0] <= at + got:
            cut = buf.find(b"\n", max(done, targets[0] - 1 - at), got) + 1
            if not cut:  # the line goes on into the next read
                break
            cuts.append(at + cut)
            counts.append(count + buf.count(b"\n", done, cut))
            count, done = 0, cut
            del targets[0]
        count += buf.count(b"\n", done, got)
        at, last = at + got, buf[got - 1]
    if at > cuts[-1]:
        cuts.append(at)
        counts.append(count + (last != ord("\n")))
    return cuts, counts


def _parse_ranges(fh, cuts: list[int], counts: list[int], width: int) -> np.ndarray | None:
    """The bytes of the binary file `fh` between each two `cuts`, parsed
    as np.loadtxt parses the lines of `errors.reading`, into one anonymous
    shared mapping of `counts` rows a range, allocated before the forks.
    Each range is parsed in a forked child that reads only its own bytes,
    decodes them as strict UTF-8 with universal newlines, and writes its
    values straight into its slice, so the parent only waits for the
    children's exit statuses. None where a range does not parse as exactly
    its count of rows of `width` values, which a blank line or a lone \\r
    in it also breaks, or a process cannot be started."""
    import mmap  # here, like multiprocessing: the CLI's import does not load it

    data = np.frombuffer(mmap.mmap(-1, sum(counts) * width * 8), dtype=np.float64)
    data = data.reshape(-1, width)
    rows = list(accumulate(counts, initial=0))
    pids = []
    try:
        for lo, hi, first, end in zip(cuts, cuts[1:], rows, rows[1:]):
            pid = os.fork()
            if pid == 0:  # the child
                code = 1
                try:
                    warnings.simplefilter("error")  # a warning fails the range, unprinted
                    text = io.TextIOWrapper(io.BytesIO(os.pread(fh.fileno(), hi - lo, lo)),
                                            encoding="utf-8")
                    part = np.loadtxt(text, delimiter=",", ndmin=2, comments=None)
                    # rows all one value wide would broadcast into the slice
                    if part.shape == (end - first, width):
                        data[first:end] = part
                        code = 0
                finally:
                    os._exit(code)
            pids.append(pid)
    except OSError:
        return None
    finally:
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]
    return data if not any(statuses) else None


def _parse_split(path: Path) -> tuple | None:
    """trajectory.csv's parsed rows, header, factors and strategies, the
    rows parsed in contiguous ranges of about `READ_PART_ROWS` rows or more,
    one per CPU, by `_parse_ranges`. The parent reads the file's first line
    that is not blank as the header, and after it only counts line ends.
    None, and no process started, where there are fewer than two ranges, no
    fork or `path` is not a regular file; None on any fault, so that the
    caller reads the file again in one process and reports it."""
    k = _cpu_count()
    # a pipe or a FIFO could not be read twice: it is not even opened here
    if k < 2 or not hasattr(os, "fork") or not os.path.isfile(path):
        return None
    try:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            for line in fh:
                head = line.decode("utf-8").replace("\r\n", "\n")
                if "\r" in head:  # a line end that the lines of `fh` do not see
                    return None
                if head.strip():
                    break
            else:
                return None
            header, factors, strategies = _parse_header(head)
            start = fh.tell()
            cuts, counts = _line_ranges(fh, start, size, k)
            k = min(k, sum(counts) // READ_PART_ROWS)
            if 2 <= k < len(counts):
                cuts, counts = _line_ranges(fh, start, size, k)
            if min(k, len(counts)) < 2:
                return None
            data = _parse_ranges(fh, cuts, counts, len(header))
    except (OSError, ValueError):  # a QGameError and a UnicodeDecodeError are ValueErrors
        return None
    return None if data is None else (data, header, factors, strategies)


def _checked(data: np.ndarray, header: list[str], factors: tuple,
             strategies: tuple) -> Trajectory | tuple[int, str]:
    """The trajectory of the parsed rows `data`, or the first fault as its
    row, counted from 0 after the header, and the text that follows the
    row's name: a cell that is not finite, a row that is not a state, or a
    t that does not rise."""
    if not np.isfinite(data).all():
        row, col = np.argwhere(~np.isfinite(data))[0]
        return row, f", column {header[col]}: {data[row, col]} is not a finite number"
    traj = Trajectory.from_rows(data, factors, strategies)
    fault = _state_fault(traj.x, traj.y, traj.z)
    if fault:
        row, block, i, text = fault
        labels = strategies if block == "y" else factors
        what = (f"columns {block}_{labels[0]} to {block}_{labels[-1]} sum to {text}"
                if i is None else f"column {block}_{labels[i]}: {text}")
        return row, f", {what}"
    stalls = np.flatnonzero(traj.t[1:] <= traj.t[:-1])
    if len(stalls):
        row = stalls[0] + 1
        return row, (f": t = {traj.t[row]} does not rise "
                     f"above the previous row's {traj.t[row - 1]}")
    return traj


def read_trajectory_csv(path: Path) -> Trajectory:
    """Rebuild a trajectory from its CSV export. Blank lines are skipped,
    and counted in the row numbers of a fault. Every cell must be a finite
    number, every row a state by the rule `GameState.validate` checks
    (x and y on their simplices, z in [0, 1]) and t must rise strictly.
    The utility column is not checked against the state: that needs the
    scores, which the file does not hold.

    From `2 * READ_PART_ROWS` rows on, where a second CPU is free,
    `_parse_split` parses the file in forked processes, one byte range
    each, and this process holds the parsed rows but never their text. A
    fault there, or any fault the checks find in its rows, falls back to
    one process that reads the file's lines through `errors.reading` and
    parses them again, so every fault reads the same from both paths."""
    split = _parse_split(path)
    traj = split and _checked(*split)
    if isinstance(traj, Trajectory):
        return traj
    with reading(path) as lines:
        kept = [ln for ln in lines if ln.strip()]
        if len(kept) < 2:
            raise QGameError("no trajectory rows")
        header, factors, strategies = _parse_header(kept[0])
        rows = kept[1:]
        try:
            data = np.loadtxt(rows, delimiter=",", ndmin=2, comments=None)
            if data.shape[1] != len(header):  # rows all of one other width: the first is named
                raise QGameError("the rows are not as wide as the header")
        except ValueError as exc:  # a QGameError is one too
            raise _row_fault(header, lines, rows, exc) from None
        traj = _checked(data, header, factors, strategies)
        if not isinstance(traj, Trajectory):
            row, text = traj
            raise QGameError(f"{_row_name(lines, row)}{text}")
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
