"""In-memory spans around the calls into qgame's modules.

The tracer replaces a function at the module attribute its caller looks
up (for example ``qgame.scenario.integrate``, which ``run_scenario``
reads from its own module globals) with a wrapper that records a span:
name, start, end, parent span and operation id. Spans stay in memory
and are written out once, with the worker's result, when the loop
ends. Nothing inside the package is edited; ``uninstall`` puts every
original function back.
"""

import time
from pathlib import Path

# (module, attribute, span name): every name a caller on the pipeline
# path looks up. cli binds load_scenario / run_scenario into its own
# namespace, so both bindings are wrapped under one span name.
TARGETS = (
    ("qgame.cli", "main", "cli.main"),
    ("qgame.cli", "write_trajectory_csv", "cli.write_trajectory_csv"),
    ("qgame.cli", "write_plotdata", "cli.write_plotdata"),
    ("qgame.cli", "read_trajectory_csv", "cli.read_trajectory_csv"),
    ("qgame.cli", "load_scenario", "scenario.load_scenario"),
    ("qgame.cli", "run_scenario", "scenario.run_scenario"),
    ("qgame.scenario", "load_scenario", "scenario.load_scenario"),
    ("qgame.scenario", "run_scenario", "scenario.run_scenario"),
    ("qgame.scenario", "load_zscores", "qdata.load_zscores"),
    ("qgame.scenario", "load_loadings", "qdata.load_loadings"),
    ("qgame.scenario", "load_share_table", "qdata.load_share_table"),
    ("qgame.scenario", "load_distribution", "sampling.load_distribution"),
    ("qgame.scenario", "sample_y0", "sampling.sample_y0"),
    ("qgame.scenario", "integrate", "dynamics.integrate"),
    ("qgame.analysis", "analyze", "analysis.analyze"),
)


def path_bytes(path) -> int:
    """Size of a file, or of all files under a directory."""
    p = Path(path)
    if p.is_dir():
        return sum(f.stat().st_size for f in p.rglob("*") if f.is_file())
    return p.stat().st_size


def _counts(name: str, args: tuple, result) -> dict:
    """Work done by one call, read from its arguments and result."""
    if name == "dynamics.integrate":
        return {"accepted_steps": int(result.meta["accepted_steps"]), "samples": len(result)}
    if name == "analysis.analyze":
        return {"samples": len(args[0])}
    if name == "sampling.sample_y0":
        dist, cfg = args[0], args[1]
        return {"draws": cfg.n_sequences * len(dist)}
    if name in ("cli.write_trajectory_csv", "cli.write_plotdata"):
        return {"bytes_written": path_bytes(args[1])}
    if name == "cli.read_trajectory_csv":
        return {"bytes_read": path_bytes(args[0])}
    return {}


class Tracer:
    """Records nested spans of one thread; one root span per operation."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op = -1
        self._originals: list[tuple[object, str, object]] = []

    def operation(self, op: int, key: int, fn, *args) -> dict:
        """Run one benchmark operation as a root span; returns its record.

        `key` names the operation's input, so that counts can be compared
        between operations on the same input.
        """
        self.op = op
        root = len(self.spans)
        self.span("op", fn, *args)
        self.spans[root]["key"] = key
        return self.spans[root]

    def span(self, name: str, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans)
        rec = {"id": sid, "parent": parent, "op": self.op, "name": name, "start": 0.0, "end": 0.0}
        self.spans.append(rec)
        self._stack.append(sid)
        rec["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()
        rec["counts"] = _counts(name, args, result)
        return result

    def install(self, modules: dict) -> None:
        for mod_name, attr, span_name in TARGETS:
            mod = modules[mod_name]
            fn = getattr(mod, attr)
            self._originals.append((mod, attr, fn))
            setattr(mod, attr, self._wrapper(span_name, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._originals):
            setattr(mod, attr, fn)
        self._originals.clear()

    def _wrapper(self, name: str, fn):
        def wrapped(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        wrapped.__wrapped__ = fn
        return wrapped


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the time its children cover.

    Calls on one thread nest and do not overlap, so the children's
    covered time is the sum of their durations.
    """
    out = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out
