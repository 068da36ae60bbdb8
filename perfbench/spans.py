"""Layer spans recorded from outside polygas.

While a traced block runs, the functions ``polygas.cli`` looks up at call
time (``step``, ``audit_all``, ``write_ledger``, ``write_snapshot``,
``read_snapshot``, ``make_initial_layer``) are replaced by wrappers that
record a span around each call; the originals are put back when the block
ends.  The benchmark records the entry-point spans (``cli.run_simulation``,
``cli.audit_snapshots``) around its own calls the same way.  No polygas
source is touched, so a refactor that stops routing a call through
``polygas.cli`` leaves its span empty, and the benchmark refuses such a run.
"""

import json
import os
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

#: name looked up in polygas.cli -> span name (layer.function)
PATCHED = {
    "step": "scheme.step",
    "audit_all": "conservation.audit_all",
    "write_ledger": "conservation.write_ledger",
    "write_snapshot": "snapshots.write_snapshot",
    "read_snapshot": "snapshots.read_snapshot",
    "make_initial_layer": "problems.make_initial_layer",
}

#: per-layer metrics of a traced run: name -> (unit, better)
PER_LAYER = {
    "setup.import_s": ("s", "lower"),
    "cli.resolve_config_ms": ("ms", "lower"),
    "problems.initial_layer_ms": ("ms", "lower"),
    "scheme.step_ms_p50": ("ms", "lower"),
    "scheme.step_ms_p90": ("ms", "lower"),
    "scheme.share": ("ratio", "lower"),
    "scheme.ms_per_newton_iter": ("ms", "lower"),
    "scheme.newton_iters_per_step": ("count", "lower"),
    "scheme.rejected_steps": ("count", "lower"),
    "conservation.audit_ms_p50": ("ms", "lower"),
    "conservation.audit_ms_p90": ("ms", "lower"),
    "conservation.share": ("ratio", "lower"),
    "conservation.write_ledger_ms": ("ms", "lower"),
    "snapshots.write_ms_p50": ("ms", "lower"),
    "snapshots.write_ms_p90": ("ms", "lower"),
    "snapshots.write_mb_per_s": ("MB/s", "higher"),
    "snapshots.bytes_per_snapshot": ("B", "lower"),
    "snapshots.read_ms_p50": ("ms", "lower"),
    "snapshots.read_ms_p90": ("ms", "lower"),
    "snapshots.read_mb_per_s": ("MB/s", "higher"),
    "cli.self_share": ("ratio", "lower"),
    "cli.retained_mb": ("MB", "lower"),
    "trace.coverage": ("ratio", "higher"),
    "trace.overhead_frac": ("ratio", "lower"),
}

MB = 1024.0 * 1024.0


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: int


class SpanRecorder:
    """Spans and call counters kept in memory until the run ends."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.run = 0
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        span = Span(len(self.spans), name, time.perf_counter(), 0.0,
                    self._open[-1] if self._open else None, self.run)
        self.spans.append(span)
        self._open.append(span.id)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn):
        """fn with a span named `name` around every call and its counts."""
        def traced(*args, **kwargs):
            try:
                with self.span(name):
                    out = fn(*args, **kwargs)
            except Exception:
                self.counters[name + ".raised"] += 1
                raise
            self._count(name, args, out)
            return out
        return traced

    def _count(self, name: str, args: tuple, out) -> None:
        # outside the span, so stat calls do not count as layer time
        self.counters[name + ".calls"] += 1
        if name == "scheme.step":
            self.counters["scheme.iterations"] += out[1].iterations
        elif name == "snapshots.write_snapshot":
            self.counters["snapshots.write_bytes"] += sum(os.path.getsize(p) for p in out.values())
        elif name == "snapshots.read_snapshot":
            self.counters["snapshots.read_bytes"] += sum(os.path.getsize(p) for p in args[:2])

    @contextmanager
    def patched(self, module):
        """Route the PATCHED names of `module` through span wrappers."""
        saved = {attr: getattr(module, attr) for attr in PATCHED}
        for attr, name in PATCHED.items():
            setattr(module, attr, self.wrap(name, saved[attr]))
        try:
            yield
        finally:
            for attr, fn in saved.items():
                setattr(module, attr, fn)

    def durations(self, name: str) -> list[float]:
        return [s.end - s.start for s in self.spans if s.name == name]

    def self_times(self) -> dict[int, float]:
        """Each span's duration minus the time its direct children cover.

        Calls run one at a time, so children never overlap and their
        durations simply add up.
        """
        own = {s.id: s.end - s.start for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.id, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent, "run": s.run}) + "\n")


def _ms_quantiles(values: list[float]) -> tuple[float, float]:
    """(p50, p90) of durations in seconds, as milliseconds; zeros when empty."""
    if not values:
        return 0.0, 0.0
    if len(values) == 1:
        return values[0] * 1e3, values[0] * 1e3
    deciles = statistics.quantiles(values, n=10)
    return statistics.median(values) * 1e3, deciles[8] * 1e3


def layer_metrics(rec: SpanRecorder, traced_wall: float, bench_spans: tuple[str, ...]) -> dict:
    """Per-layer figures from the spans of the traced blocks.

    traced_wall is the wall time of the traced blocks, everything the
    benchmark did in them included; bench_spans names the entry-point spans the
    benchmark opened itself, whose total is the time the named layers cover.
    """
    c = rec.counters
    out: dict[str, float] = {}
    step = rec.durations("scheme.step")
    audit = rec.durations("conservation.audit_all")
    write = rec.durations("snapshots.write_snapshot")
    read = rec.durations("snapshots.read_snapshot")
    ledger = rec.durations("conservation.write_ledger")

    out["scheme.step_ms_p50"], out["scheme.step_ms_p90"] = _ms_quantiles(step)
    out["scheme.share"] = sum(step) / traced_wall
    accepted = c["scheme.step.calls"]
    out["scheme.ms_per_newton_iter"] = (sum(step) * 1e3 / c["scheme.iterations"]
                                        if c["scheme.iterations"] else 0.0)
    out["scheme.newton_iters_per_step"] = c["scheme.iterations"] / accepted if accepted else 0.0
    out["scheme.rejected_steps"] = c["scheme.step.raised"]

    out["conservation.audit_ms_p50"], out["conservation.audit_ms_p90"] = _ms_quantiles(audit)
    out["conservation.share"] = sum(audit) / traced_wall
    out["conservation.write_ledger_ms"] = statistics.median(ledger) * 1e3 if ledger else 0.0

    out["snapshots.write_ms_p50"], out["snapshots.write_ms_p90"] = _ms_quantiles(write)
    out["snapshots.write_mb_per_s"] = (c["snapshots.write_bytes"] / MB / sum(write)
                                       if write else 0.0)
    out["snapshots.bytes_per_snapshot"] = (c["snapshots.write_bytes"] / len(write)
                                           if write else 0.0)
    out["snapshots.read_ms_p50"], out["snapshots.read_ms_p90"] = _ms_quantiles(read)
    out["snapshots.read_mb_per_s"] = (c["snapshots.read_bytes"] / MB / sum(read)
                                      if read else 0.0)

    own = rec.self_times()
    entry = [s for s in rec.spans if s.name in bench_spans]
    out["cli.self_share"] = sum(own[s.id] for s in entry) / traced_wall
    out["trace.coverage"] = sum(s.end - s.start for s in entry) / traced_wall
    return out
