"""polygas benchmark: seeded workloads through the public API, with gates.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; polygas is imported from its
``src/`` directory, never from an installed copy.  Set-up (``import
polygas`` in a fresh interpreter, ``resolve_config``, the initial layer and,
for ``sod-replay``, writing the snapshot set) is timed in SETUP_PROBES
separate processes.  The measured phase then repeats whole operations for S
seconds: one ``cli.run_simulation`` call per block on the stepping
workloads, REPLAY_PASSES ``cli.audit_snapshots`` passes over every snapshot
pair on ``sod-replay``.  Every block is checked (see README.md); a failed check
counts against ``ok_frac`` and makes the run incorrect.

With ``--trace 0`` the last stdout line reports the end-to-end metrics;
with ``--trace 1`` every other block runs with layer spans recorded (see
spans.py) and the line reports the per-layer metrics.  The line before it
is the environment record; both, and the spans, are also written under
``.perfbench-out/`` in the checkout.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

# numpy is imported inside functions only, once import_polygas() has limited
# BLAS to one thread
import spans as spans_mod
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
REFERENCE = HERE / "reference.npz"

#: one BLAS thread keeps the run to a single busy thread on a shared host
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5
#: passes over the snapshot set per replay block, so that a block lasts about
#: as long as a stepping one and the calibration around it costs as little
REPLAY_PASSES = 4
#: a typical calibration_s() on the host the benchmark was defined on; scaled
#: timings read as if every block had run on a host this fast
CALIBRATION_REF_S = 0.020
PROBE_TIMEOUT_S = 60
FIELDS = ("r", "u", "rho", "p", "eps")
ENTRY_SPANS = ("cli.run_simulation", "cli.audit_snapshots")

END_TO_END = {
    "steps_per_s": "steps/s",
    "setup_s": "s",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}


class SetupFailed(RuntimeError):
    """The benchmark could not prepare its inputs; no result is printed."""


def import_polygas():
    """polygas.cli from this checkout's src/ (raises SetupFailed otherwise).

    Also limits BLAS to one thread, here and in the set-up probes.
    """
    if not (SRC / "polygas" / "__init__.py").is_file():
        raise SetupFailed(f"no polygas sources under {SRC}")
    for var in BLAS_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    from polygas import cli
    if Path(cli.__file__).resolve().parent != SRC / "polygas":
        raise SetupFailed(f"polygas imported from {cli.__file__}, not from {SRC}")
    return cli


def fields(layer) -> dict:
    return {f: getattr(layer, f) for f in FIELDS}


def reference_problems(got: dict, key: str, tiny: bool, seed: int) -> list[str]:
    """Differences of a final layer from the stored reference (default seed only)."""
    if tiny or seed != workloads.DEFAULT_SEED:
        return []
    import numpy as np
    with np.load(REFERENCE, allow_pickle=False) as ref:
        problems = []
        for f in FIELDS:
            want = ref[f"{key}/{f}"]
            if want.shape != got[f].shape:
                problems.append(f"{f}: shape {got[f].shape}, reference {want.shape}")
                continue
            err = float(np.max(np.abs(got[f] - want)))
            if not err <= workloads.REFERENCE_RTOL * float(np.max(np.abs(want))):
                problems.append(f"{f} differs from the reference by {err:.3e}")
    return problems


# --- set-up ------------------------------------------------------------------------

def run_probes(wl, count: int, workdir: Path) -> list[dict]:
    """Time `count` set-ups, each in a fresh interpreter; replay probes write sets.

    Each probe carries the mean of the calibrations taken just before and
    just after it.
    """
    probes = []
    cal = calibration_s()
    for i in range(count):
        cmd = [sys.executable, str(HERE / "setup_probe.py"), json.dumps(wl.raw)]
        if wl.replay:
            cmd.append(str(workdir / f"set{i}"))
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise SetupFailed(f"set-up probe failed:\n{proc.stderr}")
        cal_after = calibration_s()
        probes.append(dict(json.loads(proc.stdout.splitlines()[-1]),
                           calibration_s=0.5 * (cal + cal_after)))
        cal = cal_after
    return probes


class Replay:
    """The snapshot set a replay audits, with the ledger lines each pair must give."""

    def __init__(self, cli, wl, set_dir: Path, probe: dict, tiny: bool):
        self.problems = []
        if probe["exit_code"] != 0 or probe["steps"] != wl.steps:
            self.problems.append(f"writing the set ended with exit code {probe['exit_code']} "
                                 f"after {probe['steps']} of {wl.steps} steps")
        nodes = sorted(set_dir.glob("snap_*_nodes.csv"))
        cells = [Path(str(p).replace("_nodes.csv", "_cells.csv")) for p in nodes]
        self.pairs = list(zip(nodes, cells, nodes[1:], cells[1:]))
        laws = len(cli.ALL_LAWS)
        lines = (set_dir / "ledger.jsonl").read_text().splitlines()
        # the ledger is step-major, one line per law in fixed order
        self.expected = [lines[k * laws:(k + 1) * laws] for k in range(len(self.pairs))]
        if len(self.pairs) != wl.steps or len(lines) != wl.steps * laws:
            self.problems.append(f"set holds {len(nodes)} snapshots and {len(lines)} ledger "
                                 f"lines for {wl.steps} steps")
        if nodes:
            last = cli.read_snapshot(nodes[-1], cells[-1])
            self.problems += reference_problems(fields(last), wl.reference, tiny, wl.seed)


# --- measured phase -----------------------------------------------------------------

def span(rec: spans_mod.SpanRecorder | None, name: str):
    return rec.span(name) if rec is not None else nullcontext()


class Bench:
    """Runs blocks of a workload, checks them and keeps the counts and timings."""

    def __init__(self, cli, wl, workdir: Path, tiny: bool, replay: Replay | None):
        self.cli, self.wl, self.tiny, self.replay = cli, wl, tiny, replay
        self.cfg = cli.resolve_config(wl.raw)
        self.out_dir = workdir / "run" if wl.writes and not wl.replay else None
        self.attempted = 0
        self.failed = 0
        self.first_final = None
        self.retained_bytes = 0
        self.reported = 0
        for problem in replay.problems if replay is not None else ():
            self.report(problem)

    def report(self, message: str) -> None:
        if self.reported < 5:
            print(f"perfbench: {self.wl.name}: {message}", file=sys.stderr)
        self.reported += 1

    def block(self, rec: spans_mod.SpanRecorder | None) -> tuple[float, int]:
        """One block; returns (seconds inside polygas calls, steps done)."""
        with rec.patched(self.cli) if rec is not None else nullcontext():
            if self.replay is not None:
                return self._replay_block(rec)
            return self._simulation(rec)

    def _simulation(self, rec) -> tuple[float, int]:
        wl = self.wl
        if self.out_dir is not None:
            shutil.rmtree(self.out_dir, ignore_errors=True)
        t0 = time.perf_counter()
        try:
            with span(rec, "cli.run_simulation"):
                result = self.cli.run_simulation(self.cfg, out_dir=self.out_dir)
        except Exception:
            self.report(traceback.format_exc())
            self.attempted += wl.steps
            self.failed += wl.steps
            return time.perf_counter() - t0, 0
        seconds = time.perf_counter() - t0

        attempted = result.steps + (1 if result.failure else 0)
        bad = {v["step"] for v in result.violations}
        if result.failure:
            bad.add(result.steps)
            self.report(f"step {result.steps} rejected: {result.failure}")
        if result.violations:
            self.report(f"{len(result.violations)} budget violations")
        problems = []
        if result.steps != wl.steps:
            problems.append(f"{result.steps} accepted steps, expected {wl.steps}")
        final = fields(result.final_layer)
        if self.first_final is None:
            self.first_final = final
            problems += reference_problems(final, wl.reference, self.tiny, wl.seed)
        elif not all((final[f] == self.first_final[f]).all() for f in FIELDS):
            problems.append("final layer differs from the first run's")
        if self.out_dir is not None:
            problems += self._output_problems(result)
        for problem in problems:
            self.report(problem)
        self.attempted += attempted
        self.failed += attempted if problems else len(bad)
        self.retained_bytes = retained_bytes(result)
        return seconds, result.steps

    def _output_problems(self, result) -> list[str]:
        problems = []
        ledger = (self.out_dir / "ledger.jsonl").read_text()
        if ledger != "".join(json.dumps(r) + "\n" for r in result.records):
            problems.append("ledger.jsonl does not match the run's records")
        if len(result.records) != result.steps * len(self.cli.ALL_LAWS):
            problems.append(f"{len(result.records)} ledger records for {result.steps} steps")
        written = len(list(self.out_dir.glob("snap_*_nodes.csv")))
        if written != result.steps + 1:
            problems.append(f"{written} snapshots for {result.steps} steps")
        summary = json.loads((self.out_dir / "summary.json").read_text())
        if summary["exit_code"] != 0 or summary["steps"] != result.steps:
            problems.append(f"summary.json disagrees with the run: {summary}")
        return problems

    def _replay_block(self, rec) -> tuple[float, int]:
        seconds = 0.0
        pairs = list(zip(self.replay.pairs, self.replay.expected)) * REPLAY_PASSES
        for (lo_n, lo_c, hi_n, hi_c), expected in pairs:
            t0 = time.perf_counter()
            try:
                with span(rec, "cli.audit_snapshots"):
                    records = self.cli.audit_snapshots(self.cfg, lo_n, lo_c, hi_n, hi_c)
                seconds += time.perf_counter() - t0
                ok = [json.dumps(r) for r in records] == expected
                if not ok:
                    self.report(f"audit of {hi_n.name} does not reproduce its ledger lines")
            except Exception:
                seconds += time.perf_counter() - t0
                self.report(traceback.format_exc())
                ok = False
            self.attempted += 1
            self.failed += 0 if ok and not self.replay.problems else 1
        return seconds, len(pairs)


def retained_bytes(result) -> int:
    """Bytes a SimulationResult keeps alive in per-step residual arrays and records.

    Record size counts each dict and its float values; the law names, flags
    and notes are shared objects and are left out.
    """
    arrays = sum(a.nbytes for rep in result.reports if rep.residuals
                 for a in rep.residuals.values())
    records = sum(sys.getsizeof(r) + sum(sys.getsizeof(v) for v in r.values()
                                         if type(v) is float)
                  for r in result.records)
    return arrays + records


def calibration_s() -> float:
    """Seconds this host takes for a fixed mix of interpreter and small-array work.

    polygas spends its time on the same two kinds of work, and when a shared
    host slows down both slow together, so dividing a timing by this one
    cancels the host's speed drift.
    """
    import numpy as np
    x = np.linspace(0.0, 1.0, 1601)
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(60000):
        acc += (i * 0.5) % 7.0
    for _ in range(1500):
        d = x[1:] - x[:-1]
        acc += float(np.abs(d).max())
        x = x * 1.0000001
    return time.perf_counter() - t0


def measure(bench: Bench, seconds: float, trace: bool) -> dict:
    """Repeat blocks for `seconds` (at least four); alternate traced blocks if `trace`.

    Blocks are (seconds inside polygas, steps, calibration seconds), where
    the calibration is the mean of those taken just before and just after
    the block.
    """
    rec = spans_mod.SpanRecorder() if trace else None
    plain, traced, traced_wall = [], [], 0.0
    deadline = time.perf_counter() + seconds
    cal = calibration_s()
    while len(plain) + len(traced) < 4 or time.perf_counter() < deadline:
        if trace and len(plain) > len(traced):
            rec.run += 1
            t0 = time.perf_counter()
            call, steps = bench.block(rec)
            traced_wall += time.perf_counter() - t0
            blocks = traced
        else:
            call, steps = bench.block(None)
            blocks = plain
        cal_after = calibration_s()
        blocks.append((call, steps, 0.5 * (cal + cal_after)))
        cal = cal_after
    return {"plain": plain, "traced": traced, "traced_wall": traced_wall, "recorder": rec}


def reference_seconds(seconds: float, cal: float) -> float:
    """A timing scaled to a host whose calibration takes CALIBRATION_REF_S."""
    return seconds * CALIBRATION_REF_S / cal


def rate(blocks: list[tuple], scaled: bool = True) -> float:
    """Steps per (scaled) second over all blocks; 0 if no block made a step."""
    steps = sum(steps for _, steps, _ in blocks)
    seconds = sum(reference_seconds(call, cal) if scaled else call for call, _, cal in blocks)
    return steps / seconds if steps else 0.0


# --- environment ----------------------------------------------------------------------

def environment(wl, args) -> dict:
    import numpy
    import scipy
    digest = hashlib.sha256()
    for path in sorted((SRC / "polygas").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    try:
        os_threads = len(os.listdir("/proc/self/task"))
    except OSError:
        os_threads = None
    return {
        "workload": wl.name, "seed": wl.seed, "draws": wl.draws,
        "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "os_threads": os_threads, "platform": platform.platform(),
        "commit": commit, "src_sha256": digest.hexdigest(),
    }


# --- entry point -------------------------------------------------------------------

def run(args, tamper=None) -> tuple[dict, dict]:
    """Set up, measure and check one workload; returns (result line, record).

    `tamper(set_dir)` may alter a replay's snapshot set before it is read;
    tests use it to show that the gates fail.
    """
    wl = workloads.build(args.workload, args.seed, tiny=args.smoke)
    cli = import_polygas()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{wl.name}-{os.getpid()}"
    try:
        probes = run_probes(wl, 1 if args.smoke else SETUP_PROBES, workdir)
        replay = None
        if wl.replay:
            set_dir = workdir / f"set{len(probes) - 1}"
            if tamper is not None:
                tamper(set_dir)
            replay = Replay(cli, wl, set_dir, probes[-1], args.smoke)
        bench = Bench(cli, wl, workdir, args.smoke, replay)
        phase = measure(bench, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    setup = {key: statistics.median(reference_seconds(p[key], p["calibration_s"]) for p in probes)
             for key in ("total_s", "import_s", "resolve_config_s", "initial_layer_s")}
    if args.trace:
        rec = phase["recorder"]
        missing = [name for name in wl.spans if not rec.durations(name)]
        if missing:
            raise SetupFailed(f"no spans recorded for {', '.join(missing)}: a layer "
                              "boundary moved out of polygas.cli; update spans.py")
        values = spans_mod.layer_metrics(rec, phase["traced_wall"], ENTRY_SPANS)
        traced_rate = rate(phase["traced"])
        values.update({
            "setup.import_s": setup["import_s"],
            "cli.resolve_config_ms": setup["resolve_config_s"] * 1e3,
            "problems.initial_layer_ms": setup["initial_layer_s"] * 1e3,
            "cli.retained_mb": bench.retained_bytes / spans_mod.MB,
            "trace.overhead_frac": (rate(phase["plain"]) / traced_rate - 1.0
                                    if traced_rate else 0.0),
        })
        units = {name: unit for name, (unit, _) in spans_mod.PER_LAYER.items()}
    else:
        rec = None
        values = {
            "steps_per_s": rate(phase["plain"]),
            "setup_s": setup["total_s"],
            "ok_frac": (bench.attempted - bench.failed) / bench.attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    line = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    unscaled = {"steps_per_s": rate(phase["plain"], scaled=False),
                "setup_s": statistics.median(p["total_s"] for p in probes)}
    record = {"env": environment(wl, args), "setup_probes": probes, "unscaled": unscaled,
              "blocks": {"plain": phase["plain"], "traced": phase["traced"]}, "result": line}
    stem = OUT / f"{wl.name}-seed{wl.seed}-trace{args.trace}"
    with open(f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    if rec is not None:
        rec.write(f"{stem}-spans.jsonl")
    return line, record


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one set-up probe, for testing the benchmark")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        line, record = run(args)
    except (SetupFailed, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"env": record["env"]}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
