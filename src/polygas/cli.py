"""Batch driver: run, convergence and audit subcommands over JSON configs.

Configs are strict: unknown keys anywhere are an error, so typos cannot
silently disable an option.  Runs are deterministic — identical configs
produce byte-identical snapshots and ledgers.

Exit codes: 0 success, 1 solver failure, 2 conservation-budget violation,
3 bad configuration or unreadable input.  Log verbosity comes from the
POLYGAS_LOG environment variable (debug/info/warning/error).
"""

import argparse
import dataclasses
import json
import logging
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .conservation import ALL_LAWS, LawId, audit_all, write_ledger
from .mesh import MeshError
from .problems import (EulerProfile, ProblemError, _uniform_nodes, invert_mass_coordinate,
                       make_initial_layer, mass_coordinate, problem_library)
from .scheme import (
    FLOOR_REASON,
    BoundaryCondition,
    ConfigError,
    PressureTrace,
    SchemeParams,
    StepRejected,
    step,
)
from .snapshots import SnapshotError, read_snapshot, read_snapshot_meta, write_snapshot
from .state import GridLayer, LayerError, TwoLayerView, cell_average, exact_sums

log = logging.getLogger("polygas")


# --- configuration --------------------------------------------------------------

@dataclass
class RunConfig:
    """A fully resolved run: profile + scheme parameters + schedule.

    max_halvings is how often a rejected step is retried at half its tau
    (0: never), the config's time.max_halvings.
    """

    profile: EulerProfile
    params: SchemeParams
    t_end: float
    tau: float
    snapshot_every: int = 0
    output_dir: str | None = None
    laws: tuple[LawId, ...] = ALL_LAWS
    budget_tol: float = 1e-10
    max_halvings: int = 0
    problem_name: str = ""


def _integer(value, context: str) -> int:
    """A JSON integer (2 or 2.0); a fraction, a boolean or a string is an error."""
    if type(value) is not int and not (type(value) is float and value.is_integer()):
        raise ConfigError(f"{context} must be an integer, got {value!r}")
    return int(value)


def _count(value, context: str) -> int:
    if _integer(value, context) < 0:
        raise ConfigError(f"{context} must be >= 0, got {value!r}")
    return int(value)


def _number(value, context: str) -> int | float:
    """A finite JSON number, as given; a boolean, a string, Infinity or NaN is an error."""
    if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{context} must be a finite number, got {value!r}")
    return value


def _positive(value, context: str) -> float:
    if not _number(value, context) > 0.0:
        raise ConfigError(f"{context} must be positive, got {value!r}")
    return float(value)


def _number_list(value, context: str) -> np.ndarray:
    """A JSON list of finite numbers, as a float array."""
    if not isinstance(value, list):
        raise ConfigError(f"{context} must be a list of numbers, got {value!r}")
    return np.array([_number(x, context) for x in value], dtype=float)


def _typed(what: str, *types):
    """Checker for a value of exactly one of `types` (so a boolean is no int)."""
    def check(value, context: str):
        if type(value) not in types:
            raise ConfigError(f"{context} must be {what}, got {value!r}")
        return value
    return check


_text = _typed("a string", str)


def _block(raw, table: dict, context: str, required=()) -> dict:
    """The checked values of the config object `raw`.

    `table` maps each allowed key to its checker, (value, context) -> value,
    which raises ConfigError naming the key's path.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"{context} must be an object, got {type(raw).__name__}")
    unknown = set(raw) - set(table)
    if unknown:
        raise ConfigError(f"unknown key(s) in {context}: {sorted(unknown)}")
    missing = [key for key in required if key not in raw]
    if missing:
        raise ConfigError(f"{context} needs {', '.join(missing)}")
    return {key: table[key](value, f"{context}.{key}") for key, value in raw.items()}


def _trace(raw, context: str) -> PressureTrace:
    """A constant pressure, or an object of the _TRACE table."""
    if not isinstance(raw, dict):
        return PressureTrace(p0=_number(raw, context))
    return PressureTrace(**_block(raw, _TRACE, context))


def _boundary(raw, context: str) -> BoundaryCondition:
    bc = _block(raw, _BOUNDARY, context)
    kind = bc.pop("kind", None)
    if kind not in ("wall", "pressure"):
        raise ConfigError(f"{context}: boundary kind must be 'wall' or 'pressure', got {kind!r}")
    extra = set(bc) - ({"u_wall"} if kind == "wall" else {"trace"})
    if extra:
        raise ConfigError(f"{context}: {kind} boundary takes no {sorted(extra)}")
    if kind == "wall":
        return BoundaryCondition.wall(bc.get("u_wall", 0.0))
    if "trace" not in bc:
        raise ConfigError(f"{context}: pressure boundary needs a 'trace'")
    return BoundaryCondition.pressure(bc["trace"])


def _laws(raw, context: str) -> tuple[LawId, ...]:
    if raw in ("all", "none"):
        return ALL_LAWS if raw == "all" else ()
    if not isinstance(raw, list):
        raise ConfigError(f"{context} must be \"all\", \"none\" or a list of law names")
    known = {law.value: law for law in LawId}
    for name in raw:
        if type(name) is not str or name not in known:
            raise ConfigError(f"{context}: unknown conservation law {name!r}; "
                              f"known: {sorted(known)}")
    return tuple(known[name] for name in raw)


def _problem(raw, context: str) -> tuple[str, dict]:
    """A problem name, or an object of a 'name' and that problem's options."""
    if isinstance(raw, str):
        return raw, {}
    if not isinstance(raw, dict) or "name" not in raw:
        raise ConfigError(f"{context} must be a name or an object with a 'name', got {raw!r}")
    # problem_library checks the option names; their values are numbers, cells integral
    options = {key: (_integer if key == "cells" else _number)(value, f"{context}.{key}")
               for key, value in raw.items() if key != "name"}
    return raw["name"], options


_TRACE = {"kind": _text, "p0": _number, "rate": _number}
_BOUNDARY = {"kind": _text, "u_wall": _number, "trace": _trace}
_PARAMS = {"n": _integer, "gamma": _number, "alpha": _number, "eos_mode": _text,
           "visc_nu": _number, "newton_tol": _number, "newton_max_iter": _integer,
           "bc_left": _boundary, "bc_right": _boundary}
_TIME = {"t_end": _positive, "tau": _positive, "max_halvings": _count}
_MESH = {"cells": _integer, "r_nodes": _number_list, "s_min": _number, "s_max": _number,
         "s_nodes": _number_list}
_MESH_FORMS = ({"r_nodes"}, {"s_min", "s_max", "cells"}, {"s_nodes"})
_TOP = {"problem": _problem, "audit": _laws, "budget_tol": _positive, "snapshot_every": _count,
        "output_dir": _typed("a path string or null", str, type(None)),
        "mesh": lambda raw, context: _block(raw, _MESH, context),
        "params": lambda raw, context: _block(raw, _PARAMS, context),
        "time": lambda raw, context: _block(raw, _TIME, context, required=("t_end", "tau"))}


def _resolve_mesh(spec: dict, profile: EulerProfile, n: int) -> EulerProfile:
    """Apply a checked mesh block: replace the profile's node radii."""
    if not spec:
        return profile
    if set(spec) not in _MESH_FORMS:
        raise ConfigError(f"mesh spec must be one of {[sorted(f) for f in _MESH_FORMS]}, "
                          f"got keys {sorted(spec)}; a mesh uniform in r is problem.cells")
    if "r_nodes" in spec:
        return dataclasses.replace(profile, r_nodes=spec["r_nodes"])
    if "s_nodes" in spec:
        s = np.asarray(spec["s_nodes"], dtype=float)
    else:
        s = _uniform_nodes(spec["s_min"], spec["s_max"], spec["cells"])
    profile = dataclasses.replace(profile, r_nodes=invert_mass_coordinate(profile, n, s))
    # the run rebuilds s from midpoint densities, starting at 0; a cell across a
    # density jump gets one side's density and so a different mass.  Round-off
    # scales with s itself, not with the span of an offset mesh.
    ran = mass_coordinate(profile, n).s
    off = np.nonzero(np.abs(ran - (s - s[0])) > 1e-12 * s[-1])[0]
    if off.size:
        i = int(off[0])
        raise ConfigError(f"mass-coordinate mesh node {i} at s={float(s[i])!r} would run at "
                          f"s={float(s[0] + ran[i])!r}: a cell straddles a density jump; "
                          f"put a node on every jump")
    return profile


def resolve_config(raw: dict) -> RunConfig:
    """Check a raw config mapping against the tables and build the RunConfig."""
    config = _block(raw, _TOP, "config", required=("time",))
    name, options = config.get("problem", ("uniform", {}))
    given = config.get("params", {})
    profile, params = problem_library(name, **options)
    if "gamma" in options and "gamma" in given and options["gamma"] != given["gamma"]:
        raise ConfigError(f"config.problem.gamma {options['gamma']!r} and config.params.gamma "
                          f"{given['gamma']!r} differ: a run has one gamma")
    params = dataclasses.replace(params, **given)
    # the profile's gamma must match the scheme's so eps = p/((gamma-1) rho)
    profile = dataclasses.replace(profile, gamma=params.gamma)
    mesh = config.get("mesh", {})
    profile = _resolve_mesh(mesh, profile, params.n)
    # a mesh block sets the cells and r_nodes the interval too; the
    # mass-coordinate forms invert on the problem's [r_min, r_max]
    if mesh:
        for key in ("cells", "r_min", "r_max") if "r_nodes" in mesh else ("cells",):
            if key in options:
                mesh_key = "cells" if "cells" in mesh else next(iter(mesh))
                raise ConfigError(f"config.problem.{key} and config.mesh.{mesh_key} both "
                                  f"set the mesh: give one")
    time = config["time"]
    return RunConfig(
        profile=profile, params=params, t_end=time["t_end"], tau=time["tau"],
        snapshot_every=config.get("snapshot_every", 0),
        output_dir=config.get("output_dir"),
        laws=config.get("audit", ALL_LAWS),
        budget_tol=config.get("budget_tol", 1e-10),
        max_halvings=time.get("max_halvings", 0), problem_name=name)


def load_config(path) -> RunConfig:
    try:
        return resolve_config(json.loads(Path(path).read_text(encoding="utf-8")))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"{path}: not valid UTF-8 JSON: {exc}") from None


def with_resolution(cfg: RunConfig, cells: int, tau: float) -> RunConfig:
    """Same run on `cells` cells uniform in r; needs a mesh uniform in r, its
    nodes equal to np.linspace's, as problem.cells builds them."""
    r = cfg.profile.r_nodes
    if not np.array_equal(r, np.linspace(r[0], r[-1], r.size)):
        raise ConfigError("convergence studies need a mesh uniform in r, as problem.cells gives")
    profile = dataclasses.replace(cfg.profile, r_nodes=_uniform_nodes(r[0], r[-1], cells))
    return dataclasses.replace(cfg, profile=profile, tau=tau, output_dir=None, snapshot_every=0)


# --- run driver -------------------------------------------------------------------

@dataclass
class SimulationResult:
    initial_layer: GridLayer
    final_layer: GridLayer
    steps: int
    records: list[dict]
    violations: list[dict]
    failure: str | None
    exit_code: int
    reports: list


def _totals(layer: GridLayer, n: int) -> dict:
    h, m = layer.mesh.h, layer.mesh.nodal_masses  # total_cell/nodal_quantity's rows
    rows = {"volume": h * (1.0 / layer.rho),
            "energy": h * (layer.eps + 0.5 * cell_average(layer.u * layer.u))}
    if n == 0:
        rows["momentum"] = m * layer.u
        rows["center_of_mass"] = m * (layer.r - layer.t * layer.u)
    return dict(zip(rows, exact_sums(rows.values())))


#: a run audits its accepted steps in batches of max(1, this // (N+1)) steps:
#: 40 per call at 100 cells, 10 at 400, 2 at 1600 and 1 from 2048 cells on.
#: At 1600 cells the batch audits in less memory than one step takes, so
#: glibc's heap neither grows nor trims around the audit
AUDIT_BATCH_ELEMENTS = 4096


def _start_layer(cfg: RunConfig) -> GridLayer:
    """The run's initial layer, each wall node at its wall velocity: no step
    may jump it there, as that impulse has no boundary flux in any budget."""
    layer = make_initial_layer(cfg.profile, cfg.params.n)
    u = layer.u.copy()
    for i, bc in ((0, cfg.params.bc_left), (-1, cfg.params.bc_right)):
        if bc.kind == "wall":
            u[i] = bc.u_wall
    # array_equal leaves a resting node's -0.0 as it is
    return layer if np.array_equal(u, layer.u) else dataclasses.replace(layer, u=u)


def _halving_step(layer: GridLayer, tau: float, cfg: RunConfig, earlier: tuple) -> tuple:
    """(hi, report, tau taken), retried at half tau up to cfg.max_halvings times."""
    for _ in range(cfg.max_halvings):
        try:
            return (*step(layer, tau, cfg.params, earlier=earlier), tau)
        except StepRejected:
            tau *= 0.5
    return (*step(layer, tau, cfg.params, earlier=earlier), tau)


def _audited(batch: list, cfg: RunConfig, lo_totals: dict):
    """Audit consecutive accepted steps, (view, report) pairs, in one call and
    yield each with its budgets; lo_totals carries hi totals between calls."""
    if not batch:
        return
    budgets = audit_all([view for view, _ in batch], cfg.params, cfg.laws, lo_totals=lo_totals)
    lo_totals.update((budget.law, budget.density_sum_hi) for budget in budgets)
    per_step = len(budgets) // len(batch)
    for k, (view, report) in enumerate(batch):
        yield view, report, budgets[k * per_step:(k + 1) * per_step]


def iter_steps(cfg: RunConfig, layer: GridLayer | None = None):
    """Advance from `layer` (default: the run's start layer) to cfg.t_end,
    yielding (view, report, budgets) for each accepted step once it is audited.

    A step still rejected after cfg.max_halvings halvings of its tau raises its
    StepRejected, which carries the report, after the steps before it.  Newton
    starts from the last accepted layers.  Audits take batches of max(1,
    AUDIT_BATCH_ELEMENTS // (N+1)) steps.  A negative max_halvings raises here.
    """
    if cfg.max_halvings < 0:
        raise ConfigError(f"max_halvings must be >= 0, got {cfg.max_halvings}")
    return _steps(cfg, _start_layer(cfg) if layer is None else layer)


def _steps(cfg: RunConfig, layer: GridLayer):
    batch: list = []  # (view, report) of accepted steps not yet audited
    batch_steps = max(1, AUDIT_BATCH_ELEMENTS // layer.mesh.n_nodes)
    lo_totals: dict = {}  # hi totals of the last audit: the next batch's lo totals
    earlier: tuple = ()  # the accepted layers before `layer`, newest first
    while (remaining := cfg.t_end - layer.t) > 1e-9 * cfg.tau:
        try:
            hi, report, tau = _halving_step(layer, min(cfg.tau, remaining), cfg, earlier)
        except StepRejected:
            yield from _audited(batch, cfg, lo_totals)
            raise
        batch.append((TwoLayerView(lo=layer, hi=hi, tau=tau), report))
        earlier, layer = (layer, *earlier[:1]), hi
        if len(batch) == batch_steps:
            yield from _audited(batch, cfg, lo_totals)
            batch = []
    yield from _audited(batch, cfg, lo_totals)


def run_simulation(cfg: RunConfig, out_dir=None) -> SimulationResult:
    """Run iter_steps from the start layer to t_end and collect its records.

    Writes snapshots/ledger/summary when out_dir is given.  A step still
    rejected after cfg.max_halvings halvings stops the run with exit code 1;
    a violated expected-zero budget marks exit code 2; otherwise 0.
    """
    out_path = Path(out_dir) if out_dir is not None else None
    initial = layer = _start_layer(cfg)
    steps = iter_steps(cfg, initial)
    if out_path is not None:
        write_snapshot(layer, out_path, step=0)

    records: list[dict] = []
    violations: list[dict] = []
    reports = []
    failure = None
    step_index = 0
    last_written = 0
    try:
        for view, report, budgets in steps:
            for budget in budgets:
                record = budget.to_record(step=step_index, t=view.lo.t, tau=view.tau)
                records.append(record)
                if budget.applicable and budget.expected_zero \
                        and budget.relative_defect > cfg.budget_tol:
                    violations.append(record)
            reports.append(report)
            layer = view.hi
            step_index += 1
            log.debug("step %d: t=%g, %d Newton iterations, residual %.3e",
                      step_index, layer.t, report.iterations, report.final_residual_norm)
            if out_path is not None and cfg.snapshot_every and step_index % cfg.snapshot_every == 0:
                write_snapshot(layer, out_path, step=step_index, tau=view.tau)
                last_written = step_index
    except StepRejected as exc:
        failure = str(exc)
        reports.append(exc.report)

    exit_code = 1 if failure else (2 if violations else 0)
    if out_path is not None:
        if step_index != last_written:
            write_snapshot(layer, out_path, step=step_index)
        write_ledger(records, out_path / "ledger.jsonl")
        accepted = [r for r in reports if r.accepted]
        summary = {
            "problem": cfg.problem_name,
            "n": cfg.params.n,
            "gamma": cfg.params.gamma,
            "eos_mode": cfg.params.eos_mode,
            "cells": layer.mesh.n_cells,
            "steps": step_index,
            "t_final": layer.t,
            "failure": failure,
            "budget_violations": len(violations),
            "newton_iterations_total": sum(r.iterations for r in accepted),
            "newton_iterations_max": max((r.iterations for r in accepted), default=0),
            "floor_converged_steps": sum(r.reason == FLOOR_REASON for r in accepted),
            "exit_code": exit_code,
            "totals_initial": _totals(initial, cfg.params.n),
            "totals_final": _totals(layer, cfg.params.n),
        }
        with open(out_path / "summary.json", "w") as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")
    # a failure is the caller's to report: `run` logs it, a convergence level raises it
    if violations and not failure:
        log.warning("run finished with %d budget violations", len(violations))
    elif not failure:
        log.info("run finished: %d steps to t=%g", step_index, layer.t)
    return SimulationResult(
        initial_layer=initial, final_layer=layer, steps=step_index, records=records,
        violations=violations, failure=failure, exit_code=exit_code, reports=reports)


# --- convergence study --------------------------------------------------------------

def _order_pairs(errors: list[float], scale: float) -> list:
    """log2 ratios of successive errors; 'exact' when below the noise floor."""
    floor = 1e-13 * max(1.0, scale)
    orders = []
    for e_coarse, e_fine in zip(errors, errors[1:]):
        if e_coarse < floor or e_fine < floor:
            orders.append("exact")
        else:
            orders.append(math.log2(e_coarse / e_fine))
    return orders


def convergence_study(cfg: RunConfig, levels: int = 3, mode: str = "both") -> dict:
    """Self-convergence of the final velocity field under mesh/step refinement.

    Spatial: (cells, tau) -> (2 cells, tau/4) per level, so the first-order
    time error refines like the second-order space error; errors compare
    coincident nodes of successive levels.  Temporal: fixed mesh, tau -> tau/2.
    """
    if levels < 3:
        raise ConfigError(f"need at least 3 levels for an observed order, got {levels}")
    if mode not in ("spatial", "temporal", "both"):
        raise ConfigError(f"mode must be spatial, temporal or both, got {mode!r}")
    if cfg.problem_name == "sod":
        log.warning("convergence study on a discontinuous problem: order claims are void")
    base_cells = cfg.profile.n_cells
    report: dict = {"problem": cfg.problem_name, "t_end": cfg.t_end, "levels": levels}

    def run_level(cells: int, tau: float) -> np.ndarray:
        result = run_simulation(with_resolution(cfg, cells, tau))
        if result.failure:
            raise ConfigError(f"convergence run at cells={cells}, tau={tau} failed: "
                              f"{result.failure}")
        return result.final_layer.u

    # study -> (cells per level, tau per level, stride to the coarse level's nodes)
    studies = {"spatial": ([base_cells * 2 ** k for k in range(levels)],
                           [cfg.tau / 4 ** k for k in range(levels)], 2),
               "temporal": ([base_cells] * levels, [cfg.tau / 2 ** k for k in range(levels)], 1)}
    for study, (cells, taus, stride) in studies.items():
        if mode not in (study, "both"):
            continue
        fields = [run_level(c, tau) for c, tau in zip(cells, taus)]
        errors = [float(np.max(np.abs(fine[::stride] - coarse)))
                  for coarse, fine in zip(fields, fields[1:])]
        scale = float(np.max(np.abs(fields[-1])))
        report[study] = {"cells": cells, "tau": taus, "errors": errors,
                         "orders": _order_pairs(errors, scale)}
    return report


def _write_convergence(report: dict, out_dir) -> None:
    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    with open(out_path / "convergence.json", "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    # gnuplot-friendly table: one block per study
    with open(out_path / "convergence.dat", "w") as fh:
        for study in ("spatial", "temporal"):
            if study not in report:
                continue
            fh.write(f"# {study}: cells tau error order\n")
            block = report[study]
            for k, err in enumerate(block["errors"]):
                order = block["orders"][k - 1] if k >= 1 else ""
                fh.write(f"{block['cells'][k]} {block['tau'][k]!r} {err!r} {order}\n")
            fh.write("\n\n")


# --- offline audit ------------------------------------------------------------------

def audit_snapshots(cfg: RunConfig, lo_nodes, lo_cells, hi_nodes, hi_cells) -> list[dict]:
    """Rebuild two layers from snapshot files and audit the step between them.

    The hi-side sidecar, read once, gives the hi time, the step index and the
    step length (else the time difference), so the records match the inline
    ledger of the producing run byte for byte.
    """
    lo = read_snapshot(lo_nodes, lo_cells)
    hi = read_snapshot(hi_nodes, hi_cells, t=0.0)
    if lo.mesh is not hi.mesh and not np.array_equal(lo.mesh.s, hi.mesh.s):
        raise SnapshotError("snapshots live on different meshes; audit needs one mesh")
    meta = read_snapshot_meta(hi_nodes, hi.mesh.n_cells) or {}
    hi = dataclasses.replace(hi, t=float(meta.get("time", 0.0)))
    tau = float(meta.get("tau", hi.t - lo.t))
    if not tau > 0.0:
        raise SnapshotError(f"non-positive step length {tau} between snapshots")
    step_index = int(meta["step"]) - 1 if "step" in meta else None
    view = TwoLayerView(lo=lo, hi=hi, tau=tau)
    return [budget.to_record(step=step_index, t=lo.t, tau=tau)
            for budget in audit_all(view, cfg.params, cfg.laws)]


# --- command-line front end ----------------------------------------------------------

def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    out_dir = args.out or cfg.output_dir
    if out_dir is None:
        raise ConfigError("no output directory: pass --out or set 'output_dir'")
    result = run_simulation(cfg, out_dir=out_dir)
    if result.failure:
        log.error("run stopped after %d steps: %s", result.steps, result.failure)
    print(f"{cfg.problem_name}: {result.steps} steps to t={result.final_layer.t:g}, "
          f"exit {result.exit_code}"
          + (f" ({result.failure})" if result.failure else
             f", {len(result.violations)} budget violations"))
    return result.exit_code


def _cmd_convergence(args) -> int:
    cfg = load_config(args.config)
    report = convergence_study(cfg, levels=args.levels, mode=args.mode)
    out_dir = args.out or cfg.output_dir
    if out_dir is not None:
        _write_convergence(report, out_dir)
    for study in ("spatial", "temporal"):
        if study in report:
            block = report[study]
            print(f"{study}: errors {['%.3e' % e for e in block['errors']]} "
                  f"orders {block['orders']}")
    return 0


def _cmd_audit(args) -> int:
    cfg = load_config(args.config)
    records = audit_snapshots(cfg, args.lo_nodes, args.lo_cells, args.hi_nodes, args.hi_cells)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        write_ledger(records, args.out)
    for record in records:
        print(json.dumps(record))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polygas",
        description="Conservative implicit solver for 1-D polytropic gas flows "
                    "in mass-Lagrangian coordinates.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="advance a configured problem and audit every step")
    p_run.add_argument("--config", required=True, help="JSON run configuration")
    p_run.add_argument("--out", help="output directory (overrides config output_dir)")
    p_run.set_defaults(func=_cmd_run)

    p_conv = sub.add_parser("convergence", help="self-convergence study")
    p_conv.add_argument("--config", required=True)
    p_conv.add_argument("--levels", type=int, default=3)
    p_conv.add_argument("--mode", choices=("spatial", "temporal", "both"), default="both")
    p_conv.add_argument("--out", help="directory for convergence.json/.dat")
    p_conv.set_defaults(func=_cmd_convergence)

    p_audit = sub.add_parser("audit", help="audit the step between two snapshots")
    p_audit.add_argument("--config", required=True, help="config supplying the scheme parameters")
    p_audit.add_argument("--lo-nodes", required=True)
    p_audit.add_argument("--lo-cells", required=True)
    p_audit.add_argument("--hi-nodes", required=True)
    p_audit.add_argument("--hi-cells", required=True)
    p_audit.add_argument("--out", help="also write the records to this JSONL file")
    p_audit.set_defaults(func=_cmd_audit)
    return parser


def main(argv=None) -> int:
    level = os.environ.get("POLYGAS_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ProblemError, MeshError, LayerError, SnapshotError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
