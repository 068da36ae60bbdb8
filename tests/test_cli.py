import copy
import dataclasses
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polygas import (
    ConfigError,
    LawId,
    LayerError,
    MeshError,
    ProblemError,
    mass_coordinate,
    read_snapshot,
    snapshots,
)
from polygas import cli
from polygas.cli import (
    RunConfig,
    audit_snapshots,
    convergence_study,
    load_config,
    main,
    resolve_config,
    run_simulation,
    with_resolution,
)
from polygas.scheme import FLOOR_REASON, step

from conftest import zero_cell_pivot


def _pulse_raw(**extra):
    raw = {
        "problem": {"name": "smooth_pulse", "cells": 20, "amplitude": 0.05},
        "params": {"n": 0, "gamma": 1.4},
        "time": {"t_end": 0.05, "tau": 0.01},
    }
    raw.update(extra)
    return raw


#: _pulse_raw's problem without its cells, for a config whose mesh block sets them
_PULSE_SHAPE = {"name": "smooth_pulse", "amplitude": 0.05}


def _write_config(tmp_path, raw, name="run.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path


# --- config resolution ------------------------------------------------------------

def test_resolve_config_defaults():
    cfg = resolve_config(_pulse_raw())
    assert cfg.problem_name == "smooth_pulse"
    assert cfg.profile.n_cells == 20
    assert cfg.params.gamma == 1.4
    assert cfg.t_end == 0.05 and cfg.tau == 0.01
    assert cfg.snapshot_every == 0
    assert cfg.budget_tol == 1e-10
    assert len(cfg.laws) == len(list(LawId))


def test_resolve_config_param_overrides_propagate_to_profile():
    raw = _pulse_raw()
    raw["params"] = {"gamma": 3.0, "eos_mode": "conservative", "visc_nu": 0.5}
    cfg = resolve_config(raw)
    assert cfg.params.gamma == 3.0
    assert cfg.profile.gamma == 3.0  # eps derivation must use the scheme's gamma
    assert cfg.params.eos_mode == "conservative"
    assert cfg.params.visc_nu == 0.5


def test_problem_and_params_gamma_must_agree():
    raw = _pulse_raw()
    raw["problem"]["gamma"], raw["params"]["gamma"] = 1.4, 3.0
    with pytest.raises(ConfigError, match="problem.gamma 1.4 and config.params.gamma 3.0"):
        resolve_config(raw)
    # equal values, or either key alone, give one run
    raw["problem"]["gamma"] = 3
    both = resolve_config(raw)
    del raw["problem"]["gamma"]
    only_params = resolve_config(raw)
    raw["problem"]["gamma"] = 3.0
    del raw["params"]["gamma"]
    only_problem = resolve_config(raw)
    for cfg in (both, only_params, only_problem):
        assert cfg.params == only_params.params and cfg.profile.gamma == 3.0


def test_resolve_config_rejects_unknown_keys_everywhere():
    with pytest.raises(ConfigError, match="unknown key"):
        resolve_config(_pulse_raw(typo_key=1))
    raw = _pulse_raw()
    raw["params"]["riemann"] = True
    with pytest.raises(ConfigError, match="unknown key"):
        resolve_config(raw)
    raw = _pulse_raw()
    raw["time"]["dt"] = 0.1
    with pytest.raises(ConfigError, match="unknown key"):
        resolve_config(raw)
    raw = _pulse_raw()
    raw["problem"]["swirl"] = 2
    with pytest.raises(ConfigError, match="unknown option"):
        resolve_config(raw)


def test_resolve_config_requires_time_block():
    raw = _pulse_raw()
    del raw["time"]
    with pytest.raises(ConfigError, match="time"):
        resolve_config(raw)
    raw = _pulse_raw()
    del raw["time"]["tau"]
    with pytest.raises(ConfigError, match="tau"):
        resolve_config(raw)


def test_resolve_config_rejects_bad_laws_and_bc():
    with pytest.raises(ConfigError, match="unknown conservation law"):
        resolve_config(_pulse_raw(audit=["mass", "vorticity"]))
    raw = _pulse_raw()
    raw["params"]["bc_left"] = {"kind": "slip"}
    with pytest.raises(ConfigError, match="wall"):
        resolve_config(raw)
    raw = _pulse_raw()
    raw["params"]["bc_right"] = {"kind": "pressure"}
    with pytest.raises(ConfigError, match="trace"):
        resolve_config(raw)


def test_resolve_config_audit_selection():
    cfg = resolve_config(_pulse_raw(audit=["energy", "mass"]))
    assert cfg.laws == (LawId.ENERGY, LawId.MASS)
    assert resolve_config(_pulse_raw(audit="none")).laws == ()


def test_bc_config_forms():
    raw = _pulse_raw()
    raw["params"]["bc_left"] = {"kind": "wall", "u_wall": 0.25}
    raw["params"]["bc_right"] = {"kind": "pressure",
                                 "trace": {"kind": "exp_decay", "p0": 2.0, "rate": 3.0}}
    cfg = resolve_config(raw)
    assert cfg.params.bc_left.kind == "wall"
    assert cfg.params.bc_left.u_wall == 0.25
    assert cfg.params.bc_right.kind == "pressure"
    assert cfg.params.bc_right.trace(0.0) == 2.0


def test_mesh_forms():
    nodes = [0.0, 0.1, 0.3, 0.6, 1.0]
    cfg = resolve_config(_pulse_raw(problem=_PULSE_SHAPE, mesh={"r_nodes": nodes}))
    assert cfg.profile.r_nodes == pytest.approx(nodes)

    # mass-coordinate forms: uniform-in-s mesh over the sod two-state data
    raw = {
        "problem": {"name": "sod"},
        "time": {"t_end": 0.01, "tau": 0.01},
        "mesh": {"s_min": 0.0, "s_max": 0.5625, "cells": 9},
    }
    cfg = resolve_config(raw)
    from polygas import mass_coordinate
    mesh = mass_coordinate(cfg.profile, cfg.params.n)
    assert np.ptp(np.diff(mesh.s)) < 1e-13

    # aligned with the density split at s = 0.5 so no cell straddles the jump
    raw["mesh"] = {"s_nodes": [0.0, 0.2, 0.5, 0.53, 0.5625]}
    cfg = resolve_config(raw)
    mesh = mass_coordinate(cfg.profile, cfg.params.n)
    assert mesh.s == pytest.approx([0.0, 0.2, 0.5, 0.53, 0.5625], abs=1e-13)

    with pytest.raises(ConfigError, match="mesh spec"):
        resolve_config(_pulse_raw(mesh={"cells": 8, "r_nodes": nodes}))


def test_a_mass_mesh_across_a_density_jump_is_a_config_error(tmp_path, capsys):
    # sod's density jumps at s = 0.5; 4 cells up to 0.5625 put no node there,
    # so the cell across it would take one side's density and lose 12% of its mass
    raw = {"problem": {"name": "sod"}, "time": {"t_end": 0.01, "tau": 0.01},
           "mesh": {"s_min": 0.0, "s_max": 0.5625, "cells": 4}}
    with pytest.raises(ConfigError, match="mesh node 4 at s=0.5625 would run at "
                                          "s=0.494140625: a cell straddles a density jump"):
        resolve_config(raw)
    assert main(["run", "--config", str(_write_config(tmp_path, raw)),
                 "--out", str(tmp_path / "out")]) == 3
    assert "straddles a density jump" in capsys.readouterr().err
    # 9 cells put a node on the jump
    raw["mesh"]["cells"] = 9
    assert mass_coordinate(resolve_config(raw).profile, 0).s[-1] == 0.5625


@pytest.mark.parametrize("start", (0.25, 0.999999))
@pytest.mark.parametrize("n", (0, 1, 2))
def test_a_mass_mesh_that_starts_past_zero_resolves(n, start):
    # the run's mass coordinate starts at 0; s_min only says where in the
    # profile.  Round-off follows s, so a narrow mesh far out is no jump either.
    s_min, s_max = start / (n + 1), 1.0 / (n + 1)
    raw = {"problem": "uniform", "params": {"n": n}, "time": {"t_end": 0.01, "tau": 0.01},
           "mesh": {"s_min": s_min, "s_max": s_max, "cells": 6}}
    s = mass_coordinate(resolve_config(raw).profile, n).s
    assert s == pytest.approx(np.linspace(s_min, s_max, 7) - s_min, abs=1e-15)


def test_with_resolution_needs_a_mesh_uniform_in_r():
    cfg = resolve_config(_pulse_raw(problem=_PULSE_SHAPE, mesh={"r_nodes": [0.0, 0.3, 0.7, 1.0]}))
    with pytest.raises(ConfigError, match="uniform in r"):
        with_resolution(cfg, 8, 0.01)
    # sod's mass-uniform mesh is finer on the dense side
    sod = resolve_config({"problem": "sod", "time": {"t_end": 0.01, "tau": 0.01},
                          "mesh": {"s_min": 0.0, "s_max": 0.5625, "cells": 9}})
    with pytest.raises(ConfigError, match="uniform in r"):
        with_resolution(sod, 18, 0.01)
    # nodes equal to np.linspace's refine however the config gave them
    listed = resolve_config(_pulse_raw(problem=_PULSE_SHAPE,
                                       mesh={"r_nodes": np.linspace(0.0, 1.0, 5).tolist()}))
    for cfg in (resolve_config(_pulse_raw()), listed):
        finer = with_resolution(cfg, 40, 0.005)
        assert finer.profile.r_nodes.tobytes() == np.linspace(0.0, 1.0, 41).tobytes()
        assert finer.tau == 0.005


# --- run driver --------------------------------------------------------------------

def test_run_simulation_step_count_and_clamp():
    cfg = resolve_config(_pulse_raw(time={"t_end": 0.05, "tau": 0.02}))
    result = run_simulation(cfg)
    assert result.steps == 3  # 0.02 + 0.02 + 0.01
    assert result.final_layer.t == pytest.approx(0.05, abs=1e-15)
    assert result.exit_code == 0
    assert not result.violations
    assert len(result.records) == result.steps * len(list(LawId))
    # a report keeps no per-row arrays, so a run's reports stay O(steps)
    assert [report.accepted for report in result.reports] == [True] * 3
    assert all(report.residuals is None for report in result.reports)


def test_run_simulation_writes_outputs(tmp_path):
    cfg = resolve_config(_pulse_raw(snapshot_every=2))
    result = run_simulation(cfg, out_dir=tmp_path)
    assert result.exit_code == 0
    names = sorted(p.name for p in tmp_path.iterdir())
    assert "ledger.jsonl" in names
    assert "summary.json" in names
    assert any(name.startswith("snap_000000_") for name in names)
    assert any(name.startswith("snap_000005_") for name in names)  # final layer
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["steps"] == 5
    assert summary["exit_code"] == 0
    assert summary["failure"] is None
    assert summary["totals_initial"]["energy"] == pytest.approx(
        summary["totals_final"]["energy"], rel=1e-12)
    ledger_lines = (tmp_path / "ledger.jsonl").read_text().splitlines()
    assert len(ledger_lines) == len(result.records)
    assert [json.loads(line) for line in ledger_lines] == result.records


def test_summary_counts_newton_iterations_and_round_off_floor_stops(tmp_path):
    raw = _pulse_raw()
    raw["params"]["newton_tol"] = 1e-16  # below the round-off floor of every row
    result = run_simulation(resolve_config(raw), out_dir=tmp_path)
    assert result.exit_code == 0
    iterations = [report.iterations for report in result.reports]
    floor_stops = sum(report.reason == FLOOR_REASON for report in result.reports)
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["newton_iterations_total"] == sum(iterations)
    assert summary["newton_iterations_max"] == max(iterations)
    assert summary["floor_converged_steps"] == floor_stops == result.steps == 5


def test_run_simulation_flags_budget_violations():
    cfg = resolve_config(_pulse_raw(budget_tol=1e-30))
    result = run_simulation(cfg)
    assert result.exit_code == 2
    assert result.violations
    assert result.failure is None


def test_run_simulation_reports_solver_failure(tmp_path):
    raw = _pulse_raw()
    raw["problem"]["amplitude"] = 0.3
    raw["params"]["newton_max_iter"] = 1
    raw["params"]["newton_tol"] = 1e-14
    cfg = resolve_config(raw)
    result = run_simulation(cfg, out_dir=tmp_path)
    assert result.exit_code == 1
    assert result.failure is not None
    assert "Newton" in result.failure
    assert not result.reports[-1].accepted
    assert all(report.residuals is None for report in result.reports)
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["exit_code"] == 1
    assert summary["failure"] == result.failure


def test_run_simulation_tau_halving_retries():
    raw = _pulse_raw()
    raw["problem"]["amplitude"] = 0.3
    raw["params"]["newton_max_iter"] = 2
    raw["time"] = {"t_end": 0.02, "tau": 0.02, "max_halvings": 10}
    cfg = resolve_config(raw)
    result = run_simulation(cfg)
    assert result.exit_code == 0
    assert result.final_layer.t == pytest.approx(0.02, abs=1e-12)
    assert result.steps >= 1
    assert min(record["tau"] for record in result.records) < 0.02


def _counted_steps(monkeypatch) -> list[float]:
    """Record the tau of every step() attempt run_simulation makes."""
    taus = []

    def counted(layer, tau, params, earlier=(), _real=cli.step):
        taus.append(tau)
        return _real(layer, tau, params, earlier=earlier)
    monkeypatch.setattr(cli, "step", counted)
    return taus


def test_run_simulation_exhausts_halvings_then_fails(monkeypatch):
    raw = _pulse_raw()
    raw["params"]["newton_max_iter"] = 1
    raw["time"] = {"t_end": 0.02, "tau": 0.01, "max_halvings": 3}
    taus = _counted_steps(monkeypatch)
    result = run_simulation(resolve_config(raw))
    assert result.exit_code == 1 and result.steps == 0
    assert "no Newton convergence" in result.failure
    # every attempt goes through the step name polygas.cli resolves at call time
    assert taus == [0.01, 0.005, 0.0025, 0.00125]
    assert len(result.reports) == 1 and not result.reports[0].accepted


def test_run_simulation_keeps_base_tau_when_easy(monkeypatch):
    raw = _pulse_raw()
    raw["time"] = {"t_end": 0.02, "tau": 0.01, "max_halvings": 10}
    taus = _counted_steps(monkeypatch)
    result = run_simulation(resolve_config(raw))
    assert result.exit_code == 0 and result.steps == 2
    assert taus == [0.01, 0.01]
    assert {record["tau"] for record in result.records} == {0.01}


def test_run_simulation_retries_a_vanishing_cell_pivot_at_half_tau(monkeypatch):
    zero_cell_pivot(monkeypatch, when=lambda system: system.tau == 0.01)
    raw = _pulse_raw()
    raw["time"] = {"t_end": 0.01, "tau": 0.01, "max_halvings": 2}
    taus = _counted_steps(monkeypatch)
    result = run_simulation(resolve_config(raw))
    assert result.exit_code == 0 and result.failure is None
    # the full-tau attempt hits the pivot guard, its half-tau retry succeeds
    assert taus == [0.01, 0.005, 0.005]
    assert result.steps == 2 and {r["tau"] for r in result.records} == {0.005}


def test_negative_max_halvings_is_a_config_error(tmp_path, capsys):
    raw = _pulse_raw()
    raw["time"] = {"t_end": 0.02, "tau": 0.01, "max_halvings": -1}
    with pytest.raises(ConfigError, match="max_halvings"):
        resolve_config(raw)
    path = _write_config(tmp_path, raw)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 3
    assert "max_halvings" in capsys.readouterr().err
    cfg = dataclasses.replace(resolve_config(_pulse_raw()), max_halvings=-1)
    with pytest.raises(ConfigError, match="max_halvings"):
        run_simulation(cfg)


@pytest.mark.parametrize("where, key, value", [
    ("time", "max_halvings", 2.7),
    ("time", "max_halvings", True),
    ("time", "max_halvings", "3"),
    ("top", "snapshot_every", 2.7),
    ("top", "snapshot_every", False),
    ("params", "n", 1.5),
    ("params", "n", True),
    ("params", "newton_max_iter", 7.5),
    ("mesh", "cells", 20.5),
    ("top", "audit", [[], "energy"]),
    ("top", "audit", [{}]),
])
def test_config_types_are_strict(tmp_path, capsys, where, key, value):
    raw = _pulse_raw()
    {"top": raw, "time": raw["time"], "params": raw["params"],
     "mesh": raw.setdefault("mesh", {})}[where][key] = value
    with pytest.raises(ConfigError, match=key):
        resolve_config(raw)
    path = _write_config(tmp_path, raw)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 3
    assert key in capsys.readouterr().err


def test_integral_numbers_are_accepted():
    raw = _pulse_raw(snapshot_every=2.0)
    raw["problem"]["cells"] = 24.0
    raw["time"].update(max_halvings=3.0)
    raw["params"].update(n=1.0, newton_max_iter=40)
    cfg = resolve_config(raw)
    assert (cfg.snapshot_every, cfg.max_halvings, cfg.params.n, cfg.params.newton_max_iter) == (2, 3, 1, 40)
    assert all(type(x) is int for x in (cfg.snapshot_every, cfg.max_halvings, cfg.params.n))
    assert cfg.profile.n_cells == 24
    # without max_halvings a rejected step is not retried
    assert resolve_config(_pulse_raw()).max_halvings == 0


# (field named in the error, where in the config, bad value)
_BAD_NUMBERS = [
    ("t_end", ("time", "t_end"), math.inf),
    ("tau", ("time", "tau"), "0.001"),
    ("budget_tol", ("budget_tol",), "1e-10"),
    ("config.problem", ("problem",), 5),
    ("config.params", ("params",), [1, 2]),
    ("config.mesh", ("mesh",), 5),
    ("gamma", ("params", "gamma"), "1.4"),
    ("visc_nu", ("params", "visc_nu"), "2"),
    ("newton_tol", ("params", "newton_tol"), "1e-12"),
    ("u_wall", ("params", "bc_right"), {"kind": "wall", "u_wall": "x"}),
    ("p0", ("params", "bc_left"), {"kind": "pressure", "trace": {"p0": "1"}}),
    ("rate", ("params", "bc_right"), {"kind": "pressure", "trace": {"kind": "linear",
                                                                    "rate": math.nan}}),
    ("cells", ("problem", "cells"), 2.5),
    ("amplitude", ("problem", "amplitude"), True),
    ("r_nodes", ("mesh",), {"r_nodes": [0.0, "0.5", 1.0]}),
    ("s_min", ("mesh",), {"s_min": False, "s_max": 1.0, "cells": 4}),
    ("alpha", ("params", "alpha"), 10 ** 400),  # no float holds it
    ("trace", ("params", "bc_right"), {"kind": "pressure", "trace": "2.0"}),
]


@pytest.mark.parametrize("field, path, value", _BAD_NUMBERS, ids=[c[0] for c in _BAD_NUMBERS])
def test_numeric_config_values_are_checked(tmp_path, capsys, field, path, value):
    raw = _pulse_raw()
    target = raw
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with pytest.raises(ConfigError, match=field):
        resolve_config(raw)
    config = _write_config(tmp_path, raw)
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 3
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("value", (5, True, ["out"], {"path": "out"}))
def test_output_dir_must_be_a_string(tmp_path, capsys, value):
    raw = _pulse_raw(output_dir=value)
    with pytest.raises(ConfigError, match="output_dir"):
        resolve_config(raw)
    # without --out the config's output_dir is the one the run would write to
    assert main(["run", "--config", str(_write_config(tmp_path, raw))]) == 3
    assert "output_dir" in capsys.readouterr().err
    raw["output_dir"] = str(tmp_path / "out")
    assert resolve_config(raw).output_dir == str(tmp_path / "out")


@pytest.mark.parametrize("where, value", [
    ("problem", {"name": "smooth_pulse", "cells": -5}),
    ("problem", {"name": "smooth_pulse", "cells": 1}),
    ("mesh", {"s_min": 0, "s_max": 0.5, "cells": -3}),
    ("mesh", {"s_min": 0, "s_max": 0.5, "cells": 0})])
def test_both_uniform_mesh_forms_need_two_cells(tmp_path, capsys, where, value):
    raw = _pulse_raw(**{where: value})
    with pytest.raises(ProblemError, match="at least 2 cells"):
        resolve_config(raw)
    assert main(["run", "--config", str(_write_config(tmp_path, raw)),
                 "--out", str(tmp_path / "out")]) == 3
    assert "cells" in capsys.readouterr().err


# JSON integers past 2^63, which numpy cannot cast to a float array
@pytest.mark.parametrize("where, value, code", [
    (("params", "gamma"), 10 ** 20, 1),
    (("problem", "gamma"), 10 ** 20, 1),
    (("params", "bc_left"), {"kind": "wall", "u_wall": 10 ** 20}, 1),
], ids=["params.gamma", "problem.gamma", "u_wall"])
def test_oversized_json_integers_run_without_a_traceback(tmp_path, capsys, where, value, code):
    raw = _pulse_raw()
    if where == ("problem", "gamma"):  # the run's one gamma
        del raw["params"]["gamma"]
    raw[where[0]][where[1]] = value
    config = _write_config(tmp_path, raw)
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == code
    assert "Traceback" not in capsys.readouterr().err
    summary = (tmp_path / "out" / "summary.json").read_text()
    assert (json.loads(summary)["failure"] is None) is (code == 0)
    if where[1] == "gamma":  # printed as written
        assert '"gamma": 100000000000000000000' in summary


# cell counts numpy refuses before it allocates anything
@pytest.mark.parametrize("where, value", [
    ("mesh", {"s_min": 0.0, "s_max": 0.5, "cells": 10 ** 20}),
    ("problem", {"name": "smooth_pulse", "cells": 10 ** 20}),
], ids=["mesh.s_cells", "problem.cells"])
def test_an_unbuildable_cell_count_is_a_problem_error(tmp_path, capsys, where, value):
    raw = _pulse_raw(**{where: value})
    with pytest.raises(ProblemError, match="cannot build a mesh of 100000000000000000000 cells"):
        resolve_config(raw)
    assert main(["run", "--config", str(_write_config(tmp_path, raw)),
                 "--out", str(tmp_path / "out")]) == 3
    assert "100000000000000000000 cells" in capsys.readouterr().err


def test_a_config_file_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    # a valid config apart from its encoding: latin-1 writes the é as byte 0xe9
    path = tmp_path / "latin1.json"
    path.write_bytes(json.dumps(_pulse_raw(output_dir="caf\u00e9"), ensure_ascii=False)
                     .encode("latin-1"))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 3
    assert str(path) in capsys.readouterr().err
    with pytest.raises(ConfigError, match="UTF-8"):
        load_config(path)


# valid configs that together use every block and form of the config
_MUTATION_BASES = [
    {"problem": {"name": "sod", "split": 0.5, "gamma": 1.4},
     "params": {"n": 0, "gamma": 1.4, "eos_mode": "conservative", "visc_nu": 1.0,
                "bc_left": {"kind": "wall", "u_wall": 0.0},
                "bc_right": {"kind": "pressure",
                             "trace": {"kind": "linear", "p0": 0.1, "rate": 0.5}}},
     "time": {"t_end": 0.02, "tau": 0.01, "max_halvings": 3},
     "mesh": {"s_min": 0.0, "s_max": 0.5625, "cells": 9},
     "snapshot_every": 1, "output_dir": "out", "audit": ["mass", "energy"],
     "budget_tol": 1e-9},
    {"problem": {"name": "smooth_pulse", "amplitude": 0.05},
     "params": {"n": 1, "alpha": 0.7, "newton_tol": 1e-11, "newton_max_iter": 20,
                "bc_right": {"kind": "pressure", "trace": {"p0": 1.0}}},
     "time": {"t_end": 0.1, "tau": 0.05},
     "mesh": {"r_nodes": [0.0, 0.4, 0.7, 1.0]}, "audit": "all"},
    {"problem": {"name": "expansion", "cells": 6, "rate": 2.0},
     "params": {"bc_left": {"kind": "pressure", "trace": 1.0}},
     "time": {"t_end": 0.1, "tau": 0.05}, "audit": "none", "output_dir": None},
    {"problem": "uniform", "time": {"t_end": 0.1, "tau": 0.05},
     "mesh": {"s_nodes": [0.0, 0.25, 1.0]}},
]

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats(-1e3, 1e3) | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=8),
                                                                      children, max_size=4),
    max_leaves=8)


def _paths(node, path=()):
    """The path of `node` and of every leaf and subtree below it."""
    yield path
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _paths(child, path + (key,))


def test_mutation_bases_are_valid():
    for raw in _MUTATION_BASES:
        assert isinstance(resolve_config(copy.deepcopy(raw)), RunConfig)


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_any_one_changed_value_resolves_or_is_a_config_error(data):
    # resolve_config may raise only errors that main maps to exit 3
    raw = copy.deepcopy(data.draw(st.sampled_from(_MUTATION_BASES)))
    path = data.draw(st.sampled_from(list(_paths(raw))))
    value = data.draw(_JSON)
    if not path:
        raw = value
    else:
        target = raw
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    try:
        assert isinstance(resolve_config(raw), RunConfig)
    except (ConfigError, ProblemError, MeshError, LayerError):
        pass


@pytest.mark.parametrize("visc_nu", (0.0, 1.0))
@pytest.mark.parametrize("n", (0, 1, 2))
def test_moving_wall_run_from_rest_keeps_its_budgets(n, visc_nu):
    # the profile rests at the right wall; the run starts that node at u_wall,
    # so no step jumps it there with an impulse no boundary flux accounts for
    raw = {"problem": {"name": "smooth_pulse", "cells": 400},
           "params": {"n": n, "gamma": 1.4, "visc_nu": visc_nu,
                      "bc_right": {"kind": "wall", "u_wall": -0.5}},
           "time": {"t_end": 0.01, "tau": 0.001}}
    result = run_simulation(resolve_config(raw))
    assert result.exit_code == 0 and result.steps == 10
    assert max(r["relative_defect"] for r in result.records if r["expected_zero"]) <= 1e-14
    assert result.initial_layer.u[-1] == -0.5


def test_runs_are_deterministic(tmp_path):
    raw = _pulse_raw(snapshot_every=1)
    raw["params"]["eos_mode"] = "conservative"
    raw["params"]["gamma"] = 3.0
    for sub in ("a", "b"):
        run_simulation(resolve_config(raw), out_dir=tmp_path / sub)
    files_a = sorted((tmp_path / "a").iterdir())
    files_b = sorted((tmp_path / "b").iterdir())
    assert [p.name for p in files_a] == [p.name for p in files_b]
    for pa, pb in zip(files_a, files_b):
        assert pa.read_bytes() == pb.read_bytes(), pa.name


# --- convergence -------------------------------------------------------------------

def test_convergence_study_static_state_is_exact():
    raw = {
        "problem": {"name": "uniform", "cells": 4},
        "time": {"t_end": 0.1, "tau": 0.05},
    }
    report = convergence_study(resolve_config(raw), levels=3, mode="spatial")
    assert report["spatial"]["orders"] == ["exact"]


def test_convergence_study_reports_numeric_orders():
    raw = _pulse_raw(time={"t_end": 0.04, "tau": 0.02})
    raw["problem"]["cells"] = 10
    report = convergence_study(resolve_config(raw), levels=3, mode="both")
    assert report["spatial"]["cells"] == [10, 20, 40]
    assert report["temporal"]["cells"] == [10, 10, 10]
    assert all(isinstance(o, float) for o in report["spatial"]["orders"])
    assert len(report["spatial"]["errors"]) == 2
    assert report["temporal"]["tau"] == [0.02, 0.01, 0.005]


def test_convergence_study_on_sod_warns_that_orders_are_void(caplog):
    raw = {"problem": {"name": "sod", "cells": 10}, "time": {"t_end": 0.01, "tau": 0.01}}
    convergence_study(resolve_config(raw), levels=3, mode="temporal")
    assert [r.getMessage() for r in caplog.records if r.levelname == "WARNING"] == [
        "convergence study on a discontinuous problem: order claims are void"]


def test_convergence_study_rejects_bad_arguments():
    cfg = resolve_config(_pulse_raw())
    with pytest.raises(ConfigError, match="levels"):
        convergence_study(cfg, levels=2)
    with pytest.raises(ConfigError, match="mode"):
        convergence_study(cfg, mode="spacetime")


# --- offline audit -----------------------------------------------------------------

def _replayed_and_inline(cfg, out_dir) -> tuple[list[str], list[str]]:
    """A run's ledger lines, inline and as `audit_snapshots` re-derives them
    from every adjacent pair of its snapshots, each record as JSON text."""
    result = run_simulation(cfg, out_dir=out_dir)
    assert result.exit_code == 0
    nodes = sorted(out_dir.glob("snap_*_nodes.csv"))
    cells = sorted(out_dir.glob("snap_*_cells.csv"))
    assert len(nodes) == result.steps + 1
    replayed = [json.dumps(record) for pair in zip(nodes, cells, nodes[1:], cells[1:])
                for record in audit_snapshots(cfg, *pair)]
    return replayed, [json.dumps(record) for record in result.records]


def test_audit_snapshots_matches_inline_ledger(tmp_path):
    raw = _pulse_raw(snapshot_every=1, time={"t_end": 0.02, "tau": 0.01})
    replayed, inline = _replayed_and_inline(resolve_config(raw), tmp_path)
    assert len(inline) == 2 * len(LawId)
    assert replayed == inline


def test_audit_of_a_run_in_a_directory_named_like_a_nodes_file(tmp_path):
    """Only the file name's trailing _nodes.csv names the sidecar."""
    out_dir = tmp_path / "run_nodes.csv_out"
    raw = _pulse_raw(snapshot_every=1, time={"t_end": 0.02, "tau": 0.01})
    replayed, inline = _replayed_and_inline(resolve_config(raw), out_dir)
    assert replayed == inline
    nodes = sorted(out_dir.glob("snap_*_nodes.csv"))[1]
    stem = nodes.name.removesuffix("_nodes.csv")
    time = json.loads((out_dir / f"{stem}_meta.json").read_text())["time"]
    assert time > 0.0
    assert read_snapshot(nodes, out_dir / f"{stem}_cells.csv").t == time


def _series_run(tmp_path, steps):
    """A pulse run with a snapshot every step, and its adjacent snapshot pairs."""
    raw = _pulse_raw(snapshot_every=1, time={"t_end": 0.01 * steps, "tau": 0.01})
    cfg = resolve_config(raw)
    assert run_simulation(cfg, out_dir=tmp_path).steps == steps
    nodes = sorted(tmp_path.glob("snap_*_nodes.csv"))
    cells = sorted(tmp_path.glob("snap_*_cells.csv"))
    return cfg, list(zip(nodes, cells, nodes[1:], cells[1:]))


def test_a_series_audit_parses_each_table_once(tmp_path, table_parses):
    cfg, pairs = _series_run(tmp_path, 10)
    for pair in pairs:
        audit_snapshots(cfg, *pair)
    tables = {path for pair in pairs for path in pair}
    assert len(pairs) == 10 and len(table_parses) == len(tables) == 22
    assert set(table_parses) == tables


def test_a_series_audit_equals_pairs_audited_with_an_empty_cache(tmp_path, table_parses):
    cfg, pairs = _series_run(tmp_path, 4)
    in_order = [json.dumps(record) for pair in pairs for record in audit_snapshots(cfg, *pair)]
    fresh = []
    for pair in pairs:
        snapshots._table.cache_clear()
        fresh += [json.dumps(record) for record in audit_snapshots(cfg, *pair)]
    assert len(table_parses) == 10 + 4 * len(pairs)
    assert in_order == fresh
    assert in_order == (tmp_path / "ledger.jsonl").read_text().splitlines()


def test_the_snapshots_of_a_run_share_one_mesh(tmp_path):
    _, pairs = _series_run(tmp_path, 2)
    lo_nodes, lo_cells, hi_nodes, hi_cells = pairs[1]
    assert read_snapshot(lo_nodes, lo_cells).mesh is read_snapshot(hi_nodes, hi_cells).mesh


def test_a_pair_on_meshes_equal_in_value_not_in_bytes_still_audits(tmp_path):
    """A first node spelled -0.0 gives another mesh object of the same values:
    the audit's identity test is only a fast path."""
    cfg, pairs = _series_run(tmp_path, 1)
    lo_nodes, lo_cells, hi_nodes, hi_cells = pairs[0]
    records = [json.dumps(record) for record in audit_snapshots(cfg, *pairs[0])]
    table = hi_nodes.read_bytes()
    assert table.count(b"\r\n0,0.0,") == 1
    hi_nodes.write_bytes(table.replace(b"\r\n0,0.0,", b"\r\n0,-0.0,"))
    assert read_snapshot(hi_nodes, hi_cells).mesh is not read_snapshot(lo_nodes, lo_cells).mesh
    assert [json.dumps(record) for record in audit_snapshots(cfg, *pairs[0])] == records


_REPLAY_CASES = {f"n{n}-{mode}": (n, mode, {"t_end": 0.03, "tau": 0.01})
                 for n in (0, 1, 2) for mode in ("pointwise", "conservative")}
# tau halves on the first step and again on the second (a falling outer
# pressure keeps the warm-started second step hard); a last step cut short
_REPLAY_CASES["halving"] = (0, "conservative",
                            {"t_end": 0.045, "tau": 0.02, "max_halvings": 10})
_REPLAY_CASES["short-last-step"] = (2, "conservative", {"t_end": 0.025, "tau": 0.01})


@pytest.mark.parametrize("case", list(_REPLAY_CASES))
def test_carried_totals_equal_a_fresh_audit_of_every_pair(tmp_path, case):
    """The run carries each step's hi totals to the next audit; an offline
    audit of each snapshot pair sums both layers afresh.  Every record,
    density_sum_lo included, must agree to the last bit."""
    n, mode, time = _REPLAY_CASES[case]
    raw = _pulse_raw(snapshot_every=1, time=time)
    raw["params"].update(n=n, eos_mode=mode)
    if case == "halving":
        raw["problem"]["amplitude"] = 0.3
        raw["params"]["newton_max_iter"] = 2
        raw["params"]["bc_right"] = {"kind": "pressure",
                                     "trace": {"kind": "linear", "p0": 1.0, "rate": -30.0}}
    replayed, inline = _replayed_and_inline(resolve_config(raw), tmp_path)
    taus = [json.loads(line)["tau"] for line in inline[::len(LawId)]]
    if case == "halving":
        assert taus[1] < taus[0] < 0.02
    if case == "short-last-step":
        assert taus[-1] < 0.01
    assert replayed == inline


# --- entry point -------------------------------------------------------------------

def test_python_dash_m_polygas_runs_without_a_warning(tmp_path):
    config_path = _write_config(tmp_path, _pulse_raw(time={"t_end": 0.02, "tau": 0.01}))
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-m", "polygas", "run", "--config", str(config_path),
                           "--out", str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "RuntimeWarning" not in done.stderr
    assert "smooth_pulse: 2 steps" in done.stdout
    assert (tmp_path / "out" / "ledger.jsonl").is_file()


#: run in a process of its own, with warnings as errors (pytest's filter does
#: not reach a child), since this one has loaded scipy.linalg; argv is the
#: action, the config, an output directory and one snapshot pair.  It audits
#: the pair, then does the action and prints what the action loaded
_LAPACK_CHILD = textwrap.dedent("""
    import json, os, sys
    from pathlib import Path
    import polygas
    from polygas import cli

    action, config, out, *pair = sys.argv[1:]
    cfg = polygas.resolve_config(json.loads(Path(config).read_text()))
    polygas.audit_snapshots(cfg, *pair)

    def act(tag):
        if action == "step":
            layer, _ = polygas.step(polygas.read_snapshot(*pair[:2]), cfg.tau, cfg.params)
            return [getattr(layer, f).tobytes().hex() for f in ("r", "u", "rho", "p", "eps")]
        if action == "run":
            assert cli.main(["run", "--config", config, "--out", f"{out}/{tag}"]) == 0
            return {f.name: f.read_bytes().hex() for f in sorted(Path(out, tag).iterdir())}
        import scipy  # action "scipy": what a plain import adds

    before = set(sys.modules)
    first = act("first")
    home = os.path.dirname(sys.modules["scipy"].__file__) + os.sep
    added = {name: os.path.relpath(getattr(sys.modules[name], "__file__", None) or home, home)
             for name in set(sys.modules) - before
             if name.partition(".")[0] == "scipy"
             or (getattr(sys.modules[name], "__file__", None) or "").startswith(home)}
    found = {"linalg": "scipy.linalg" in sys.modules, "added": added, "first": first}
    if action != "scipy":
        import scipy.linalg.lapack
        from scipy.linalg import _flapack
        found["public_copy"] = (scipy.linalg.lapack._flapack is _flapack
                                and _flapack.__name__ == "scipy.linalg._flapack"
                                and sys.modules[_flapack.__name__] is _flapack)
        found["same_again"] = act("again") == first
    print(json.dumps(found))
""")


def _lapack_child(tmp_path, action, *, prelude=""):
    config_path = _write_config(tmp_path, _pulse_raw(snapshot_every=1,
                                                     time={"t_end": 0.01, "tau": 0.01}))
    _, pairs = _series_run(tmp_path / "series", 1)
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-W", "error", "-c", prelude + _LAPACK_CHILD, action,
                           str(config_path), str(tmp_path / "out"), *map(str, pairs[0])],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1]), pairs[0]


@pytest.mark.parametrize("action", ["step", "run"])
def test_a_read_and_an_audit_load_no_lapack_until_the_first_solve(tmp_path, action):
    """A solve loads scipy's LAPACK extension alone, not scipy.linalg, and a
    later `import scipy.linalg` still binds its own copy and solves the same."""
    plain_scipy, _ = _lapack_child(tmp_path, "scipy")
    assert not plain_scipy["linalg"]
    found, _ = _lapack_child(tmp_path, action)
    assert "scipy" in found["added"]  # the read and the audit loaded none of it
    assert not found["linalg"]
    assert set(plain_scipy["added"]) <= set(found["added"])
    [(name, path)] = [item for item in found["added"].items()
                      if item[0] not in plain_scipy["added"]]
    assert not name.startswith("scipy")
    assert os.path.dirname(path) == "linalg"
    assert os.path.basename(path).startswith("_flapack.")
    assert found["public_copy"] and found["same_again"]


def test_a_solve_falls_back_to_scipy_linalg_where_it_finds_no_extension(tmp_path):
    """Without a _flapack file to load, the first solve takes the public import."""
    prelude = textwrap.dedent("""
        from importlib import machinery
        _find_spec = machinery.PathFinder.find_spec

        def _find_no_private_copy(name, path=None, target=None):
            if name.endswith("._flapack") and not name.startswith("scipy."):
                return None
            return _find_spec(name, path, target)
        machinery.PathFinder.find_spec = _find_no_private_copy
    """)
    found, pair = _lapack_child(tmp_path, "step", prelude=prelude)
    assert found["linalg"]
    assert [name for name in found["added"] if name.endswith("._flapack")] == [
        "scipy.linalg._flapack"]
    cfg = resolve_config(_pulse_raw(snapshot_every=1, time={"t_end": 0.01, "tau": 0.01}))
    layer, _ = step(read_snapshot(*pair[:2]), cfg.tau, cfg.params)
    assert found["first"] == [getattr(layer, f).tobytes().hex()
                              for f in ("r", "u", "rho", "p", "eps")]
    assert found["public_copy"] and found["same_again"]


def test_main_run_and_audit(tmp_path, capsys):
    raw = _pulse_raw(snapshot_every=1, time={"t_end": 0.02, "tau": 0.01})
    config_path = _write_config(tmp_path, raw)
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--out", str(out_dir)]) == 0
    stdout = capsys.readouterr().out
    assert "smooth_pulse" in stdout and "exit 0" in stdout

    nodes = sorted(out_dir.glob("snap_*_nodes.csv"))
    cells = sorted(out_dir.glob("snap_*_cells.csv"))
    audit_out = tmp_path / "audit.jsonl"
    code = main(["audit", "--config", str(config_path),
                 "--lo-nodes", str(nodes[0]), "--lo-cells", str(cells[0]),
                 "--hi-nodes", str(nodes[1]), "--hi-cells", str(cells[1]),
                 "--out", str(audit_out)])
    assert code == 0
    printed = capsys.readouterr().out.strip().splitlines()
    on_disk = audit_out.read_text().strip().splitlines()
    assert printed == on_disk
    ledger = (out_dir / "ledger.jsonl").read_text().strip().splitlines()
    assert printed == ledger[:len(printed)]


def _audit_pair(tmp_path):
    """A two-step snapshot set and the `polygas audit` arguments for its first pair."""
    raw = _pulse_raw(snapshot_every=1, time={"t_end": 0.02, "tau": 0.01})
    config_path = _write_config(tmp_path, raw)
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--out", str(out_dir)]) == 0
    nodes = sorted(out_dir.glob("snap_*_nodes.csv"))
    cells = sorted(out_dir.glob("snap_*_cells.csv"))
    args = ["audit", "--config", str(config_path),
            "--lo-nodes", str(nodes[0]), "--lo-cells", str(cells[0]),
            "--hi-nodes", str(nodes[1]), "--hi-cells", str(cells[1])]
    return args, nodes[1], cells[1]


@pytest.mark.parametrize("sidecar", [
    '{"time": 0.01, "st',
    '{"time": "soon", "step": 1, "cells": 20, "tau": 0.01}',
    '[0.01, 1, 20]',
    '{"time": 0.01, "step": 1, "cells": 20, "tau": "0.01"}',
    '{"time": 0.01, "step": 1.5, "cells": 20, "tau": 0.01}',
    '{"time": NaN, "step": 1, "cells": 20, "tau": 0.01}',
    '{"time": 0.01, "step": 1, "cells": 99, "tau": 0.01}',
    '{"time": 0.01, "step": 1, "cells": 20.0, "tau": 0.01}',
], ids=["truncated", "text-time", "list", "text-tau", "fractional-step", "nan-time",
        "wrong-cells", "fractional-cells"])
def test_audit_rejects_a_corrupt_sidecar(tmp_path, capsys, sidecar):
    args, hi_nodes, _ = _audit_pair(tmp_path)
    meta = Path(str(hi_nodes).replace("_nodes.csv", "_meta.json"))
    meta.write_text(sidecar)
    capsys.readouterr()
    assert main(args) == 3
    assert str(meta) in capsys.readouterr().err


def test_audit_blames_the_meshes_not_a_correct_sidecar(tmp_path, capsys):
    args, _, _ = _audit_pair(tmp_path)
    raw = _pulse_raw(snapshot_every=1, time={"t_end": 0.02, "tau": 0.01})
    raw["problem"]["cells"] = 40
    out_dir = tmp_path / "out40"
    assert main(["run", "--config", str(_write_config(tmp_path, raw, "run40.json")),
                 "--out", str(out_dir)]) == 0
    args[args.index("--hi-nodes") + 1] = str(sorted(out_dir.glob("snap_*_nodes.csv"))[1])
    args[args.index("--hi-cells") + 1] = str(sorted(out_dir.glob("snap_*_cells.csv"))[1])
    capsys.readouterr()
    assert main(args) == 3
    err = capsys.readouterr().err
    assert "snapshots live on different meshes" in err and "_meta.json" not in err


def test_audit_names_the_line_of_a_non_numeric_field(tmp_path, capsys):
    args, _, hi_cells = _audit_pair(tmp_path)
    lines = hi_cells.read_text().splitlines()
    lines[2] = ",".join(lines[2].split(",")[:3] + ["abc", "1.0"])
    hi_cells.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(args) == 3
    assert f"{hi_cells}:3: could not convert string to float: 'abc'" in capsys.readouterr().err


def test_audit_with_an_exp_decay_trace_that_overflows_exits_3(tmp_path, capsys):
    args, _, _ = _audit_pair(tmp_path)  # the pair t = 0 -> 0.01: exp(1000) overflows
    raw = _pulse_raw()
    raw["params"]["bc_right"] = {"kind": "pressure",
                                 "trace": {"kind": "exp_decay", "p0": 1, "rate": -1e5}}
    args[args.index("--config") + 1] = str(_write_config(tmp_path, raw, "decay.json"))
    capsys.readouterr()
    assert main(args) == 3
    assert capsys.readouterr().err == "error: boundary pressure trace not finite on [0.0, 0.01]\n"


def test_audit_of_a_sidecar_without_tau_at_the_lo_time_is_an_error(tmp_path, capsys):
    args, hi_nodes, _ = _audit_pair(tmp_path)
    meta = Path(str(hi_nodes).replace("_nodes.csv", "_meta.json"))
    meta.write_text('{"time": 0.0, "step": 1, "cells": 20}')
    capsys.readouterr()
    assert main(args) == 3
    assert capsys.readouterr().err == "error: non-positive step length 0.0 between snapshots\n"


def test_audit_out_of_no_laws_is_an_empty_file_like_the_run_ledger(tmp_path, capsys):
    args, _, _ = _audit_pair(tmp_path)
    raw = _pulse_raw(audit="none", snapshot_every=1, time={"t_end": 0.02, "tau": 0.01})
    assert main(["run", "--config", str(_write_config(tmp_path, raw, "none.json")),
                 "--out", str(tmp_path / "none")]) == 0
    args[args.index("--config") + 1] = str(tmp_path / "none.json")
    capsys.readouterr()
    assert main(args + ["--out", str(tmp_path / "audit" / "none.jsonl")]) == 0
    assert capsys.readouterr().out == ""
    assert (tmp_path / "audit" / "none.jsonl").read_bytes() == b""
    assert (tmp_path / "none" / "ledger.jsonl").read_bytes() == b""


def test_main_convergence_writes_tables(tmp_path, capsys):
    raw = {
        "problem": {"name": "uniform", "cells": 4},
        "time": {"t_end": 0.1, "tau": 0.05},
    }
    config_path = _write_config(tmp_path, raw)
    out_dir = tmp_path / "conv"
    code = main(["convergence", "--config", str(config_path),
                 "--mode", "spatial", "--out", str(out_dir)])
    assert code == 0
    assert "exact" in capsys.readouterr().out
    report = json.loads((out_dir / "convergence.json").read_text())
    assert report["spatial"]["orders"] == ["exact"]
    assert (out_dir / "convergence.dat").read_text().startswith("# spatial")


def test_main_exit_codes(tmp_path, capsys):
    bad = _write_config(tmp_path, {"problem": "nonexistent",
                                   "time": {"t_end": 0.1, "tau": 0.1}}, "bad.json")
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "x")]) == 3
    assert "error:" in capsys.readouterr().err

    not_json = tmp_path / "broken.json"
    not_json.write_text("{nope")
    assert main(["run", "--config", str(not_json), "--out", str(tmp_path / "y")]) == 3
    capsys.readouterr()

    strict = _write_config(tmp_path, _pulse_raw(budget_tol=1e-30), "strict.json")
    assert main(["run", "--config", str(strict), "--out", str(tmp_path / "z")]) == 2
    capsys.readouterr()

    missing_out = _write_config(tmp_path, _pulse_raw(), "no_out.json")
    assert main(["run", "--config", str(missing_out)]) == 3
    assert "output directory" in capsys.readouterr().err


#: ends whose difference overflows: numpy warned three times, then the mesh
#: was blamed ("node radii must be strictly increasing")
_OVERFLOWING_INTERVAL = {"name": "smooth_pulse", "cells": 20,
                         "r_min": -1.7e308, "r_max": 1.7e308}


# config errors, an unwritable --out and a failed convergence level, through main
_EXIT_3 = {
    "wall-trace": (("params", "bc_left"), {"kind": "wall", "trace": 1},
                   "config.params.bc_left: wall boundary takes no ['trace']"),
    "empty-interval": (("problem",), {"name": "smooth_pulse", "cells": 20, "r_min": 1, "r_max": 0.5},
                       "empty radial interval [1, 0.5]"),
    "disordered-r-nodes": (("mesh",), {"r_nodes": [0, 0.5, 0.4, 1]},
                           "node radii must be strictly increasing"),
    "zero-newton-tol": (("params", "newton_tol"), 0, "newton_tol must be positive"),
    "zero-t-end": (("time", "t_end"), 0.0, "config.time.t_end must be positive, got 0.0"),
    "negative-tau": (("time", "tau"), -1, "config.time.tau must be positive, got -1"),
    "zero-budget-tol": (("budget_tol",), 0, "config.budget_tol must be positive, got 0"),
    "s-nodes-past-the-mass": (("mesh",), {"s_nodes": [0, 0.5, 2]}, "mass coordinate outside [0, 1.0]"),
    "gamma-one": (("problem", "gamma"), 1.0,
                  "gamma must be finite and different from 0 and 1, got 1.0"),
    "list-name": (("problem",), {"name": ["sod"]},
                  "unknown problem ['sod']; available: uniform, smooth_pulse, sod, expansion"),
    "overflowing-interval": (("problem",), _OVERFLOWING_INTERVAL,
                             "radial interval [-1.7e+308, 1.7e+308] needs finite ends "
                             "a finite width apart"),
    "two-gammas": (("problem", "gamma"), 3.0, "config.problem.gamma 3.0 and "
                   "config.params.gamma 1.4 differ: a run has one gamma"),
    # each setting has one key: a retired second spelling is named
    "allow-tau-halving": (("time", "allow_tau_halving"), True,
                          "unknown key(s) in config.time: ['allow_tau_halving']"),
    "mesh-cells": (("mesh",), {"cells": 8},
                   "mesh spec must be one of [['r_nodes'], ['cells', 's_max', 's_min'], "
                   "['s_nodes']], got keys ['cells']; a mesh uniform in r is problem.cells"),
    "pressure-p0": (("params", "bc_right"), {"kind": "pressure", "p0": 1.0},
                    "unknown key(s) in config.params.bc_right: ['p0']"),
    "sod-visc-nu": (("problem",), {"name": "sod", "visc_nu": 2.0},
                    "unknown option(s) for problem 'sod': ['visc_nu']"),
    "cells-and-mesh": (("mesh",), {"r_nodes": [0, 0.5, 1]}, "config.problem.cells and "
                       "config.mesh.r_nodes both set the mesh: give one"),
    "cells-and-s-mesh": (("mesh",), {"s_min": 0, "s_max": 0.5, "cells": 4}, "config.problem.cells "
                         "and config.mesh.cells both set the mesh: give one"),
    # a fourth entry: config blocks the case starts from
    "r-max-and-r-nodes": (("mesh",), {"r_nodes": [0, 0.5, 1]}, "config.problem.r_max and "
                          "config.mesh.r_nodes both set the mesh: give one",
                          {"problem": {**_PULSE_SHAPE, "r_max": 2.0}}),
}


@pytest.mark.parametrize("case", list(_EXIT_3))
def test_a_config_error_exits_3_with_its_message(tmp_path, capsys, case):
    path, value, message, *start = _EXIT_3[case]
    raw = _pulse_raw(**(start[0] if start else {}))
    target = raw
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    assert main(["run", "--config", str(_write_config(tmp_path, raw)),
                 "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"


def test_a_negative_density_with_a_mass_mesh_exits_3(tmp_path, capsys):
    raw = _pulse_raw(problem={"name": "uniform", "rho0": -1}, mesh={"s_nodes": [0, 0.5, 1]})
    assert main(["run", "--config", str(_write_config(tmp_path, raw)),
                 "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == "error: density segments must be positive\n"


def test_an_out_directory_below_a_regular_file_exits_3(tmp_path, capsys):
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "out"
    assert main(["run", "--config", str(_write_config(tmp_path, _pulse_raw())),
                 "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"error: [Errno 20] Not a directory: '{out}'\n"


def test_a_failed_convergence_level_exits_3_naming_it(tmp_path, capsys):
    raw = _pulse_raw(problem={"name": "smooth_pulse", "cells": 10, "amplitude": 0.3})
    raw["params"]["newton_max_iter"] = 1
    assert main(["convergence", "--config", str(_write_config(tmp_path, raw))]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: convergence run at cells=10, tau=0.01 failed: ")
    assert err.count("\n") == 1


_NO_NEWTON_CONVERGENCE = _pulse_raw(problem={"name": "smooth_pulse", "cells": 10, "amplitude": 0.3},
                                    params={"n": 0, "gamma": 1.4, "newton_max_iter": 1})


@pytest.mark.parametrize("command, raw, code, start", [
    ("run", {"problem": "nonexistent", "time": {"t_end": 0.1, "tau": 0.1}}, 3, "error: "),
    ("run", _NO_NEWTON_CONVERGENCE, 1, "ERROR polygas: run stopped after 0 steps: "),
    ("run", _pulse_raw(time={"t_end": 1e300, "tau": 1e300}), 1,
     "ERROR polygas: run stopped after 0 steps: Newton iteration diverged"),
    ("convergence", _NO_NEWTON_CONVERGENCE, 3,
     "error: convergence run at cells=10, tau=0.01 failed: "),
    ("run", _pulse_raw(problem=_OVERFLOWING_INTERVAL), 3, "error: radial interval "),
], ids=["bad-config", "rejected-step", "overflowing-step", "failed-convergence-level",
        "overflowing-interval"])
def test_an_error_prints_one_stderr_line(tmp_path, command, raw, code, start):
    """Through a process of its own, since pytest captures log records."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, POLYGAS_LOG="warning")
    done = subprocess.run([sys.executable, "-m", "polygas", command,
                           "--config", str(_write_config(tmp_path, raw)),
                           "--out", str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == code
    assert done.stderr.startswith(start) and done.stderr.count("\n") == 1, done.stderr
