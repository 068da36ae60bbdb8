import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from polygas import ConfigError, LawId
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


def _pulse_raw(**extra):
    raw = {
        "problem": {"name": "smooth_pulse", "cells": 20, "amplitude": 0.05},
        "params": {"n": 0, "gamma": 1.4},
        "time": {"t_end": 0.05, "tau": 0.01},
    }
    raw.update(extra)
    return raw


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
    cfg = resolve_config(_pulse_raw(mesh={"cells": 8}))
    assert cfg.profile.n_cells == 8

    nodes = [0.0, 0.1, 0.3, 0.6, 1.0]
    cfg = resolve_config(_pulse_raw(mesh={"r_nodes": nodes}))
    assert cfg.profile.r_nodes == pytest.approx(nodes)

    # mass-coordinate forms: uniform-in-s mesh over the sod two-state data
    raw = {
        "problem": {"name": "sod", "cells": 10},
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


def test_with_resolution_requires_cells_mesh():
    cfg = resolve_config(_pulse_raw(mesh={"r_nodes": [0.0, 0.3, 0.7, 1.0]}))
    with pytest.raises(ConfigError, match="cells"):
        with_resolution(cfg, 8, 0.01)
    cfg = resolve_config(_pulse_raw())
    finer = with_resolution(cfg, 40, 0.005)
    assert finer.profile.n_cells == 40
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
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["exit_code"] == 1
    assert summary["failure"] == result.failure


def test_run_simulation_tau_halving_retries():
    raw = _pulse_raw()
    raw["problem"]["amplitude"] = 0.3
    raw["params"]["newton_max_iter"] = 4
    raw["time"] = {"t_end": 0.02, "tau": 0.02, "allow_tau_halving": True}
    cfg = resolve_config(raw)
    result = run_simulation(cfg)
    assert result.exit_code == 0
    assert result.final_layer.t == pytest.approx(0.02, abs=1e-12)
    assert result.steps >= 1


def _counted_steps(monkeypatch) -> list[float]:
    """Record the tau of every step() attempt run_simulation makes."""
    taus = []

    def counted(layer, tau, params, _real=cli.step):
        taus.append(tau)
        return _real(layer, tau, params)
    monkeypatch.setattr(cli, "step", counted)
    return taus


def test_run_simulation_exhausts_halvings_then_fails(monkeypatch):
    raw = _pulse_raw()
    raw["params"]["newton_max_iter"] = 1
    raw["time"] = {"t_end": 0.02, "tau": 0.01, "allow_tau_halving": True, "max_halvings": 3}
    taus = _counted_steps(monkeypatch)
    result = run_simulation(resolve_config(raw))
    assert result.exit_code == 1 and result.steps == 0
    assert "no Newton convergence" in result.failure
    # every attempt goes through the step name polygas.cli resolves at call time
    assert taus == [0.01, 0.005, 0.0025, 0.00125]
    assert len(result.reports) == 1 and not result.reports[0].accepted


def test_run_simulation_keeps_base_tau_when_easy(monkeypatch):
    raw = _pulse_raw()
    raw["time"] = {"t_end": 0.02, "tau": 0.01, "allow_tau_halving": True}
    taus = _counted_steps(monkeypatch)
    result = run_simulation(resolve_config(raw))
    assert result.exit_code == 0 and result.steps == 2
    assert taus == [0.01, 0.01]
    assert {record["tau"] for record in result.records} == {0.01}


def test_negative_max_halvings_is_a_config_error(tmp_path, capsys):
    raw = _pulse_raw()
    raw["time"] = {"t_end": 0.02, "tau": 0.01, "allow_tau_halving": True, "max_halvings": -1}
    with pytest.raises(ConfigError, match="max_halvings"):
        resolve_config(raw)
    path = _write_config(tmp_path, raw)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 3
    assert "max_halvings" in capsys.readouterr().err
    cfg = dataclasses.replace(resolve_config(_pulse_raw()), max_halvings=-1)
    with pytest.raises(ConfigError, match="max_halvings"):
        run_simulation(cfg)


@pytest.mark.parametrize("where, key, value", [
    ("time", "allow_tau_halving", "false"),
    ("time", "allow_tau_halving", 0),
    ("time", "allow_tau_halving", None),
    ("time", "max_halvings", 2.7),
    ("time", "max_halvings", True),
    ("time", "max_halvings", "3"),
    ("top", "snapshot_every", 2.7),
    ("top", "snapshot_every", False),
    ("params", "n", 1.5),
    ("params", "n", True),
    ("params", "newton_max_iter", 7.5),
    ("mesh", "cells", 20.5),
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


def test_integral_numbers_and_booleans_are_accepted():
    raw = _pulse_raw(snapshot_every=2.0, mesh={"cells": 24.0})
    raw["time"].update(allow_tau_halving=True, max_halvings=3.0)
    raw["params"].update(n=1.0, newton_max_iter=40)
    cfg = resolve_config(raw)
    assert (cfg.snapshot_every, cfg.max_halvings, cfg.params.n, cfg.params.newton_max_iter) == (2, 3, 1, 40)
    assert all(type(x) is int for x in (cfg.snapshot_every, cfg.max_halvings, cfg.params.n))
    assert cfg.profile.n_cells == 24
    # halving is off unless allow_tau_halving is true, whatever max_halvings says
    raw["time"]["allow_tau_halving"] = False
    assert resolve_config(raw).max_halvings == 0
    assert resolve_config(_pulse_raw()).max_halvings == 0
    raw["time"] = {"t_end": 0.05, "tau": 0.01, "allow_tau_halving": True}
    assert resolve_config(raw).max_halvings == 10


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
    ("p0", ("params", "bc_left"), {"kind": "pressure", "p0": "1"}),
    ("rate", ("params", "bc_right"), {"kind": "pressure", "trace": {"kind": "linear",
                                                                    "rate": math.nan}}),
    ("cells", ("problem", "cells"), 2.5),
    ("amplitude", ("problem", "amplitude"), True),
    ("r_nodes", ("mesh",), {"r_nodes": [0.0, "0.5", 1.0]}),
    ("s_min", ("mesh",), {"s_min": False, "s_max": 1.0, "cells": 4}),
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


def test_convergence_study_rejects_bad_arguments():
    cfg = resolve_config(_pulse_raw())
    with pytest.raises(ConfigError, match="levels"):
        convergence_study(cfg, levels=2)
    with pytest.raises(ConfigError, match="mode"):
        convergence_study(cfg, mode="spacetime")


# --- offline audit -----------------------------------------------------------------

def test_audit_snapshots_matches_inline_ledger(tmp_path):
    raw = _pulse_raw(snapshot_every=1, time={"t_end": 0.02, "tau": 0.01})
    cfg = resolve_config(raw)
    result = run_simulation(cfg, out_dir=tmp_path)
    nodes = sorted(tmp_path.glob("snap_*_nodes.csv"))
    cells = sorted(tmp_path.glob("snap_*_cells.csv"))
    assert len(nodes) == 3
    records = audit_snapshots(cfg, nodes[0], cells[0], nodes[1], cells[1])
    inline = [rec for rec in result.records if rec["step"] == 0]
    assert records == inline


# --- entry point -------------------------------------------------------------------

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
