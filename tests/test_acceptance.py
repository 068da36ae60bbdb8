"""Acceptance suite: the behavioural guarantees this package ships with.

Each test prints exactly one line -- ``[C#] <claim>: PASS/FAIL (measured
values)`` -- on the real terminal, then asserts against pinned tolerances.
Runs are shared between criteria through a small cache, so the whole module
stays fast enough for routine CI.
"""

from functools import lru_cache

import numpy as np
import pytest

from polygas import LawId, conservation
from polygas.cli import convergence_study, iter_steps, resolve_config, run_simulation
from polygas.state import cell_average, exact_sums

from conftest import worst_ungated

# pinned tolerances ------------------------------------------------------------------
TOL_STATIC_DEFECT = 1e-13      # budgets on a resting uniform state
TOL_SMOOTH_PER_CELL = 1e-10    # per-cell mass/energy residual, smooth flow
TOL_SMOOTH_TOTALS = 1e-10      # relative drift of walled-in totals
TOL_NODAL_BUDGET = 1e-10       # momentum / center-of-mass budget defect (n = 0)
TOL_WORK_BALANCE = 1e-11       # per-cell energy-volume work balance, per unit time
TOL_EXTRA_BUDGET = 1e-10       # quadratic balances in conservative mode at gamma*
CONTROL_FACTOR = 1e4           # off-design residuals must exceed on-design by this
MIN_SPATIAL_ORDER = 1.8
MIN_TEMPORAL_ORDER = 0.9
GAP_RATIO_RANGE = (3.5, 4.5)   # tau -> tau/2 must shrink the mode gap ~4x
TOL_SHOCK_DEFECT = 1e-9        # linear budgets across a viscous shock run

GAMMA_STAR = {0: 3.0, 1: 2.0, 2: 5.0 / 3.0}


def _announce(capsys, cid: str, claim: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[{cid}] {claim}: {'PASS' if ok else 'FAIL'} ({detail})")


@lru_cache(maxsize=None)
def _run(name: str, n: int, gamma: float, eos_mode: str, cells: int,
         tau: float, t_end: float, visc_nu: float | None = None):
    params = {"n": n, "gamma": gamma, "eos_mode": eos_mode}
    if visc_nu is not None:
        params["visc_nu"] = visc_nu
    raw = {
        "problem": {"name": name, "cells": cells},
        "params": params,
        "time": {"t_end": t_end, "tau": tau},
    }
    cfg = resolve_config(raw)
    return cfg, run_simulation(cfg)


@lru_cache(maxsize=None)
def _views(*key):
    """The layer pairs of the _run(*key) run, stepped again by the loop it ran."""
    cfg, result = _run(*key)
    views = [view for view, _, _ in iter_steps(cfg)]
    layer = views[-1].hi
    assert len(views) == result.steps and layer.t == result.final_layer.t
    for name in ("r", "u", "rho", "p", "eps"):  # the run's own layers, bit for bit
        assert getattr(layer, name).tobytes() == getattr(result.final_layer, name).tobytes()
    return views


def _law_records(result, law: LawId) -> list[dict]:
    return [rec for rec in result.records if rec["law"] == law.value]


def _max_defect(result, laws) -> float:
    return max(rec["relative_defect"] for law in laws for rec in _law_records(result, law))


def _totals(layer) -> tuple[float, float]:
    h = layer.mesh.h
    volume, energy = exact_sums([h * (1.0 / layer.rho),
                                 h * (layer.eps + 0.5 * cell_average(layer.u * layer.u))])
    return volume, energy


# C1 ---------------------------------------------------------------------------------

def test_c1_static_states_are_fixed_points(capsys):
    drift = 0.0
    worst_defect = 0.0
    max_iters = 0
    bitwise = True
    for n in (0, 1, 2):
        for gamma, mode in ((GAMMA_STAR[n], "conservative"), (1.4, "pointwise")):
            _, result = _run("uniform", n, gamma, mode, cells=16, tau=0.01, t_end=1.0)
            assert result.failure is None
            lo, hi = result.initial_layer, result.final_layer
            for field in ("r", "u", "rho", "p", "eps"):
                a, b = getattr(lo, field), getattr(hi, field)
                bitwise &= np.array_equal(a, b)
                drift = max(drift, float(np.max(np.abs(b - a))))
            max_iters = max(max_iters, max(rep.iterations for rep in result.reports))
            worst_defect = max(worst_defect, max(
                rec["relative_defect"] for rec in result.records if rec["applicable"]))
    ok = bitwise and drift == 0.0 and worst_defect <= TOL_STATIC_DEFECT and max_iters == 1
    _announce(capsys, "C1", "resting uniform states are exact fixed points",
              ok, f"drift={drift:.1e}, max budget defect={worst_defect:.1e}, "
                  f"Newton iterations={max_iters}")
    assert bitwise and drift == 0.0
    assert worst_defect <= TOL_STATIC_DEFECT
    assert max_iters == 1


# C2 ---------------------------------------------------------------------------------

def test_c2_smooth_flow_cellwise_budgets(capsys):
    worst_cell = 0.0
    worst_drift = 0.0
    for n in (0, 1, 2):
        _, result = _run("smooth_pulse", n, 1.4, "pointwise", cells=50, tau=0.004, t_end=0.2)
        assert result.failure is None
        worst_cell = max(worst_cell, max(
            rec["per_cell_residual_max"]
            for law in (LawId.MASS, LawId.ENERGY) for rec in _law_records(result, law)))
        v0, e0 = _totals(result.initial_layer)
        v1, e1 = _totals(result.final_layer)
        worst_drift = max(worst_drift, abs(v1 - v0) / abs(v0), abs(e1 - e0) / abs(e0))
    ok = worst_cell <= TOL_SMOOTH_PER_CELL and worst_drift <= TOL_SMOOTH_TOTALS
    _announce(capsys, "C2", "smooth flow keeps per-cell mass/energy balances at round-off",
              ok, f"per-cell residual={worst_cell:.1e}, total drift={worst_drift:.1e}")
    assert worst_cell <= TOL_SMOOTH_PER_CELL
    assert worst_drift <= TOL_SMOOTH_TOTALS


# C3 ---------------------------------------------------------------------------------

def test_c3_plane_momentum_and_center_of_mass(capsys):
    _, result = _run("smooth_pulse", 0, 1.4, "pointwise", cells=50, tau=0.004, t_end=0.2)
    records = (_law_records(result, LawId.MOMENTUM)
               + _law_records(result, LawId.CENTER_OF_MASS))
    assert records and all(rec["applicable"] for rec in records)
    worst = max(rec["relative_defect"] for rec in records)
    worst_cell = max(rec["per_cell_residual_max"] for rec in records)
    ok = worst <= TOL_NODAL_BUDGET and worst_cell <= TOL_NODAL_BUDGET
    _announce(capsys, "C3", "plane-flow momentum and center-of-mass budgets close",
              ok, f"max relative defect={worst:.1e}, per-node residual={worst_cell:.1e}")
    assert worst <= TOL_NODAL_BUDGET
    assert worst_cell <= TOL_NODAL_BUDGET


# C4 ---------------------------------------------------------------------------------

def test_c4_discrete_work_balance(capsys):
    worst = 0.0
    for key in (("smooth_pulse", 0, 1.4, "pointwise", 50, 0.004, 0.2),
                ("smooth_pulse", 0, 3.0, "conservative", 50, 0.02, 0.5)):
        cfg, _ = _run(*key)
        views = _views(*key)
        assert views
        for view in views:
            p_eff = conservation._Recomputed(view, cfg.params).p_eff
            balance = ((view.hi.eps - view.lo.eps)
                       + p_eff * (1.0 / view.hi.rho - 1.0 / view.lo.rho)) / view.tau
            worst = max(worst, float(np.max(np.abs(balance))))
    ok = worst <= TOL_WORK_BALANCE
    _announce(capsys, "C4", "energy and volume updates satisfy the discrete work balance",
              ok, f"max |d(eps) + p_eff d(1/rho)|/tau={worst:.1e}")
    assert worst <= TOL_WORK_BALANCE


# C5 ---------------------------------------------------------------------------------

KEY_A = ("smooth_pulse", 0, 3.0, "conservative", 50, 0.02, 0.5)
KEY_PW = ("smooth_pulse", 0, 3.0, "pointwise", 50, 0.02, 0.5)
KEY_G = ("smooth_pulse", 0, 1.4, "conservative", 50, 0.02, 0.5)


def test_c5_quadratic_balances_at_design_gamma(capsys):
    on_design = 0.0
    for n in (0, 1, 2):
        _, result = _run("smooth_pulse", n, GAMMA_STAR[n], "conservative",
                         cells=50, tau=0.02, t_end=0.5)
        assert result.failure is None
        records = (_law_records(result, LawId.ADDITIONAL_1)
                   + _law_records(result, LawId.ADDITIONAL_2))
        assert all(rec["applicable"] and rec["expected_zero"] for rec in records)
        on_design = max(on_design, max(rec["relative_defect"] for rec in records),
                        max(rec["per_cell_residual_max"] for rec in records))
    # each control run's steps and scheme parameters
    runs = {key: (_views(*key), _run(*key)[0].params) for key in (KEY_A, KEY_PW, KEY_G)}
    raw_on = worst_ungated(LawId.ADDITIONAL_1, *runs[KEY_A])
    raw_pw = worst_ungated(LawId.ADDITIONAL_1, *runs[KEY_PW])
    raw_gamma = worst_ungated(LawId.ADDITIONAL_1, *runs[KEY_G])
    with_corr = worst_ungated(LawId.ADDITIONAL_2, *runs[KEY_A])
    ablated = worst_ungated(LawId.ADDITIONAL_2, *runs[KEY_A], include_correction=False)

    controls_ok = (raw_pw >= CONTROL_FACTOR * raw_on
                   and raw_gamma >= CONTROL_FACTOR * raw_on
                   and ablated >= CONTROL_FACTOR * with_corr)
    ok = on_design <= TOL_EXTRA_BUDGET and controls_ok
    _announce(capsys, "C5", "quadratic balances close only in conservative mode at gamma*",
              ok, f"on-design defect={on_design:.1e}, controls: pointwise={raw_pw:.1e}, "
                  f"off-gamma={raw_gamma:.1e}, no-correction={ablated:.1e} "
                  f"vs on-design raw={raw_on:.1e}")
    assert on_design <= TOL_EXTRA_BUDGET
    assert raw_pw >= CONTROL_FACTOR * raw_on
    assert raw_gamma >= CONTROL_FACTOR * raw_on
    assert ablated >= CONTROL_FACTOR * with_corr


# C6 ---------------------------------------------------------------------------------

def test_c6_self_convergence_orders(capsys):
    spatial_cfg = resolve_config({
        "problem": {"name": "smooth_pulse", "cells": 20},
        "params": {"gamma": 1.4},
        "time": {"t_end": 0.2, "tau": 0.02},
    })
    spatial = convergence_study(spatial_cfg, levels=3, mode="spatial")["spatial"]["orders"][-1]
    temporal_cfg = resolve_config({
        "problem": {"name": "smooth_pulse", "cells": 100},
        "params": {"gamma": 1.4},
        "time": {"t_end": 0.16, "tau": 0.04},
    })
    temporal = convergence_study(temporal_cfg, levels=3, mode="temporal")["temporal"]["orders"][-1]
    ok = (isinstance(spatial, float) and spatial >= MIN_SPATIAL_ORDER
          and isinstance(temporal, float) and temporal >= MIN_TEMPORAL_ORDER)
    _announce(capsys, "C6", "self-convergence: 2nd order in space, >= 1st order in time",
              ok, f"spatial order={spatial:.2f} (>= {MIN_SPATIAL_ORDER}), "
                  f"temporal order={temporal:.2f} (>= {MIN_TEMPORAL_ORDER})")
    assert isinstance(spatial, float) and spatial >= MIN_SPATIAL_ORDER
    assert isinstance(temporal, float) and temporal >= MIN_TEMPORAL_ORDER


# C7 ---------------------------------------------------------------------------------

def test_c7_mode_gap_shrinks_quadratically_in_tau(capsys):
    def gap(tau: float) -> float:
        _, pw = _run("smooth_pulse", 0, 3.0, "pointwise", cells=50, tau=tau, t_end=0.2)
        _, cons = _run("smooth_pulse", 0, 3.0, "conservative", cells=50, tau=tau, t_end=0.2)
        return float(np.max(np.abs(pw.final_layer.eps - cons.final_layer.eps)))

    g_coarse, g_fine = gap(0.01), gap(0.005)
    ratio = g_coarse / g_fine
    ok = GAP_RATIO_RANGE[0] <= ratio <= GAP_RATIO_RANGE[1]
    _announce(capsys, "C7", "pointwise and conservative runs differ at O(tau^2)",
              ok, f"gap({0.01})={g_coarse:.2e}, gap({0.005})={g_fine:.2e}, "
                  f"ratio={ratio:.2f} in {GAP_RATIO_RANGE}")
    assert GAP_RATIO_RANGE[0] <= ratio <= GAP_RATIO_RANGE[1]


# C8 ---------------------------------------------------------------------------------

def test_c8_viscous_shock_run_keeps_linear_budgets(capsys):
    _, result = _run("sod", 0, 1.4, "conservative", cells=100, tau=1e-3, t_end=0.2)
    assert result.failure is None
    assert result.steps == 200
    linear = _max_defect(result, (LawId.MASS, LawId.MOMENTUM, LawId.ENERGY))
    extras = (_law_records(result, LawId.ADDITIONAL_1)
              + _law_records(result, LawId.ADDITIONAL_2))
    extras_tracked = (all(rec["applicable"] and not rec["expected_zero"] for rec in extras)
                      and max(rec["relative_defect"] for rec in extras) > 1e-12)
    ok = result.exit_code == 0 and linear <= TOL_SHOCK_DEFECT and extras_tracked
    _announce(capsys, "C8", "viscous shock tube: linear budgets close, quadratic ones tracked",
              ok, f"exit={result.exit_code}, max linear defect={linear:.1e}, "
                  f"max quadratic defect={max(rec['relative_defect'] for rec in extras):.1e}")
    assert result.exit_code == 0
    assert linear <= TOL_SHOCK_DEFECT
    assert extras_tracked


# C9 ---------------------------------------------------------------------------------

def test_c9_reruns_are_byte_identical(capsys, tmp_path):
    raw = {
        "problem": {"name": "smooth_pulse", "cells": 50},
        "params": {"gamma": 3.0, "eos_mode": "conservative"},
        "time": {"t_end": 0.1, "tau": 0.01},
        "snapshot_every": 5,
    }
    for sub in ("first", "second"):
        result = run_simulation(resolve_config(raw), out_dir=tmp_path / sub)
        assert result.exit_code == 0
    first = sorted((tmp_path / "first").iterdir())
    second = sorted((tmp_path / "second").iterdir())
    same_names = [p.name for p in first] == [p.name for p in second]
    same_bytes = same_names and all(
        a.read_bytes() == b.read_bytes() for a, b in zip(first, second))
    ok = same_names and same_bytes
    _announce(capsys, "C9", "identical configs reproduce byte-identical outputs",
              ok, f"{len(first)} files compared")
    assert same_names
    assert same_bytes
