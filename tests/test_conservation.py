import dataclasses
import json
import math

import numpy as np
import pytest

from polygas import (
    ALL_LAWS,
    BoundaryCondition,
    LawId,
    SchemeParams,
    TwoLayerView,
    audit_all,
    cell_average,
    interp_nodal_pressure,
    make_initial_layer,
    problem_library,
    step,
    write_ledger,
)
from polygas import conservation
from conftest import advance, pulse_start, random_layer, random_view


# --- pure-algebra telescoping: holds for arbitrary fields, not just solutions ---

@pytest.mark.parametrize("mode", ("pointwise", "conservative"))
def test_cell_budgets_telescope_for_arbitrary_fields(rng, mode):
    params = SchemeParams(n=0, gamma=1.4, eos_mode=mode, visc_nu=0.5)
    for _ in range(5):
        view = random_view(rng, n_cells=int(rng.integers(3, 10)))
        budgets = audit_all(view, params)
        for budget in budgets:
            if not budget.applicable or budget.law in (LawId.MOMENTUM, LawId.CENTER_OF_MASS):
                continue
            summed = abs(view.tau * math.fsum(view.mesh.h * budget.residuals))
            scale = max(abs(budget.density_sum_lo), abs(budget.density_sum_hi), 1.0)
            assert abs(budget.identity_defect - summed) <= 1e-10 * scale, budget.law


def test_nodal_budgets_vanish_on_solution_views():
    layer, params = pulse_start(n=0, gamma=1.4, cells=24)
    for view in advance(layer, params, 0.01, 3):
        for budget in audit_all(view, params, (LawId.MOMENTUM, LawId.CENTER_OF_MASS)):
            assert budget.applicable
            assert budget.relative_defect <= 1e-12
            assert budget.per_cell_residual_max <= 1e-10


def test_nodal_budgets_vanish_with_pressure_boundaries():
    profile, _ = problem_library("uniform", cells=16)
    params = SchemeParams(n=0, gamma=1.4,
                          bc_left=BoundaryCondition.pressure(1.2),
                          bc_right=BoundaryCondition.pressure(0.7))
    layer = make_initial_layer(profile, 0)
    for view in advance(layer, params, 0.005, 3):
        laws = (LawId.MOMENTUM, LawId.CENTER_OF_MASS, LawId.ENERGY, LawId.MASS)
        for budget in audit_all(view, params, laws):
            assert budget.relative_defect <= 1e-12, budget.law


# --- gating and flags ----------------------------------------------------------------

def test_momentum_family_not_applicable_in_curved_geometry():
    layer, params = pulse_start(n=2, gamma=5.0 / 3.0, cells=20)
    (view,) = advance(layer, params, 0.01, 1)
    for budget in audit_all(view, params, (LawId.MOMENTUM, LawId.CENTER_OF_MASS)):
        assert not budget.applicable
        assert "n=0" in budget.note or "needs n=0" in budget.note


def test_additional_laws_not_applicable_in_pointwise_mode():
    layer, params = pulse_start(n=0, gamma=3.0, cells=20)
    (view,) = advance(layer, params, 0.01, 1)
    for budget in audit_all(view, params, (LawId.ADDITIONAL_1, LawId.ADDITIONAL_2)):
        assert not budget.applicable
        assert "conservative" in budget.note


def test_expected_zero_flags_follow_gamma_and_viscosity():
    cases = [
        (dict(n=0, gamma=3.0, eos_mode="conservative"), True),
        (dict(n=0, gamma=1.4, eos_mode="conservative"), False),
        (dict(n=0, gamma=3.0, eos_mode="conservative", visc_nu=1.0), False),
    ]
    for over, expected in cases:
        layer, params = pulse_start(cells=20, **over)
        (view,) = advance(layer, params, 0.01, 1)
        budget = audit_all(view, params, (LawId.ADDITIONAL_1,))[0]
        assert budget.applicable
        assert budget.expected_zero is expected, over


def test_audit_all_order_and_selection(rng):
    view = random_view(rng)
    params = SchemeParams(n=0, gamma=1.4)
    laws = [budget.law for budget in audit_all(view, params)]
    assert laws == list(ALL_LAWS)
    subset = audit_all(view, params, laws=(LawId.ENERGY, LawId.MASS))
    assert [b.law for b in subset] == [LawId.MASS, LawId.ENERGY]


def test_audit_all_reports_carried_lo_totals_except_the_second_balance(rng):
    view = random_view(rng, n_cells=10)
    params = SchemeParams(n=0, gamma=2.0, eos_mode="conservative")
    fresh = audit_all(view, params)
    # carrying the audit's own lo sums changes nothing, bit for bit
    same = audit_all(view, params, lo_totals={b.law: b.density_sum_lo for b in fresh})
    assert json.dumps([b.to_record() for b in same]) == json.dumps([b.to_record() for b in fresh])
    carried = audit_all(view, params, lo_totals={law: 0.125 for law in ALL_LAWS})
    for got, want in zip(carried, fresh):
        assert np.array_equal(got.residuals, want.residuals)  # always from the raw layers
        assert got.density_sum_hi == want.density_sum_hi
        if got.law is LawId.ADDITIONAL_2:  # its density holds the step's tau^2/8 term
            assert got.to_record() == want.to_record()
        else:
            assert got.density_sum_lo == 0.125 != want.density_sum_lo


def _weighted_densities(view, law):
    """The (lo, hi) rows whose totals a budget reports, written out from each
    law's docstring in the audit's expression order."""
    h, m = view.mesh.h, view.mesh.nodal_masses

    def density(layer):
        ke = 0.5 * cell_average(layer.u * layer.u)
        ru = cell_average(layer.r * layer.u)
        if law is LawId.MASS:
            return h * (1.0 / layer.rho)
        if law is LawId.ENERGY:
            return h * (layer.eps + ke)
        if law is LawId.MOMENTUM:
            return m * layer.u
        if law is LawId.CENTER_OF_MASS:
            return m * (layer.r - layer.t * layer.u)
        if law is LawId.ADDITIONAL_1:
            return h * (2.0 * layer.t * (layer.eps + ke) - ru)
        return h * (layer.t ** 2 * (layer.eps + ke) - layer.t * ru
                    + 0.5 * cell_average(layer.r * layer.r) + 0.25 * view.tau ** 2 * ke)
    return density(view.lo), density(view.hi)


@pytest.mark.parametrize("mode", ("pointwise", "conservative"))
@pytest.mark.parametrize("problem", ("sod", "smooth_pulse"))
def test_audit_all_sums_every_row_in_one_kernel_call(monkeypatch, problem, mode):
    profile, params = problem_library(problem, cells=400)
    params = dataclasses.replace(params, eos_mode=mode)
    views = advance(make_initial_layer(profile, 0), params, 1e-3, 5)
    calls = []

    def counted(rows, _real=conservation.exact_sums):
        calls.append(len(rows))
        return _real(rows)
    monkeypatch.setattr(conservation, "exact_sums", counted)
    carried = None
    for batch in (views[:2], views[2:]):
        budgets = [b for b in audit_all(batch, params, lo_totals=carried) if b.applicable]
        laws = len(budgets) // len(batch)
        for k, budget in enumerate(budgets):
            lo, hi = _weighted_densities(batch[k // laws], budget.law)
            if (carried is None or k >= laws) or budget.law is LawId.ADDITIONAL_2:
                assert budget.density_sum_lo.hex() == math.fsum(lo).hex(), budget.law
            else:
                assert budget.density_sum_lo == carried[budget.law]
            assert budget.density_sum_hi.hex() == math.fsum(hi).hex(), budget.law
        # one call per batch, each layer's row summed once (the first only if
        # not carried), except ADDITIONAL_2's, whose density holds each step's
        # tau^2/8 term: its lo and hi rows are summed per step
        per_step = int(mode == "conservative")
        assert calls == [(laws - per_step) * (len(batch) + (carried is None))
                         + per_step * 2 * len(batch)]
        assert laws == (6 if mode == "conservative" else 4)
        calls.clear()
        carried = {b.law: b.density_sum_hi for b in budgets[-laws:]}


@pytest.mark.parametrize("mode", ("pointwise", "conservative"))
def test_audit_all_computes_each_layer_term_once(monkeypatch, rng, mode):
    first = random_view(rng, n_cells=10)
    views = [first, TwoLayerView(lo=first.hi, hi=random_layer(rng, first.mesh, t=first.hi.t + 0.04),
                                 tau=0.04)]
    params = SchemeParams(n=0, gamma=2.0, eos_mode=mode)
    alone = [audit_all(view, params, (law,))[0].to_record() for view in views for law in ALL_LAWS]
    averaged = []

    def counted(f, _real=conservation.cell_average):
        averaged.extend(row.tobytes() for row in f)
        return _real(f)
    monkeypatch.setattr(conservation, "cell_average", counted)
    shared = [budget.to_record() for budget in audit_all(views, params)]
    # u^2 of each of the three layers for ENERGY and both quadratic balances;
    # r u and r^2 of each layer for the quadratic balances; the layer the two
    # steps share is averaged once
    assert len(averaged) == len(set(averaged)) == 3 * (3 if mode == "conservative" else 1)
    assert json.dumps(shared) == json.dumps(alone)


# --- flux pressure closures -----------------------------------------------------------

@pytest.mark.parametrize("visc_nu", (0.0, 2.0))
def test_audit_all_recomputes_shared_intermediates_once(monkeypatch, rng, visc_nu):
    view = random_view(rng, n_cells=10)
    params = SchemeParams(n=0, gamma=2.0, eos_mode="conservative", visc_nu=visc_nu)
    alone = [audit_all(view, params, (law,))[0].to_record() for law in ALL_LAWS]
    calls = []
    for name in ("r_factor", "interp_nodal_pressure"):
        def counted(*args, _real=getattr(conservation, name), _name=name):
            calls.append(_name)
            return _real(*args)
        monkeypatch.setattr(conservation, name, counted)
    shared = [budget.to_record() for budget in audit_all(view, params)]
    assert sorted(calls) == ["interp_nodal_pressure", "r_factor"]  # once each per view
    assert json.dumps(shared) == json.dumps(alone)


def test_pressure_star_interior_and_wall_closure(rng):
    view = random_view(rng, n_cells=6)
    params = SchemeParams(n=0, gamma=1.4, alpha=0.3)
    rc = conservation._Recomputed(view, params)
    star, p_eff = rc.star[0], rc.p_eff[0]
    assert np.array_equal(star[1:-1], interp_nodal_pressure(p_eff, view.mesh))
    assert star[0] == p_eff[0]
    assert star[-1] == p_eff[-1]


def test_pressure_star_uses_trace_at_pressure_boundaries(rng):
    view = random_view(rng, n_cells=6)
    params = SchemeParams(n=0, gamma=1.4, alpha=0.25,
                          bc_left=BoundaryCondition.pressure(3.0),
                          bc_right=BoundaryCondition.pressure(
                              __import__("polygas").PressureTrace("linear", p0=1.0, rate=2.0)))
    star = conservation._Recomputed(view, params).star[0]
    assert star[0] == 3.0
    expected = 0.25 * (1.0 + 2.0 * view.hi.t) + 0.75 * (1.0 + 2.0 * view.lo.t)
    assert star[-1] == pytest.approx(expected, rel=1e-15)


# --- detection power --------------------------------------------------------------------

def _worst_ungated(law, views, params, include_correction=True):
    return max(float(np.max(np.abs(conservation._quadratic(
        law, conservation._Recomputed(v, params), include_correction).residuals)))
        for v in views)


def test_raw_evaluators_detect_off_design_configurations():
    on_design, params_on = pulse_start(n=0, gamma=3.0, cells=24, eos_mode="conservative")
    views_on = advance(on_design, params_on, 0.02, 5)
    base = _worst_ungated(LawId.ADDITIONAL_1, views_on, params_on)
    assert base < 1e-10

    off_gamma, params_off = pulse_start(n=0, gamma=1.4, cells=24, eos_mode="conservative")
    views_off = advance(off_gamma, params_off, 0.02, 5)
    off = _worst_ungated(LawId.ADDITIONAL_1, views_off, params_off)
    assert off > 1e-4

    pointwise, params_pw = pulse_start(n=0, gamma=3.0, cells=24, eos_mode="pointwise")
    views_pw = advance(pointwise, params_pw, 0.02, 5)
    pw = _worst_ungated(LawId.ADDITIONAL_1, views_pw, params_pw)
    assert pw > 1e-7


def test_second_balance_needs_its_step_correction():
    layer, params = pulse_start(n=0, gamma=3.0, cells=24, eos_mode="conservative")
    views = advance(layer, params, 0.02, 5)
    with_corr = _worst_ungated(LawId.ADDITIONAL_2, views, params)
    without = _worst_ungated(LawId.ADDITIONAL_2, views, params, include_correction=False)
    assert with_corr < 1e-10
    assert without > 1e3 * with_corr


def test_perturbing_one_velocity_localizes_the_residual():
    layer, params = pulse_start(n=0, gamma=1.4, cells=30)
    (view,) = advance(layer, params, 0.01, 1)
    k = 11
    u_bad = view.hi.u.copy()
    u_bad[k] += 1e-3
    tampered = TwoLayerView(lo=view.lo, hi=dataclasses.replace(view.hi, u=u_bad), tau=view.tau)
    for law in (LawId.MASS, LawId.ENERGY):
        clean = audit_all(view, params, (law,))[0].residuals
        dirty = audit_all(tampered, params, (law,))[0].residuals
        changed = np.nonzero(np.abs(dirty - clean) > 1e-12)[0]
        assert set(changed) == {k - 1, k}, law


# --- serialization -----------------------------------------------------------------------

def test_budget_records_and_ledger_round_trip(tmp_path):
    layer, params = pulse_start(n=0, gamma=3.0, cells=16, eos_mode="conservative")
    (view,) = advance(layer, params, 0.01, 1)
    records = [b.to_record(step=0, t=0.0, tau=0.01) for b in audit_all(view, params)]
    path = tmp_path / "ledger.jsonl"
    write_ledger(records, path)
    lines = path.read_text().splitlines()
    assert len(lines) == len(ALL_LAWS)
    parsed = [json.loads(line) for line in lines]
    assert parsed == records
    assert all(rec["step"] == 0 and rec["tau"] == 0.01 for rec in parsed)
    assert [rec["law"] for rec in parsed] == [law.value for law in ALL_LAWS]
