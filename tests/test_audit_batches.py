"""Batched audits: run_simulation hands audit_all runs of consecutive accepted
steps.  Its records must be those of auditing each step's view alone, every
batch must fit the element budget, and the batches must cover each accepted
step exactly once, in order."""

import dataclasses
import itertools
import json
import tracemalloc

import pytest

from polygas import (ALL_LAWS, BoundaryCondition, ConfigError, LawId, LayerError, StepRejected,
                     audit_all, cli, step)
from polygas.cli import resolve_config, run_simulation
from conftest import advance, pulse_start, zero_cell_pivot


@pytest.fixture
def batches(monkeypatch):
    """The views of every audit_all call run_simulation makes, call by call,
    through the name polygas.cli resolves at call time."""
    calls = []

    def captured(views, *args, _real=cli.audit_all, **kwargs):
        calls.append(list(views))
        return _real(views, *args, **kwargs)
    monkeypatch.setattr(cli, "audit_all", captured)
    return calls


def _pulse(n=0, mode="conservative", cells=20, **params):
    return {"problem": {"name": "smooth_pulse", "cells": cells, "amplitude": 0.05},
            "params": {"n": n, "gamma": 1.4, "eos_mode": mode, **params},
            "time": {"t_end": 0.05, "tau": 0.01}}


def _halving_sod():
    # viscous Sod whose first steps reject at tau = 0.04 and retry at halves
    return {"problem": {"name": "sod", "cells": 40},
            "params": {"n": 0, "gamma": 1.4, "eos_mode": "conservative", "visc_nu": 2.0,
                       "newton_max_iter": 3},
            "time": {"t_end": 0.12, "tau": 0.04, "max_halvings": 10}}


_RUNS = {
    "halving-viscous-sod": _halving_sod(),
    "linear-pressure": _pulse(bc_right={"kind": "pressure", "trace": {
        "kind": "linear", "p0": 1.0, "rate": -4.0}}),
    "exp-decay-pressure": _pulse(n=1, bc_right={"kind": "pressure", "trace": {
        "kind": "exp_decay", "p0": 1.2, "rate": 5.0}}),
    "moving-wall": _pulse(bc_left={"kind": "wall", "u_wall": 0.2}),
    **{f"n{n}-{mode}": _pulse(n=n, mode=mode)
       for n in (0, 1, 2) for mode in ("pointwise", "conservative")},
}


def _lone_view_records(batches, cfg) -> list[dict]:
    """The ledger of auditing every captured step's view on its own."""
    views = [view for batch in batches for view in batch]
    return [budget.to_record(step=k, t=view.lo.t, tau=view.tau)
            for k, view in enumerate(views) for budget in audit_all(view, cfg.params, cfg.laws)]


@pytest.mark.parametrize("budget", ("default", "three-steps"))
@pytest.mark.parametrize("name", list(_RUNS))
def test_batched_ledger_equals_lone_view_audits(monkeypatch, batches, name, budget):
    cfg = resolve_config(_RUNS[name])
    if budget == "three-steps":  # several batches, totals carried between them
        monkeypatch.setattr(cli, "AUDIT_BATCH_ELEMENTS", 3 * (cfg.profile.n_cells + 1))
    result = run_simulation(cfg)
    assert result.exit_code == 0 and result.steps >= 3
    assert max(len(batch) for batch in batches) == (3 if budget == "three-steps" else result.steps)
    if name == "halving-viscous-sod":  # uneven tau inside one batch
        assert len({view.tau for view in batches[0]}) > 1
    assert json.dumps(result.records) == json.dumps(_lone_view_records(batches, cfg))


def test_a_rejected_step_still_ledgers_every_accepted_step(monkeypatch, batches, tmp_path):
    # the third step's Jacobian hits the cell-pivot guard and no halving is allowed
    zero_cell_pivot(monkeypatch, when=lambda system: system.lo.t > 0.015)
    cfg = resolve_config(_pulse())
    result = run_simulation(cfg, out_dir=tmp_path)
    assert result.exit_code == 1 and result.failure and result.steps == 2
    assert [len(batch) for batch in batches] == [2]  # audited when the loop ends
    lines = (tmp_path / "ledger.jsonl").read_text().splitlines()
    assert len(lines) == 2 * len(cfg.laws)
    assert lines == [json.dumps(record) for record in _lone_view_records(batches, cfg)]
    # the loop itself: the accepted steps, chained and audited, then the rejection
    steps = cli.iter_steps(cfg)
    views = []
    for view, report, budgets in itertools.islice(steps, 2):
        assert report.accepted and len(budgets) == len(cfg.laws)
        views.append(view)
    assert views[0].hi is views[1].lo
    with pytest.raises(StepRejected) as rejected:
        next(steps)
    assert not rejected.value.report.accepted


def test_audit_all_rejects_views_that_are_not_consecutive():
    layer, params = pulse_start(cells=12)
    first, second, third = advance(layer, params, 0.01, 3)
    assert len(audit_all([first, second, third], params)) == 3 * len(cli.ALL_LAWS)
    for views in ([first, third], [second, first], [first, first], []):
        with pytest.raises(LayerError):
            audit_all(views, params)


@pytest.mark.parametrize("budget", (None, 4 * 21, 4 * 21 + 20, 20))
def test_batches_fit_the_budget_and_cover_every_step_once(monkeypatch, batches, budget):
    """None is the module's budget; 20 is below one 20-cell layer's 21 nodes,
    which is then audited one step per call."""
    if budget is not None:
        monkeypatch.setattr(cli, "AUDIT_BATCH_ELEMENTS", budget)
    cfg = resolve_config({**_pulse(), "time": {"t_end": 0.095, "tau": 0.01}})
    result = run_simulation(cfg)
    assert result.exit_code == 0 and result.steps == 10
    nodes = cfg.profile.n_cells + 1
    most = max(1, cli.AUDIT_BATCH_ELEMENTS // nodes)
    assert all(len(batch) * nodes <= cli.AUDIT_BATCH_ELEMENTS or len(batch) == 1
               for batch in batches)
    # each batch is as long as the budget allows, but the last
    assert [len(batch) for batch in batches[:-1]] == [most] * (len(batches) - 1)
    assert 1 <= len(batches[-1]) <= most
    views = [view for batch in batches for view in batch]
    assert len(views) == result.steps
    assert views[0].lo is result.initial_layer and views[-1].hi is result.final_layer
    assert all(a.hi is b.lo for a, b in zip(views, views[1:]))
    assert [record["step"] for record in result.records[::len(cfg.laws)]] == list(range(10))


def _peak_bytes(call) -> int:
    """tracemalloc's peak over one call, above what was allocated before it;
    a first, untraced call fills the caches a run fills once."""
    call()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_a_1600_cell_batch_audits_in_less_memory_than_one_step():
    """The batch run_simulation forms at 1600 cells (two steps) peaks below one
    step on the same layers, carried totals or not, so the audit never grows
    the heap past what every step already uses.  The audit that built its
    (B+1, ·) stacks for all laws at once and kept every law's arrays until its
    one sum peaked at 802 KiB against the step's 582."""
    layer, params = pulse_start(n=0, gamma=1.4, cells=1600, alpha=0.5)  # pulse-plane-1600
    views = advance(layer, params, 1e-3, 3)
    assert max(1, cli.AUDIT_BATCH_ELEMENTS // layer.mesh.n_nodes) == 2
    carried = {budget.law: budget.density_sum_hi for budget in audit_all(views[0], params)}
    one_step = _peak_bytes(lambda: step(views[1].lo, 1e-3, params, earlier=(views[0].lo,)))
    for lo_totals in (None, carried):
        batch = _peak_bytes(lambda: audit_all(views[1:], params, lo_totals=lo_totals))
        assert batch <= one_step, (batch, one_step)


def test_calls_that_switch_mesh_batch_and_laws_match_fresh_lone_view_audits():
    """No array outlives an audit_all call: calls that switch the mesh, the batch
    length and the law subset, each right after a call that raised (one midway,
    with its layer stacks built), give the records of auditing each view alone."""
    plane, plane_params = pulse_start(n=0, gamma=3.0, cells=24, eos_mode="conservative")
    sphere, sphere_params = pulse_start(n=2, gamma=5.0 / 3.0, cells=40)
    plane_views = advance(plane, plane_params, 0.01, 4)
    sphere_views = advance(sphere, sphere_params, 0.01, 3)
    calls = [(plane_views[:3], plane_params, ALL_LAWS),
             (sphere_views[1:2], sphere_params, (LawId.ENERGY, LawId.MASS)),
             (plane_views[3:], plane_params, (LawId.ADDITIONAL_2, LawId.MOMENTUM)),
             (sphere_views, sphere_params, ALL_LAWS),
             (plane_views, plane_params, (LawId.CENTER_OF_MASS,))]
    alone = [json.dumps([budget.to_record() for view in views
                         for budget in audit_all(view, params, laws)])
             for views, params, laws in calls]
    # the sphere's node at r = 0 may not move: check_origin_rule raises
    # after the stacks, v, p_eff and p* are built
    moving = dataclasses.replace(sphere_params, bc_left=BoundaryCondition.wall(0.2))
    failing = itertools.cycle([(sphere_views, moving, ConfigError),
                               ([plane_views[0], plane_views[2]], plane_params, LayerError)])
    for (views, params, laws), want, (bad_views, bad_params, error) in zip(calls, alone, failing):
        with pytest.raises(error):
            audit_all(bad_views, bad_params)
        assert json.dumps([budget.to_record() for budget in audit_all(views, params, laws)]) == want
