"""Batched audits: run_simulation hands audit_all runs of consecutive accepted
steps.  Its records must be those of auditing each step's view alone, every
batch must fit the element budget, and the batches must cover each accepted
step exactly once, in order."""

import json

import pytest

from polygas import LayerError, audit_all, cli
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
            "time": {"t_end": 0.12, "tau": 0.04, "allow_tau_halving": True}}


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
