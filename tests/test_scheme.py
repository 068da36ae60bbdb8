import dataclasses
import math
import warnings

import numpy as np
import pytest

from polygas import (
    BoundaryCondition,
    ConfigError,
    GridLayer,
    PressureTrace,
    SchemeParams,
    StepRejected,
    MassMesh,
    TwoLayerView,
    cell_average,
    make_initial_layer,
    problem_library,
    r_factor,
    resolve_config,
    run_simulation,
    step,
    step_residuals,
)
from polygas import scheme
from polygas.conservation import _Recomputed
from polygas.scheme import _StepSystem, _scaled_norm, boundary_pressure
from polygas.state import exact_sums

from conftest import advance, pulse_start


# --- closed-form pieces -----------------------------------------------------------

def test_r_factor_hand_values():
    assert np.all(r_factor(np.array([0.3, 4.0]), np.array([9.0, 2.0]), 0) == 1.0)
    assert r_factor(1.0, 1.2, 1) == pytest.approx(1.1, rel=1e-15)
    assert r_factor(1.0, 2.0, 2) == (4.0 + 2.0 + 1.0) / 3.0


def test_r_factor_matches_volume_difference(rng):
    for n in (1, 2):
        r_lo = rng.uniform(0.1, 3.0, 50)
        r_hi = r_lo + rng.uniform(0.01, 1.0, 50)
        swept = (r_hi ** (n + 1) - r_lo ** (n + 1)) / (n + 1)
        assert np.allclose(r_factor(r_lo, r_hi, n) * (r_hi - r_lo), swept, rtol=1e-13)
        # coincident radii: the factor degenerates to the area r^n
        r = rng.uniform(0.1, 3.0, 50)
        assert np.allclose(r_factor(r, r, n), r ** n, rtol=1e-15)


def test_public_helpers_accept_lists():
    r_lo, r_hi = [0.5, 1.0, 2.0], [0.75, 1.5, 2.0]
    for n in (0, 1, 2):
        assert np.array_equal(r_factor(r_lo, r_hi, n), r_factor(np.array(r_lo), np.array(r_hi), n))
    assert np.array_equal(cell_average([1.0, 3.0, 7.0]), [2.0, 5.0])


def test_r_factor_rejects_bad_geometry():
    with pytest.raises(ConfigError):
        r_factor(1.0, 2.0, 3)


def _plane_view(u_lo, u_hi, rho=1.0, p=(1.0, 1.0), tau=0.1):
    """Two layers on a 2-cell unit-width mesh with prescribed velocities."""
    mesh = MassMesh([0.0, 1.0, 2.0])
    r = np.array([0.0, 1.0, 2.0])
    u_lo = np.asarray(u_lo, dtype=float)
    u_hi = np.asarray(u_hi, dtype=float)
    r_hi = r + tau * 0.5 * (u_lo + u_hi)
    make = lambda t, rr, uu: GridLayer(mesh=mesh, t=t, r=rr, u=uu,
                                       rho=np.full(2, rho), p=np.asarray(p, dtype=float),
                                       eps=np.full(2, 1.0))
    return TwoLayerView(lo=make(0.0, r, u_lo), hi=make(tau, r_hi, u_hi), tau=tau)


def test_viscous_pressure_hand_value():
    # time-centered velocity jump of -0.5 per cell, rho_half = 1, nu = 2 -> 0.5
    # on top of p = 1; eps is constant, so the energy row is p_eff * (R v)_s
    # with (R v)_s = -0.5, in the solver's kernel and in the audit alike
    view = _plane_view([0.5, 0.0, -0.5], [0.5, 0.0, -0.5])
    params = SchemeParams(n=0, gamma=1.4, visc_nu=2.0)
    assert _Recomputed(view, params).p_eff[0] == pytest.approx([1.5, 1.5], rel=1e-14)
    assert step_residuals(view, params)["energy"] == pytest.approx([-0.75, -0.75], rel=1e-14)
    # expansion: switch off
    view = _plane_view([-0.5, 0.0, 0.5], [-0.5, 0.0, 0.5])
    assert np.all(_Recomputed(view, params).p_eff == 1.0)
    assert np.all(step_residuals(view, params)["energy"] == 0.5)
    params = SchemeParams(n=0, gamma=1.4, visc_nu=0.0)
    assert np.all(_Recomputed(view, params).p_eff == 1.0)
    assert np.all(step_residuals(view, params)["energy"] == 0.5)


def test_momentum_residual_desk_case():
    # P = (1, 2), unit widths, R = 1: the staggered gradient is 1, so
    # u_hat = u - tau makes the residual vanish identically.
    tau = 0.1
    u = np.array([0.2, -0.1, 0.4])
    view = _plane_view(u, u - tau, p=(1.0, 2.0), tau=tau)
    res = step_residuals(view, SchemeParams(n=0, gamma=1.4))["momentum"]
    assert res[1:-1] == pytest.approx([0.0], abs=1e-14)
    # rows 0 and -1 are the wall closures u_hat - u_wall
    assert res[[0, -1]] == pytest.approx(u[[0, -1]] - tau, abs=1e-15)


def test_trajectory_residual_desk_case():
    mesh = MassMesh([0.0, 1.0, 2.0])
    r = np.array([0.0, 1.0, 2.0])
    lo = GridLayer(mesh=mesh, t=0.0, r=r, u=np.ones(3), rho=np.ones(2),
                   p=np.ones(2), eps=np.ones(2))
    hi = GridLayer(mesh=mesh, t=1.0, r=r + 2.0, u=3.0 * np.ones(3),
                   rho=np.ones(2), p=np.ones(2), eps=np.ones(2))
    view = TwoLayerView(lo=lo, hi=hi, tau=1.0)
    assert np.all(step_residuals(view, SchemeParams(n=0, gamma=1.4))["trajectory"] == 0.0)


# --- static preservation ------------------------------------------------------------

@pytest.mark.parametrize("n", (0, 1, 2))
@pytest.mark.parametrize("mode", ("pointwise", "conservative"))
def test_static_state_is_a_bitwise_fixed_point(n, mode):
    gamma = 1.0 + 2.0 / (n + 1) if mode == "conservative" else 1.4
    profile, _ = problem_library("uniform", cells=12, gamma=gamma)
    params = SchemeParams(n=n, gamma=gamma, eos_mode=mode)
    layer = make_initial_layer(profile, n)
    hi, report = step(layer, 0.01, params)
    assert report.iterations == 1  # converged at the initial guess
    assert report.final_residual_norm == 0.0
    for name in ("r", "u", "rho", "p", "eps"):
        assert np.array_equal(getattr(hi, name), getattr(layer, name)), name


def test_galilean_shift_leaves_plane_residuals_unchanged(rng):
    layer, params = pulse_start(n=0, gamma=1.4, cells=24)
    tau = 0.01
    hi, _ = step(layer, tau, params)
    view = TwoLayerView(lo=layer, hi=hi, tau=tau)
    c = 0.37
    shifted = TwoLayerView(
        lo=dataclasses.replace(layer, u=layer.u + c),
        hi=dataclasses.replace(hi, u=hi.u + c, r=hi.r + c * tau), tau=tau)
    plain = step_residuals(view, params)
    moved = step_residuals(shifted, params)
    for family in ("mass", "energy", "eos", "trajectory"):
        assert np.allclose(plain[family], moved[family], atol=1e-12), family
    # the wall closures at rows 0 and -1 see the shifted velocity itself
    assert np.allclose(plain["momentum"][1:-1], moved["momentum"][1:-1], atol=1e-12)


# --- mass-unit scaling --------------------------------------------------------------------

_DENSITY_AND_PRESSURE = {"smooth_pulse": {"rho0": 1.0, "p0": 1.0},
                         "sod": {"rho_left": 1.0, "p_left": 1.0, "rho_right": 0.125, "p_right": 0.1}}


#: the pulses' boundaries at k = -5 as (bc_left, bc_right), trace pressures scaled with p
_SCALED_BOUNDARIES = {
    "linear": lambda scale: ({"kind": "wall"}, {"kind": "pressure", "trace": {
        "kind": "linear", "p0": scale * 1.0, "rate": scale * -2.0}}),
    "exp_decay": lambda scale: ({"kind": "wall"}, {"kind": "pressure", "trace": {
        "kind": "exp_decay", "p0": scale * 1.0, "rate": 3.0}}),
    "moving-wall": lambda scale: ({"kind": "wall", "u_wall": 0.1}, {"kind": "wall"}),
}
#: (problem, n, mode, k, boundaries, visc_nu): rho and p scale by 2^k.  The
#: pulses at k = -5 send time-dependent boundary pressures, a moving wall and
#: viscous pressure through the batched audit, with tau halving on; the other
#: cases keep their problem's walls and viscosity.
_SCALING_CASES = (
    [(problem, n, mode, 7, None, None) for problem in _DENSITY_AND_PRESSURE
     for n in (0, 1, 2) for mode in ("pointwise", "conservative")]
    + [("smooth_pulse", 0, mode, -5, bcs, visc_nu) for bcs in _SCALED_BOUNDARIES
       for visc_nu in (0.0, 1.0) for mode in ("pointwise", "conservative")])


@pytest.mark.parametrize(
    "problem, n, mode, k, bcs, visc_nu", _SCALING_CASES,
    ids=[f"{problem}-{n}-{mode}" + (f"-k{k}-{bcs}-nu{visc_nu:g}" if bcs else "")
         for problem, n, mode, k, bcs, visc_nu in _SCALING_CASES])
def test_scaling_density_and_pressure_by_a_power_of_two_is_exact(problem, n, mode, k, bcs, visc_nu):
    """Multiplying rho and p by 2^k only changes the mass unit, and scaling by
    a power of two is exact: r, u and eps keep their bits, rho and p scale
    without round-off, and Newton and the audits see the same numbers."""
    def run(scale):
        options = {key: scale * value for key, value in _DENSITY_AND_PRESSURE[problem].items()}
        params = {"n": n, "eos_mode": mode}
        if bcs:
            bc_left, bc_right = _SCALED_BOUNDARIES[bcs](scale)
            params.update(visc_nu=visc_nu, bc_left=bc_left, bc_right=bc_right)
        time = {"t_end": 0.03, "tau": 0.01, "max_halvings": 10 if problem == "sod" or bcs else 0}
        return run_simulation(resolve_config({"problem": {"name": problem, "cells": 40, **options},
                                              "params": params, "time": time}))

    plain, scaled = run(1.0), run(2.0**k)
    assert plain.exit_code == scaled.exit_code == 0 and plain.steps == scaled.steps == 3
    a, b = plain.final_layer, scaled.final_layer
    for name in ("r", "u", "eps"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    assert np.array_equal(2.0**k * a.rho, b.rho) and np.array_equal(2.0**k * a.p, b.p)
    assert [r.iterations for r in plain.reports] == [r.iterations for r in scaled.reports]
    assert ([r["relative_defect"] for r in plain.records]
            == [r["relative_defect"] for r in scaled.records])


# --- plane mirror symmetry ------------------------------------------------------------

#: (original, mirrored) options on [0, 1]: u(r) -> -u(1 - r), cell fields reversed
_MIRRORED = {
    "smooth_pulse": ({"center": 0.3, "amplitude": 0.05}, {"center": 0.7, "amplitude": -0.05}),
    "sod": ({"split": 0.4}, {"split": 0.6, "rho_left": 0.125, "p_left": 0.1,
                             "rho_right": 1.0, "p_right": 1.0}),
}
#: (tau, bound) per problem.  Measured largest gaps over r, u, rho, p, eps, each
#: relative to the original run's max |field| (1 for r): 1.2e-13 (pulse, in u)
#: and 2.8e-13 (Sod, in u); the bounds leave a margin of about ten.
_MIRROR_BOUNDS = {"smooth_pulse": (0.002, 1e-12), "sod": (0.001, 3e-12)}


@pytest.mark.parametrize("problem", list(_MIRRORED))
def test_a_mirrored_plane_run_is_the_original_reversed(problem):
    """Reflecting r -> 1 - r maps a plane run onto itself with u -> -u.  Not
    bitwise: dgtsv eliminates in one direction, so round-off differs."""
    tau, bound = _MIRROR_BOUNDS[problem]

    def run(options):
        cfg = resolve_config({"problem": {"name": problem, "cells": 200, **options},
                              "audit": "none", "time": {"t_end": 100 * tau, "tau": tau}})
        result = run_simulation(cfg)
        assert result.exit_code == 0 and result.steps == 100
        return result.final_layer

    a, b = (run(options) for options in _MIRRORED[problem])
    assert np.max(np.abs(b.r - (1.0 - a.r[::-1]))) <= bound
    assert np.max(np.abs(b.u + a.u[::-1])) <= bound * np.max(np.abs(a.u))
    for name in ("rho", "p", "eps"):
        x, y = getattr(a, name), getattr(b, name)
        assert np.max(np.abs(y - x[::-1])) <= bound * np.max(np.abs(x)), name


# --- Newton's starting point ---------------------------------------------------------

def _interleave(pair) -> np.ndarray:
    """Newton's (u_hat, q) blocks as one vector [u_0, q_0, u_1, ..., q_{N-1}, u_N]."""
    node, cell = pair
    x = np.empty(node.size + cell.size)
    x[0::2] = node
    x[1::2] = cell
    return x


@pytest.mark.parametrize("mode", ("pointwise", "conservative"))
def test_a_constant_history_starts_newton_at_lo_bitwise(mode):
    layer, params = pulse_start(n=0, eos_mode=mode)
    lo = dataclasses.replace(layer, t=0.03, u=np.where(layer.u == 0.0, -0.0, layer.u))
    earlier = (dataclasses.replace(lo, t=0.025), dataclasses.replace(lo, t=0.005))
    system = _StepSystem(lo, 0.01, params)
    assert np.signbit(lo.u).any()  # a -0.0 must survive too
    assert (_interleave(system.initial_guess(earlier)).tobytes()
            == _interleave(system.initial_guess()).tobytes())


@pytest.mark.parametrize("mode", ("pointwise", "conservative"))
def test_the_guess_reproduces_fields_quadratic_in_time(rng, mode):
    """Layers at t = 0, 0.2 and 0.3, spaced unevenly as after a tau halving,
    extrapolated by tau = 0.1."""
    layer, params = pulse_start(n=0, eos_mode=mode)
    coef = {name: rng.uniform(0.5, 1.5, (3, getattr(layer, name).size)) for name in ("u", "p")}

    def field(name, t):
        a, b, c = coef[name]
        return a + b * t + c * t * t

    lo, e1, e2 = (dataclasses.replace(layer, t=t, u=field("u", t), p=field("p", t))
                  for t in (0.3, 0.2, 0.0))
    system = _StepSystem(lo, 0.1, params)
    x = _interleave(system.initial_guess((e1, e2)))
    p_hi = field("p", 0.4)
    q = 0.5 * (lo.p + p_hi) if mode == "conservative" else p_hi
    np.testing.assert_allclose(x[0::2], field("u", 0.4), rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(x[1::2], q, rtol=1e-14, atol=0.0)
    # with one earlier layer the extrapolation is linear and misses the curvature
    linear = _interleave(system.initial_guess((e1,)))
    assert np.max(np.abs(linear[0::2] - field("u", 0.4))) > 1e-3


def test_a_guess_that_inverts_a_cell_falls_back_to_lo():
    layer, params = pulse_start(n=0, cells=30)
    lo = dataclasses.replace(layer, t=0.01)
    kick = np.zeros_like(lo.u)
    kick[10] = 50.0
    earlier = (dataclasses.replace(lo, t=0.0, u=lo.u + kick),)
    system = _StepSystem(lo, 0.01, params)
    _, aux = system.residual(system.initial_guess(earlier))
    assert aux["rho_hat"][9] < 0.0  # node 10 overtakes node 9
    warm, warm_report = step(lo, 0.01, params, earlier=earlier)
    cold, cold_report = step(lo, 0.01, params)
    assert warm_report.accepted and warm_report.history == cold_report.history
    for name in ("r", "u", "rho", "p", "eps"):
        assert getattr(warm, name).tobytes() == getattr(cold, name).tobytes(), name


# --- the Newton step ------------------------------------------------------------------

_LINEAR_TRACE = BoundaryCondition.pressure(PressureTrace("linear", p0=1.0, rate=0.5))


def _assert_meets_tolerances(lo, hi, report, params):
    assert report.accepted
    assert report.final_residual_norm <= params.newton_tol
    assert report.history[0] > report.history[-1]  # it actually had work to do
    rows = step_residuals(TwoLayerView(lo=lo, hi=hi, tau=0.01), params)
    assert list(rows) == ["mass", "momentum", "energy", "trajectory", "eos"]
    for family, values in rows.items():
        worst = float(np.abs(values).max())
        assert worst <= 100.0 * params.newton_tol, (family, worst)


@pytest.mark.parametrize("boundary", ("wall", "linear"))
@pytest.mark.parametrize("visc_nu", (0.0, 2.0))
@pytest.mark.parametrize("eos_mode", ("pointwise", "conservative"))
@pytest.mark.parametrize("n", (0, 1, 2))
def test_accepted_step_meets_its_own_tolerances(n, eos_mode, visc_nu, boundary):
    gamma = 1.0 + 2.0 / (n + 1) if eos_mode == "conservative" else 1.4
    bcs = {}
    if boundary == "linear":  # the r = 0 node of n >= 1 stays a wall
        bcs = {"bc_left" if n == 0 else "bc_right": _LINEAR_TRACE}
    layer, params = pulse_start(n=n, gamma=gamma, cells=40, eos_mode=eos_mode,
                                visc_nu=visc_nu, **bcs)
    hi, report = step(layer, 0.01, params)
    _assert_meets_tolerances(layer, hi, report, params)


@pytest.mark.parametrize("boundary", ("wall", "linear"))
@pytest.mark.parametrize("visc_nu", (0.0, 2.0))
@pytest.mark.parametrize("eos_mode", ("pointwise", "conservative"))
@pytest.mark.parametrize("n", (0, 1, 2))
def test_warm_started_steps_meet_their_own_tolerances(n, eos_mode, visc_nu, boundary):
    # step_residuals on each stored pair bounds steps that Newton started
    # from an extrapolated guess, as it bounds a cold first step
    bcs = {"bc_left" if n == 0 else "bc_right": _LINEAR_TRACE} if boundary == "linear" else {}
    layer, params = pulse_start(n=n, gamma=1.4, cells=40, eos_mode=eos_mode,
                                visc_nu=visc_nu, **bcs)
    earlier = ()
    for _ in range(3):  # the later steps start from extrapolated guesses
        hi, report = step(layer, 0.01, params, earlier=earlier)
        _assert_meets_tolerances(layer, hi, report, params)
        earlier, layer = (layer, *earlier[:1]), hi


def _run_with_drop(monkeypatch, raw, negligible_du):
    monkeypatch.setattr(scheme, "_NEGLIGIBLE_DU", negligible_du)
    result = run_simulation(resolve_config(raw))
    assert result.exit_code == 0
    return result


_DROP_RUNS = [
    {"problem": {"name": problem, "cells": 60},
     "params": {"n": n, "eos_mode": eos_mode, "visc_nu": visc_nu},
     "time": {"t_end": 0.005, "tau": 1e-3}, "audit": "all"}
    for problem in ("smooth_pulse", "sod") for n in (0, 1, 2)
    for eos_mode in ("pointwise", "conservative") for visc_nu in (0.0, 2.0)
] + [  # a fine mesh at a small tau, C4's closure
    {"problem": {"name": "smooth_pulse", "cells": 1600},
     "params": {"n": 0, "gamma": 1.4, "eos_mode": "pointwise"},
     "time": {"t_end": 2e-3, "tau": 1e-4}, "audit": "all"},
]


@pytest.mark.parametrize("raw", _DROP_RUNS, ids=lambda raw: "-".join(
    str(v) for part in ("problem", "params") for v in raw[part].values()))
def test_dropping_negligible_updates_moves_only_sub_eps_squared_velocities(monkeypatch, raw):
    """Setting |du_j| < 2**-104 to zero leaves every ledger record, step
    report and the r, rho, p and eps bits as they are without the drop, and
    moves u by at most 2**-96; resting gas ahead of the wave is exactly 0."""
    dropped = _run_with_drop(monkeypatch, raw, scheme._NEGLIGIBLE_DU)
    kept = _run_with_drop(monkeypatch, raw, 0.0)
    assert dropped.records == kept.records
    assert dropped.reports == kept.reports
    a, b = dropped.final_layer, kept.final_layer
    for name in ("r", "rho", "p", "eps"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    assert float(np.abs(a.u - b.u).max()) <= 2.0 ** -96
    assert (a.u == 0.0).sum() > (b.u == 0.0).sum()


def test_plane_sod_keeps_resting_gas_at_rest_and_its_snapshots_share_lines(tmp_path):
    raw = {"problem": {"name": "sod", "cells": 400},
           "params": {"n": 0, "gamma": 1.4, "eos_mode": "conservative", "visc_nu": 2.0},
           "time": {"t_end": 0.01, "tau": 1e-3}, "snapshot_every": 1}
    result = run_simulation(resolve_config(raw), out_dir=tmp_path)
    assert result.exit_code == 0 and result.steps == 10
    assert (result.final_layer.u == 0.0).sum() >= 300
    tables = [path.read_text().splitlines() for path in sorted(tmp_path.glob("*_nodes.csv"))]
    assert len(tables) == 11
    for lo, hi in zip(tables, tables[1:]):
        assert sum(a == b for a, b in zip(lo[1:], hi[1:])) >= 300  # after the header


@pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
@pytest.mark.parametrize("row", (0, 1, 2, 3, 4))  # node rows 0, 2, 4; cell rows 1, 3
def test_scaled_norm_is_inf_for_a_row_holding_nan_or_inf(bad, row):
    f = np.array([1e-3, -4.0, 2e-3, 0.0, -1e-9])
    scales = np.array([1.0, 2.0, 1.0, 3.0, 1.0])
    assert _scaled_norm((f[0::2], f[1::2]), (scales[0::2], scales[1::2])) == 2.0
    f[row] = bad
    assert _scaled_norm((f[0::2], f[1::2]), (scales[0::2], scales[1::2])) == math.inf


@pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
def test_scaled_norm_is_inf_for_a_bad_cell_row_below_a_larger_node_row(bad):
    # max(node, cell) returns node when only cell is NaN
    node, cell = np.array([1e-3, 9.0, -1e-9]), np.array([-4.0, 0.0])
    scales = np.ones(3), np.array([2.0, 3.0])
    assert _scaled_norm((node, cell), scales) == 9.0
    cell[1] = bad
    assert _scaled_norm((node, cell), scales) == math.inf


def test_step_rejects_on_iteration_cap():
    layer, params = pulse_start(n=0, gamma=1.4, cells=16, newton_max_iter=1)
    with pytest.raises(StepRejected, match="no Newton convergence") as exc_info:
        step(layer, 0.01, params)
    report = exc_info.value.report
    assert not report.accepted
    assert report.iterations >= 1
    assert "no Newton convergence" in report.reason

@pytest.mark.parametrize("tau, reason", [
    (1e300, "Newton iteration diverged (non-finite residual)"),
    (1e308, "non-finite Jacobian"),
])
def test_an_overflowing_step_is_a_named_rejection_not_a_warning(tau, reason):
    layer, params = pulse_start(n=0, gamma=1.4, cells=20)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StepRejected) as info:
            step(layer, tau, params)
    assert info.value.report.reason == reason


def test_one_step_approaches_a_fine_reference():
    tau = 0.02

    def final_u(n_steps):
        layer, params = pulse_start(n=0, gamma=1.4, cells=24)
        for _ in range(n_steps):
            layer, _ = step(layer, tau / n_steps, params)
        return layer.u

    reference = final_u(64)
    err_1 = float(np.max(np.abs(final_u(1) - reference)))
    err_2 = float(np.max(np.abs(final_u(2) - reference)))
    assert err_2 < err_1
    assert 1.5 <= err_1 / err_2 <= 8.0  # consistent order between 0.6 and 3


def test_mass_consistency_propagates_without_being_imposed():
    layer, params = pulse_start(n=2, gamma=5.0 / 3.0, cells=30, eos_mode="conservative")
    for view in advance(layer, params, 0.01, 5):
        assert view.hi.mass_consistency_defect(2) <= 10.0 * params.newton_tol


# --- boundary handling ------------------------------------------------------------------

def test_momentum_budget_matches_boundary_impulse():
    profile, _ = problem_library("uniform", cells=20)
    params = SchemeParams(n=0, gamma=1.4,
                          bc_left=BoundaryCondition.pressure(1.0),
                          bc_right=BoundaryCondition.pressure(2.0))
    layer = make_initial_layer(profile, 0)
    tau = 0.01
    hi, _ = step(layer, tau, params)
    m = layer.mesh.nodal_masses
    impulse = exact_sums([m * hi.u])[0] - exact_sums([m * layer.u])[0]
    assert math.isclose(impulse, -tau * (2.0 - 1.0), rel_tol=0, abs_tol=1e-13)


def test_piston_wall_moves_the_boundary():
    profile, _ = problem_library("uniform", cells=16)
    params = SchemeParams(n=0, gamma=1.4, bc_left=BoundaryCondition.wall(0.1))
    layer = make_initial_layer(profile, 0)
    hi, report = step(layer, 0.01, params)
    assert report.accepted
    assert hi.u[0] == pytest.approx(0.1, abs=1e-13)
    assert hi.r[0] == pytest.approx(layer.r[0] + 0.01 * 0.05, abs=1e-14)
    view = TwoLayerView(lo=layer, hi=hi, tau=0.01)
    assert np.max(np.abs(step_residuals(view, params)["momentum"][[0, -1]])) <= 1e-12


@pytest.mark.parametrize("u_wall", (0.0, -1.0))
@pytest.mark.parametrize("eos_mode", ("pointwise", "conservative"))
@pytest.mark.parametrize("n", (0, 1, 2))
def test_wall_nodes_move_exactly_with_their_walls(n, eos_mode, u_wall):
    # a wall row of the Newton system is the identity, so the wall node's
    # velocity and radius are exact, with none of the tridiagonal solve's round-off.
    # tau/h >= 1 makes the solve pivot away from the left wall row (a plane
    # resting wall then drifted by ~1e-250); the piston needs tau*|u_wall| < h.
    layer, params = pulse_start(n=n, cells=300, eos_mode=eos_mode,
                                bc_right=BoundaryCondition.wall(u_wall))
    layer = dataclasses.replace(layer, u=np.concatenate((layer.u[:-1], [u_wall])))
    tau = 5e-3 if u_wall == 0.0 else 5e-4
    for _ in range(10):
        hi, _ = step(layer, tau, params)
        assert hi.u[0] == 0.0 and hi.r[0] == layer.r[0]
        assert hi.u[-1] == u_wall and hi.r[-1] == layer.r[-1] + tau * u_wall
        layer = hi


def test_pressure_boundary_pulls_gas_outward():
    profile, params = problem_library("expansion", cells=20, rate=1.0)
    layer = make_initial_layer(profile, 0)
    for _ in range(10):
        layer, _ = step(layer, 0.01, params)
    assert layer.u[-1] > 0.0  # falling external pressure lets the gas expand
    assert layer.r[-1] > 1.0


def test_origin_node_must_be_a_resting_wall():
    profile, _ = problem_library("uniform", cells=12)
    layer = make_initial_layer(profile, 1)
    bad = SchemeParams(n=1, gamma=2.0, bc_left=BoundaryCondition.pressure(1.0))
    with pytest.raises(ConfigError, match="r = 0"):
        step(layer, 0.01, bad)
    bad = SchemeParams(n=1, gamma=2.0, bc_left=BoundaryCondition.wall(0.5))
    with pytest.raises(ConfigError, match="r = 0"):
        step(layer, 0.01, bad)
    good = SchemeParams(n=1, gamma=2.0)
    hi, _ = step(layer, 0.01, good)
    assert hi.r[0] == 0.0


# --- parameter validation ------------------------------------------------------------------

def test_scheme_params_validation():
    with pytest.raises(ConfigError):
        SchemeParams(n=3, gamma=1.4)
    with pytest.raises(ConfigError):
        SchemeParams(n=0, gamma=1.0)
    with pytest.raises(ConfigError):
        SchemeParams(n=0, gamma=1.4, alpha=1.5)
    with pytest.raises(ConfigError):
        SchemeParams(n=0, gamma=1.4, eos_mode="exact")
    with pytest.raises(ConfigError):
        SchemeParams(n=0, gamma=1.4, visc_nu=-1.0)
    with pytest.raises(ConfigError):
        SchemeParams(n=0, gamma=1.4, newton_max_iter=0)
    params = SchemeParams(n=1, gamma=2.0, eos_mode="conservative", alpha=0.25)
    assert params.gamma_star == 2.0
    assert params.alpha_effective == 0.5  # conservative mode is time-centered


def test_pressure_trace_shapes():
    assert PressureTrace("constant", p0=2.0)(5.0) == 2.0
    assert PressureTrace("linear", p0=1.0, rate=2.0)(0.25) == 1.5
    assert PressureTrace("exp_decay", p0=1.0, rate=1.0)(1.0) == pytest.approx(math.exp(-1.0))
    with pytest.raises(ConfigError):
        PressureTrace("steps")


def test_an_exp_decay_trace_that_overflows_is_a_named_config_error():
    bc = BoundaryCondition.pressure(PressureTrace("exp_decay", p0=1.0, rate=-1000.0))
    assert boundary_pressure(bc, 0.0, 0.4, 0.5) > 1e173
    with pytest.raises(ConfigError) as info:
        boundary_pressure(bc, 0.4, 0.8, 0.5)
    assert str(info.value) == "boundary pressure trace not finite on [0.4, 0.8]"


def test_boundary_condition_validation():
    with pytest.raises(ConfigError):
        BoundaryCondition(kind="pressure")  # no trace
    with pytest.raises(ConfigError):
        BoundaryCondition(kind="free")
    bc = BoundaryCondition.pressure(2.5)
    assert bc.trace(0.0) == 2.5
    with pytest.raises(ConfigError, match="^wall velocity must be finite$"):
        BoundaryCondition.wall(float("inf"))


def test_step_rejects_bad_tau():
    layer, params = pulse_start()
    with pytest.raises(ConfigError):
        step(layer, 0.0, params)
