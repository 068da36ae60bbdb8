"""The analytic Newton Jacobian and its linear solve against their oracles.

_fd_banded_jacobian is the Jacobian step() used before the analytic one, and
solve_banded on the full pentadiagonal band the linear solve step() used
before eliminating the cell unknowns; both live here only as references.
The analytic coefficients are compared with the finite-difference band entry
by entry at random states and end to end over short runs, and the
elimination plus tridiagonal solve with a banded solve of the same system.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import solve_banded

from polygas import (
    BoundaryCondition,
    PressureTrace,
    StepRejected,
    make_initial_layer,
    problem_library,
    resolve_config,
    run_simulation,
    step,
)
from polygas.scheme import FLOOR_REASON, _Jacobian, _StepSystem

from conftest import zero_cell_pivot

_SQRT_EPS = math.sqrt(np.finfo(float).eps)


def _interleave(pair) -> np.ndarray:
    """A (node, cell) pair of the step system as one vector in the oracles'
    interleaved ordering [u_0, q_0, u_1, ..., q_{N-1}, u_N]; x[0::2] and
    x[1::2] are its two blocks again."""
    node, cell = pair
    x = np.empty(node.size + cell.size)
    x[0::2] = node
    x[1::2] = cell
    return x


def _fd_banded_jacobian(system: _StepSystem, x: np.ndarray, f0: np.ndarray) -> np.ndarray:
    """Finite-difference Jacobian of system.residual in solve_banded layout,
    bandwidths (2, 2), with x and f0 interleaved.

    Every equation touches unknowns at most two slots away in the interleaved
    ordering, so columns j, j+5, j+10, ... have disjoint row footprints and
    can be perturbed together: 5 residual evaluations total.
    """
    m = x.size
    ab = np.zeros((5, m))
    rows = np.arange(m)
    for group in range(5):
        cols = np.arange(group, m, 5)
        steps = _SQRT_EPS * np.maximum(np.abs(x[cols]), 1.0)
        dx = np.zeros(m)
        dx[cols] = steps
        x1 = x + dx
        f1 = _interleave(system.residual((x1[0::2], x1[1::2]))[0])
        df = (f1 - f0)
        for c, st in zip(cols, steps):
            lo_r = max(0, c - 2)
            hi_r = min(m, c + 3)
            ab[2 + rows[lo_r:hi_r] - c, c] = df[lo_r:hi_r] / st
    return ab


def _entries(ab: np.ndarray) -> _Jacobian:
    """The _Jacobian coefficients at their places in a (2, 2) band."""
    return _Jacobian(lower=ab[4, 0:-2:2], diag=ab[2, 0::2], upper=ab[0, 2::2],
                     q_lo=ab[3, 1::2], q_hi=ab[1, 1::2],
                     c_lo=ab[3, 0:-1:2], c_q=ab[2, 1::2], c_hi=ab[1, 2::2])


def _band(jac: _Jacobian) -> np.ndarray:
    """The full Jacobian in solve_banded layout, (2, 2), from its coefficients."""
    ab = np.zeros((5, 2 * jac.diag.size - 1))
    for name, entries in zip(_Jacobian._fields, _entries(ab)):
        entries[:] = getattr(jac, name)
    return ab


def _fd_jacobian(system: _StepSystem, aux: dict) -> _Jacobian:
    """Drop-in replacement for _StepSystem.jacobian built on the oracle."""
    x = _interleave((aux["u_hat"], aux["q"]))
    f0 = _interleave(system.residual((x[0::2], x[1::2]))[0])
    return _entries(_fd_banded_jacobian(system, x, f0))


_TRACES = {
    "linear": PressureTrace(kind="linear", p0=1.1, rate=0.5),
    "exp_decay": PressureTrace(kind="exp_decay", p0=0.9, rate=2.0),
}


def _boundaries(n: int, boundary: str) -> dict:
    """Wall/wall, or a pressure trace; the r = 0 node of n >= 1 stays a wall."""
    if boundary == "wall":
        return {}
    bc = BoundaryCondition.pressure(_TRACES[boundary])
    if n == 0:
        return {"bc_left": bc}
    return {"bc_right": bc}


COMBOS = list(itertools.product((0, 1, 2), ("pointwise", "conservative"), (0.0, 2.0),
                                ("wall", "linear", "exp_decay")))


def _random_point(n, eos_mode, visc_nu, boundary, seed, tau, alpha, wiggle):
    """A 12-cell step system and a random Newton iterate (x, f, aux) near its
    start, x and f interleaved."""
    rng = np.random.default_rng(seed)
    profile, params = problem_library("smooth_pulse", cells=12, gamma=1.4)
    params = dataclasses.replace(params, n=n, eos_mode=eos_mode, visc_nu=visc_nu,
                                 alpha=alpha, **_boundaries(n, boundary))
    lo = make_initial_layer(profile, n)
    # a standing wave that vanishes at both ends, so cells both compress and expand
    s = lo.mesh.s / lo.mesh.s[-1]
    lo = dataclasses.replace(lo, t=0.3, u=lo.u + wiggle * np.sin(3.0 * np.pi * s),
                             p=lo.p * rng.uniform(0.8, 1.2, lo.p.size))
    system = _StepSystem(lo, tau, params)
    x = _interleave(system.initial_guess())
    x = x + 0.02 * wiggle * rng.standard_normal(x.size) * np.maximum(1.0, np.abs(x))
    if n >= 1:
        x[0] = 0.0  # the origin node is a resting wall
    f, aux = system.residual((x[0::2], x[1::2]))
    return system, x, _interleave(f), aux


_STATES = dict(seed=st.integers(0, 2**32 - 1), tau=st.floats(1e-3, 2e-2),
               alpha=st.floats(0.0, 1.0), wiggle=st.floats(0.05, 0.3))


@pytest.mark.parametrize("n, eos_mode, visc_nu, boundary", COMBOS)
@settings(max_examples=10, deadline=None)
@given(**_STATES)
def test_analytic_jacobian_matches_finite_differences(n, eos_mode, visc_nu, boundary,
                                                      seed, tau, alpha, wiggle):
    system, x, f, aux = _random_point(n, eos_mode, visc_nu, boundary, seed, tau, alpha, wiggle)
    jac = system.jacobian(aux)
    band = _fd_banded_jacobian(system, x, f)
    oracle = _entries(band)
    scale = np.max(np.abs(band))
    for name, analytic, fd in zip(_Jacobian._fields, jac, oracle):
        assert analytic.shape == fd.shape, name
        assert np.max(np.abs(analytic - fd)) <= 1e-6 * scale, name
    # the band holds nothing else: the elimination relies on that sparsity
    assert np.max(np.abs(band - _band(oracle))) <= 1e-6 * scale
    if visc_nu > 0.0:
        assert np.any(aux["d_rv"] < 0.0) and np.any(aux["d_rv"] > 0.0)


@pytest.mark.parametrize("n, eos_mode, visc_nu, boundary", list(itertools.product(
    (0, 1, 2), ("pointwise", "conservative"), (0.0, 2.0), ("wall", "linear"))))
@settings(max_examples=10, deadline=None)
@given(**_STATES)
def test_elimination_matches_the_banded_solve(n, eos_mode, visc_nu, boundary,
                                              seed, tau, alpha, wiggle):
    system, x, f, aux = _random_point(n, eos_mode, visc_nu, boundary, seed, tau, alpha, wiggle)
    jac = system.jacobian(aux)
    oracle = solve_banded((2, 2), _band(jac), -f)
    dx = _interleave(system.newton_update((x[0::2], x[1::2]), (f[0::2], f[1::2]), jac))
    assert np.max(np.abs(dx - oracle)) <= 1e-12 * np.max(np.abs(oracle))


def _sod_plane_viscous(cells):
    profile, params = problem_library("sod", cells=cells)
    return profile, dataclasses.replace(params, eos_mode="conservative")


def _pulse_sphere(cells):
    profile, params = problem_library("smooth_pulse", cells=cells, gamma=5.0 / 3.0)
    return profile, dataclasses.replace(params, n=2, eos_mode="conservative")


def _pulse_cylinder_exp_decay(cells):
    profile, params = problem_library("smooth_pulse", cells=cells)
    trace = PressureTrace(kind="exp_decay", p0=1.0, rate=1.0)
    return profile, dataclasses.replace(params, n=1,
                                        bc_right=BoundaryCondition.pressure(trace))


def _run_steps(build, cells=60, tau=1e-3, steps=20):
    profile, params = build(cells)
    layer = make_initial_layer(profile, params.n)
    iterations = []
    for _ in range(steps):
        layer, report = step(layer, tau, params)
        iterations.append(report.iterations)
    return layer, iterations


@pytest.mark.parametrize("build", [_sod_plane_viscous, _pulse_sphere,
                                   _pulse_cylinder_exp_decay])
def test_steps_agree_with_the_oracle_jacobian(monkeypatch, build):
    analytic, it_analytic = _run_steps(build)
    with monkeypatch.context() as m:
        m.setattr(_StepSystem, "jacobian", _fd_jacobian)
        oracle, it_oracle = _run_steps(build)
    for field in ("r", "u", "rho", "p", "eps"):
        a, b = getattr(analytic, field), getattr(oracle, field)
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b)), field
    assert max(abs(i - j) for i, j in zip(it_analytic, it_oracle)) <= 1


@pytest.mark.parametrize("raw, steps", [
    # cylindrical Sod: Newton stagnates at step 65
    ({"problem": {"name": "sod", "cells": 200},
      "params": {"n": 1, "eos_mode": "conservative"}}, 65),
])
def test_known_solver_failures_are_unchanged(raw, steps):
    cfg = resolve_config({**raw, "time": {"t_end": 0.2, "tau": 1e-3}})
    result = run_simulation(cfg)
    assert result.exit_code == 1
    assert result.steps == steps
    assert "Newton stagnated" in result.failure


@pytest.mark.parametrize("cells", [6400, 12800])
def test_large_pulses_stop_at_the_round_off_floor(cells):
    """The absolute newton_tol sits below the round-off floor of these meshes
    (a 6400-cell pulse once stagnated at 1.33e-12 on step 0); the per-row
    floor test accepts every step and the budgets still close."""
    cfg = resolve_config({"problem": {"name": "smooth_pulse", "cells": cells},
                          "time": {"t_end": 0.2, "tau": 1e-3}})
    result = run_simulation(cfg)
    assert result.exit_code == 0 and result.failure is None
    assert result.steps == 200 and result.final_layer.t == pytest.approx(0.2, abs=1e-12)
    assert not result.violations
    assert any(report.reason == FLOOR_REASON for report in result.reports)
    assert all(report.final_residual_norm > cfg.params.newton_tol
               for report in result.reports if report.reason == FLOOR_REASON)


def test_vanishing_cell_pivot_rejects_the_step(monkeypatch):
    profile, params = problem_library("smooth_pulse", cells=20)
    layer = make_initial_layer(profile, params.n)
    zero_cell_pivot(monkeypatch)
    with pytest.raises(StepRejected, match="cell pivot vanishes at cell 3") as info:
        step(layer, 1e-3, params)
    assert not info.value.report.accepted
    assert info.value.report.iterations == 1


@pytest.mark.parametrize("field", _Jacobian._fields)
def test_a_nan_in_any_jacobian_array_rejects_the_step(monkeypatch, field):
    profile, params = problem_library("smooth_pulse", cells=20)
    layer = make_initial_layer(profile, params.n)
    real = _StepSystem.jacobian

    def jacobian(system, aux):
        jac = real(system, aux)
        getattr(jac, field)[5] = math.nan
        return jac
    monkeypatch.setattr(_StepSystem, "jacobian", jacobian)
    with pytest.raises(StepRejected, match="^non-finite Jacobian$") as info:
        step(layer, 1e-3, params)
    assert info.value.report.iterations == 1
