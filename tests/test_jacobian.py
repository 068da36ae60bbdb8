"""The analytic Newton Jacobian against its finite-difference oracle.

_fd_banded_jacobian is the Jacobian step() used before the analytic one; it
lives here only as the reference the analytic band is compared with, entry
by entry at random states and end to end over short runs.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polygas import (
    BoundaryCondition,
    PressureTrace,
    make_initial_layer,
    problem_library,
    resolve_config,
    run_simulation,
    step,
)
from polygas.scheme import _StepSystem

_SQRT_EPS = math.sqrt(np.finfo(float).eps)


def _fd_banded_jacobian(residual, x: np.ndarray, f0: np.ndarray) -> np.ndarray:
    """Finite-difference Jacobian in solve_banded layout, bandwidths (2, 2).

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
        f1, _ = residual(x + dx)
        df = (f1 - f0)
        for c, st in zip(cols, steps):
            lo_r = max(0, c - 2)
            hi_r = min(m, c + 3)
            ab[2 + rows[lo_r:hi_r] - c, c] = df[lo_r:hi_r] / st
    return ab


def _fd_jacobian(system: _StepSystem, aux: dict) -> np.ndarray:
    """Drop-in replacement for _StepSystem.jacobian built on the oracle."""
    x = np.empty(system.n_unknowns)
    x[0::2] = aux["u_hat"]
    x[1::2] = aux["q"]
    f0, _ = system.residual(x)
    return _fd_banded_jacobian(system.residual, x, f0)


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


@pytest.mark.parametrize("n, eos_mode, visc_nu, boundary", COMBOS)
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), tau=st.floats(1e-3, 2e-2),
       alpha=st.floats(0.0, 1.0), wiggle=st.floats(0.05, 0.3))
def test_analytic_jacobian_matches_finite_differences(n, eos_mode, visc_nu, boundary,
                                                      seed, tau, alpha, wiggle):
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
    x = system.initial_guess()
    x = x + 0.02 * wiggle * rng.standard_normal(x.size) * np.maximum(1.0, np.abs(x))
    if n >= 1:
        x[0] = 0.0  # the origin node is a resting wall
    f, aux = system.residual(x)

    band = system.jacobian(aux)
    oracle = _fd_banded_jacobian(system.residual, x, f)
    assert band.shape == oracle.shape
    assert np.max(np.abs(band - oracle)) <= 1e-6 * np.max(np.abs(oracle))
    if visc_nu > 0.0:
        assert np.any(aux["d_rv"] < 0.0) and np.any(aux["d_rv"] > 0.0)


def _sod_plane_viscous(cells):
    profile, params = problem_library("sod", cells=cells, visc_nu=2.0)
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
    # 6400-cell pulse: the absolute Newton tolerance sits below the round-off floor
    ({"problem": {"name": "smooth_pulse", "cells": 6400}}, 0),
])
def test_known_solver_failures_are_unchanged(raw, steps):
    cfg = resolve_config({**raw, "time": {"t_end": 0.2, "tau": 1e-3}})
    result = run_simulation(cfg)
    assert result.exit_code == 1
    assert result.steps == steps
    assert "Newton stagnated" in result.failure
