"""Shared helpers: random meshes/layers, small canned runs, the ungated
quadratic residuals, a probe for numpy's dgtsv, a zeroed cell pivot, one
reset of the snapshot module's memories, counted snapshot reads and an
emptied column spelling cache."""

import ctypes
import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from polygas import (
    GridLayer,
    SchemeParams,
    MassMesh,
    TwoLayerView,
    make_initial_layer,
    problem_library,
    step,
)
from polygas import conservation, snapshots
from polygas.scheme import _StepSystem


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_mesh(rng, n_cells=8):
    widths = rng.uniform(0.2, 1.5, n_cells)
    return MassMesh(np.concatenate(([0.0], np.cumsum(widths))))


def random_layer(rng, mesh, t=0.0):
    """Arbitrary (not mass-consistent) fields for pure-algebra tests."""
    n_nodes = mesh.n_nodes
    r = np.concatenate(([rng.uniform(0.0, 0.2)], np.cumsum(rng.uniform(0.1, 0.8, n_nodes - 1))))
    return GridLayer(
        mesh=mesh, t=t, r=r,
        u=rng.normal(0.0, 0.5, n_nodes),
        rho=rng.uniform(0.3, 2.0, mesh.n_cells),
        p=rng.uniform(0.2, 2.5, mesh.n_cells),
        eps=rng.uniform(0.2, 3.0, mesh.n_cells))


def random_view(rng, n_cells=8, t=0.3, tau=0.05):
    mesh = random_mesh(rng, n_cells)
    return TwoLayerView(lo=random_layer(rng, mesh, t=t),
                        hi=random_layer(rng, mesh, t=t + tau), tau=tau)


def pulse_start(n=0, gamma=1.4, cells=30, **params_over):
    """Initial smooth-pulse layer plus matching scheme parameters."""
    profile, params = problem_library("smooth_pulse", cells=cells, gamma=gamma)
    return make_initial_layer(profile, n), dataclasses.replace(params, n=n, **params_over)


def advance(layer, params, tau, steps):
    """Run a few accepted steps; returns the list of TwoLayerViews."""
    views = []
    for _ in range(steps):
        hi, _report = step(layer, tau, params)
        views.append(TwoLayerView(lo=layer, hi=hi, tau=tau))
        layer = hi
    return views


def worst_ungated(law, views, params: SchemeParams, include_correction=True) -> float:
    """Largest per-cell residual of a quadratic balance over the views, with no
    applicability gate, so off-design runs serve as controls.  Without the
    correction, the second balance's tau^2/8 term has a zero coefficient."""
    worst = 0.0
    for v in views:
        rc = conservation._Recomputed(v, params)
        if not include_correction:
            rc.correction = np.zeros_like(rc.correction)
        worst = max(worst, float(np.max(np.abs(conservation._quadratic(law, rc).residuals))))
    return worst


def numpy_holds_dgtsv() -> bool:
    """Whether numpy's LAPACK exports scipy_dgtsv_64_, which the Newton solve
    takes before scipy's (numpy 2's Linux wheels do)."""
    try:
        from numpy._core import _multiarray_umath
        ctypes.CDLL(_multiarray_umath.__file__).scipy_dgtsv_64_
    except (ImportError, OSError, AttributeError):
        return False
    return True


def zero_cell_pivot(monkeypatch, when=lambda system: True, cell=3):
    """Make _StepSystem.jacobian return c_q[cell] = 0 wherever when(system) holds."""
    real = _StepSystem.jacobian

    def jacobian(system, aux):
        jac = real(system, aux)
        if when(system):
            jac.c_q[cell] = 0.0
        return jac
    monkeypatch.setattr(_StepSystem, "jacobian", jacobian)


def forget_snapshots():
    """Empty every memory of the snapshot module: the reader's held snapshot
    and the writer's column spellings."""
    snapshots._HELD = None
    snapshots._SPELLED.clear()


@pytest.fixture
def snapshot_reads(monkeypatch):
    """Empty the snapshot module's memories for one test and record what the
    reader does afresh: the path of every table it parses (`tables`), the time
    of every layer it builds (`layers`) and the path of every sidecar it
    decodes (`sidecars`), so counts do not depend on what earlier tests read."""
    forget_snapshots()
    reads = SimpleNamespace(tables=[], layers=[], sidecars=[])

    def parse_table(data, path, header, held, _real=snapshots._parse_table):
        reads.tables.append(path)
        return _real(data, path, header, held)

    def grid_layer(*, t, _real=snapshots.GridLayer, **fields):
        reads.layers.append(t)
        return _real(t=t, **fields)

    def sidecar(path, data, _real=snapshots._sidecar):
        reads.sidecars.append(path)
        return _real(path, data)
    monkeypatch.setattr(snapshots, "_parse_table", parse_table)
    monkeypatch.setattr(snapshots, "GridLayer", grid_layer)
    monkeypatch.setattr(snapshots, "_sidecar", sidecar)
    return reads


@pytest.fixture
def fresh_spellings():
    """Empty the snapshot module's memories for one test, so what it writes
    does not depend on what earlier tests wrote; returns the column spellings."""
    forget_snapshots()
    return snapshots._SPELLED
