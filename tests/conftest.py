"""Shared helpers: random meshes/layers and small canned runs."""

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
    params = SchemeParams(**{**_as_dict(params), "n": n, **params_over})
    return make_initial_layer(profile, n), params


def _as_dict(params: SchemeParams) -> dict:
    import dataclasses
    return {f.name: getattr(params, f.name) for f in dataclasses.fields(params)}


def advance(layer, params, tau, steps):
    """Run a few accepted steps; returns the list of TwoLayerViews."""
    views = []
    for _ in range(steps):
        hi, _report = step(layer, tau, params)
        views.append(TwoLayerView(lo=layer, hi=hi, tau=tau))
        layer = hi
    return views
