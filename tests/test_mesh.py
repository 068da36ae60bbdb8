import math

import numpy as np
import pytest

from polygas import MassMesh, MeshError


def test_uniform_mesh_widths_survive_rebuild_bit_exactly():
    first = MassMesh(np.linspace(0.0, 1.0, 8))
    rebuilt = MassMesh(first.s)
    assert np.array_equal(first.h, rebuilt.h)
    assert np.array_equal(first.midpoints, rebuilt.midpoints)


def test_hand_mesh_geometry():
    mesh = MassMesh([0.0, 1.0, 3.0, 6.0])
    assert mesh.n_cells == 3
    assert mesh.n_nodes == 4
    assert np.array_equal(mesh.h, [1.0, 2.0, 3.0])
    assert np.array_equal(mesh.midpoints, [0.5, 2.0, 4.5])
    assert np.array_equal(mesh.nodal_masses, [0.5, 1.5, 2.5, 1.5])
    assert np.array_equal(mesh.hbar, [1.5, 2.5])
    # derived once per mesh and handed out read-only
    assert mesh.h is mesh.h and mesh.hbar is mesh.hbar
    for derived in (mesh.h, mesh.nodal_masses, mesh.hbar):
        with pytest.raises(ValueError):
            derived[0] = 0.0


def test_node_weights_are_read_only_and_match_the_spacing_formula(rng):
    hand = MassMesh([0.0, 1.0, 3.0, 6.0])
    assert np.array_equal(hand.w, [2.0, 1.0 / 1.5, 1.0 / 2.5, 2.0 / 3.0])
    widths = rng.uniform(0.1, 2.0, 17)
    mesh = MassMesh(np.concatenate(([0.3], 0.3 + np.cumsum(widths))))
    h, hbar = mesh.h, mesh.hbar
    expected = np.concatenate(([2.0 / h[0]], 1.0 / hbar, [2.0 / h[-1]]))
    assert mesh.w.tobytes() == expected.tobytes()
    assert mesh.w is mesh.w  # built once per mesh
    with pytest.raises(ValueError):
        mesh.w[0] = 0.0


def test_nodal_masses_sum_to_total_mass(rng):
    widths = rng.uniform(0.1, 2.0, 17)
    mesh = MassMesh(np.concatenate(([2.0], 2.0 + np.cumsum(widths))))
    assert math.isclose(mesh.nodal_masses.sum(), mesh.s[-1] - mesh.s[0], rel_tol=1e-14)


def test_rejects_disordered_or_short_nodes():
    with pytest.raises(MeshError, match="strictly increasing"):
        MassMesh([0.0, 1.0, 1.0, 2.0])
    with pytest.raises(MeshError, match="strictly increasing; violated at interval 2"):
        MassMesh([0.0, 1.0, 2.0, 1.5])
    with pytest.raises(MeshError, match="at least 3"):
        MassMesh([0.0, 1.0])
    with pytest.raises(MeshError, match="finite"):
        MassMesh([0.0, np.nan, 1.0])


@pytest.mark.parametrize("nodes", ([0.0, 1e308, 1.7e308], [-1.7e308, 1.7e308, 1.75e308]))
def test_rejects_nodes_past_half_the_float_range(nodes):
    # a midpoint or a width of such nodes overflows; a snapshot of them could
    # be written but not read back
    with pytest.raises(MeshError, match="within"):
        MassMesh(nodes)


def test_uniform_mesh_rejects_bad_arguments():
    with pytest.raises(MeshError):
        MassMesh(np.linspace(0.0, 1.0, 2))  # one cell
    with pytest.raises(MeshError):
        MassMesh(np.linspace(1.0, 1.0, 5))  # empty interval


def test_nodes_are_read_only():
    mesh = MassMesh(np.linspace(0.0, 1.0, 5))
    with pytest.raises(ValueError):
        mesh.s[0] = 42.0
