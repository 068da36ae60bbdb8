import dataclasses
import math
import struct
import types
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polygas import (
    GridLayer,
    LayerError,
    MassMesh,
    TwoLayerView,
    cell_average,
    interp_nodal_pressure,
)
from polygas import state
from polygas.state import exact_sum
from conftest import random_layer, random_mesh

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
positive = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)


# --- hand-checked values -------------------------------------------------------

def test_interp_uses_swapped_width_weights():
    mesh = MassMesh([0.0, 1.0, 3.0])  # h = (1, 2)
    p = np.array([1.0, 4.0])
    # (h1*p0 + h0*p1)/(h0+h1) = (2 + 4)/3 = 2; naive interpolation would give 3
    assert np.array_equal(interp_nodal_pressure(p, mesh), [2.0])


def test_cell_average_is_of_the_evaluated_expression():
    u = np.array([1.0, 3.0])
    assert cell_average(u * u) == pytest.approx(5.0)  # (1 + 9)/2, not ((1+3)/2)^2
    assert cell_average(u) == pytest.approx(2.0)


# --- algebraic properties -------------------------------------------------------

def test_operators_exact_on_linear_fields(rng):
    for _ in range(10):
        mesh = random_mesh(rng, n_cells=rng.integers(3, 12))
        a, b = rng.normal(size=2)
        g = a + b * mesh.midpoints
        # the swapped weights make the interpolant exact at the node
        assert np.allclose(interp_nodal_pressure(g, mesh), a + b * mesh.s[1:-1],
                           rtol=1e-12, atol=1e-12)


@given(h_left=positive, h_right=positive, p_left=finite, p_right=finite)
def test_interp_output_between_adjacent_values(h_left, h_right, p_left, p_right):
    mesh = MassMesh([0.0, h_left, h_left + h_right])
    (star,) = interp_nodal_pressure(np.array([p_left, p_right]), mesh)
    lo, hi = min(p_left, p_right), max(p_left, p_right)
    assert lo - 1e-9 * (1 + abs(lo)) <= star <= hi + 1e-9 * (1 + abs(hi))


# --- exact sums --------------------------------------------------------------------

@st.composite
def sum_inputs(draw):
    """Float arrays with sizes on both sides of exact_sum's dispatch, exponents
    anywhere in the double range (subnormals included), exact or near-exact
    cancellation, and signed zeros, infinities and nan at random places."""
    size = draw(st.one_of(st.integers(1, 40), st.integers(300, 1300)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    e_lo = draw(st.integers(-1074, 1023))
    e_hi = draw(st.integers(e_lo, 1023))
    a = rng.uniform(-1.0, 1.0, size) * np.exp2(rng.integers(e_lo, e_hi + 1, size).astype(float))
    cancel = draw(st.sampled_from(("none", "exact", "near")))
    if cancel == "exact":
        a = np.concatenate((a, -a))
    elif cancel == "near":
        try:
            a = np.concatenate((a, [-math.fsum(a)]))
        except OverflowError:
            pass
    specials = draw(st.lists(st.floats(allow_nan=True, allow_infinity=True) | st.just(-0.0),
                             max_size=3))
    a = np.concatenate((a, specials))
    rng.shuffle(a)
    return a


def _outcome(fn, a):
    """The result's bits (sign of zero included; nan by kind), or the exception."""
    try:
        x = fn(a)
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)
    return "nan" if math.isnan(x) else struct.pack("<d", x)


@settings(max_examples=400, deadline=None)
@given(a=sum_inputs())
def test_exact_sum_is_math_fsum_bit_for_bit(a):
    assert _outcome(exact_sum, a) == _outcome(math.fsum, a)


@settings(max_examples=200, deadline=None)
@given(a=sum_inputs())
def test_exact_sum_kernel_matches_math_fsum_at_every_size(a):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(state, "_EXACT_SUM_MIN_SIZE", 1)
        assert _outcome(exact_sum, a) == _outcome(math.fsum, a)


def test_exact_sum_takes_the_limb_path_on_long_finite_input(monkeypatch):
    rng = np.random.default_rng(4)
    # a Gaussian tail spanning ~900 binary exponents, the slow case for math.fsum
    tail = np.exp(-rng.uniform(0.0, 620.0, 1601)) * rng.choice([-1.0, 1.0], 1601)
    cases = [tail, np.full(2000, 0.1), np.concatenate((tail, -tail[:-1]))]
    # the exact rational sum, rounded once, is an oracle independent of math.fsum
    expected = [float(sum(map(Fraction, a.tolist()))) for a in cases]
    monkeypatch.setattr(state, "math", types.SimpleNamespace(fsum=None))
    for a, want in zip(cases, expected):
        assert struct.pack("<d", exact_sum(a)) == struct.pack("<d", want)
    with pytest.raises(TypeError):  # too short: math.fsum's turn
        exact_sum(tail[:10])


def test_exact_sum_zero_totals_keep_math_fsum_sign():
    a = np.linspace(1.0, 2.0, 500)
    for zeros in (np.full(500, -0.0), np.concatenate((a, -a)), np.concatenate((-a, a, [-0.0]))):
        assert struct.pack("<d", exact_sum(zeros)) == struct.pack("<d", math.fsum(zeros))


# --- layers and views -------------------------------------------------------------

def test_grid_layer_rejects_wrong_shapes():
    mesh = MassMesh(np.linspace(0.0, 1.0, 5))
    good = dict(mesh=mesh, t=0.0, r=np.linspace(0, 1, 5), u=np.zeros(5),
                rho=np.ones(4), p=np.ones(4), eps=np.ones(4))
    GridLayer(**good)
    for name, size in (("r", 4), ("u", 6), ("rho", 5), ("p", 3), ("eps", 5)):
        with pytest.raises(LayerError, match=name):
            GridLayer(**{**good, name: np.ones(size)})
    with pytest.raises(LayerError, match="non-finite"):
        GridLayer(**{**good, "p": np.array([1.0, np.inf, 1.0, 1.0])})


def test_grid_layer_validate_catches_unphysical_states():
    mesh = MassMesh([0.0, 0.25, 0.5, 0.75, 1.0])
    base = dict(mesh=mesh, t=0.0, r=np.linspace(0, 1, 5), u=np.zeros(5),
                rho=np.ones(4), p=np.ones(4), eps=np.ones(4))
    GridLayer(**base).validate(n=0)
    with pytest.raises(LayerError, match="density"):
        GridLayer(**{**base, "rho": np.array([1.0, -0.5, 1.0, 1.0])}).validate(n=0)
    with pytest.raises(LayerError, match="increasing"):
        GridLayer(**{**base, "r": np.array([0.0, 0.5, 0.25, 0.75, 1.0])}).validate(n=0)
    with pytest.raises(LayerError, match="negative radius"):
        GridLayer(**{**base, "r": np.linspace(-0.2, 0.8, 5)}).validate(n=1)
    with pytest.raises(LayerError, match="mass-consistency"):
        GridLayer(**{**base, "rho": 2.0 * np.ones(4)}).validate(n=0)


def test_mass_consistency_hand_value():
    # h_i = 0.5 each, rho * dr = 2 * 0.25 = 0.5: consistent for n = 0
    mesh = MassMesh([0.0, 0.5, 1.0])
    layer = GridLayer(mesh=mesh, t=0.0, r=np.array([0.0, 0.25, 0.5]),
                      u=np.zeros(3), rho=np.array([2.0, 2.0]),
                      p=np.ones(2), eps=np.ones(2))
    assert layer.mass_consistency_defect(0) == 0.0
    layer.validate(n=0)


def test_layer_fields_are_read_only_and_replace_copies(rng):
    layer = random_layer(rng, random_mesh(rng, 5))
    with pytest.raises(ValueError):
        layer.u[0] = 1.0
    bumped = dataclasses.replace(layer, u=layer.u + 1.0)
    assert np.array_equal(bumped.u, layer.u + 1.0)
    assert bumped.mesh is layer.mesh


def test_two_layer_view_consistency_checks(rng):
    mesh = random_mesh(rng, 5)
    lo = random_layer(rng, mesh, t=0.0)
    hi = random_layer(rng, mesh, t=0.1)
    TwoLayerView(lo=lo, hi=hi, tau=0.1)
    with pytest.raises(LayerError, match="positive"):
        TwoLayerView(lo=lo, hi=hi, tau=-0.1)
    with pytest.raises(LayerError, match="inconsistent"):
        TwoLayerView(lo=lo, hi=hi, tau=0.25)
    other = random_layer(rng, random_mesh(rng, 5), t=0.1)
    with pytest.raises(LayerError, match="mesh"):
        TwoLayerView(lo=lo, hi=other, tau=0.1)


def test_two_layer_view_midpoint_times(rng):
    mesh = random_mesh(rng, 5)
    view = TwoLayerView(lo=random_layer(rng, mesh, t=1.0), hi=random_layer(rng, mesh, t=1.2),
                        tau=0.2)
    assert math.isclose(view.t_half, 1.1, rel_tol=1e-15)
    # average of squares, not square of the average
    assert math.isclose(view.t_sq_half, 0.5 * (1.0 + 1.2 ** 2), rel_tol=1e-15)
    assert view.t_sq_half > view.t_half ** 2
