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
from polygas import audit_all, conservation, state
from conftest import advance, pulse_start, random_layer, random_mesh

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
    assert _outcome(lambda a: state.exact_sums([a])[0], a) == _outcome(math.fsum, a)


@settings(max_examples=200, deadline=None)
@given(a=sum_inputs())
def test_exact_sum_kernel_matches_math_fsum_at_every_size(a):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(state, "_EXACT_SUM_MIN_SIZE", 1)
        assert _outcome(lambda a: state.exact_sums([a])[0], a) == _outcome(math.fsum, a)


@st.composite
def special_rows(draw):
    """Rows of only signed zeros, only subnormals, with an inf or nan, or with
    an overflowing total, on both sides of the size dispatch."""
    size = draw(st.one_of(st.integers(1, 40), st.integers(380, 1300)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(("zeros", "subnormal", "nonfinite", "overflow")))
    if kind == "zeros":
        return rng.choice([0.0, -0.0], size)
    if kind == "subnormal":
        return rng.integers(-2 ** 52 + 1, 2 ** 52, size) * 2.0 ** -1074
    if kind == "nonfinite":
        a = rng.uniform(-1.0, 1.0, size)
        a[rng.integers(size)] = draw(st.sampled_from((math.inf, -math.inf, math.nan)))
        return a
    return rng.choice([-1.0, 1.0]) * rng.uniform(1e307, 1.7e308, size)


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(sum_inputs() | special_rows(), min_size=1, max_size=12),
       everywhere=st.booleans())
def test_exact_sums_of_a_ragged_stack_are_math_fsum_row_by_row(rows, everywhere):
    """Each row's total is math.fsum's for that row alone, so the zero padding
    and the stack's width never reach a neighbour; a row math.fsum rejects
    makes the call raise math.fsum's exception for the first such row."""
    want = [_outcome(math.fsum, a) for a in rows]
    rejected = [w for w in want if isinstance(w, tuple)]
    with pytest.MonkeyPatch.context() as mp:
        if everywhere:  # short rows join the stack too
            mp.setattr(state, "_EXACT_SUM_MIN_SIZE", 1)
        if rejected:
            assert _outcome(lambda stack: state.exact_sums(stack)[0], rows) == rejected[0]
        kept = [a for a, w in zip(rows, want) if not isinstance(w, tuple)]
        got = [_outcome(float, x) for x in state.exact_sums(kept)]
    assert got == [w for w in want if not isinstance(w, tuple)]


def _fsum_calls(monkeypatch):
    """Route state's math.fsum through a counter; returns the call log."""
    calls = []
    monkeypatch.setattr(state, "math", types.SimpleNamespace(
        fsum=lambda values: calls.append(len(values)) or math.fsum(values)))
    return calls


def _gaussian_tail():
    # a Gaussian tail spanning ~900 binary exponents, the slow case for math.fsum
    rng = np.random.default_rng(4)
    return np.exp(-rng.uniform(0.0, 620.0, 1601)) * rng.choice([-1.0, 1.0], 1601)


def test_exact_sums_certificate_settles_long_finite_input(monkeypatch):
    layer, params = pulse_start(n=0, gamma=1.4, cells=1600, alpha=0.5)
    audit_rows = []
    monkeypatch.setattr(conservation, "exact_sums",
                        lambda rows: audit_rows.extend(rows) or state.exact_sums(rows))
    for view in advance(layer, params, 1e-3, 2):  # the pulse-plane-1600 audit rows
        audit_all(view, params)
    assert len(audit_rows) == 16
    cases = [_gaussian_tail(), np.full(2000, 0.1), *audit_rows]
    # the exact rational sum, rounded once, is an oracle independent of math.fsum
    expected = [float(sum(map(Fraction, a.tolist()))) for a in cases]
    monkeypatch.setattr(state, "math", types.SimpleNamespace(fsum=None))
    got = state.exact_sums(cases)
    assert [struct.pack("<d", x) for x in got] == [struct.pack("<d", x) for x in expected]
    with pytest.raises(TypeError):  # too short: math.fsum's turn
        state.exact_sums([cases[0][:10]])


def _binade_span(rng, size, e_lo, span, bits=53):
    """`size` values with random signs and `bits`-bit mantissas whose frexp
    exponents fill e_lo..e_lo+span, both ends included."""
    e = rng.integers(e_lo, e_lo + span + 1, size)
    e[:2] = e_lo, e_lo + span
    m = np.floor(rng.uniform(0.5, 1.0, size) * 2.0 ** bits) * 2.0 ** -bits
    return rng.choice([-1.0, 1.0], size) * np.ldexp(m, e)


def _kernel_cases():
    """Inputs at or above the kernel's size threshold: exponent spans of 0 to 12
    binades from the subnormals to the top of the range, with cancellation
    and round-half-even ties."""
    rng = np.random.default_rng(11)
    size = state._EXACT_SUM_MIN_SIZE
    tail = _gaussian_tail()
    cases = {"tail-cancel": np.concatenate((tail, -tail[:-1]))}
    for span in (0, 10, 11, 12):
        # subnormals (exact with 14-bit mantissas) up to 2^1000
        for e_lo, bits in ((-1060, 14), (-30, 53), (0, 53), (1000 - span, 53)):
            a = _binade_span(rng, size + span, e_lo, span, bits)
            assert np.ptp(np.frexp(a)[1]) == span
            cases[f"span{span}-e{e_lo}"] = a
            # everything cancels but the last value
            cases[f"span{span}-e{e_lo}-cancel"] = np.concatenate((a, -a[:-1]))
            # everything cancels but a value 2^-60 below the largest
            cases[f"span{span}-e{e_lo}-deep-cancel"] = np.concatenate((a, -a, [a[1] * 2.0 ** -60]))
    # exact totals half an ulp above a float: ties rounded to even, both ways
    half_ulp = 2.0 ** -53
    for k in (size - 1, size + 1):
        cases[f"tie-spread-{k}"] = np.concatenate(([1.0], np.full(k, half_ulp)))
        cases[f"tie-spread-{k}-neg"] = -cases[f"tie-spread-{k}"]
    for k in (768, 1536):  # k * 2^-52 is 1.5 ulps of the integer k
        cases[f"tie-equal-{k}"] = np.full(k, 1.0 + 2.0 ** -52)
    for seed in range(10):
        # 1024 plus half its ulp is a tie and v, -v cancel, so the total sits
        # 2^-100 above the tie, well inside the rounding error of fl(sum(v, -v))
        near = np.random.default_rng(seed)
        v = near.uniform(2.0 ** -34, 2.0 ** -33, int(near.integers(400, 1200)))
        cases[f"near-tie-{seed}"] = np.concatenate(([1024.0, 2.0 ** -43, 2.0 ** -100], v, -v))
        near.shuffle(cases[f"near-tie-{seed}"])
    # the longest row the kernel takes, every value near 2^10
    cases["longest"] = np.concatenate((np.full(2 ** 20 - 2, -np.nextafter(1024.0, 0.0)), [-0.5]))
    return cases


def test_exact_sums_falls_back_only_where_the_certificate_cannot_decide(monkeypatch):
    """Ties, near ties, deep cancellation and values outside [2^-900, 2^900]
    reach math.fsum, once each; the certificate settles every other case,
    cancellation down to a value within a few binades of the largest included.
    Either way the total is the exact rational sum rounded once."""
    cases = _kernel_cases()
    expected = {}
    for name, a in cases.items():
        exact = sum(map(Fraction, a.tolist())) if a.size < 10 ** 4 else (
            Fraction(a[0]) * (a.size - 1) + Fraction(a[-1]))
        expected[name] = float(exact)
        if name.startswith(("tie", "near-tie")):
            half_ulp = Fraction(math.ulp(expected[name])) / 2
            offset = 0 if name.startswith("tie") else Fraction(2.0 ** -100)
            assert abs(Fraction(expected[name]) - exact) == half_ulp - offset
    calls = _fsum_calls(monkeypatch)
    for name, a in cases.items():
        calls.clear()
        assert struct.pack("<d", state.exact_sums([a])[0]) == struct.pack("<d", expected[name]), name
        undecided = (name.startswith(("tie", "near-tie"))
                     or name.endswith(("deep-cancel", "tail-cancel"))
                     or not 2.0 ** -900 <= np.abs(a).max() <= 2.0 ** 900)
        assert calls == ([a.size] if undecided else []), name


def test_exact_sums_stacks_a_tall_batch_in_blocks_and_keeps_math_fsum(monkeypatch):
    """A batch audit's rows exceed one block: each block stays within
    _EXACT_SUM_BLOCK values (or holds one row), the certificate settles every
    row and each total is math.fsum's."""
    rng = np.random.default_rng(7)
    rows = [rng.normal(0.0, 1.0, int(rng.integers(384, 1602))) for _ in range(30)]
    want = [math.fsum(a) for a in rows]
    blocks = []

    def counted(rows, idx, m, _real=state._settled_sums):
        blocks.append((len(idx), m))
        return _real(rows, idx, m)
    monkeypatch.setattr(state, "_settled_sums", counted)
    calls = _fsum_calls(monkeypatch)
    got = state.exact_sums(rows)
    assert [struct.pack("<d", x) for x in got] == [struct.pack("<d", x) for x in want]
    assert calls == [] and len(blocks) > 1 and sum(k for k, _ in blocks) == len(rows)
    assert all(k * m <= state._EXACT_SUM_BLOCK or k == 1 for k, m in blocks)


def test_exact_sum_zero_totals_keep_math_fsum_sign(monkeypatch):
    a = np.linspace(1.0, 2.0, 500)
    calls = _fsum_calls(monkeypatch)
    for zeros in (np.full(500, -0.0), np.concatenate((a, -a)), np.concatenate((-a, a, [-0.0]))):
        calls.clear()
        assert struct.pack("<d", state.exact_sums([zeros])[0]) == struct.pack("<d", math.fsum(zeros))
        assert calls == [zeros.size]  # math.fsum decides the sign of a zero


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


def test_validate_failures_spell_plain_floats():
    # numpy 2 spells a numpy scalar np.float64(...) under !r, numpy 1 does not;
    # the text reaches summary.json, so it must not depend on the version
    mesh = MassMesh([0.0, 0.25, 0.5, 0.75, 1.0])
    base = dict(mesh=mesh, t=0.0, r=np.linspace(0, 1, 5), u=np.zeros(5),
                rho=np.ones(4), p=np.ones(4), eps=np.ones(4))
    for over, n, text in (({"rho": np.array([1.0, -5e-20, 1.0, 1.0])}, 0, "rho=-5e-20"),
                          ({"r": np.linspace(-0.2, 0.8, 5)}, 1, "negative radius -0.2 ")):
        with pytest.raises(LayerError) as info:
            GridLayer(**{**base, **over}).validate(n=n)
        assert text in str(info.value) and "np.float64(" not in str(info.value)


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
