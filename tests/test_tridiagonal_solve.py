"""The tridiagonal solve of every Newton update, on both of its routes.

scheme._dgtsv binds LAPACK dgtsv from the LAPACK numpy has loaded (the ILP64
symbol scipy_dgtsv_64_) or, where numpy's build lacks it, scipy's.  Both run
reference dgtsv.f, so on the same system they give the same bits and the same
info, also where the elimination interchanges rows or meets an exactly
singular system.  Threads that step at once get the bits they get one after
another.
"""

import contextlib
import ctypes
import sys
import threading

import numpy as np
import pytest
from numpy.linalg import LinAlgError
from scipy.linalg import solve_banded

from polygas import StepRejected, step
from polygas import scheme
from polygas.scheme import _StepSystem

from conftest import numpy_holds_dgtsv, pulse_start

SIZES = (2, 3, 101, 401, 1601)
ROUTES = ("numpy", "scipy")


def _no_library(name, *args, **kwargs):
    raise OSError(f"{name}: hidden")


@contextlib.contextmanager
def solve_route(name):
    """Solve on one route and yield its solve: "numpy", or "scipy", the
    fallback, taken with every library hidden from ctypes."""
    scheme._dgtsv.cache_clear()
    try:
        with pytest.MonkeyPatch.context() as patch:
            if name == "scipy":
                patch.setattr(ctypes, "CDLL", _no_library)
            solve = scheme._dgtsv()
        yield solve
    finally:
        scheme._dgtsv.cache_clear()


def _system(kind, size, seed):
    """(dl, d, du, b) of one well-conditioned tridiagonal system of `size`
    rows: "dominant" (no row interchange), "interchanges" (2 x 2 diagonal
    blocks with |dl| > 3 |d|, weakly coupled, so the elimination interchanges
    the rows of every block) or "singular" (the dominant one with column
    size // 2 zeroed)."""
    rng = np.random.default_rng([seed, size])
    dl, du = rng.uniform(-1.0, 1.0, (2, size - 1))
    d, b = rng.uniform(-1.0, 1.0, (2, size))
    if kind == "interchanges":
        block = np.arange(size - 1) % 2 == 0
        dl = np.where(block, dl + np.copysign(1.5, dl), 0.1 * dl)
        du = np.where(block, du + np.copysign(1.5, du), 0.1 * du)
        d *= 0.5
    else:
        d += np.copysign(2.5, d)
    if kind == "singular":
        k = size // 2
        d[k] = 0.0
        du[k - 1] = 0.0
        if k < size - 1:
            dl[k] = 0.0
    return dl, d, du, b


def _solve(solve, system):
    """The solution and info of one system, solved on copies of its arrays."""
    return solve(*(a.copy() for a in system))


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("kind", ["dominant", "interchanges", "singular"])
def test_both_routes_solve_with_the_same_bits(kind, size):
    found = {}
    for name in ROUTES:
        with solve_route(name) as solve:
            found[name] = [_solve(solve, _system(kind, size, seed)) for seed in range(3)]
    assert [(x.tobytes(), info) for x, info in found["numpy"]] == [
        (x.tobytes(), info) for x, info in found["scipy"]]
    for seed, (x, info) in enumerate(found["numpy"]):
        dl, d, du, b = _system(kind, size, seed)
        if kind == "singular":  # dgtsv stops at the first zero pivot, 1-based
            assert info == size // 2 + 1
            continue
        assert info == 0
        band = np.zeros((3, size))
        band[0, 1:], band[1], band[2, :-1] = du, d, dl
        assert x == pytest.approx(solve_banded((1, 1), band, b), rel=1e-12, abs=1e-12)


def _zero_column(monkeypatch, k):
    """Make _StepSystem.jacobian's du_k column all zero, in the node rows and
    the cell rows, so the reduced tridiagonal system is exactly singular."""
    real = _StepSystem.jacobian

    def jacobian(system, aux):
        jac = real(system, aux)
        for field, i in (("upper", k - 1), ("diag", k), ("lower", k), ("c_hi", k - 1), ("c_lo", k)):
            getattr(jac, field)[i] = 0.0
        return jac
    monkeypatch.setattr(_StepSystem, "jacobian", jacobian)


@pytest.mark.parametrize("name", ROUTES)
def test_a_singular_solve_rejects_the_step_with_dgtsv_s_info(monkeypatch, name):
    layer, params = pulse_start(cells=20)
    _zero_column(monkeypatch, 7)
    with solve_route(name), pytest.raises(StepRejected) as rejected:
        step(layer, 1e-3, params)
    assert str(rejected.value) == "linear solve failed: tridiagonal solve failed (dgtsv info 8)"
    assert isinstance(rejected.value.__cause__, LinAlgError)
    assert str(rejected.value.__cause__) == "tridiagonal solve failed (dgtsv info 8)"
    assert not rejected.value.report.accepted


def _stepped(start, steps=12):
    layer, params = start
    found = []
    for _ in range(steps):
        layer, _ = step(layer, 1e-3, params)
        found.append([getattr(layer, f).tobytes() for f in ("r", "u", "rho", "p", "eps")])
    return found


def test_both_routes_step_with_the_same_bits():
    start = pulse_start(n=2, cells=60)
    found = {}
    for name in ROUTES:
        with solve_route(name):
            found[name] = _stepped(start, steps=4)
    assert found["numpy"] == found["scipy"]


def test_threads_that_solve_at_once_get_the_serial_bits():
    """Two sizes, each run twice on different data, so threads that shared
    any array or argument of a solve would mix their systems."""
    starts = [pulse_start(cells=cells, gamma=gamma) for cells in (40, 400)
              for gamma in (1.4, 5.0 / 3.0)]
    serial = [_stepped(start, steps=40) for start in starts]
    found = [None] * len(starts)
    barrier = threading.Barrier(len(starts))

    def work(k):
        barrier.wait(timeout=60)
        found[k] = _stepped(starts[k], steps=40)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, also inside a solve
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(len(starts))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert found == serial


def test_the_solve_takes_numpy_s_lapack_where_numpy_holds_the_symbol(monkeypatch):
    if not numpy_holds_dgtsv():
        pytest.skip("this numpy's LAPACK has no scipy_dgtsv_64_")

    def no_fallback():
        raise AssertionError("the solve took scipy's dgtsv")
    monkeypatch.setattr(scheme, "_scipy_dgtsv", no_fallback)
    with solve_route("numpy"):
        _stepped(pulse_start(cells=30), steps=1)
