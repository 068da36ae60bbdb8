"""Initial data: Euler-coordinate profiles, the mass-coordinate map, and a
small library of canned problems.

A profile is specified in the physical coordinate r; the mass mesh is then
derived from it by the exact cell quadrature
s_{i+1} - s_i = rho_{i+1/2} * (r_{i+1}^{n+1} - r_i^{n+1}) / (n+1),
which guarantees the mass-consistency invariant of the resulting layer to
round-off.  Cell densities and pressures sample the profile at the Euler
midpoint of each cell; on a discontinuity the cell takes the side its
midpoint falls on.
"""

import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .mesh import MassMesh
from .scheme import BoundaryCondition, ConfigError, PressureTrace, SchemeParams
from .state import GridLayer, volume_power


class ProblemError(ValueError):
    """Invalid initial-data specification."""


FieldSpec = Callable[[np.ndarray], np.ndarray] | np.ndarray | float


@dataclass(frozen=True)
class EulerProfile:
    """Initial condition in the physical coordinate.

    r_nodes : initial node radii, strictly increasing, shape (N+1,)
    rho, p  : cell fields; callables of r (vectorized), per-cell arrays, or constants
    u       : nodal field, same conventions
    gamma   : polytropic exponent used to derive eps = p / ((gamma-1) rho)
    density_segments : optional [(r_start, value), ...] description of a
        piecewise-constant density, which makes the mass map analytically
        invertible (needed only for mesh specs given in the mass coordinate)
    """

    r_nodes: np.ndarray
    rho: FieldSpec
    u: FieldSpec
    p: FieldSpec
    gamma: float
    density_segments: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        r = np.array(self.r_nodes, dtype=float)
        if r.ndim != 1 or r.size < 3:
            raise ProblemError(f"need at least 3 radii, got shape {r.shape}")
        if not np.isfinite(r).all():
            raise ProblemError("node radii must be finite")
        if np.any(np.diff(r) <= 0.0):
            raise ProblemError("node radii must be strictly increasing")
        r.setflags(write=False)
        object.__setattr__(self, "r_nodes", r)
        if not math.isfinite(self.gamma) or self.gamma in (0.0, 1.0):
            raise ProblemError(f"gamma must be finite and different from 0 and 1, got {self.gamma}")

    @property
    def n_cells(self) -> int:
        return self.r_nodes.size - 1

    def cell_rho(self) -> np.ndarray:
        return _sample(self.rho, 0.5 * (self.r_nodes[:-1] + self.r_nodes[1:]), "rho")

    def cell_p(self) -> np.ndarray:
        return _sample(self.p, 0.5 * (self.r_nodes[:-1] + self.r_nodes[1:]), "p")

    def nodal_u(self) -> np.ndarray:
        return _sample(self.u, self.r_nodes, "u")


def _sample(spec: FieldSpec, at: np.ndarray, name: str) -> np.ndarray:
    if callable(spec):
        values = np.asarray(spec(at), dtype=float)
        if values.shape != at.shape:
            values = np.broadcast_to(values, at.shape).astype(float)
    else:
        values = np.asarray(spec, dtype=float)
        if values.ndim == 0:
            values = np.full(at.shape, float(values))
        elif values.shape != at.shape:
            raise ProblemError(f"field '{name}' has shape {values.shape}, expected {at.shape}")
    if not np.all(np.isfinite(values)):
        raise ProblemError(f"field '{name}' evaluates to non-finite values")
    return values


def mass_coordinate(profile: EulerProfile, n: int) -> MassMesh:
    """Mass mesh induced by the profile: s_0 = 0 and the exact cell quadrature.

    The quadrature uses the same generalized volume difference as the scheme
    itself, so the initial layer satisfies mass consistency by construction.
    """
    rho = profile.cell_rho()
    if np.any(rho <= 0.0):
        i = int(np.argmax(rho <= 0.0))
        raise ProblemError(f"nonpositive density in cell {i}")
    r = profile.r_nodes
    if n >= 1 and r[0] < 0.0:
        raise ProblemError(f"negative radius {float(r[0])!r} with curved geometry n={n}")
    increments = rho * np.diff(volume_power(r, n)) / (n + 1)
    s = np.concatenate(([0.0], np.cumsum(increments)))
    return MassMesh(s)


def make_initial_layer(profile: EulerProfile, n: int) -> GridLayer:
    """Initial grid layer at t = 0 on the mesh induced by the profile."""
    mesh = mass_coordinate(profile, n)
    rho = profile.cell_rho()
    p = profile.cell_p()
    eps = p / ((profile.gamma - 1.0) * rho)
    layer = GridLayer(mesh=mesh, t=0.0, r=profile.r_nodes, u=profile.nodal_u(),
                      rho=rho, p=p, eps=eps)
    layer.validate(n)
    return layer


def invert_mass_coordinate(profile: EulerProfile, n: int, s: np.ndarray) -> np.ndarray:
    """Radii at given mass coordinates, for piecewise-constant-density profiles.

    Requires profile.density_segments; raises ProblemError otherwise.  The
    map is s(r) = sum of rho_k * (r^{n+1} - r_k^{n+1})/(n+1) over segments,
    inverted segment by segment.
    """
    if profile.density_segments is None:
        raise ProblemError("mass-coordinate mesh specs need a piecewise-constant "
                           "density profile (density_segments is not set)")
    s = np.asarray(s, dtype=float)
    starts = [seg[0] for seg in profile.density_segments]
    values = [seg[1] for seg in profile.density_segments]
    if any(v <= 0.0 for v in values):
        raise ProblemError("density segments must be positive")
    r_max = float(profile.r_nodes[-1])
    breaks = starts[1:] + [r_max]
    # cumulative mass at the start of each segment
    cum = [0.0]
    for rho_k, r_lo, r_hi in zip(values, starts, breaks):
        cum.append(cum[-1] + rho_k * (r_hi ** (n + 1) - r_lo ** (n + 1)) / (n + 1))
    total = cum[-1]
    if np.any(s < -1e-12 * total) or np.any(s > total * (1.0 + 1e-12)):
        raise ProblemError(f"mass coordinate outside [0, {total}]")
    s = np.clip(s, 0.0, total)
    seg = np.clip(np.searchsorted(cum, s, side="right") - 1, 0, len(values) - 1)
    rho_k = np.asarray(values)[seg]
    r_lo = np.asarray(starts)[seg]
    s0 = np.asarray(cum)[seg]
    target = (s - s0) * (n + 1) / rho_k + volume_power(r_lo, n)
    if n < 2:  # ** 1.0 and ** 0.5 take numpy's exact fast paths
        return target ** (1.0 / (n + 1))
    # numpy's t ** (1/3) depends on the host's SIMD and can be ulps off: walk it to the
    # float whose cube is nearest t, exactly (over the floats, |y^3 - t| falls, then rises),
    # in integers: the floats near roots[i] are whole multiples of 1 / unit
    roots = (target ** (1.0 / 3.0)).ravel().tolist()
    for i, t in enumerate(target.ravel().tolist()):
        (num, den), unit = t.as_integer_ratio(), 2 ** max(60 - math.frexp(roots[i])[1], 0)
        gap = lambda y: abs(int(y * unit) ** 3 * den - num * unit ** 3)  # den unit^3 |y^3 - t|
        best = gap(roots[i])
        for toward in (0.0, math.inf):
            while (near := gap(y := math.nextafter(roots[i], toward))) < best:
                roots[i], best = y, near
    return np.reshape(roots, target.shape)


# --- canned problems ------------------------------------------------------------

def _bump(xi: np.ndarray) -> np.ndarray:
    """C^2 compact bump (1 - xi^2)^3 on |xi| < 1, zero outside."""
    inside = np.abs(xi) < 1.0
    y = np.where(inside, 1.0 - xi * xi, 0.0)
    return y * y * y


def _uniform_nodes(r_min: float, r_max: float, cells: int) -> np.ndarray:
    if not isinstance(cells, numbers.Real):  # "10" < 2 fails
        raise ProblemError(f"cells must be an integer, got {cells!r}")
    if cells < 2:
        raise ProblemError(f"need at least 2 cells, got {cells}")
    if not all(isinstance(r, numbers.Real) and math.isfinite(r) for r in (r_min, r_max)) \
            or not math.isfinite(r_max - r_min):
        raise ProblemError(f"radial interval [{r_min!r}, {r_max!r}] needs finite ends "
                           "a finite width apart")
    if not r_max > r_min:
        raise ProblemError(f"empty radial interval [{r_min}, {r_max}]")
    try:
        return np.linspace(r_min, r_max, cells + 1)
    except (TypeError, ValueError) as exc:  # numpy refuses 10.0, or a count it cannot index
        raise ProblemError(f"cannot build a mesh of {cells} cells: {exc}") from None


def _smooth_pulse(opt: dict) -> tuple[dict, dict]:
    amp, center, width = opt["amplitude"], opt["center"], opt["width"]
    if not 0.0 < width:
        raise ProblemError(f"pulse width must be positive, got {width}")
    return dict(rho=opt["rho0"], u=lambda r: amp * _bump((r - center) / width), p=opt["p0"]), {}


def _sod(opt: dict) -> tuple[dict, dict]:
    split = opt["split"]
    rho_l, rho_r, p_l, p_r = opt["rho_left"], opt["rho_right"], opt["p_left"], opt["p_right"]
    return (dict(rho=lambda r: np.where(r < split, rho_l, rho_r), u=0.0,
                 p=lambda r: np.where(r < split, p_l, p_r),
                 density_segments=((opt["r_min"], rho_l), (split, rho_r))),
            dict(visc_nu=2.0))


def _expansion(opt: dict) -> tuple[dict, dict]:
    trace = PressureTrace(kind="exp_decay", p0=opt["p0"], rate=opt["rate"])
    return (dict(rho=opt["rho0"], u=0.0, p=opt["p0"]),
            dict(bc_right=BoundaryCondition.pressure(trace)))


#: name -> (the problem's own option defaults, builder); a builder maps the
#: merged options to the profile's fields (density_segments only where rho is
#: not a constant) and the SchemeParams that differ from their defaults
_PROBLEMS = {
    "uniform": (dict(rho0=1.0, p0=1.0, u0=0.0),
                lambda opt: (dict(rho=opt["rho0"], u=opt["u0"], p=opt["p0"]), {})),
    "smooth_pulse": (dict(amplitude=0.05, center=0.5, width=0.2, rho0=1.0, p0=1.0), _smooth_pulse),
    "sod": (dict(rho_left=1.0, p_left=1.0, rho_right=0.125, p_right=0.1, split=0.5), _sod),
    "expansion": (dict(rho0=1.0, p0=1.0, rate=1.0), _expansion),
}


def problem_library(name: str, **options) -> tuple[EulerProfile, SchemeParams]:
    """Named desk-scale problems with sensible default scheme parameters.

    uniform      : resting constant state; any step must preserve it exactly
    smooth_pulse : constant background with a compact C^2 velocity bump
                   (options: amplitude, center, width); the convergence and
                   audit workhorse
    sod          : two-state Riemann initial data (needs viscosity: its
                   params.visc_nu defaults to 2.0)
    expansion    : resting gas with an exponentially decaying pressure trace
                   pulling on the right boundary

    Every problem also takes r_min (0), r_max (1), cells (100) and gamma (1.4).
    """
    if not isinstance(name, str) or name not in _PROBLEMS:  # a config may pass a list
        raise ConfigError(f"unknown problem {name!r}; available: {', '.join(_PROBLEMS)}")
    defaults, build = _PROBLEMS[name]
    opt = {"r_min": 0.0, "r_max": 1.0, "cells": 100, "gamma": 1.4, **defaults}
    unknown = set(options) - set(opt)
    if unknown:
        raise ConfigError(f"unknown option(s) for problem {name!r}: {sorted(unknown)}")
    opt.update(options)
    fields, overrides = build(opt)
    fields.setdefault("density_segments", ((opt["r_min"], fields["rho"]),))  # a constant rho
    profile = EulerProfile(r_nodes=_uniform_nodes(opt["r_min"], opt["r_max"], opt["cells"]),
                           gamma=opt["gamma"], **fields)
    return profile, SchemeParams(n=0, gamma=opt["gamma"], **overrides)
