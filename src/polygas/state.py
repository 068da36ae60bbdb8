"""Grid functions on one time layer and the staggered-mesh operators.

Kinematic fields (r, u) are nodal, shape (N+1,); thermodynamic fields
(rho, p, eps) are cell-centered, shape (N,).  A layer is tied to one
MassMesh and one time value and is immutable: a time step produces a new
layer, and dataclasses.replace copies one with some fields swapped.  A
TwoLayerView pairs two consecutive layers and carries the step's midpoint
times.
"""

import math
from dataclasses import dataclass

import numpy as np

from .mesh import MassMesh


class LayerError(ValueError):
    """Grid-function arrays inconsistent with the mesh or unphysical."""


_NODAL_FIELDS = ("r", "u")
_CELL_FIELDS = ("rho", "p", "eps")


@dataclass(frozen=True)
class GridLayer:
    """All grid functions of one time layer.

    mesh : the mass mesh everything lives on
    t    : time stamp of the layer
    r, u : nodal radius and velocity, shape (N+1,)
    rho, p, eps : cell density, pressure, specific internal energy, shape (N,)
    """

    mesh: MassMesh
    t: float
    r: np.ndarray
    u: np.ndarray
    rho: np.ndarray
    p: np.ndarray
    eps: np.ndarray

    def __post_init__(self):
        for names, size in ((_NODAL_FIELDS, self.mesh.n_nodes), (_CELL_FIELDS, self.mesh.n_cells)):
            for name in names:
                arr = np.array(getattr(self, name), dtype=float)
                if arr.shape != (size,):
                    raise LayerError(f"field '{name}' must have shape ({size},), got {arr.shape}")
                if not np.all(np.isfinite(arr)):
                    raise LayerError(f"field '{name}' contains non-finite values")
                arr.setflags(write=False)
                object.__setattr__(self, name, arr)

    def validate(self, n: int, mass_tol: float = 1e-10) -> None:
        """Check physical invariants for geometry exponent n (0, 1 or 2).

        Raises LayerError on nonpositive density, disordered or (for n >= 1)
        negative radii, or a mass-consistency defect above ``mass_tol``
        (relative to the cell width).
        """
        if np.any(self.rho <= 0.0):
            i = int(np.argmax(self.rho <= 0.0))
            raise LayerError(f"nonpositive density in cell {i}: rho={self.rho[i]!r}")
        dr = np.diff(self.r)
        if np.any(dr <= 0.0):
            i = int(np.argmax(dr <= 0.0))
            raise LayerError(f"radii not strictly increasing at node {i + 1}")
        if n >= 1 and self.r[0] < 0.0:
            raise LayerError(f"negative radius {self.r[0]!r} with curved geometry n={n}")
        defect = self.mass_consistency_defect(n)
        if defect > mass_tol:
            raise LayerError(f"mass-consistency defect {defect:.3e} exceeds {mass_tol:.1e}")

    def mass_consistency_defect(self, n: int) -> float:
        """Max relative defect of h_i = rho_i * (r_{i+1}^{n+1} - r_i^{n+1})/(n+1).

        This ties cell volume, density and cell mass together; initial data
        built through the mass-coordinate map satisfies it to round-off and
        the scheme preserves it.
        """
        h = self.mesh.h
        vol = np.diff(self.r ** (n + 1)) / (n + 1)
        return float(np.max(np.abs(self.rho * vol - h) / h))


@dataclass(frozen=True)
class TwoLayerView:
    """A consecutive pair of layers (lo at t, hi at t + tau) on one mesh.

    This is the object every residual and conservation audit consumes:
    all time averaging and differencing is defined on it.
    """

    lo: GridLayer
    hi: GridLayer
    tau: float

    def __post_init__(self):
        if self.lo.mesh is not self.hi.mesh and not np.array_equal(self.lo.mesh.s, self.hi.mesh.s):
            raise LayerError("layers live on different meshes")
        if not self.tau > 0.0:
            raise LayerError(f"step length must be positive, got {self.tau}")
        if abs(self.hi.t - self.lo.t - self.tau) > 1e-9 * max(1.0, abs(self.hi.t)):
            raise LayerError(
                f"layer times {self.lo.t}, {self.hi.t} inconsistent with tau={self.tau}")

    @property
    def mesh(self) -> MassMesh:
        return self.lo.mesh

    @property
    def t_half(self) -> float:
        """Half-step time t + tau/2."""
        return self.lo.t + 0.5 * self.tau

    @property
    def t_sq_half(self) -> float:
        """Two-layer average of t^2, which is not the square of t_half."""
        t_hat = self.lo.t + self.tau
        return 0.5 * (self.lo.t * self.lo.t + t_hat * t_hat)


# --- staggered-mesh operators ------------------------------------------------

def interp_nodal_pressure(p_cells: np.ndarray, mesh: MassMesh) -> np.ndarray:
    """Width-weighted interpolation of a cell field to interior nodes.

    p*_i = (h_i p_{i-1/2} + h_{i-1} p_{i+1/2}) / (h_{i-1} + h_i): the weights
    are swapped relative to naive linear interpolation, which is exactly what
    makes the energy flux telescope.  Output lies between the adjacent cell
    values.  Interior nodes 1..N-1 only, shape (N-1,).
    """
    p = np.asarray(p_cells)
    h = mesh.h
    return (h[1:] * p[:-1] + h[:-1] * p[1:]) / (h[:-1] + h[1:])


def cell_average(f_nodal: np.ndarray) -> np.ndarray:
    """Plain average of a nodal field over each cell: (f_i + f_{i+1})/2.

    The argument is the already-evaluated nodal expression; e.g. the cell
    kinetic energy uses cell_average(u*u), not cell_average(u)**2.
    """
    f = np.asarray(f_nodal)
    return 0.5 * (f[:-1] + f[1:])


#: below this size math.fsum beats the limb kernel's fixed cost on audit inputs
_EXACT_SUM_MIN_SIZE = 384


def exact_sum(a) -> float:
    """Correctly rounded sum of a float array, bit for bit math.fsum(a), in
    time linear in the size (math.fsum slows as the exponents spread).

    Each value becomes two 32-bit integer limbs in an 11-bit exponent bucket;
    np.bincount adds them exactly (< 2^20 values stay below 2^53), one Python
    int carries the buckets and int/int division rounds once.  math.fsum
    takes the rest: short arrays, non-finite or huge values, a zero total.
    """
    a = np.asarray(a, dtype=float).ravel()
    if _EXACT_SUM_MIN_SIZE <= a.size < 2 ** 20:
        m, e = np.frexp(a)
        if e.max() <= 1000 and np.isfinite(m).all():
            e_min = int(e.min())
            bucket, shift = np.divmod(e - e_min, 11)
            x = np.ldexp(m, shift + 53)  # an integer, |x| < 2^63
            hi = np.trunc(x * 2.0 ** -32)
            total = 0
            for lo_sum, hi_sum in zip(np.bincount(bucket, x - hi * 2.0 ** 32).tolist()[::-1],
                                      np.bincount(bucket, hi).tolist()[::-1]):
                total = (total << 11) + int(lo_sum) + (int(hi_sum) << 32)
            if total != 0:  # math.fsum decides the sign of a zero
                return (total << max(e_min - 53, 0)) / (1 << max(53 - e_min, 0))
    return math.fsum(a.tolist())  # floats, not one numpy scalar per value


def total_cell_quantity(layer: GridLayer, density_cells: np.ndarray) -> float:
    """Mass-weighted total sum(h_i * density_i), correctly rounded (exact_sum)."""
    return exact_sum(layer.mesh.h * np.asarray(density_cells))


def total_nodal_quantity(layer: GridLayer, density_nodes: np.ndarray) -> float:
    """Node-mass-weighted total sum(m_i * density_i), correctly rounded (exact_sum)."""
    return exact_sum(layer.mesh.nodal_masses * np.asarray(density_nodes))
