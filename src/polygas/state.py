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
#: largest mass-consistency defect (relative to the cell width) a valid layer may have
_MASS_TOL = 1e-10


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
                if not np.isfinite(arr).all():
                    raise LayerError(f"field '{name}' contains non-finite values")
                arr.setflags(write=False)
                object.__setattr__(self, name, arr)

    def validate(self, n: int) -> None:
        """Check physical invariants for geometry exponent n (0, 1 or 2).

        Raises LayerError on nonpositive density, disordered or (for n >= 1)
        negative radii, or a mass-consistency defect above _MASS_TOL.
        """
        if (self.rho <= 0.0).any():
            i = int(np.argmax(self.rho <= 0.0))
            raise LayerError(f"nonpositive density in cell {i}: rho={float(self.rho[i])!r}")
        dr = self.r[1:] - self.r[:-1]
        if (dr <= 0.0).any():
            i = int(np.argmax(dr <= 0.0))
            raise LayerError(f"radii not strictly increasing at node {i + 1}")
        if n >= 1 and self.r[0] < 0.0:
            raise LayerError(f"negative radius {float(self.r[0])!r} with curved geometry n={n}")
        defect = self.mass_consistency_defect(n)
        if defect > _MASS_TOL:
            raise LayerError(f"mass-consistency defect {defect:.3e} exceeds {_MASS_TOL:.1e}")

    def mass_consistency_defect(self, n: int) -> float:
        """Max relative defect of h_i = rho_i * (r_{i+1}^{n+1} - r_i^{n+1})/(n+1).

        This ties cell volume, density and cell mass together; initial data
        built through the mass-coordinate map satisfies it to round-off and
        the scheme preserves it.
        """
        h = self.mesh.h
        r_pow = self.r ** (n + 1)
        vol = (r_pow[1:] - r_pow[:-1]) / (n + 1)
        return float((np.abs(self.rho * vol - h) / h).max())


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
    values.  Interior nodes 1..N-1 only, along the last axis: shape (..., N-1).
    """
    p = np.asarray(p_cells)
    h = mesh.h
    return (h[1:] * p[..., :-1] + h[:-1] * p[..., 1:]) / (h[:-1] + h[1:])


def cell_average(f_nodal: np.ndarray) -> np.ndarray:
    """Plain average of a nodal field over each cell: (f_i + f_{i+1})/2.

    The argument is the already-evaluated nodal expression; e.g. the cell
    kinetic energy uses cell_average(u*u), not cell_average(u)**2.  Averages
    along the last axis, so a stack of layers is averaged row by row.
    """
    f = np.asarray(f_nodal)
    return 0.5 * (f[..., :-1] + f[..., 1:])


#: below this size math.fsum beats the certified kernel on an audit's stack of rows
_EXACT_SUM_MIN_SIZE = 384
#: values per block of the kernel's stack (48 KiB): on glibc, freeing a block of
#: 64 KiB or more may hand the heap's top back to the system, and faulting it in
#: again on the next call costs more than the sums
_EXACT_SUM_BLOCK = 6144


def exact_sums(rows) -> list[float]:
    """Correctly rounded sum of each 1-D float array, bit for bit math.fsum.

    Rows of _EXACT_SUM_MIN_SIZE to 2^20 values are zero-padded to a common width
    M and stacked, _EXACT_SUM_BLOCK values or one row at a time.
    The error-free split q = (sigma + a) - sigma, r = a - q with sigma =
    2^(ceil(log2(M+2)) + frexp(max|a|).e) makes sum(q) exact in any order (Rump,
    Ogita & Oishi 2008, SIAM J. Sci. Comput. 31:189); fl(sum(r)) is within
    gamma_{M-1} sum|r| < 2 M u sum|r| of sum(r) (Higham 2002, sec. 4.2).  A row is
    settled when sum(q) plus either end of that interval rounds to one float, never
    zero as the ends differ.  math.fsum takes the rest: other sizes, max|a| outside
    [2^-900, 2^900] or not finite, near ties, deep cancellation and zero totals.
    """
    rows = [np.asarray(a, dtype=float).ravel() for a in rows]
    sums = {}
    idx = [i for i, a in enumerate(rows) if _EXACT_SUM_MIN_SIZE <= a.size < 2 ** 20]
    if idx:
        m = max(rows[i].size for i in idx)
        per_block = max(1, _EXACT_SUM_BLOCK // m)
        for start in range(0, len(idx), per_block):
            sums.update(_settled_sums(rows, idx[start:start + per_block], m))
    return [sums[i] if i in sums else math.fsum(a.tolist()) for i, a in enumerate(rows)]


def _settled_sums(rows: list, idx: list[int], m: int) -> dict[int, float]:
    """exact_sums' certificate over rows[idx] padded to width m: the settled sums by index."""
    a = np.zeros((len(idx), m))
    for j, i in enumerate(idx):
        a[j, :rows[i].size] = rows[i]
    amax = np.abs(a).max(axis=1)
    ok = (amax >= 2.0 ** -900) & (amax <= 2.0 ** 900)  # False on nan
    a[~ok], amax[~ok] = 0.0, 0.0  # a zeroed row never settles: math.fsum takes it
    sigma = np.ldexp(1.0, np.frexp(amax)[1] + (m + 1).bit_length())[:, None]
    q = (sigma + a) - sigma
    r = a - q
    tau, rho = q.sum(axis=1), r.sum(axis=1)
    err = np.abs(r).sum(axis=1) * (2.0 ** -52 * m)
    lo, hi = tau + np.nextafter(rho - err, -np.inf), tau + np.nextafter(rho + err, np.inf)
    return {i: s for i, s, t in zip(idx, lo.tolist(), hi.tolist()) if s == t}
