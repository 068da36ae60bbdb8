"""Mass-coordinate mesh.

The independent spatial variable is the Lagrangian mass coordinate s.  Node
values s_0 < s_1 < ... < s_N are fixed for the whole run; kinematic fields
(radius, velocity) live on the nodes, thermodynamic fields (density,
pressure, internal energy) on the N cells between them.
"""

import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np


class MeshError(ValueError):
    """Invalid mesh specification."""


@dataclass(frozen=True)
class MassMesh:
    """Fixed, possibly nonuniform partition of the mass interval.

    s : mass-coordinate nodes, shape (N+1,), strictly increasing, N >= 2.

    Cell widths and midpoints are always derived from ``s`` so there is a
    single source of truth; the node array is made read-only on construction.
    Widths, midpoints, nodal masses, staggered spacings and the node weights
    of the pressure jump are computed once per mesh and handed out read-only.
    """

    s: np.ndarray

    def __post_init__(self):
        s = np.array(self.s, dtype=float)
        if s.ndim != 1 or s.size < 3:
            raise MeshError(f"need at least 3 mass nodes (2 cells), got shape {s.shape}")
        if not np.all(np.isfinite(s)):
            raise MeshError("mass nodes must be finite")
        bad = np.nonzero(s[1:] <= s[:-1])[0]
        if bad.size:
            raise MeshError(f"mass nodes must be strictly increasing; violated at interval {bad[0]}")
        # within half the float range every midpoint and width is finite
        if max(-s[0], s[-1]) > sys.float_info.max / 2:
            raise MeshError(f"mass nodes must lie within ±{sys.float_info.max / 2!r}")
        s.setflags(write=False)
        object.__setattr__(self, "s", s)

    @property
    def n_cells(self) -> int:
        return self.s.size - 1

    @property
    def n_nodes(self) -> int:
        return self.s.size

    @cached_property
    def h(self) -> np.ndarray:
        """Cell widths h_i = s_{i+1} - s_i, shape (N,)."""
        return _read_only(np.diff(self.s))

    @cached_property
    def midpoints(self) -> np.ndarray:
        """Cell midpoints s_{i+1/2}, shape (N,)."""
        return _read_only(0.5 * (self.s[:-1] + self.s[1:]))

    @cached_property
    def nodal_masses(self) -> np.ndarray:
        """Mass lumped onto each node: half of each adjacent cell, shape (N+1,)."""
        h = self.h
        return _read_only(np.concatenate(([0.5 * h[0]], self.hbar, [0.5 * h[-1]])))

    @cached_property
    def w(self) -> np.ndarray:
        """Node weight of the pressure jump: 1/hbar inside, 2/h at an end, shape (N+1,)."""
        return _read_only(1.0 / self.nodal_masses)

    @cached_property
    def hbar(self) -> np.ndarray:
        """Staggered spacings (h_{i-1} + h_i)/2 at interior nodes 1..N-1, shape (N-1,)."""
        h = self.h
        return _read_only(0.5 * (h[:-1] + h[1:]))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a
