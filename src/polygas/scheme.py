"""Implicit completely conservative time step.

One step advances every field from t to t + tau by solving a coupled
nonlinear system for the new nodal velocities and one pressure-like unknown
per cell (the new pressure in pointwise-EOS mode, the two-layer half-sum
pressure in conservative mode).  Radii, densities and internal energies are
eliminated in closed form.  Each cell row of the Newton system couples only
u_j, q_j and u_{j+1}, so every Newton iteration eliminates the cell unknowns
too and solves one tridiagonal system in the N + 1 node velocities (LAPACK
dgtsv).  The Jacobian is assembled analytically from the residual's own
intermediates; the tests check it against a finite-difference Jacobian, and
the elimination against a banded solve of the full system, both kept there
as oracles.

The equations are written once, in _StepSystem.  Newton runs its kernel on
a layer eliminated from (u_hat, q); step_residuals, the offline check, runs
it on a stored pair of layers and adds the eliminated rows.

Newton starts from u and p extrapolated quadratically in time through the
last accepted layers, so a smooth step needs one update (a resting uniform
state is still returned bitwise after one residual evaluation).  It stops at
newton_tol or, after an update, once every row is within its round-off
floor, a few epsilons of the sum of its terms' magnitudes, which grows with
the cell count and 1/tau; stagnation above the floor still rejects.

The difference equations are built so that, at the solution, discrete
analogues of mass, momentum, energy and center-of-mass balance telescope to
round-off; in conservative mode two additional quadratic balances hold as
well when gamma equals the geometry-specific exponent 1 + 2/(n+1).
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from numpy.linalg import LinAlgError

from .state import GridLayer, LayerError, TwoLayerView, cell_average

GEOMETRIES = (0, 1, 2)  # plane, cylinder, sphere
EOS_MODES = ("pointwise", "conservative")


class ConfigError(ValueError):
    """Invalid scheme parameters or run configuration."""


@dataclass(frozen=True)
class PressureTrace:
    """Prescribed boundary pressure as a function of time.

    kind: "constant" (p0), "linear" (p0 + rate*t) or "exp_decay"
    (p0 * exp(-rate*t)).
    """

    kind: str = "constant"
    p0: float = 1.0
    rate: float = 0.0

    def __post_init__(self):
        if self.kind not in ("constant", "linear", "exp_decay"):
            raise ConfigError(f"unknown pressure trace kind {self.kind!r}")

    def __call__(self, t: float) -> float:
        if self.kind == "constant":
            return self.p0
        if self.kind == "linear":
            return self.p0 + self.rate * t
        try:
            return self.p0 * math.exp(-self.rate * t)
        except OverflowError:  # exp raises past ~709, where a linear trace gives inf
            return math.inf


@dataclass(frozen=True)
class BoundaryCondition:
    """Closure at one end of the mass interval.

    kind "wall": the boundary node moves with prescribed velocity u_wall
    (0 for a rigid wall).  kind "pressure": an external pressure trace acts
    on the boundary node through a one-sided momentum equation.
    """

    kind: str = "wall"
    u_wall: float = 0.0
    trace: PressureTrace | None = None

    def __post_init__(self):
        if self.kind not in ("wall", "pressure"):
            raise ConfigError(f"unknown boundary kind {self.kind!r}")
        if self.kind == "pressure" and self.trace is None:
            raise ConfigError("pressure boundary needs a trace")
        if not math.isfinite(self.u_wall):
            raise ConfigError("wall velocity must be finite")

    @classmethod
    def wall(cls, u_wall: float = 0.0) -> "BoundaryCondition":
        return cls(kind="wall", u_wall=u_wall)

    @classmethod
    def pressure(cls, trace: PressureTrace | float) -> "BoundaryCondition":
        if not isinstance(trace, PressureTrace):
            trace = PressureTrace(kind="constant", p0=float(trace))
        return cls(kind="pressure", trace=trace)


_WALL = BoundaryCondition.wall()


@dataclass(frozen=True)
class SchemeParams:
    """Everything that defines the difference scheme for a run.

    n        : geometry exponent (0 plane, 1 cylinder, 2 sphere)
    gamma    : polytropic exponent of the ideal-gas closure
    alpha    : implicitness weight of the pressure terms (pointwise mode;
               conservative mode is inherently time-centered and ignores it)
    eos_mode : "pointwise" (gas law imposed on the new layer) or
               "conservative" (two-layer gas law with the correction terms
               that make the quadratic balances exact)
    visc_nu  : coefficient of the quadratic artificial viscosity (0 = off)
    """

    n: int
    gamma: float
    alpha: float = 0.5
    eos_mode: str = "pointwise"
    bc_left: BoundaryCondition = _WALL
    bc_right: BoundaryCondition = _WALL
    visc_nu: float = 0.0
    newton_tol: float = 1e-12
    newton_max_iter: int = 50

    def __post_init__(self):
        if self.n not in GEOMETRIES:
            raise ConfigError(f"geometry exponent must be one of {GEOMETRIES}, got {self.n}")
        if not math.isfinite(self.gamma) or self.gamma in (0.0, 1.0):
            raise ConfigError(f"gamma must be finite and different from 0 and 1, got {self.gamma}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"alpha must lie in [0, 1], got {self.alpha}")
        if self.eos_mode not in EOS_MODES:
            raise ConfigError(f"eos_mode must be one of {EOS_MODES}, got {self.eos_mode!r}")
        if self.visc_nu < 0.0:
            raise ConfigError(f"viscosity coefficient must be >= 0, got {self.visc_nu}")
        if not self.newton_tol > 0.0:
            raise ConfigError("newton_tol must be positive")
        if self.newton_max_iter < 1:
            raise ConfigError("newton_max_iter must be >= 1")

    @property
    def gamma_star(self) -> float:
        """The gamma for which the additional quadratic balances are exact."""
        return 1.0 + 2.0 / (self.n + 1)

    @property
    def alpha_effective(self) -> float:
        return 0.5 if self.eos_mode == "conservative" else self.alpha

    @property
    def is_conservative(self) -> bool:
        return self.eos_mode == "conservative"


@dataclass
class StepReport:
    """Diagnostics of one attempted step.

    history is the scaled Newton residual norm per iteration.  residuals is
    always None (step_residuals recomputes a stored pair's rows); it stays only
    because the benchmark's retained-memory count (perfbench/run.py) reads it,
    and the benchmark change that restates cli.retained_mb drops it.
    """

    accepted: bool
    iterations: int
    final_residual_norm: float
    history: list[float] = field(default_factory=list)
    reason: str = ""
    residuals: None = None


class StepRejected(RuntimeError):
    """The step did not produce an acceptable new layer; carries a StepReport."""

    def __init__(self, reason: str, report: StepReport):
        super().__init__(reason)
        self.report = report


# --- geometric factors and constitutive pieces -------------------------------

def r_factor(r_lo, r_hi, n: int):
    """Effective area factor R(r, r_hat) = (r_hat^{n+1} - r^{n+1}) / ((n+1)(r_hat - r)).

    Evaluated in closed form (1, arithmetic mean, quadratic mean-like), so it
    stays finite when r_hat == r.  Satisfies r_hat^{n+1} - r^{n+1} =
    (n+1) * R * (r_hat - r) identically, which is what makes the swept cell
    volume consistent with the mass equation.
    """
    r_lo = np.asarray(r_lo, dtype=float)
    r_hi = np.asarray(r_hi, dtype=float)
    if n == 0:
        return np.ones_like(r_lo)
    if n == 1:
        return 0.5 * (r_lo + r_hi)
    if n == 2:
        return (r_hi * r_hi + r_hi * r_lo + r_lo * r_lo) / 3.0
    raise ConfigError(f"geometry exponent must be one of {GEOMETRIES}, got {n}")


def _eos_bracket(r_lo, r_hi, n: int):
    """Nodal field whose s-difference corrects the two-layer gas law.

    Equals (r^{(1/2)} * R - midpoint of r^{n+1}) in closed form:
    0 for n = 0, -(r_hat - r)^2/4 for n = 1, -(r_hat + r)(r_hat - r)^2/3
    for n = 2.  O(tau^2) since r_hat - r = tau * v.
    """
    if n == 0:
        return np.zeros_like(r_lo)
    d = r_hi - r_lo
    if n == 1:
        return -0.25 * d * d
    return -(r_hi + r_lo) * d * d / 3.0


def _r_factor_slope(r_lo, r_hi, n: int):
    """dR/dr_hi of r_factor: 0 for n = 0, 1/2 for n = 1, (2 r_hi + r_lo)/3 for n = 2."""
    if n == 0:
        return 0.0
    if n == 1:
        return 0.5
    return (2.0 * r_hi + r_lo) / 3.0


def _eos_bracket_slope(r_lo, r_hi, n: int):
    """d/dr_hi of _eos_bracket, with d = r_hi - r_lo: 0, -d/2 or -(d^2 + 2(r_hi + r_lo) d)/3."""
    d = r_hi - r_lo
    if n == 0:
        return np.zeros_like(d)
    if n == 1:
        return -0.5 * d
    return -(d * d + 2.0 * (r_hi + r_lo) * d) / 3.0


def effective_boundaries(params: SchemeParams, r_left: float) -> tuple[BoundaryCondition, BoundaryCondition]:
    """Resolve the boundary pair, enforcing the coordinate-origin rule.

    With curved geometry (n >= 1) a boundary node sitting exactly at r = 0
    must stay there: only a resting wall is meaningful.
    """
    bc_left = params.bc_left
    if params.n >= 1 and r_left == 0.0:
        if bc_left.kind != "wall" or bc_left.u_wall != 0.0:
            raise ConfigError("the node at r = 0 must be a resting wall for n >= 1")
    return bc_left, params.bc_right


def boundary_pressure(bc: BoundaryCondition, t_lo: float, t_hi: float, alpha_eff: float) -> float:
    """Alpha-weighted external pressure over the step for a pressure boundary."""
    p_lo = bc.trace(t_lo)
    p_hi = bc.trace(t_hi)
    if not (math.isfinite(p_lo) and math.isfinite(p_hi)):
        raise ConfigError(f"boundary pressure trace not finite on [{t_lo}, {t_hi}]")
    return alpha_eff * p_hi + (1.0 - alpha_eff) * p_lo


# --- the Newton solve ---------------------------------------------------------

#: a cell pivot |c_q| at or below this fraction of the cell's specific volume
#: rejects the step: eliminating q_j through it would amplify round-off
_PIVOT_RTOL = 1e-8
#: a row has converged once its residual is within _FLOOR_ULPS machine epsilons
#: of the sum of its terms' magnitudes, its round-off floor; Newton's residual
#: levels off near 1.2 of them on smooth pulses of 1600 to 12800 cells
_FLOOR_ULPS = 4.0
FLOOR_REASON = "converged at round-off floor"


class _Jacobian(NamedTuple):
    """Nonzero entries of the Newton Jacobian, by row type.

    Node row i:  lower[i-1] du_{i-1} + q_lo[i-1] dq_{i-1} + diag[i] du_i
                 + q_hi[i] dq_i + upper[i] du_{i+1};
    cell row j:  c_lo[j] du_j + c_q[j] dq_j + c_hi[j] du_{j+1}.
    diag has N + 1 entries, every other array N.
    """

    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray
    q_lo: np.ndarray
    q_hi: np.ndarray
    c_lo: np.ndarray
    c_q: np.ndarray
    c_hi: np.ndarray


class _StepSystem:
    """Nonlinear system of one step: unknowns x = [u_0, q_0, ..., q_{N-1}, u_N]."""

    def __init__(self, lo: GridLayer, tau: float, params: SchemeParams):
        self.lo = lo
        self.tau = tau
        self.params = params
        mesh = lo.mesh
        self.h = mesh.h
        self.w = mesh.w
        self.n_unknowns = 2 * mesh.n_cells + 1
        self.inv_rho = 1.0 / lo.rho
        self.gm1 = params.gamma - 1.0
        self.alpha_eff = params.alpha_effective
        self.bc_left, self.bc_right = effective_boundaries(params, float(lo.r[0]))
        self._pad = np.zeros(mesh.n_cells + 2)  # padded_pressure fills the middle
        for i, bc in ((0, self.bc_left), (-1, self.bc_right)):
            if bc.kind == "pressure":  # a -0.0 trace pads +0.0, as a wall does
                self._pad[i] = boundary_pressure(bc, lo.t, lo.t + tau, self.alpha_eff) or 0.0

    def initial_guess(self, earlier: tuple[GridLayer, ...] = ()) -> np.ndarray:
        """Newton's start: extrapolated u and p; q is (p_lo + p)/2 if conservative."""
        u, p = self.extrapolate("u", earlier), self.extrapolate("p", earlier)
        x = np.empty(self.n_unknowns)
        x[0::2] = u
        x[1::2] = 0.5 * (self.lo.p + p) if self.params.is_conservative else p
        return x

    def extrapolate(self, name: str, earlier: tuple[GridLayer, ...]) -> np.ndarray:
        """Field `name` of lo carried to lo.t + tau through up to two earlier
        layers (newest first): x_lo + tau D01 + tau (tau + t_lo - t_1) D012 in
        divided differences, which suit the uneven spacing of tau halving.
        Built from back = -D01, a constant history gives lo bitwise: each
        difference is +0.0, and x - (+0.0) keeps a -0.0."""
        lo, tau = self.lo, self.tau
        x = getattr(lo, name)
        if not earlier:
            return x
        e1 = earlier[0]
        back = (getattr(e1, name) - x) / (lo.t - e1.t)
        if len(earlier) > 1:
            e2 = earlier[1]
            back_12 = (getattr(e2, name) - getattr(e1, name)) / (e1.t - e2.t)
            back = back + (tau + lo.t - e1.t) / (lo.t - e2.t) * (back - back_12)
        return x - tau * back

    def swept_rate(self, v: np.ndarray, r_hat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Area factor R per node and swept-volume rate (R v)_s per cell."""
        big_r = r_factor(self.lo.r, r_hat, self.params.n)
        rv = big_r * v
        return big_r, (rv[1:] - rv[:-1]) / self.h

    def effective_pressure(self, v: np.ndarray, d_rv: np.ndarray, rho_hat: np.ndarray,
                           q: np.ndarray) -> np.ndarray:
        """Pressure of the momentum and energy equations: q (conservative) or
        alpha q + (1 - alpha) p, plus the artificial viscosity omega =
        visc_nu * rho^{(1/2)} * (du)^2 where the cell compresses, (R v)_s < 0."""
        params = self.params
        a = self.alpha_eff
        p_w = q if params.is_conservative else a * q + (1.0 - a) * self.lo.p
        omega = 0.0
        if params.visc_nu > 0.0:
            du = v[1:] - v[:-1]
            rho_half = 0.5 * (self.lo.rho + rho_hat)
            omega = np.where(d_rv < 0.0, params.visc_nu * rho_half * du * du, 0.0)
        return p_w + omega

    def rows(self, u_hat, q, r_hat, big_r, delta, p_eff, eps_hat):
        """Momentum rows per node and gas-law rows per cell; delta is the step's
        change of specific volume.  Momentum rows 0 and -1 are the boundary
        closures: u_hat - u_wall at a wall, else a one-sided balance on the
        half-width cell.  Returns (momentum, gas law, u_t, (bracket)_s)."""
        lo, tau, params = self.lo, self.tau, self.params
        u_t = (u_hat - lo.u) / tau
        pad = self.padded_pressure(p_eff)
        f_node = u_t + big_r * (pad[1:] - pad[:-1]) * self.w
        for i, bc in ((0, self.bc_left), (-1, self.bc_right)):
            if bc.kind == "wall":
                f_node[i] = u_hat[i] - bc.u_wall

        brack_s = None
        if params.is_conservative:
            # two-layer gas law for the half-sum pressure q, with the O(tau^2)
            # velocity and geometry corrections that close the quadratic balances
            ut2_avg = cell_average(u_t * u_t)
            brack = _eos_bracket(lo.r, r_hat, params.n)
            brack_s = (brack[1:] - brack[:-1]) / self.h
            rhs = (q * (self.inv_rho + 0.5 * delta) / self.gm1
                   - 0.125 * tau * tau * ut2_avg
                   + 0.5 * q * brack_s)
            f_cell = 0.5 * (eps_hat + lo.eps) - rhs
        else:
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                f_cell = eps_hat - q * (self.inv_rho + delta) / self.gm1
        return f_node, f_cell, u_t, brack_s

    def residual(self, x: np.ndarray) -> tuple[np.ndarray, dict]:
        """Residual at x = (u_hat, q), with the trajectory, mass and energy
        equations solved for r_hat, rho_hat and eps_hat in closed form."""
        lo, tau = self.lo, self.tau
        u_hat = x[0::2]
        q = x[1::2]
        v = 0.5 * (lo.u + u_hat)
        r_hat = lo.r + tau * v
        big_r, d_rv = self.swept_rate(v, r_hat)
        delta = tau * d_rv  # change of specific volume over the step
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            rho_hat = lo.rho / (1.0 + lo.rho * delta)
        p_eff = self.effective_pressure(v, d_rv, rho_hat, q)
        eps_hat = lo.eps - p_eff * delta  # energy equation, eliminated
        f_node, f_cell, u_t, brack_s = self.rows(u_hat, q, r_hat, big_r, delta, p_eff, eps_hat)

        f = np.empty(self.n_unknowns)
        f[0::2] = f_node
        f[1::2] = f_cell
        aux = {"u_hat": u_hat, "q": q, "r_hat": r_hat, "rho_hat": rho_hat,
               "eps_hat": eps_hat, "delta": delta, "v": v, "big_r": big_r,
               "d_rv": d_rv, "p_eff": p_eff, "u_t": u_t, "brack_s": brack_s}
        return f, aux

    def jacobian(self, aux: dict) -> _Jacobian:
        """Analytic Jacobian of residual() at the point aux came from.

        Node rows touch u_{i-1}, q_{i-1}, u_i, q_i, u_{i+1}; cell rows touch
        u_j, q_j, u_{j+1}; _Jacobian holds exactly those entries.
        Every intermediate is differentiated in closed form, using
        d r_hat / d u_hat = tau/2 and d rho_hat / d delta = -rho_hat^2.
        """
        lo, tau, params, h, n = self.lo, self.tau, self.params, self.h, self.params.n
        v, r_hat, big_r = aux["v"], aux["r_hat"], aux["big_r"]
        delta, rho_hat, p_eff, q = aux["delta"], aux["rho_hat"], aux["p_eff"], aux["q"]
        half_tau = 0.5 * tau

        # dR/du_hat and d(R v)/du_hat per node
        d_big_r = half_tau * _r_factor_slope(lo.r, r_hat, n)
        d_rv_node = d_big_r * v + 0.5 * big_r
        # d delta_j / d u_j and d delta_j / d u_{j+1}
        dd_lo = -tau * d_rv_node[:-1] / h
        dd_hi = tau * d_rv_node[1:] / h

        # d p_eff_j / d u_j, d u_{j+1}; d p_eff / d q is the constant weight a
        a = 1.0 if params.is_conservative else self.alpha_eff
        if params.visc_nu > 0.0:
            du = v[1:] - v[:-1]
            nu = np.where(aux["d_rv"] < 0.0, params.visc_nu, 0.0)
            rho_half = 0.5 * (lo.rho + rho_hat)
            drho_coef = -0.5 * rho_hat * rho_hat * du * du
            dp_lo = nu * (drho_coef * dd_lo - rho_half * du)
            dp_hi = nu * (drho_coef * dd_hi + rho_half * du)
        else:
            dp_lo = dp_hi = 0.0

        # d eps_hat_j / d u_j, d u_{j+1}, d q_j
        de_lo = -(dp_lo * delta + p_eff * dd_lo)
        de_hi = -(dp_hi * delta + p_eff * dd_hi)
        de_q = -a * delta

        if params.is_conservative:
            u_t = aux["u_t"]
            d_brack = half_tau * _eos_bracket_slope(lo.r, r_hat, n)
            half_q = 0.5 * q
            c = half_q / self.gm1
            c_lo = 0.5 * de_lo - c * dd_lo + 0.125 * tau * u_t[:-1] + half_q * d_brack[:-1] / h
            c_hi = 0.5 * de_hi - c * dd_hi + 0.125 * tau * u_t[1:] - half_q * d_brack[1:] / h
            c_q = (0.5 * de_q - (self.inv_rho + 0.5 * delta) / self.gm1
                   - 0.5 * aux["brack_s"])
        else:
            c = q / self.gm1
            c_lo = de_lo - c * dd_lo
            c_hi = de_hi - c * dd_hi
            c_q = de_q - (self.inv_rho + delta) / self.gm1

        # node rows: f_i = u_t_i + R_i w_i (P_{i+1} - P_i), a wall row the identity
        pad = self.padded_pressure(p_eff)
        jump = pad[1:] - pad[:-1]
        rw = big_r * self.w
        diag = 1.0 / tau + d_big_r * self.w * jump
        diag[:-1] += rw[:-1] * dp_lo
        diag[1:] -= rw[1:] * dp_hi

        lower = -rw[1:] * dp_lo
        upper = rw[:-1] * dp_hi
        q_lo = -rw[1:] * a
        q_hi = rw[:-1] * a
        if self.bc_left.kind == "wall":
            diag[0] = 1.0
            upper[0] = q_hi[0] = 0.0
        if self.bc_right.kind == "wall":
            diag[-1] = 1.0
            lower[-1] = q_lo[-1] = 0.0
        return _Jacobian(lower, diag, upper, q_lo, q_hi, c_lo, c_q, c_hi)

    def newton_update(self, x: np.ndarray, f: np.ndarray, jac: _Jacobian) -> np.ndarray:
        """Newton update dx solving jac . dx = -f.

        Each cell row gives dq_j = -(f_cell_j + c_lo_j du_j + c_hi_j du_{j+1}) / c_q_j;
        put into the node rows, that leaves a tridiagonal system in du, solved
        by LAPACK dgtsv, and dq follows from the cell rows.  A wall node's
        update is exact, u_wall - u_hat, not the solve's round-off.  Raises
        LinAlgError on a cell pivot |c_q_j| <= _PIVOT_RTOL / rho_j or a
        singular tridiagonal system.
        """
        # imported here, so a process that never solves never loads LAPACK
        from scipy.linalg.lapack import dgtsv
        lower, diag, upper, q_lo, q_hi, c_lo, c_q, c_hi = jac
        weak = np.abs(c_q) <= _PIVOT_RTOL * self.inv_rho
        if weak.any():
            j = int(np.argmax(weak))
            raise LinAlgError(f"cell pivot vanishes at cell {j} (|c_q| = {abs(c_q[j]):.3e})")
        inv_q = 1.0 / c_q
        r_lo = c_lo * inv_q
        r_hi = c_hi * inv_q
        g = f[1::2] * inv_q
        d = diag.copy()
        d[1:] -= q_lo * r_hi
        d[:-1] -= q_hi * r_lo
        b = -f[0::2]
        b[1:] += q_lo * g
        b[:-1] += q_hi * g
        _, _, _, du, info = dgtsv(lower - q_lo * r_lo, d, upper - q_hi * r_hi, b,
                                  True, True, True, True)
        if info != 0:
            raise LinAlgError(f"tridiagonal solve failed (dgtsv info {info})")
        # a wall row is the identity; x[0] and x[-1] are the end velocities
        for i, bc in ((0, self.bc_left), (-1, self.bc_right)):
            if bc.kind == "wall":
                du[i] = bc.u_wall - x[i]
        dx = np.empty(self.n_unknowns)
        dx[0::2] = du
        dx[1::2] = -(g + r_lo * du[:-1] + r_hi * du[1:])
        return dx

    def padded_pressure(self, p_eff: np.ndarray) -> np.ndarray:
        """Cell pressures padded with the external pressure at each end (0 at a
        wall), in the system's one array, which the next call overwrites."""
        self._pad[1:-1] = p_eff
        return self._pad

    def row_floor(self, aux: dict) -> np.ndarray:
        """Round-off floor of every row at aux: _FLOOR_ULPS epsilons of the sum
        of the magnitudes of the row's terms."""
        lo, p_eff, delta = self.lo, aux["p_eff"], aux["delta"]
        p_abs = np.abs(self.padded_pressure(p_eff))
        terms = np.empty(self.n_unknowns)
        terms[0::2] = ((np.abs(aux["u_hat"]) + np.abs(lo.u)) / self.tau
                       + aux["big_r"] * (p_abs[1:] + p_abs[:-1]) * self.w)
        terms[1::2] = (np.abs(aux["eps_hat"]) + np.abs(lo.eps) + np.abs(p_eff * delta)
                       + np.abs(aux["q"]) * (self.inv_rho + np.abs(delta)) / abs(self.gm1))
        return _FLOOR_ULPS * np.finfo(float).eps * terms

    def check(self, hi: GridLayer) -> dict[str, np.ndarray]:
        """step_residuals of the pair (lo, hi), for a hi reached in tau."""
        lo, tau, params = self.lo, self.tau, self.params
        v = 0.5 * (lo.u + hi.u)
        big_r, d_rv = self.swept_rate(v, hi.r)
        delta = 1.0 / hi.rho - self.inv_rho
        q = 0.5 * (lo.p + hi.p) if params.is_conservative else hi.p
        p_eff = self.effective_pressure(v, d_rv, hi.rho, q)
        momentum, eos, _, _ = self.rows(hi.u, q, hi.r, big_r, delta, p_eff, hi.eps)
        return {"mass": delta / tau - d_rv, "momentum": momentum,
                "energy": (hi.eps - lo.eps) / tau + p_eff * d_rv,
                "trajectory": (hi.r - lo.r) / tau - v, "eos": eos}

    def scales(self, aux: dict) -> np.ndarray:
        """Row scaling for the convergence test: velocity rows by max(1, |u|),
        energy rows by max(1, |eps|)."""
        s = np.empty(self.n_unknowns)
        s[0::2] = np.maximum(1.0, np.abs(aux["u_hat"]))
        eps_scale = aux["eps_hat"]
        if self.params.is_conservative:
            eps_scale = 0.5 * (eps_scale + self.lo.eps)
        s[1::2] = np.maximum(1.0, np.abs(eps_scale))
        return s


def _scaled_norm(f: np.ndarray, scales: np.ndarray) -> float:
    """max |f| / scales, or inf if a row holds a NaN or an inf."""
    norm = float((np.abs(f) / scales).max())  # a NaN row makes the max NaN
    return norm if math.isfinite(norm) else math.inf


def step(lo: GridLayer, tau: float, params: SchemeParams,
         earlier: tuple[GridLayer, ...] = ()) -> tuple[GridLayer, StepReport]:
    """Advance one implicit step; returns (new layer, report).

    Newton starts from lo extrapolated through the earlier accepted layers
    (up to two, newest first), or from lo if that guess inverts a cell or is
    not finite.  It stops at newton_tol or, after its first update, once
    every row is within its round-off floor (row_floor; the report's reason
    is FLOOR_REASON).

    Raises StepRejected (carrying the report) if Newton fails to converge or
    the converged layer violates positivity/ordering (mass consistency within
    GridLayer.validate's default 1e-10), so no partial state escapes.  The
    caller may retry with a smaller tau, as run_simulation does.
    """
    if not tau > 0.0 or not math.isfinite(tau):
        raise ConfigError(f"step length must be positive and finite, got {tau}")
    system = _StepSystem(lo, tau, params)
    history: list[float] = []
    floor = floor_max = None  # per-row round-off floor and its bound, set once, after an update

    def reject(reason: str) -> StepRejected:
        report = StepReport(accepted=False, iterations=len(history),
                            final_residual_norm=history[-1] if history else math.inf,
                            history=list(history), reason=reason)
        return StepRejected(reason, report)

    def evaluate(x: np.ndarray) -> tuple:
        f, aux = system.residual(x)
        scales = system.scales(aux)
        return _scaled_norm(f, scales), x, f, aux, scales

    def at_floor(point: tuple) -> bool:
        nonlocal floor, floor_max
        point_norm, _, f, aux, scales = point
        if floor is None:
            floor = system.row_floor(aux)
            floor_max = max(float(floor.max()), 2.0 * params.newton_tol)
        # scales >= 1: the norm's row has |f| >= norm, so above both bounds it fails
        return point_norm <= floor_max and bool(
            (np.abs(f) <= np.maximum(params.newton_tol * scales, floor)).all())

    norm, x, f, aux, _ = point = evaluate(system.initial_guess(earlier))
    if earlier and not (math.isfinite(norm) and (aux["rho_hat"] > 0.0).all()):
        # the guess inverts a cell or is not finite: start from lo
        norm, x, f, aux, _ = point = evaluate(system.initial_guess())
    history.append(norm)
    if not math.isfinite(norm):
        raise reject("non-finite residual at the initial guess")

    reason = ""
    while norm > params.newton_tol:
        if len(history) > 1 and at_floor(point):
            reason = FLOOR_REASON
            break
        if len(history) > params.newton_max_iter:
            raise reject(f"no Newton convergence in {params.newton_max_iter} iterations "
                         f"(residual {norm:.3e})")
        jac = system.jacobian(aux)
        try:
            dx = system.newton_update(x, f, jac)
        except LinAlgError as exc:
            raise reject(f"linear solve failed: {exc}") from exc
        # f is finite, so a NaN or infinity in jac shows in dx (or is divided
        # away, leaving a usable dx); jac's arrays are tested in place only to
        # name the cause of a non-finite dx
        if not np.isfinite(dx).all() and not all(np.isfinite(a).all() for a in jac):
            raise reject("non-finite Jacobian")
        # damped update: halve until the scaled norm stops growing
        best = None
        lam = 1.0
        for _ in range(9):
            trial = evaluate(x + lam * dx)
            if best is None or trial[0] < best[0]:
                best = trial
            if trial[0] <= params.newton_tol or trial[0] < norm:
                break
            lam *= 0.5
        if not math.isfinite(best[0]):
            raise reject("Newton iteration diverged (non-finite residual)")
        if best[0] >= norm and best[0] > params.newton_tol and not at_floor(best):
            raise reject(f"Newton stagnated at residual {best[0]:.3e}")
        norm, x, f, aux, _ = point = best
        history.append(norm)

    # conservative: the snapshot pressure consistent with the half-sum q
    p_hat = 2.0 * aux["q"] - lo.p if params.is_conservative else aux["q"]
    try:
        hi = GridLayer(mesh=lo.mesh, t=lo.t + tau, r=aux["r_hat"], u=aux["u_hat"],
                       rho=aux["rho_hat"], p=p_hat, eps=aux["eps_hat"])
        hi.validate(params.n)
    except LayerError as exc:
        raise reject(f"positivity/ordering failure: {exc}") from exc

    return hi, StepReport(accepted=True, iterations=len(history),
                          final_residual_norm=norm, history=history, reason=reason)


def step_residuals(view: TwoLayerView, params: SchemeParams) -> dict[str, np.ndarray]:
    """Residual of every difference equation on a stored pair of layers.

    Feeds view.hi to the kernel the Newton solve uses, with q = p_hat
    (pointwise) or (p + p_hat)/2 (conservative), and adds the mass, energy
    and trajectory rows the solve eliminates.  Keys are "mass", "momentum",
    "energy", "trajectory" and "eos"; rows 0 and -1 of "momentum" are the
    boundary closures.
    """
    return _StepSystem(view.lo, view.tau, params).check(view.hi)
