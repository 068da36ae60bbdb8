"""Discrete conservation-law audits.

Every audit consumes a raw two-layer view plus the scheme parameters and
recomputes all weighted and interpolated quantities itself, so it checks the
stored fields rather than trusting anything cached by the solver.  Each law
is verified twice: per cell/node (the local identity) and as a telescoped
budget, |total change + tau * net boundary flux|, which holds to summation
round-off whenever the local identities hold.  The totals are correctly
rounded sums (state.exact_sum, bit for bit equal to math.fsum).

Laws are written in the canonical form density_t + flux_s = 0; the sign of
each flux is folded in so every budget uses the same defect formula.
"""

import enum
import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .state import TwoLayerView, cell_average, exact_sum, forward_s, interp_nodal_pressure, weighted
from .scheme import SchemeParams, boundary_pressure, effective_boundaries, r_factor


class LawId(enum.Enum):
    MASS = "mass"
    ENERGY = "energy"
    MOMENTUM = "momentum"
    CENTER_OF_MASS = "center_of_mass"
    ADDITIONAL_1 = "additional_1"
    ADDITIONAL_2 = "additional_2"


#: audit order is fixed so ledgers are reproducible
ALL_LAWS = tuple(LawId)


@dataclass
class ConservationBudget:
    """Outcome of auditing one law over one step.

    expected_zero records whether the configuration promises this law
    (e.g. the additional quadratic balances need conservative mode,
    gamma = gamma_star and no viscosity); a large residual with
    expected_zero=False is a report, not a failure.
    relative_defect compares the telescoped defect against the magnitude of
    the budgeted totals.
    """

    law: LawId
    applicable: bool
    expected_zero: bool = False
    per_cell_residual_max: float = 0.0
    density_sum_lo: float = 0.0
    density_sum_hi: float = 0.0
    boundary_flux_net: float = 0.0
    identity_defect: float = 0.0
    relative_defect: float = 0.0
    note: str = ""
    residuals: np.ndarray | None = None  # diagnostics only, not serialized

    def to_record(self, step: int | None = None, t: float | None = None,
                  tau: float | None = None) -> dict:
        """Flat JSON-ready record; key order is fixed for reproducible ledgers."""
        record: dict = {}
        if step is not None:
            record["step"] = step
        if t is not None:
            record["t"] = t
        if tau is not None:
            record["tau"] = tau
        record.update({
            "law": self.law.value,
            "applicable": self.applicable,
            "expected_zero": self.expected_zero,
            "per_cell_residual_max": self.per_cell_residual_max,
            "density_sum_lo": self.density_sum_lo,
            "density_sum_hi": self.density_sum_hi,
            "boundary_flux_net": self.boundary_flux_net,
            "identity_defect": self.identity_defect,
            "relative_defect": self.relative_defect,
            "note": self.note,
        })
        return record


def write_ledger(records: list[dict], path) -> None:
    """Serialize budget records as JSON lines (one record per step and law)."""
    with open(path, "w") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")


# --- shared recomputation -----------------------------------------------------

class _Recomputed:
    """What several laws use, recomputed from the raw layers of one view: the
    time-centred velocity v, the area factor R, the effective cell pressure
    and, on first use, the nodal flux pressure p*."""

    def __init__(self, view: TwoLayerView, params: SchemeParams):
        self.view, self.params = view, params
        self.v = v = 0.5 * (view.lo.u + view.hi.u)
        self.big_r = r_factor(view.lo.r, view.hi.r, params.n)
        self.p_eff = weighted(view.lo.p, view.hi.p, params.alpha_effective)
        if params.visc_nu != 0.0:
            du = v[1:] - v[:-1]
            rho_half = 0.5 * (view.lo.rho + view.hi.rho)
            compressing = forward_s(self.big_r * v, view.mesh) < 0.0
            self.p_eff = self.p_eff + np.where(compressing,
                                               params.visc_nu * rho_half * du * du, 0.0)

    @functools.cached_property
    def star(self) -> np.ndarray:
        view, params, p_eff = self.view, self.params, self.p_eff
        alpha_eff = params.alpha_effective
        bc_left, bc_right = effective_boundaries(params, float(view.lo.r[0]))
        star = np.empty(view.mesh.n_nodes)
        star[1:-1] = interp_nodal_pressure(p_eff, view.mesh)
        star[0] = (p_eff[0] if bc_left.kind == "wall"
                   else boundary_pressure(bc_left, view.lo.t, view.hi.t, alpha_eff))
        star[-1] = (p_eff[-1] if bc_right.kind == "wall"
                    else boundary_pressure(bc_right, view.lo.t, view.hi.t, alpha_eff))
        return star


def effective_cell_pressure(view: TwoLayerView, params: SchemeParams) -> np.ndarray:
    """Alpha-weighted cell pressure plus the artificial viscosity visc_nu *
    rho^{(1/2)} * (du)^2 where the cell compresses, (R v)_s < 0; shape (N,)."""
    return _Recomputed(view, params).p_eff


def pressure_star(view: TwoLayerView, params: SchemeParams) -> np.ndarray:
    """Nodal flux pressure, shape (N+1): width-weighted interpolation of the
    effective cell pressure at interior nodes, boundary closure at the ends
    (adjacent cell value for a wall, the alpha-weighted trace for a pressure
    boundary)."""
    return _Recomputed(view, params).star


def _cell_budget(law: LawId, view: TwoLayerView, d_lo: np.ndarray, d_hi: np.ndarray,
                 flux: np.ndarray, expected_zero: bool, note: str = "") -> ConservationBudget:
    """Assemble a budget for a cell-based law from its density and nodal flux."""
    res = (d_hi - d_lo) / view.tau + (flux[1:] - flux[:-1]) / view.mesh.h
    return _budget(law, view, view.mesh.h, d_lo, d_hi, res, float(flux[0]), float(flux[-1]),
                   expected_zero, note)


def _budget(law: LawId, view: TwoLayerView, weights: np.ndarray, d_lo: np.ndarray,
            d_hi: np.ndarray, res: np.ndarray, flux_left: float, flux_right: float,
            expected_zero: bool, note: str = "") -> ConservationBudget:
    """Assemble a budget from the local residuals and the weighted totals;
    node-based laws (momentum family, n = 0 only) weight by nodal masses."""
    sum_lo = exact_sum(weights * d_lo)
    sum_hi = exact_sum(weights * d_hi)
    net = flux_right - flux_left
    defect = abs(sum_hi - sum_lo + view.tau * net)
    scale = max(abs(sum_lo), abs(sum_hi), view.tau * (abs(flux_left) + abs(flux_right)))
    return ConservationBudget(
        law=law, applicable=True, expected_zero=expected_zero,
        per_cell_residual_max=float(np.max(np.abs(res))),
        density_sum_lo=sum_lo, density_sum_hi=sum_hi,
        boundary_flux_net=net, identity_defect=defect,
        relative_defect=defect / scale if scale > 0.0 else 0.0,
        note=note, residuals=res)


def _not_applicable(law: LawId, note: str) -> ConservationBudget:
    return ConservationBudget(law=law, applicable=False, note=note)


# --- the six laws --------------------------------------------------------------

_LAWS = {}


def _law(law: LawId):
    """Register body(view, params, recomputed) in _LAWS, where audit_all shares
    one _Recomputed; the public function takes (view, params) alone."""
    def register(body):
        _LAWS[law] = body
        return functools.wraps(body)(
            lambda view, params: body(view, params, _Recomputed(view, params)))
    return register


@_law(LawId.MASS)
def audit_mass(view: TwoLayerView, params: SchemeParams, rc: _Recomputed) -> ConservationBudget:
    """Cell law: specific volume vs. swept volume, density 1/rho, flux -R v."""
    return _cell_budget(LawId.MASS, view,
                        1.0 / view.lo.rho, 1.0 / view.hi.rho,
                        -rc.big_r * rc.v, expected_zero=True)


@_law(LawId.ENERGY)
def audit_energy(view: TwoLayerView, params: SchemeParams, rc: _Recomputed) -> ConservationBudget:
    """Cell law: total energy eps + <u^2>/2, flux R p* v."""
    d_lo = view.lo.eps + 0.5 * cell_average(view.lo.u * view.lo.u)
    d_hi = view.hi.eps + 0.5 * cell_average(view.hi.u * view.hi.u)
    return _cell_budget(LawId.ENERGY, view, d_lo, d_hi, rc.big_r * rc.star * rc.v,
                        expected_zero=True)


@_law(LawId.MOMENTUM)
def audit_momentum(view: TwoLayerView, params: SchemeParams,
                   rc: _Recomputed) -> ConservationBudget:
    """Nodal law (plane geometry only): density u, flux p*."""
    if params.n != 0:
        return _not_applicable(LawId.MOMENTUM, f"momentum balance needs n=0, run has n={params.n}")
    u_t = (view.hi.u - view.lo.u) / view.tau
    res = u_t[1:-1] + (rc.p_eff[1:] - rc.p_eff[:-1]) / view.mesh.interior_spacings()
    return _budget(LawId.MOMENTUM, view, view.mesh.nodal_masses, view.lo.u, view.hi.u, res,
                   float(rc.star[0]), float(rc.star[-1]), expected_zero=True)


@_law(LawId.CENTER_OF_MASS)
def audit_center_of_mass(view: TwoLayerView, params: SchemeParams,
                         rc: _Recomputed) -> ConservationBudget:
    """Nodal law (plane geometry only): density r - t u, flux -t^{(1/2)} p*."""
    if params.n != 0:
        return _not_applicable(LawId.CENTER_OF_MASS,
                               f"center-of-mass balance needs n=0, run has n={params.n}")
    time = view.time
    d_lo = view.lo.r - view.lo.t * view.lo.u
    d_hi = view.hi.r - view.hi.t * view.hi.u
    res = ((d_hi - d_lo)[1:-1] / view.tau
           - time.t_half * (rc.p_eff[1:] - rc.p_eff[:-1]) / view.mesh.interior_spacings())
    return _budget(LawId.CENTER_OF_MASS, view, view.mesh.nodal_masses, d_lo, d_hi, res,
                   -time.t_half * float(rc.star[0]), -time.t_half * float(rc.star[-1]),
                   expected_zero=True)


def _additional_density_flux(view: TwoLayerView, rc: _Recomputed, law: LawId,
                             include_correction: bool = True):
    """Density pair and nodal flux of one of the quadratic balances.

    ADDITIONAL_1: density 2 t (eps + <u^2>/2) - <r u>,
                  flux R p* (2 t^{(1/2)} v - r^{(1/2)}).
    ADDITIONAL_2: density t^2 (eps + <u^2>/2) - t <r u> + <r^2>/2
                  + (tau^2/8) <u^2>,
                  flux R p* ((t^2)^{(1/2)} v - t^{(1/2)} r^{(1/2)}).
    The tau^2/8 term is the step-dependent correction that closes the second
    balance exactly; include_correction=False measures its contribution.
    """
    time = view.time
    v, big_r, star = rc.v, rc.big_r, rc.star
    r_half = 0.5 * (view.lo.r + view.hi.r)

    def density(layer):
        ke = 0.5 * cell_average(layer.u * layer.u)
        if law is LawId.ADDITIONAL_1:
            return 2.0 * layer.t * (layer.eps + ke) - cell_average(layer.r * layer.u)
        d = (layer.t ** 2 * (layer.eps + ke)
             - layer.t * cell_average(layer.r * layer.u)
             + 0.5 * cell_average(layer.r * layer.r))
        if include_correction:
            d = d + 0.25 * view.tau ** 2 * ke
        return d

    if law is LawId.ADDITIONAL_1:
        flux = big_r * star * (2.0 * time.t_half * v - r_half)
    else:
        flux = big_r * star * (time.t_sq_half * v - time.t_half * r_half)
    return density(view.lo), density(view.hi), flux


def additional_1_residuals(view: TwoLayerView, params: SchemeParams) -> np.ndarray:
    """Per-cell residual of the first quadratic balance, with no applicability
    gate, so off-design configurations (pointwise mode, gamma far from
    gamma_star) can be measured as negative controls."""
    d_lo, d_hi, flux = _additional_density_flux(view, _Recomputed(view, params),
                                                LawId.ADDITIONAL_1)
    return (d_hi - d_lo) / view.tau + (flux[1:] - flux[:-1]) / view.mesh.h


def additional_2_residuals(view: TwoLayerView, params: SchemeParams,
                           include_correction: bool = True) -> np.ndarray:
    """Per-cell residual of the second quadratic balance (ungated)."""
    d_lo, d_hi, flux = _additional_density_flux(view, _Recomputed(view, params),
                                                LawId.ADDITIONAL_2, include_correction)
    return (d_hi - d_lo) / view.tau + (flux[1:] - flux[:-1]) / view.mesh.h


def _audit_additional(law: LawId, view: TwoLayerView, params: SchemeParams,
                      rc: _Recomputed) -> ConservationBudget:
    if not params.is_conservative:
        return _not_applicable(law, "quadratic balances hold only in conservative EOS mode")
    note = f"gamma={params.gamma!r}, gamma_star={params.gamma_star!r}, visc_nu={params.visc_nu!r}"
    at_star = math.isclose(params.gamma, params.gamma_star, rel_tol=1e-12)
    d_lo, d_hi, flux = _additional_density_flux(view, rc, law)
    return _cell_budget(law, view, d_lo, d_hi, flux,
                        expected_zero=at_star and params.visc_nu == 0.0, note=note)


@_law(LawId.ADDITIONAL_1)
def audit_additional_1(view: TwoLayerView, params: SchemeParams,
                       rc: _Recomputed) -> ConservationBudget:
    """First quadratic balance; applicable only in conservative mode."""
    return _audit_additional(LawId.ADDITIONAL_1, view, params, rc)


@_law(LawId.ADDITIONAL_2)
def audit_additional_2(view: TwoLayerView, params: SchemeParams,
                       rc: _Recomputed) -> ConservationBudget:
    """Second quadratic balance; applicable only in conservative mode."""
    return _audit_additional(LawId.ADDITIONAL_2, view, params, rc)


def audit_all(view: TwoLayerView, params: SchemeParams,
              laws: tuple[LawId, ...] | list[LawId] = ALL_LAWS) -> list[ConservationBudget]:
    """Run the selected audits in fixed law order, sharing one _Recomputed."""
    rc = _Recomputed(view, params)
    return [_LAWS[law](view, params, rc) for law in ALL_LAWS if law in set(laws)]
