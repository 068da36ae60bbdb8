"""Discrete conservation-law audits.

audit_all(view, params, laws) is the one entry point.  It consumes a raw
two-layer view plus the scheme parameters and recomputes all weighted and
interpolated quantities itself, so it checks the stored fields rather than
trusting anything cached by the solver.  Each law is verified twice: per
cell/node (the local identity) and as a telescoped budget, |total change +
tau * net boundary flux|, which holds to summation round-off whenever the
local identities hold.  The totals are math.fsum's bit for bit, from one
certified error-free extraction per audit (state.exact_sums; Rump et al. 2008).

A run sums each layer once: audit_all takes the previous step's hi totals as
lo_totals (LawId -> density_sum_lo) instead of re-summing that layer, except
ADDITIONAL_2's, whose density holds the step's tau^2/8 term, which a halved
or shortened step changes.  Per-cell residuals always use the raw layers.

Laws are written in the canonical form density_t + flux_s = 0; the sign of
each flux is folded in so every budget uses the same defect formula.
"""

import enum
import functools
import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .state import TwoLayerView, cell_average, exact_sums, interp_nodal_pressure
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
    time-centred velocity v, the area factor R, the effective cell pressure, the
    nodal flux pressure p*, and each layer's terms by "lo"/"hi" (<r u> on first
    use by a quadratic balance)."""

    def __init__(self, view: TwoLayerView, params: SchemeParams):
        self.view, self.params = view, params
        self.layers = {"lo": view.lo, "hi": view.hi}
        self.v = v = 0.5 * (view.lo.u + view.hi.u)
        self.big_r = r_factor(view.lo.r, view.hi.r, params.n)
        a = params.alpha_effective
        self.p_eff = p_eff = a * view.hi.p + (1.0 - a) * view.lo.p
        if params.visc_nu != 0.0:
            du = v[1:] - v[:-1]
            rho_half = 0.5 * (view.lo.rho + view.hi.rho)
            rv = self.big_r * v
            compressing = (rv[1:] - rv[:-1]) / view.mesh.h < 0.0
            self.p_eff = p_eff = p_eff + np.where(compressing,
                                                  params.visc_nu * rho_half * du * du, 0.0)
        bc_left, bc_right = effective_boundaries(params, float(view.lo.r[0]))
        self.star = star = np.empty(view.mesh.n_nodes)
        star[1:-1] = interp_nodal_pressure(p_eff, view.mesh)
        star[0] = (p_eff[0] if bc_left.kind == "wall"
                   else boundary_pressure(bc_left, view.lo.t, view.hi.t, a))
        star[-1] = (p_eff[-1] if bc_right.kind == "wall"
                    else boundary_pressure(bc_right, view.lo.t, view.hi.t, a))
        ke = {k: 0.5 * cell_average(layer.u * layer.u) for k, layer in self.layers.items()}
        #: <u^2>/2 and eps + <u^2>/2 per cell
        self.energy = {k: (ke[k], layer.eps + ke[k]) for k, layer in self.layers.items()}
        self.ru: dict[str, np.ndarray] | None = None


class _Terms(NamedTuple):
    """What one law contributes to its budget: densities d_lo, d_hi weighted by
    cell or node masses, the local residual and the boundary fluxes."""

    weights: np.ndarray
    d_lo: np.ndarray
    d_hi: np.ndarray
    residuals: np.ndarray
    flux_left: float
    flux_right: float
    expected_zero: bool = True
    note: str = ""


def _cell_law(rc: _Recomputed, d_lo: np.ndarray, d_hi: np.ndarray, flux: np.ndarray,
              expected_zero: bool = True, note: str = "") -> _Terms:
    """Terms of a cell-based law from its density and nodal flux."""
    res = (d_hi - d_lo) / rc.view.tau + (flux[1:] - flux[:-1]) / rc.view.mesh.h
    return _Terms(rc.view.mesh.h, d_lo, d_hi, res, float(flux[0]), float(flux[-1]),
                  expected_zero, note)


# --- the six laws: each returns its _Terms, or its note when it does not apply ---

def _mass(rc: _Recomputed) -> _Terms:
    """Cell law: specific volume vs. swept volume, density 1/rho, flux -R v."""
    return _cell_law(rc, 1.0 / rc.view.lo.rho, 1.0 / rc.view.hi.rho, -rc.big_r * rc.v)


def _energy(rc: _Recomputed) -> _Terms:
    """Cell law: total energy eps + <u^2>/2, flux R p* v."""
    return _cell_law(rc, rc.energy["lo"][1], rc.energy["hi"][1], rc.big_r * rc.star * rc.v)


def _nodal(law: LawId, rc: _Recomputed) -> _Terms | str:
    """Nodal laws (plane geometry only), density d and flux c p*, weighted by
    nodal masses.  MOMENTUM: d = u, c = 1; CENTER_OF_MASS: d = r - t u,
    c = -t^{(1/2)}."""
    view = rc.view
    if rc.params.n != 0:
        return f"{law.value.replace('_', '-')} balance needs n=0, run has n={rc.params.n}"
    if law is LawId.MOMENTUM:
        c, d_lo, d_hi = 1.0, view.lo.u, view.hi.u
    else:
        c = -view.t_half
        d_lo, d_hi = (layer.r - layer.t * layer.u for layer in (view.lo, view.hi))
    res = ((d_hi - d_lo)[1:-1] / view.tau
           + c * (rc.p_eff[1:] - rc.p_eff[:-1]) / view.mesh.interior_spacings())
    return _Terms(view.mesh.nodal_masses, d_lo, d_hi, res,
                  c * float(rc.star[0]), c * float(rc.star[-1]))


def _quadratic(law: LawId, rc: _Recomputed, include_correction: bool = True) -> _Terms:
    """One of the quadratic balances, with no applicability gate.

    ADDITIONAL_1: density 2 t (eps + <u^2>/2) - <r u>,
                  flux R p* (2 t^{(1/2)} v - r^{(1/2)}).
    ADDITIONAL_2: density t^2 (eps + <u^2>/2) - t <r u> + <r^2>/2
                  + (tau^2/8) <u^2>,
                  flux R p* ((t^2)^{(1/2)} v - t^{(1/2)} r^{(1/2)}).
    The tau^2/8 term is the step-dependent correction that closes the second
    balance exactly; include_correction=False measures its contribution.
    """
    view, params = rc.view, rc.params
    if rc.ru is None:
        rc.ru = {k: cell_average(layer.r * layer.u) for k, layer in rc.layers.items()}
    r_half = 0.5 * (view.lo.r + view.hi.r)
    d = {}
    if law is LawId.ADDITIONAL_1:
        flux = rc.big_r * rc.star * (2.0 * view.t_half * rc.v - r_half)
        for k, layer in rc.layers.items():
            d[k] = 2.0 * layer.t * rc.energy[k][1] - rc.ru[k]
    else:
        flux = rc.big_r * rc.star * (view.t_sq_half * rc.v - view.t_half * r_half)
        for k, layer in rc.layers.items():
            ke, e_tot = rc.energy[k]
            d[k] = layer.t ** 2 * e_tot - layer.t * rc.ru[k] + 0.5 * cell_average(layer.r * layer.r)
            if include_correction:
                d[k] = d[k] + 0.25 * view.tau ** 2 * ke
    note = f"gamma={params.gamma!r}, gamma_star={params.gamma_star!r}, visc_nu={params.visc_nu!r}"
    at_star = math.isclose(params.gamma, params.gamma_star, rel_tol=1e-12)
    return _cell_law(rc, d["lo"], d["hi"], flux,
                     expected_zero=at_star and params.visc_nu == 0.0, note=note)


def _additional(law: LawId, rc: _Recomputed) -> _Terms | str:
    """Quadratic balances; applicable only in conservative mode."""
    if not rc.params.is_conservative:
        return "quadratic balances hold only in conservative EOS mode"
    return _quadratic(law, rc)


#: law -> body(recomputed) -> _Terms | note; audit_all shares one _Recomputed
_LAWS = {
    LawId.MASS: _mass,
    LawId.ENERGY: _energy,
    LawId.MOMENTUM: functools.partial(_nodal, LawId.MOMENTUM),
    LawId.CENTER_OF_MASS: functools.partial(_nodal, LawId.CENTER_OF_MASS),
    LawId.ADDITIONAL_1: functools.partial(_additional, LawId.ADDITIONAL_1),
    LawId.ADDITIONAL_2: functools.partial(_additional, LawId.ADDITIONAL_2),
}


def audit_all(view: TwoLayerView, params: SchemeParams,
              laws: tuple[LawId, ...] | list[LawId] = ALL_LAWS, *,
              lo_totals: dict | None = None) -> list[ConservationBudget]:
    """Audit the selected laws over one step, in fixed law order (ALL_LAWS).

    lo_totals maps a law to its density_sum_lo: the density_sum_hi this
    function gave for the step ending on view.lo, so bit for bit a fresh sum.
    ADDITIONAL_2's is ignored: its density holds this step's tau^2/8 term.
    """
    rc = _Recomputed(view, params)
    carried = {k: v for k, v in (lo_totals or {}).items() if k is not LawId.ADDITIONAL_2}
    terms = [(law, _LAWS[law](rc)) for law in ALL_LAWS if law in laws]
    # weighted density rows, lo unless carried, then hi, summed in one kernel call
    rows = [t.weights * d for law, t in terms if isinstance(t, _Terms)
            for d in ((t.d_hi,) if law in carried else (t.d_lo, t.d_hi))]
    totals = iter(exact_sums(rows))
    budgets = []
    for law, t in terms:
        if isinstance(t, str):
            budgets.append(ConservationBudget(law=law, applicable=False, note=t))
            continue
        sum_lo = carried[law] if law in carried else next(totals)
        sum_hi = next(totals)
        net = t.flux_right - t.flux_left
        defect = abs(sum_hi - sum_lo + view.tau * net)
        scale = max(abs(sum_lo), abs(sum_hi), view.tau * (abs(t.flux_left) + abs(t.flux_right)))
        budgets.append(ConservationBudget(
            law=law, applicable=True, expected_zero=t.expected_zero,
            per_cell_residual_max=float(np.abs(t.residuals).max()),
            density_sum_lo=sum_lo, density_sum_hi=sum_hi,
            boundary_flux_net=net, identity_defect=defect,
            relative_defect=defect / scale if scale > 0.0 else 0.0,
            note=t.note, residuals=t.residuals))
    return budgets
