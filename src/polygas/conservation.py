"""Discrete conservation-law audits.

audit_all(views, params, laws) is the one entry point.  It consumes a run of
consecutive raw two-layer views (views[k].hi is views[k+1].lo; a lone view is
a run of one) plus the scheme parameters and recomputes all weighted and
interpolated quantities itself, so it checks the stored fields rather than
trusting anything cached by the solver.  Each law is verified twice: per
cell/node (the local identity) and as a telescoped budget, |total change +
tau * net boundary flux|, which holds to summation round-off whenever the
local identities hold.  The totals are math.fsum's bit for bit, from one
certified error-free extraction per call (state.exact_sums; Rump et al. 2008).

The run is one array program: each layer's terms are computed once on a
(B+1, ·) stack of the run's B+1 layers, each step's on (B, ·) arrays, and each
layer's density row is summed once, so two steps sharing a layer share its
totals.  Across calls, lo_totals (LawId -> density_sum_lo of the first step)
carries the previous call's last hi totals instead of re-summing that layer.
ADDITIONAL_2 is the exception: its density holds the step's tau^2/8 term,
which a halved or shortened step changes, so its lo and hi rows are summed
per step.  Per-cell residuals always use the raw layers.

Laws are written in the canonical form density_t + flux_s = 0; the sign of
each flux is folded in so every budget uses the same defect formula.
"""

import enum
import functools
import itertools
import json
import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .state import LayerError, TwoLayerView, cell_average, exact_sums, interp_nodal_pressure
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

def _consecutive(views: TwoLayerView | Sequence[TwoLayerView]) -> list[TwoLayerView]:
    """The views as a list, a lone view as a list of one; LayerError unless
    there is one at least and each view's hi layer is the next view's lo layer."""
    views = [views] if isinstance(views, TwoLayerView) else list(views)
    if not views or any(a.hi is not b.lo for a, b in zip(views, views[1:])):
        raise LayerError("audit_all needs one view, or consecutive views: "
                         "the hi layer of each the lo layer of the next")
    return views


class _Recomputed:
    """What several laws use, recomputed from the raw layers of B consecutive
    views.  Per layer, rows of (B+1, ·) stacks: the fields, the times t and t^2,
    <u^2>/2, eps + <u^2>/2 and (on first use by a quadratic balance) <r u>.  Per
    step, rows of (B, ·) arrays: the time-centred velocity v, the area factor R,
    the effective cell pressure, the nodal flux pressure p* and R p*, and the
    columns tau, t^{(1/2)}, (t^2)^{(1/2)} and tau^2/4.  The mesh weights are
    (1, ·) rows, so a lone view's arithmetic meets operands of its own shape,
    which numpy runs on its fast path."""

    def __init__(self, views: TwoLayerView | Sequence[TwoLayerView], params: SchemeParams):
        self.views = views = _consecutive(views)
        self.params = params
        mesh = views[0].mesh
        self.h, self.nodal_masses, self.spacings = (
            w[None] for w in (mesh.h, mesh.nodal_masses, mesh.interior_spacings()))
        layers = [views[0].lo, *(view.hi for view in views)]
        self.r, self.u, self.rho, p, eps = (np.array([getattr(layer, name) for layer in layers])
                                            for name in ("r", "u", "rho", "p", "eps"))
        # each scalar is the Python float a lone view forms (t ** 2 is pow, not
        # t * t), stacked as a column
        self.t, self.t_sq = np.array([(layer.t, layer.t ** 2) for layer in layers]).T[..., None]
        self.tau, self.t_half, self.t_sq_half, self.correction = np.array(
            [(view.tau, view.t_half, view.t_sq_half, 0.25 * view.tau ** 2)
             for view in views]).T[..., None]
        self.v = v = 0.5 * (self.u[:-1] + self.u[1:])
        self.big_r = r_factor(self.r[:-1], self.r[1:], params.n)
        a = params.alpha_effective
        self.p_eff = p_eff = a * p[1:] + (1.0 - a) * p[:-1]
        if params.visc_nu != 0.0:
            du = v[:, 1:] - v[:, :-1]
            rho_half = 0.5 * (self.rho[:-1] + self.rho[1:])
            rv = self.big_r * v
            compressing = (rv[:, 1:] - rv[:, :-1]) / self.h < 0.0
            self.p_eff = p_eff = p_eff + np.where(compressing,
                                                  params.visc_nu * rho_half * du * du, 0.0)
        self.star = star = np.empty(v.shape)
        star[:, 1:-1] = interp_nodal_pressure(p_eff, mesh)
        star[:, 0], star[:, -1] = p_eff[:, 0], p_eff[:, -1]  # walls; pressure ends below
        for j, view in enumerate(views):
            for col, bc in zip((0, -1), effective_boundaries(params, float(view.lo.r[0]))):
                if bc.kind != "wall":
                    star[j, col] = boundary_pressure(bc, view.lo.t, view.hi.t, a)
        self.big_r_star = self.big_r * star
        #: <u^2>/2 and eps + <u^2>/2 per cell
        self.ke = 0.5 * cell_average(self.u * self.u)
        self.e_tot = eps + self.ke
        self.ru: np.ndarray | None = None


class _Terms(NamedTuple):
    """What one law contributes to the budgets of B steps: densities d_lo, d_hi
    (B, ·) weighted by cell or node masses, the local residuals (B, ·) and each
    step's boundary fluxes.  Unless per_step, d_lo[k + 1] and d_hi[k] are one
    layer's density, so each layer is summed once."""

    weights: np.ndarray
    d_lo: np.ndarray
    d_hi: np.ndarray
    residuals: np.ndarray
    flux_left: list[float]
    flux_right: list[float]
    per_step: bool = False
    expected_zero: bool = True
    note: str = ""


def _cell_law(rc: _Recomputed, d_lo: np.ndarray, d_hi: np.ndarray, flux: np.ndarray,
              per_step: bool = False, expected_zero: bool = True, note: str = "") -> _Terms:
    """Terms of a cell-based law from its density and nodal flux."""
    res = (d_hi - d_lo) / rc.tau + (flux[:, 1:] - flux[:, :-1]) / rc.h
    return _Terms(rc.h, d_lo, d_hi, res, flux[:, 0].tolist(), flux[:, -1].tolist(),
                  per_step, expected_zero, note)


# --- the six laws: each returns its _Terms, or its note when it does not apply ---

def _mass(rc: _Recomputed) -> _Terms:
    """Cell law: specific volume vs. swept volume, density 1/rho, flux -R v."""
    density = 1.0 / rc.rho
    return _cell_law(rc, density[:-1], density[1:], -rc.big_r * rc.v)


def _energy(rc: _Recomputed) -> _Terms:
    """Cell law: total energy eps + <u^2>/2, flux R p* v."""
    return _cell_law(rc, rc.e_tot[:-1], rc.e_tot[1:], rc.big_r_star * rc.v)


def _nodal(law: LawId, rc: _Recomputed) -> _Terms | str:
    """Nodal laws (plane geometry only), density d and flux c p*, weighted by
    nodal masses.  MOMENTUM: d = u, c = 1; CENTER_OF_MASS: d = r - t u,
    c = -t^{(1/2)}."""
    if rc.params.n != 0:
        return f"{law.value.replace('_', '-')} balance needs n=0, run has n={rc.params.n}"
    if law is LawId.MOMENTUM:
        c, d = 1.0, rc.u
    else:
        c, d = -rc.t_half, rc.r - rc.t * rc.u
    d_lo, d_hi = d[:-1], d[1:]
    res = ((d_hi - d_lo)[:, 1:-1] / rc.tau
           + c * (rc.p_eff[:, 1:] - rc.p_eff[:, :-1]) / rc.spacings)
    flux = c * rc.star[:, [0, -1]]
    return _Terms(rc.nodal_masses, d_lo, d_hi, res, flux[:, 0].tolist(), flux[:, 1].tolist())


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
    params = rc.params
    if rc.ru is None:
        rc.ru = cell_average(rc.r * rc.u)
    r_half = 0.5 * (rc.r[:-1] + rc.r[1:])
    if law is LawId.ADDITIONAL_1:
        flux = rc.big_r_star * (2.0 * rc.t_half * rc.v - r_half)
        d = 2.0 * rc.t * rc.e_tot - rc.ru
    else:
        flux = rc.big_r_star * (rc.t_sq_half * rc.v - rc.t_half * r_half)
        d = rc.t_sq * rc.e_tot - rc.t * rc.ru + 0.5 * cell_average(rc.r * rc.r)
    d_lo, d_hi = d[:-1], d[1:]
    per_step = law is LawId.ADDITIONAL_2 and include_correction
    if per_step:
        d_lo, d_hi = d_lo + rc.correction * rc.ke[:-1], d_hi + rc.correction * rc.ke[1:]
    note = f"gamma={params.gamma!r}, gamma_star={params.gamma_star!r}, visc_nu={params.visc_nu!r}"
    at_star = math.isclose(params.gamma, params.gamma_star, rel_tol=1e-12)
    return _cell_law(rc, d_lo, d_hi, flux, per_step,
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


def audit_all(views: TwoLayerView | Sequence[TwoLayerView], params: SchemeParams,
              laws: tuple[LawId, ...] | list[LawId] = ALL_LAWS, *,
              lo_totals: dict | None = None) -> list[ConservationBudget]:
    """Audit the selected laws over consecutive steps, step-major and in fixed
    law order (ALL_LAWS) within a step.

    views is a sequence of TwoLayerViews with views[k].hi is views[k+1].lo, or
    one view.  lo_totals maps a law to the first step's density_sum_lo: the
    density_sum_hi this function gave for the step ending on views[0].lo, so bit
    for bit a fresh sum.  ADDITIONAL_2's is ignored: its density holds each
    step's tau^2/8 term.
    """
    rc = _Recomputed(views, params)
    n_steps = len(rc.views)
    carried = {k: v for k, v in (lo_totals or {}).items() if k is not LawId.ADDITIONAL_2}
    terms = [(law, _LAWS[law](rc)) for law in ALL_LAWS if law in laws]
    # weighted density rows, summed in one kernel call: each layer's once (the
    # first unless carried), or each step's lo and hi where the step changes it
    blocks = []
    for law, t in terms:
        if isinstance(t, _Terms):
            if law not in carried:
                blocks.append(t.weights * (t.d_lo if t.per_step else t.d_lo[:1]))
            blocks.append(t.weights * t.d_hi)
    totals = iter(exact_sums([row for block in blocks for row in block]))
    taus = rc.tau.ravel().tolist()
    by_law = []
    for law, t in terms:
        if isinstance(t, str):
            by_law.append([ConservationBudget(law=law, applicable=False, note=t)
                           for _ in range(n_steps)])
            continue
        if t.per_step:
            sums_lo = list(itertools.islice(totals, n_steps))
            sums_hi = list(itertools.islice(totals, n_steps))
        else:
            first = carried[law] if law in carried else next(totals)
            sums_hi = list(itertools.islice(totals, n_steps))
            sums_lo = [first, *sums_hi[:-1]]
        budgets = []
        for tau, left, right, sum_lo, sum_hi, res, res_max in zip(
                taus, t.flux_left, t.flux_right, sums_lo, sums_hi, t.residuals,
                np.abs(t.residuals).max(axis=1).tolist()):
            net = right - left
            defect = abs(sum_hi - sum_lo + tau * net)
            scale = max(abs(sum_lo), abs(sum_hi), tau * (abs(left) + abs(right)))
            budgets.append(ConservationBudget(
                law=law, applicable=True, expected_zero=t.expected_zero,
                per_cell_residual_max=res_max,
                density_sum_lo=sum_lo, density_sum_hi=sum_hi,
                boundary_flux_net=net, identity_defect=defect,
                relative_defect=defect / scale if scale > 0.0 else 0.0,
                note=t.note, residuals=res))
        by_law.append(budgets)
    return [budget for step_budgets in zip(*by_law) for budget in step_budgets]
