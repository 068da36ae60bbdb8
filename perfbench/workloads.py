"""Seeded workload definitions for the polygas benchmark.

Each workload is a raw config mapping, exactly as a user would hand it to
``polygas.cli.resolve_config``, plus what the benchmark needs to check and
trace it: the number of accepted steps one ``run_simulation`` call must
produce and the layer spans a traced run must record.  The seed draws the
pulse centre and amplitude and the Sod split point; nothing else varies, so
one seed always gives the same inputs.
"""

import random
from dataclasses import dataclass

DEFAULT_SEED = 0

#: accepted final layers agree with the stored reference to this share of
#: each field's largest magnitude.  On the default seed, loosening Newton's
#: stopping test a hundredfold moves no field by more than 1.4e-10 of that
#: scale, while swapping the energy closure moves some field by 2.4e-7 or
#: more, so 1e-8 passes round-off changes and catches a different scheme.
REFERENCE_RTOL = 1e-8

TAU = 1e-3

NAMES = ("pulse-plane-1600", "pulse-sphere-100", "sod-snapshots", "sod-replay")

# layer spans every traced run of the workload must record
_STEPPING_SPANS = ("cli.run_simulation", "problems.make_initial_layer",
                   "scheme.step", "conservation.audit_all")
_WRITING_SPANS = ("conservation.write_ledger", "snapshots.write_snapshot")
_REPLAY_SPANS = ("cli.audit_snapshots", "snapshots.read_snapshot",
                 "conservation.audit_all")


@dataclass(frozen=True)
class Workload:
    """One benchmark input.

    raw      : config mapping passed to polygas.cli.resolve_config
    steps    : accepted steps of one run_simulation call over raw
    writes   : the run writes snapshots and a ledger (needs an out_dir)
    replay   : the measured operation audits pairs of a snapshot set written
               by running raw during set-up, instead of stepping
    spans    : layer spans a traced run must record
    draws    : the seeded values, for the environment record
    reference: key of the stored final layer this run must reproduce on the
               default seed
    """

    name: str
    seed: int
    raw: dict
    steps: int
    writes: bool
    replay: bool
    spans: tuple[str, ...]
    draws: dict
    reference: str


def draw(seed: int) -> dict:
    """The seeded problem options; the same seed always gives the same values."""
    rng = random.Random(seed)
    return {
        "center": rng.uniform(0.45, 0.55),
        "amplitude": rng.uniform(0.04, 0.06),
        "split": rng.uniform(0.45, 0.55),
    }


def _raw(problem: dict, params: dict, steps: int, snapshot_every: int = 0) -> dict:
    raw = {
        "problem": problem,
        "params": dict(params, bc_left={"kind": "wall"}, bc_right={"kind": "wall"}),
        "time": {"t_end": steps * TAU, "tau": TAU},
        "audit": "all",
    }
    if snapshot_every:
        raw["snapshot_every"] = snapshot_every
    return raw


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    """The workload `name` for `seed`; `tiny` shrinks it for smoke tests."""
    d = draw(seed)
    if name in ("pulse-plane-1600", "pulse-sphere-100"):
        plane = name == "pulse-plane-1600"
        gamma = 1.4 if plane else 5.0 / 3.0
        cells, steps = (1600, 10) if plane else (100, 50)
        if tiny:
            cells, steps = (64, 3) if plane else (20, 5)
        problem = {"name": "smooth_pulse", "cells": cells, "gamma": gamma,
                   "center": d["center"], "amplitude": d["amplitude"]}
        params = {"n": 0 if plane else 2, "gamma": gamma, "alpha": 0.5,
                  "eos_mode": "pointwise" if plane else "conservative"}
        return Workload(name, seed, _raw(problem, params, steps), steps,
                        writes=False, replay=False, spans=_STEPPING_SPANS,
                        draws={"center": d["center"], "amplitude": d["amplitude"]},
                        reference=name)
    if name in ("sod-snapshots", "sod-replay"):
        cells, steps = (40, 3) if tiny else (400, 10)
        problem = {"name": "sod", "cells": cells, "split": d["split"]}
        params = {"n": 0, "gamma": 1.4, "alpha": 0.5, "eos_mode": "conservative",
                  "visc_nu": 2.0}
        replay = name == "sod-replay"
        spans = _REPLAY_SPANS if replay else _STEPPING_SPANS + _WRITING_SPANS
        return Workload(name, seed, _raw(problem, params, steps, snapshot_every=1), steps,
                        writes=True, replay=replay, spans=spans,
                        draws={"split": d["split"]}, reference="sod-snapshots")
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(NAMES)}")
