"""Golden bits: five short runs whose final layer, ledger lines and step
reports are pinned by sha256, and every file one of them writes.

A change that claims to leave the arithmetic unchanged (a reordering of work,
a cached constant, a shared intermediate) must keep every digest.  A change
that alters the arithmetic on purpose must say so and re-pin them.
"""

import hashlib
import json
import math

import numpy as np
import pytest

from polygas import cli
from polygas.cli import resolve_config, run_simulation

_WALLS = {"bc_left": {"kind": "wall"}, "bc_right": {"kind": "wall"}}

RUNS = {
    "plane-pointwise-pulse": {
        "problem": {"name": "smooth_pulse", "cells": 200, "gamma": 1.4,
                    "center": 0.47, "amplitude": 0.05},
        "params": {"n": 0, "gamma": 1.4, "alpha": 0.5, "eos_mode": "pointwise",
                   "newton_tol": 1e-14, **_WALLS},  # below reach: every step stops at the floor
        "time": {"t_end": 0.008, "tau": 1e-3},
        "audit": "all",
    },
    "sphere-conservative-pulse-gamma-star": {
        "problem": {"name": "smooth_pulse", "cells": 60, "gamma": 5.0 / 3.0,
                    "center": 0.52, "amplitude": 0.05},
        "params": {"n": 2, "gamma": 5.0 / 3.0, "alpha": 0.5, "eos_mode": "conservative",
                   **_WALLS},
        "time": {"t_end": 0.02, "tau": 1e-3},
        "audit": "all",
    },
    "plane-viscous-sod": {
        "problem": {"name": "sod", "cells": 200, "split": 0.5},
        "params": {"n": 0, "gamma": 1.4, "alpha": 0.5, "eos_mode": "conservative",
                   "visc_nu": 2.0, **_WALLS},
        "time": {"t_end": 0.008, "tau": 1e-3},
        "audit": "all",
    },
    # 25 steps, the last one half as long, audited in several batches
    "plane-conservative-pulse-gamma-star-batches": {
        "problem": {"name": "smooth_pulse", "cells": 400, "gamma": 3.0,
                    "center": 0.49, "amplitude": 0.05},
        "params": {"n": 0, "gamma": 3.0, "alpha": 0.5, "eos_mode": "conservative", **_WALLS},
        "time": {"t_end": 0.0245, "tau": 1e-3},
        "audit": "all",
    },
    # curved geometry with viscosity on the cells that compress, and a moving
    # pressure boundary: 8 steps of 3 Newton iterations each
    "cylinder-pointwise-viscous-pressure": {
        "problem": {"name": "smooth_pulse", "cells": 80, "center": 0.5, "amplitude": 0.05},
        "params": {"n": 1, "gamma": 1.4, "alpha": 0.5, "eos_mode": "pointwise",
                   "visc_nu": 2.0, "bc_left": {"kind": "wall"},
                   "bc_right": {"kind": "pressure",
                                "trace": {"kind": "linear", "p0": 1.0, "rate": 0.5}}},
        "time": {"t_end": 0.008, "tau": 1e-3},
        "audit": "all",
    },
}

#: run -> (final layer, ledger lines, step reports); the layer and ledger
#: digests were recorded on the code before Newton and the post-accept check
#: shared one step system (the batches run: before the audit took more than
#: one step per call), the report digests, over Newton's outcome alone, on
#: the code before step dropped that check; the cylinder run's three, on the
#: code before the plane and an inviscid run skipped their zero terms
GOLDEN = {
    "plane-pointwise-pulse": (
        "cb4834963d741cc89667156582ada504f0d64a4861b856eafa9835a00c365782",
        "6a93f73d89e28cfe83a241a2381bf9d45aa4ce8036cead05380091cda93ea714",
        "e67a457356e96929bbec064de1450ee6e8063f6953d1def03e9f8a3c594c9572",
    ),
    "plane-viscous-sod": (
        "96f0ad9b1372c1bc7f4ab7d6da6abf5e7da39e3689f7cd90cac067a7bc48111b",
        "f8b650ccab5fd16b1c9a179990468b1f446eade3f97f7d52af56e5c9011ffa12",
        "4907d99d066d38be21474623eddc17f3e1b2ee19dda3084813f5ebefa0ea2775",
    ),
    "sphere-conservative-pulse-gamma-star": (
        "f9a58872a7a208cadedbfd346fb0f4ccff7dd635519ba295cf2131a6eca3901c",
        "9815e3a2db252f6a2cd3592ba841687b5d249f36df5cc5831b769d9defd9097e",
        "b9fec1db4a0b4780e65d850951fe414699d7a88170d1b8099e745ec6ddf82a32",
    ),
    "plane-conservative-pulse-gamma-star-batches": (
        "2a7dd3ae94c65d1cb9fdcc09993a6cfdbc3d2f9ca3afd804cc45f47820a35b33",
        "9bc8184740d95029d3f0040a934f617ab200771d95224eee6fda2621378bb984",
        "29ff288d55ca2ceb941d634a782924cc3a3d28a3fdffd1105d9f48eb89b0a04d",
    ),
    "cylinder-pointwise-viscous-pressure": (
        "43423dc2cd4e56a192f5c718911a796760a68fde3333529e5138ce2ce015a32e",
        "f92f9f0754c522a7d41d1d82512fa492f168a72854d1f87430447eaa1879c5fe",
        "00e6e8126a55b3f1f7671a3866612440e0dba1c2bc4457af38a8a426544c5e4c",
    ),
}


def _digests(result) -> tuple[str, str, str]:
    final = result.final_layer
    layer = hashlib.sha256(np.float64(final.t).tobytes())
    for name in ("r", "u", "rho", "p", "eps"):
        layer.update(getattr(final, name).tobytes())
    ledger = hashlib.sha256("".join(json.dumps(r) + "\n" for r in result.records).encode())
    reports = hashlib.sha256()
    for report in result.reports:
        reports.update(repr((report.accepted, report.iterations, report.final_residual_norm,
                             report.history, report.reason)).encode())
    return layer.hexdigest(), ledger.hexdigest(), reports.hexdigest()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_short_runs_keep_their_golden_bits(monkeypatch, name):
    batches = []

    def captured(views, *args, _real=cli.audit_all, **kwargs):
        batches.append(len(views))
        return _real(views, *args, **kwargs)
    monkeypatch.setattr(cli, "audit_all", captured)
    result = run_simulation(resolve_config(RUNS[name]))
    steps = math.ceil(RUNS[name]["time"]["t_end"] / 1e-3 - 1e-6)
    assert result.exit_code == 0 and result.steps == steps
    if name.endswith("-batches"):
        # three batches or more, the last one partial and ending on a short step
        assert len(batches) >= 3 and batches[-1] < batches[0]
        assert result.records[-1]["tau"] < 1e-3
    if name.startswith("cylinder"):
        assert all(report.iterations == 3 for report in result.reports)
        assert result.final_layer.u[-1] != 0.0  # the pressure boundary moves
    assert _digests(result) == GOLDEN[name]


#: sha256 over the name and bytes of every file the plane-viscous-sod run
#: writes with a snapshot every step (snapshots, ledger, summary), in name
#: order; recorded on the code before a snapshot column reused the spellings
#: of its previous write
GOLDEN_FILES = "9fb656086bf771c295df66936775f8f5d6105dce5600f1910986cbfb349e9f59"


def test_written_files_keep_their_golden_bits(tmp_path):
    result = run_simulation(resolve_config({**RUNS["plane-viscous-sod"], "snapshot_every": 1}),
                            out_dir=tmp_path)
    assert result.exit_code == 0
    digest = hashlib.sha256()
    files = sorted(tmp_path.iterdir())
    assert len(files) == 3 * 9 + 2  # steps 0-8, then the ledger and the summary
    for path in files:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    assert digest.hexdigest() == GOLDEN_FILES
