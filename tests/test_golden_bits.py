"""Golden bits: three short runs whose final layer, ledger lines and step
reports are pinned by sha256, and every file one of them writes.

A change that claims to leave the arithmetic unchanged (a reordering of work,
a cached constant, a shared intermediate) must keep every digest.  A change
that alters the arithmetic on purpose must say so and re-pin them.
"""

import hashlib
import json

import numpy as np
import pytest

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
}

#: run -> (final layer, ledger lines, step reports); recorded on the code
#: before Newton and the post-accept check shared one step system
GOLDEN = {
    "plane-pointwise-pulse": (
        "cb4834963d741cc89667156582ada504f0d64a4861b856eafa9835a00c365782",
        "6a93f73d89e28cfe83a241a2381bf9d45aa4ce8036cead05380091cda93ea714",
        "fbfd10e1566ec0bb20c447ca7656fbec100248891ef30f042974bfea99632c81",
    ),
    "plane-viscous-sod": (
        "96f0ad9b1372c1bc7f4ab7d6da6abf5e7da39e3689f7cd90cac067a7bc48111b",
        "f8b650ccab5fd16b1c9a179990468b1f446eade3f97f7d52af56e5c9011ffa12",
        "1e34b9b812e723949b7307b92345df74f78acbc5ee9863af82180eddc10f34f8",
    ),
    "sphere-conservative-pulse-gamma-star": (
        "f9a58872a7a208cadedbfd346fb0f4ccff7dd635519ba295cf2131a6eca3901c",
        "9815e3a2db252f6a2cd3592ba841687b5d249f36df5cc5831b769d9defd9097e",
        "9f46369947bdd9d09e52d6f17f421a146ca8efcab64d6c7676a73b79a0f84821",
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
                             report.history, report.residual_max, report.reason)).encode())
        for name, rows in (report.residuals or {}).items():
            reports.update(name.encode() + rows.tobytes())
    return layer.hexdigest(), ledger.hexdigest(), reports.hexdigest()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_short_runs_keep_their_golden_bits(name):
    result = run_simulation(resolve_config(RUNS[name]))
    assert result.exit_code == 0 and result.steps == round(RUNS[name]["time"]["t_end"] / 1e-3)
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
