"""Golden bits: five short runs whose final layer, ledger lines and step
reports are pinned by sha256, and every file one of them writes.

A change that claims to leave the arithmetic unchanged (a reordering of work,
a cached constant, a shared intermediate) must keep every digest.  A change
that alters the arithmetic on purpose must say so and re-pin them.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

try:
    from numpy._core import _multiarray_umath
except ImportError:  # numpy < 2
    from numpy.core import _multiarray_umath

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
#: code before the plane and an inviscid run skipped their zero terms.  Every
#: final-layer digest was recorded again once Newton set node-velocity updates
#: below 2**-104 to zero, which moves only u (the other two digests of the
#: plane and cylinder runs were kept as the check of that), and the sphere
#: run's three once its mass mesh formed r**3 as products
GOLDEN = {
    "plane-pointwise-pulse": (
        "7a33d11227a0a39bb559b5815e1b9524674d314af31038355a19a0d451c78f86",
        "6a93f73d89e28cfe83a241a2381bf9d45aa4ce8036cead05380091cda93ea714",
        "e67a457356e96929bbec064de1450ee6e8063f6953d1def03e9f8a3c594c9572",
    ),
    "plane-viscous-sod": (
        "841ce4dad68a5bd2752590d18e264628b4743298d27c7d8549a55b5787137eda",
        "f8b650ccab5fd16b1c9a179990468b1f446eade3f97f7d52af56e5c9011ffa12",
        "4907d99d066d38be21474623eddc17f3e1b2ee19dda3084813f5ebefa0ea2775",
    ),
    "sphere-conservative-pulse-gamma-star": (
        "b7233f6bccf14c5c69375c0d0332a542ad6c02c20cd12b12f41542a5f40821aa",
        "177b52cbf15aa11bbb7119af003297ef90b297ba6615eed0a1d1fccc4cb2cbef",
        "d0deb05a1c1226881949e24ff47041b9f2395bf04f915634ef8e70c16d073d01",
    ),
    "plane-conservative-pulse-gamma-star-batches": (
        "b6073d5b3e21251d1ea5bb00f421a1dd30f5fbfdcb8ff5000ddfbb1046c13282",
        "9bc8184740d95029d3f0040a934f617ab200771d95224eee6fda2621378bb984",
        "29ff288d55ca2ceb941d634a782924cc3a3d28a3fdffd1105d9f48eb89b0a04d",
    ),
    "cylinder-pointwise-viscous-pressure": (
        "33e1c8d59e725031114b7795fce6a9a7fdb10058abf7e26fda7e6d23b93dc1ad",
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
#: order; recorded once Newton set node-velocity updates below 2**-104 to zero
GOLDEN_FILES = "11ddc467d95ac88841e154db03f190b6c6f713aa8c4c8143731f9a44d63d8d3e"


def _files_digest(out_dir: Path) -> str:
    result = run_simulation(resolve_config({**RUNS["plane-viscous-sod"], "snapshot_every": 1}),
                            out_dir=out_dir)
    assert result.exit_code == 0
    digest = hashlib.sha256()
    files = sorted(out_dir.iterdir())
    assert len(files) == 3 * 9 + 2  # steps 0-8, then the ledger and the summary
    for path in files:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def test_written_files_keep_their_golden_bits(tmp_path):
    assert _files_digest(tmp_path) == GOLDEN_FILES


def _mass_meshes() -> dict[str, str]:
    """sha256 of the node radii of 330-cell curved sod meshes built by both
    mass-coordinate forms, whose radii are roots of the swept volume: the
    uniform s_min/s_max/cells form, with a node on the density jump, and an
    s_nodes form with s growing as x**3 on the dense side, so the sphere's
    nodes there are uniform in r and the smallest cube roots (of about 1e-7),
    where numpy's t ** (1/3) is furthest off, are taken too."""
    digests = {}
    x = np.linspace(0.0, 1.0, 111)
    for n in (1, 2):
        jump, light = 0.5 ** (n + 1) / (n + 1), 0.125 * (1.0 - 0.5 ** (n + 1)) / (n + 1)
        nodes = np.concatenate((jump * (x * x * x),
                                jump + light * np.linspace(0.0, 1.0, 221)[1:] ** 2))
        for form, mesh in (("uniform", {"s_min": 0.0, "s_max": jump + light, "cells": 330}),
                           ("s_nodes", {"s_nodes": nodes.tolist()})):
            cfg = resolve_config({"problem": {"name": "sod"}, "params": {"n": n}, "mesh": mesh,
                                  "time": {"t_end": 0.01, "tau": 0.01}})
            digests[f"n={n} {form}"] = hashlib.sha256(cfg.profile.r_nodes.tobytes()).hexdigest()
    return digests


#: run in a process of its own; argv is an output directory.  Prints every
#: run's digests, the written files' digest and the mass meshes' as one JSON line
_CHILD = """
import json, sys
from pathlib import Path
import test_golden_bits as golden
from polygas.cli import resolve_config, run_simulation
runs = {name: golden._digests(run_simulation(resolve_config(cfg)))
        for name, cfg in golden.RUNS.items()}
print(json.dumps({"runs": runs, "files": golden._files_digest(Path(sys.argv[1])),
                  "meshes": golden._mass_meshes()}))
"""


def test_golden_bits_do_not_depend_on_the_host_simd(tmp_path):
    """numpy dispatches some float64 kernels (power, cbrt, exp) to SIMD code
    that rounds differently from libm; with every non-baseline target this
    host supports disabled, for the child alone, each digest is the same, and
    so are the radii of the curved mass-coordinate meshes.  On a host with
    none of them the child runs the same kernels."""
    targets = [name for name in _multiarray_umath.__cpu_dispatch__
               if _multiarray_umath.__cpu_features__.get(name)]
    paths = [str(Path(cli.__file__).resolve().parents[1]), str(Path(__file__).resolve().parent)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths),
               NPY_DISABLE_CPU_FEATURES=" ".join(targets))
    done = subprocess.run([sys.executable, "-W", "error", "-c", _CHILD, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    found = json.loads(done.stdout.splitlines()[-1])
    assert {name: tuple(digests) for name, digests in found["runs"].items()} == GOLDEN
    assert found["files"] == GOLDEN_FILES
    assert found["meshes"] == _mass_meshes()
