"""The public surface: what `import polygas` exports, and the README example."""

import dataclasses
import importlib
import re
from pathlib import Path

import polygas
from polygas import conservation

README = Path(__file__).resolve().parents[1] / "README.md"

PUBLIC = [
    "ALL_LAWS",
    "BoundaryCondition",
    "ConfigError",
    "ConservationBudget",
    "EulerProfile",
    "GridLayer",
    "LawId",
    "LayerError",
    "MassMesh",
    "MeshError",
    "PressureTrace",
    "ProblemError",
    "RunConfig",
    "SchemeParams",
    "SimulationResult",
    "SnapshotError",
    "StepRejected",
    "StepReport",
    "TwoLayerView",
    "audit_all",
    "audit_snapshots",
    "cell_average",
    "convergence_study",
    "interp_nodal_pressure",
    "invert_mass_coordinate",
    "iter_steps",
    "load_config",
    "make_initial_layer",
    "mass_coordinate",
    "problem_library",
    "r_factor",
    "read_snapshot",
    "read_snapshot_meta",
    "resolve_config",
    "run_simulation",
    "step",
    "step_residuals",
    "with_resolution",
    "write_ledger",
    "write_snapshot",
]


def test_public_names_are_pinned():
    assert sorted(polygas.__all__) == PUBLIC


def test_audit_all_is_the_one_audit_entry():
    # the audit's only public functions: audit_all and the ledger writer
    functions = {name for name, obj in vars(conservation).items()
                 if callable(obj) and not isinstance(obj, type) and not name.startswith("_")
                 and getattr(obj, "__module__", None) == conservation.__name__}
    assert functions == {"audit_all", "write_ledger"}


def test_step_report_keeps_no_residual_rows():
    # no per-row residual arrays; residuals stays, always None, only while the
    # benchmark's retained-memory count reads it
    names = [f.name for f in dataclasses.fields(polygas.StepReport)]
    assert names == ["accepted", "iterations", "final_residual_norm", "history", "reason",
                     "residuals"]


def test_every_public_name_imports():
    module = importlib.import_module("polygas")
    for name in polygas.__all__:
        assert getattr(module, name) is not None, name
    namespace: dict = {}
    exec("from polygas import *", namespace)
    assert set(PUBLIC) <= set(namespace)


def test_readme_library_example_runs(capsys):
    text = README.read_text()
    section = text[text.index("## Library use"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, f"{README}:Library use", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    # three steps audited in one call, step-major
    assert [line.split()[:2] for line in lines] == [
        [law.value, f"step={k}"] for k in range(3) for law in polygas.ALL_LAWS]
