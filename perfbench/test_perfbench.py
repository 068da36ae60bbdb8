"""Tests of the benchmark itself, on tiny inputs.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
ENV_KEYS = {"nproc", "python", "numpy", "scipy", "blas_threads", "seed", "commit"}


def bench(*argv: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.3",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    *_, env_line, result_line = proc.stdout.splitlines()
    assert ENV_KEYS <= set(json.loads(env_line)["env"])
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    if not trace:
        assert result["metrics"]["ok_frac"]["value"] == 1.0


def test_declared_metrics_match_the_code():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == spans.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)


def _corrupt_second_ledger_line(set_dir: Path) -> None:
    ledger = set_dir / "ledger.jsonl"
    lines = ledger.read_text().splitlines(keepends=True)
    lines[1] = lines[1].replace('"law": "', '"law": "x', 1)
    ledger.write_text("".join(lines))


def test_one_corrupted_ledger_line_fails_the_replay():
    args = run.parse_args(["--workload", "sod-replay", "--seconds", "0.2", "--smoke"])
    line, record = run.run(args, tamper=_corrupt_second_ledger_line)
    passes = len(record["blocks"]["plain"]) * run.REPLAY_PASSES
    assert not line["correct"]
    assert line["failed"] == passes  # the first pair, once per pass
    assert line["metrics"]["ok_frac"]["value"] < 1.0


def test_a_layer_that_records_no_span_fails_the_run(monkeypatch):
    monkeypatch.delitem(spans.PATCHED, "step")
    args = run.parse_args(["--workload", "pulse-sphere-100", "--seconds", "0.2",
                           "--trace", "1", "--smoke"])
    with pytest.raises(run.SetupFailed, match="scheme.step"):
        run.run(args)


def test_without_the_sources_the_benchmark_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "sod-replay", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_seed_draws_are_reproducible_and_in_range():
    assert workloads.build("sod-replay", 7) == workloads.build("sod-replay", 7)
    for seed in range(50):
        d = workloads.draw(seed)
        assert 0.45 <= d["center"] <= 0.55
        assert 0.04 <= d["amplitude"] <= 0.06
        assert 0.45 <= d["split"] <= 0.55


def test_self_time_subtracts_direct_children():
    rec = spans.SpanRecorder()
    rec.spans = [spans.Span(0, "cli.run_simulation", 0.0, 10.0, None, 0),
                 spans.Span(1, "scheme.step", 1.0, 4.0, 0, 0),
                 spans.Span(2, "conservation.audit_all", 5.0, 6.0, 0, 0)]
    assert rec.self_times() == {0: 6.0, 1: 3.0, 2: 1.0}
