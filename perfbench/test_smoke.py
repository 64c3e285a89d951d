"""Smoke test of the benchmark harness on a tiny input set.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXPECTED = json.loads((BENCH / "expected.json").read_text())


def tiny(ops):
    """The cheap operations of an input set."""
    return [op for op in ops if op.size.get("g", 0) <= 8 or op.key.startswith("catalog:")]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_every_drawn_input_has_an_expected_result(workload, seed):
    keys = {op.key for op in workloads.build(workload, seed)}
    assert keys <= set(EXPECTED[workload])


def test_seed_fixes_the_input_set():
    for name in workloads.NAMES:
        first = [op.key for op in workloads.build(name, 7)]
        assert first == [op.key for op in workloads.build(name, 7)]


@pytest.mark.parametrize("workload", ["search", "algebra"])
def test_outputs_pass_their_checks(workload):
    ops = tiny(workloads.build(workload, 0))
    assert ops
    checked = run.Run(ops, EXPECTED[workload])
    checked.one_pass()
    assert checked.failures == []
    assert checked.attempted == len(ops)


def test_a_wrong_expected_value_counts_as_failed():
    ops = tiny(workloads.build("search", 0))[:1]
    wrong = {ops[0].key: {"count": -1, "sha256": ""}}
    checked = run.Run(ops, wrong)
    checked.one_pass()
    assert len(checked.failures) == 1


@pytest.mark.parametrize("trace", [0, 1])
def test_main_prints_every_metric(monkeypatch, trace):
    monkeypatch.setattr(workloads, "build", lambda name, seed: tiny(
        workloads.BUILDERS[name](workloads.random.Random(seed))))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", "search", "--seed", "3", "--seconds", "0",
                         "--trace", str(trace)])
    assert code == 0
    result = json.loads(out.getvalue().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    specs = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in specs]
    for m in specs:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        assert result["metrics"]["classifier.alpha_search.calls"]["value"] > 0
        assert result["metrics"]["curve_models.filtration_dims.self_s"]["value"] > 0
    # the tracer put the library's own functions back
    from gmspectra import classifier, curve_models, invariants
    assert invariants.filtration_dims is curve_models.filtration_dims
    assert not hasattr(classifier.alpha_search, "__wrapped__")


def test_refuses_a_checkout_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_predictions_name_existing_metrics_and_workloads():
    meta = json.loads((BENCH / "meta.json").read_text())
    layers = {m["name"] for m in SPEC["per_layer"]}
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    names = {w["name"] for w in SPEC["workloads"]}
    assert set(meta["workloads"]) == names
    for name, w in meta["workloads"].items():
        assert w["tail_percentile"] == workloads.TAIL[name]
    for p in meta["predictions"]:
        assert set(p["layer"]) <= layers
        assert set(p["moves"]) <= e2e
        assert set(p["on"]) <= names
