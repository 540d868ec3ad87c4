"""Self-tests of the benchmark at its tiny size.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "3", "--seconds", "1", "--size", "tiny", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    result = result_of(bench("--workload", workload, "--trace", trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
    if trace == "0":
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in expected)


def perturb(node):
    """Every stored number moved by half its size plus one; every digest zeroed."""
    if isinstance(node, dict):
        return {key: perturb(value) for key, value in node.items()}
    if isinstance(node, list):
        return [perturb(value) for value in node]
    if isinstance(node, float):
        return node * 1.5 + 1.0
    if isinstance(node, str) and len(node) == 64:
        return "0" * 64
    return node


@pytest.mark.parametrize("workload", WORKLOADS)
def test_perturbed_reference_raises_error_rate(workload, tmp_path):
    reference = json.loads((ROOT / "perfbench" / "reference" / "tiny.json").read_text())
    reference[workload] = perturb(reference[workload])
    perturbed = tmp_path / "reference.json"
    perturbed.write_text(json.dumps(reference))
    clean = result_of(bench("--workload", workload, "--trace", "0"))
    result = result_of(bench("--workload", workload, "--trace", "0", "--reference", str(perturbed)))
    assert clean["failed"] == 0
    assert result["failed"] / result["attempted"] > clean["failed"] / clean["attempted"]
    assert result["correct"] is False


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
