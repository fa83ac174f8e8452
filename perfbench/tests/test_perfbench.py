"""Tests of the benchmark itself, at tiny N.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/tests
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402


def copy_checkout(dest: Path, with_sources: bool = True) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    skip = shutil.ignore_patterns("__pycache__")
    shutil.copytree(BENCH, dest / "perfbench", ignore=skip)
    if with_sources:
        shutil.copytree(ROOT / "src", dest / "src", ignore=skip)
    return dest


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def tiny(workload, *args, cwd=ROOT):
    proc = bench(
        "--workload", workload, "--N", str(run.WORKLOADS[workload]["test_N"]),
        "--seconds", "0", *args, cwd=cwd,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return proc, result


def declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_printed_with_its_unit(trace, kind):
    proc, result = tiny("short-T-ex1", "--seed", "0", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    units = declared(kind)
    assert {k: m["unit"] for k, m in result["metrics"].items()} == units
    lines = proc.stdout.splitlines()
    for name, unit in units.items():
        assert any(
            line.split()[:1] == [name] and f" {unit} (median of " in line for line in lines
        ), name
        assert isinstance(result["metrics"][name]["value"], (int, float))


def test_perturbed_reference_fails_the_gate(tmp_path):
    tables = json.loads(run.REFERENCES.read_text())
    N = str(run.WORKLOADS["short-T-ex1"]["test_N"])
    cells = tables["short-T-ex1"][N]["0"]["cells"]
    key = sorted(cells)[0]
    cells[key][0] *= 1.0 + 1e-6
    checkout = copy_checkout(tmp_path)
    (checkout / "perfbench" / "references.json").write_text(json.dumps(tables))
    proc, result = tiny("short-T-ex1", "--seed", "0", cwd=checkout)
    assert proc.returncode == 1
    assert result["correct"] is False
    assert result["failed"] > 0
    assert "result_rel_dev" in proc.stderr


def test_held_out_seed_runs_clean():
    proc, result = tiny("short-T-ex1", "--seed", "1")
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0
    assert "reference seed 1704" in proc.stdout


def test_traced_loop_reproduces_the_two_worker_study():
    proc, result = tiny("paper-ex1-2w", "--seed", "2", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0
    saved = json.loads(
        (ROOT / ".bench_out" / "paper-ex1-2w-seed2-trace1" / "result.json").read_text()
    )
    assert all(s["traced_matches"] and s["workers_match"] for s in saved["studies"])
    assert saved["manifest"]["workers"] == run.workers_for("paper-ex1-2w")


def test_gate_tolerance_separates_rounding_from_changed_draws():
    ref = {"250/classical": [0.01, 0.002]}
    rounded = {"250/classical": [0.01 * (1 + 4e-16), 0.002]}
    redrawn = {"250/classical": [0.0102, 0.002]}
    assert run.rel_dev(rounded, ref) <= run.GATE_TOLERANCE
    assert run.rel_dev(redrawn, ref) > run.GATE_TOLERANCE
    assert run.rel_dev({}, ref) == float("inf")


def test_fails_without_the_package_sources(tmp_path):
    copy_checkout(tmp_path, with_sources=False)
    proc = bench("--workload", "short-T-ex1", "--seed", "0", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
