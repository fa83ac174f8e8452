"""Benchmark of the arh1bench Monte Carlo study.

Run from the root of a checkout:

    python3 perfbench/run.py --workload short-T-ex1 --seed 3 --seconds 20 --trace 0

Each workload is one study configuration (example, T grid, N, rho mode,
workers).  A run first performs a gate study at a recorded reference seed
and compares its EFMSE table with ``references.json``.  It then repeats the
study at ``--seed``, each time in a fresh interpreter, until ``--seconds``
have passed, and reports medians.  With ``--trace 1`` each repetition also
replays the replication loop with one span per public call and the run
reports the per-layer split instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Everything else
(per-study samples, the run manifest, spans, the emitted reports) is
written under ``.bench_out/`` in the checkout.

``--record-references`` re-records ``references.json`` from the current
code.  Only do that when a change alters the output on purpose, and say so.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCES = HERE / "references.json"

DEFAULT_T_GRID = (250, 500, 750, 1000, 1250, 1500, 1750, 2000)

# N is rescaled from the paper's 1000 so that one study takes 2-3 s on one
# core; ``test_N`` keeps the benchmark's own tests fast.
WORKLOADS = {
    "paper-ex1-2w": {
        "config": {"example": 1, "T_grid": DEFAULT_T_GRID, "rho_mode": "redraw"},
        "N": 500, "test_N": 4, "workers": 2,
    },
    "short-T-ex1": {
        "config": {"example": 1, "T_grid": (20, 40, 60, 80, 100), "rho_mode": "redraw"},
        "N": 2500, "test_N": 8, "workers": 1,
    },
    "long-T-ex3-fixed": {
        "config": {
            "example": 3, "T_grid": (25000, 50000, 100000),
            "rho_mode": "fixed", "kT_rule": "power:4.1",
        },
        "N": 8, "test_N": 1, "workers": 1,
    },
}

# Default seed and a held-out one; a run's gate study uses
# REFERENCE_SEEDS[seed % 2], so both are exercised across seeds.
REFERENCE_SEEDS = (0, 1704)

# Largest relative deviation of an EFMSE cell from its reference.  Monte
# Carlo error at these N is 1e-2 or more, so a changed draw order fails,
# while a reordered floating-point sum (about 1e-15) passes.
GATE_TOLERANCE = 1e-9

MIN_STUDIES = 2
RUN_BUDGET_S = 150.0  # a run must end within 180 s


def declared_units() -> dict:
    """Metric units by name and kind, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        kind: {m["name"]: m["unit"] for m in spec[kind]}
        for kind in ("end_to_end", "per_layer")
    }


class StudyFailed(RuntimeError):
    """A study process crashed, timed out or printed no result."""


def _child_env() -> dict:
    env = dict(os.environ)
    # One BLAS/OpenMP thread per process keeps the total within nproc.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _stop(proc) -> None:
    with contextlib.suppress(ProcessLookupError):
        os.killpg(proc.pid, signal.SIGKILL)
    proc.communicate()


def run_child(mode: str, request: dict, deadline: float) -> dict:
    """Run study.py in a fresh interpreter and return its JSON result.

    The child gets its own process group, so a timeout also stops its pool
    workers.
    """
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "study.py"), mode, json.dumps(request)],
        cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        _stop(proc)
        raise StudyFailed(f"{mode} study timed out") from None
    except BaseException:  # interrupted: leave no study or pool worker behind
        _stop(proc)
        raise
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = err.strip().splitlines()[-1:] or ["no output"]
        raise StudyFailed(f"{mode} study exited {proc.returncode}: {tail[0]}")
    return json.loads(lines[-1])


def study_config(workload: str, N: int, seed: int, output_dir: Path) -> dict:
    config = dict(WORKLOADS[workload]["config"], N=N, seed=seed)
    config["T_grid"] = list(config["T_grid"])
    config["output_dir"] = str(output_dir)
    return config


def rel_dev(cells: dict, reference: dict) -> float:
    """Largest relative deviation of any EFMSE cell from the reference."""
    if cells.keys() != reference.keys():
        return float("inf")
    return max(
        abs(got - want) / abs(want)
        for key in reference
        for got, want in zip(cells[key], reference[key])
    )


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def workers_for(workload: str) -> int:
    return max(1, min(WORKLOADS[workload]["workers"], os.cpu_count() or 1))


def _median(values):
    return statistics.median(values) if values else float("nan")


def end_to_end(studies: list[dict], workers: int) -> dict:
    return {
        "wall_s": _median([s["wall_s"] for s in studies]),
        "samples_per_s": _median([s["samples"] / s["wall_s"] for s in studies]),
        "cpu_s": _median([s["cpu_s"] for s in studies]),
        "cpu_util": _median([s["cpu_s"] / (workers * s["wall_s"]) for s in studies]),
        "peak_rss_mb": _median([s["peak_rss_mb"] for s in studies]),
        "setup_s": _median([s["setup_s"] for s in studies]),
    }


def per_layer(traces: list[dict], names) -> dict:
    # median_low reports an observed value, so counts stay whole numbers
    return {
        name: statistics.median_low([t["layers"][name] for t in traces]) if traces
        else float("nan")
        for name in names
    }


def record_references() -> int:
    """Write references.json from gate studies of the current code."""
    deadline = time.monotonic() + 3600
    tables = {}
    for workload, spec in WORKLOADS.items():
        for N in (spec["N"], spec["test_N"]):
            for seed in REFERENCE_SEEDS:
                out = ROOT / ".bench_out" / "references" / f"{workload}-N{N}-seed{seed}"
                request = {
                    "config": study_config(workload, N, seed, out),
                    "workers": workers_for(workload),
                }
                result = run_child("study", request, deadline)
                if result["error"] or result["failed"]:
                    print(f"{workload} N={N} seed={seed}: {result['error']}", file=sys.stderr)
                    return 1
                tables.setdefault(workload, {}).setdefault(str(N), {})[str(seed)] = {
                    "sha256": result["sha256"], "cells": result["cells"],
                }
                print(f"recorded {workload} N={N} seed={seed}", file=sys.stderr)
    REFERENCES.write_text(json.dumps(tables, indent=1, sort_keys=True) + "\n")
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--N", type=int, help="replications per T (default: the workload's)")
    parser.add_argument("--record-references", action="store_true",
                        help="re-record the reference tables and exit")
    args = parser.parse_args(argv)
    if not args.record_references and args.workload is None:
        parser.error("--workload is required")
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in 64 bits")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "arh1bench" / "__init__.py").is_file():
        print(f"error: no arh1bench sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record_references:
        return record_references()

    deadline = time.monotonic() + RUN_BUDGET_S
    workload, seed = args.workload, args.seed
    N = args.N or WORKLOADS[workload]["N"]
    workers = workers_for(workload)
    out = ROOT / ".bench_out" / f"{workload}-seed{seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    attempted = failed = 0
    errors = []

    # Gate study at a recorded seed.  It also warms the file cache and
    # byte-code cache, so it is not one of the measured samples.
    ref_seed = REFERENCE_SEEDS[seed % 2]
    reference = (
        json.loads(REFERENCES.read_text())
        .get(workload, {}).get(str(N), {}).get(str(ref_seed))
    )
    gate_request = {"config": study_config(workload, N, ref_seed, out / "gate"),
                    "workers": workers}
    gate_replications = N * len(gate_request["config"]["T_grid"])
    attempted += gate_replications
    try:
        gate = run_child("study", gate_request, deadline)
    except StudyFailed as exc:
        gate = {"error": str(exc), "failed": gate_replications}
    if gate["error"]:
        errors.append(f"gate: {gate['error']}")
    if reference is None:
        errors.append(f"no reference recorded for N={N} seed={ref_seed}")
    deviation = float("inf")
    if reference is not None and "cells" in gate:
        deviation = rel_dev(gate["cells"], reference["cells"])
        if deviation > GATE_TOLERANCE:
            errors.append(f"gate: result_rel_dev {deviation:.3g} > {GATE_TOLERANCE:g}")
    # A gate that fails for any reason counts all its replications as failed.
    failed += gate["failed"] if deviation <= GATE_TOLERANCE else gate_replications

    # Measured studies at the run's seed, each in a fresh interpreter.
    mode = "trace" if args.trace else "study"
    results = []
    measure_end = time.monotonic() + args.seconds
    i = 0
    while (time.monotonic() < measure_end or i < MIN_STUDIES) and time.monotonic() < deadline:
        request = {
            "config": study_config(workload, N, seed, out / f"{mode}-{i}"),
            "workers": workers,
            "spans_path": str(out / "spans.csv"),
        }
        replications = N * len(request["config"]["T_grid"])
        try:
            result = run_child(mode, request, deadline)
        except StudyFailed as exc:
            attempted += replications
            failed += replications
            errors.append(str(exc))
        else:
            attempted += result["attempted"]
            failed += result["failed"]
            if result["error"]:
                errors.append(result["error"])
            else:
                results.append(result)
        i += 1

    # Repeated studies of one seed must give identical bytes; in a traced
    # run the traced loop must also equal the untraced run exactly.
    hashes = sorted({r["sha256"] for r in results})
    for r in results[1:]:
        if r["sha256"] != results[0]["sha256"]:
            failed += r["attempted"]
    if len(hashes) > 1:
        errors.append(f"repeated studies disagree: {hashes}")
    for r in results:
        if args.trace and not (r["traced_matches"] and r["workers_match"]):
            failed += r["attempted"]
            errors.append("traced loop or 1-worker run differs from the untraced output")

    if args.trace:
        units = declared_units()["per_layer"]
        metrics = per_layer(results, units)
    else:
        units = declared_units()["end_to_end"]
        metrics = end_to_end(results, workers)
    correct = not errors and bool(results)
    manifest = {
        "workload": workload,
        "seed": seed,
        "config": study_config(workload, N, seed, out),
        "workers": workers,
        "trace": args.trace,
        "seconds": args.seconds,
        "reference_seed": ref_seed,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "versions": (results[0] if results else gate).get("versions"),
        "git_commit": git_commit(),
        "platform": platform.platform(),
    }
    report = {
        "manifest": manifest,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "result_rel_dev": deviation,
        "gate_tolerance": GATE_TOLERANCE,
        "efmse_sha256": hashes,
        "errors": errors,
        "metrics": {k: {"value": v, "unit": units[k], "n": len(results)}
                    for k, v in metrics.items()},
        "studies": results,
    }
    (out / "result.json").write_text(json.dumps(report, indent=1) + "\n")

    for name, m in report["metrics"].items():
        print(f"{name:30s} {m['value']:.6g} {m['unit']} (median of {m['n']})")
    print(f"{'fail_frac':30s} {report['fail_frac']:.6g} ({failed} of {attempted} replications)")
    print(f"{'result_rel_dev':30s} {deviation:.3g} (gate {GATE_TOLERANCE:g}, "
          f"reference seed {ref_seed})")
    print(f"{'efmse.csv sha256':30s} {' '.join(hashes) or 'none'}")
    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
