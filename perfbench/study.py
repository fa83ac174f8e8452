"""One measured study of arh1bench, run in a fresh interpreter.

Usage (normally started by ``run.py``, one process per study)::

    python3 perfbench/study.py study REQUEST_JSON
    python3 perfbench/study.py trace REQUEST_JSON

REQUEST_JSON holds ``config`` (a ``config_from_dict`` mapping, including
``output_dir``), ``workers`` and, for ``trace``, ``spans_path``.  The last
line of standard output is one JSON object with the measurements.

``study`` times what a user waits for: ``run_experiment`` plus
``emit_reports``, with CPU and peak memory from ``getrusage`` on this
process and its pool children.  ``trace`` runs the same study untraced,
then drives the replication loop itself through the package's public
functions with the streams ``run_experiment`` uses, recording one span
(name, start, end, parent) per call in memory and writing them out at the
end.  Nothing in the package is patched.
"""
from __future__ import annotations

import time

T_START = time.perf_counter()  # before any import the set-up time covers

import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def _import_package():
    """Import arh1bench from this checkout's sources, never an installed copy."""
    sys.path.insert(0, str(SRC))
    import arh1bench

    if Path(arh1bench.__file__).resolve().parent != SRC / "arh1bench":
        raise ImportError(f"arh1bench imported from {arh1bench.__file__}, not {SRC}")
    return arh1bench


class _AbortLog(logging.Handler):
    """Counts replications ``run_experiment`` drops as degenerate.

    The harness logs them as ``(T, count, omegas)`` and carries on, so the
    log record is the only place the count is visible from outside.
    """

    def __init__(self):
        super().__init__(logging.WARNING)
        self.aborted = 0

    def emit(self, record):
        if "degenerate replications" in record.msg and len(record.args) >= 2:
            self.aborted += int(record.args[1])


def _cells(reports) -> dict:
    return {f"{r.T}/{r.estimator}": [r.efmse_param, r.efmse_pred] for r in reports}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _replications(config) -> int:
    return config.N * len(config.T_grid)


def _samples(config, truncation_order) -> int:
    return sum(
        config.N * (T + 1) * truncation_order(T, config.kT_rule) for T in config.T_grid
    )


def _lost(pkg):
    # A study that raises one of these loses all its replications; the
    # benchmark records the error and goes on with the next study.
    return (pkg.AbortedReplicationsError, pkg.ComplexRootError, RuntimeError)


def run_study(request: dict) -> dict:
    pkg = _import_package()
    config = pkg.config_from_dict(request["config"])
    setup_s = time.perf_counter() - T_START
    workers = int(request["workers"])
    log = _AbortLog()
    logging.getLogger("arh1bench").addHandler(log)

    self0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    error = None
    try:
        reports = pkg.run_experiment(config, workers=workers)
        pkg.emit_reports(reports, config.formats, config.output_dir)
    except _lost(pkg) as exc:
        error = f"{type(exc).__name__}: {exc}"
    wall_s = time.perf_counter() - t0
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)

    cpu_s = sum(
        getattr(b, f) - getattr(a, f)
        for a, b in ((self0, self1), (kids0, kids1))
        for f in ("ru_utime", "ru_stime")
    )
    attempted = _replications(config)
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": max(self1.ru_maxrss, kids1.ru_maxrss) / 1024.0,
        "samples": _samples(config, pkg.truncation_order),
        "attempted": attempted,
        "failed": attempted if error else log.aborted,
        "error": error,
        "versions": _versions(),
    }
    if error is None:
        result["cells"] = _cells(reports)
        result["sha256"] = _sha256(Path(config.output_dir) / "efmse.csv")
    return result


def _versions() -> dict:
    import platform

    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


class Tracer:
    """In-memory spans: (id, name, start, end, parent id or -1)."""

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.counts: Counter = Counter()

    def open(self, name: str, parent: int) -> tuple[int, str, float, int]:
        self.spans.append(None)  # reserve the id; parents precede children
        return (len(self.spans) - 1, name, time.perf_counter(), parent)

    def close(self, handle) -> None:
        sid, name, start, parent = handle
        self.spans[sid] = (sid, name, start, time.perf_counter(), parent)

    def call(self, name: str, parent: int, fn, *args):
        handle = self.open(name, parent)
        try:
            return fn(*args)
        finally:
            self.close(handle)

    def totals(self) -> tuple[Counter, Counter]:
        """Summed duration and number of spans, by name."""
        seconds, calls = Counter(), Counter()
        for _, name, start, end, _ in self.spans:
            seconds[name] += end - start
            calls[name] += 1
        return seconds, calls

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start_s,end_s,parent\n")
            for sid, name, start, end, parent in self.spans:
                fh.write(f"{sid},{name},{start!r},{end!r},{parent}\n")


def traced_study(pkg, config, tracer: Tracer):
    """Replay ``run_experiment`` at one worker, one span per public call.

    Covers the built-in examples in ``redraw`` and ``fixed`` mode, which is
    what the workloads use.
    """
    import numpy as np

    from arh1bench.harness import EXAMPLE_EXPONENTS

    call = tracer.call
    loop = tracer.open("harness.traced_loop", -1)
    lid = loop[0]
    rule = config.kT_rule
    spec = pkg.SpectralModelSpec(
        law=pkg.EigenvalueLaw.power_law(EXAMPLE_EXPONENTS[config.example]),
        prior=pkg.PriorSpec(),
        k_max=max(pkg.truncation_order(T, rule) for T in config.T_grid),
        rho_mode=config.rho_mode,
        rho_values=config.rho_values,
    )
    fixed_real = None
    if spec.rho_mode == "fixed":
        rng = call("spectral_model.seed", lid, np.random.default_rng, [config.seed, 2])
        fixed_real = call("spectral_model.realize", lid, pkg.realize, spec, rng)

    reports = []
    for T in config.T_grid:
        block = tracer.open("harness.block", lid)
        bid = block[0]
        k_T = pkg.truncation_order(T, rule)
        if fixed_real is None:
            spec_T, real_T = dataclasses.replace(spec, k_max=k_T), None
        else:
            spec_T, real_T = spec, pkg.truncate_realization(fixed_real, k_T)
        est_c, est_b, truth, last = (np.empty((config.N, k_T)) for _ in range(4))
        ok = np.ones(config.N, dtype=bool)
        for i, omega in enumerate(range(1, config.N + 1)):
            rng = call(
                "spectral_model.seed", bid, np.random.default_rng,
                [config.seed, 1, T, omega],
            )
            if real_T is None:
                real = call("spectral_model.realize", bid, pkg.realize, spec_T, rng)
            else:
                real = real_T
            traj = call("simulator.simulate", bid, pkg.simulate, real, T, rng)
            tracer.counts["simulator.samples"] += traj.coeffs.size
            stats = tracer.open("estimators.stats", bid)
            for j in range(1, k_T + 1):
                pkg.sufficient_stats(traj, j)
            tracer.close(stats)
            tracer.counts["estimators.stats_elements"] += k_T * T
            try:
                est = call(
                    "estimators.estimate_all", bid, pkg.estimate_all,
                    traj, real, k_T, spec.prior,
                )
            except pkg.DegenerateTrajectoryError:
                tracer.counts["estimators.degenerate"] += 1
                ok[i] = False
                continue
            except (pkg.ComplexRootError, RuntimeError):
                tracer.counts["estimators.errors"] += 1
                ok[i] = False
                continue
            est_c[i], est_b[i] = est.rho_hat, est.rho_tilde_minus
            truth[i], last[i] = real.rho[:k_T], traj.coeffs[-1, :k_T]

        limits = tracer.open("metrics.limits", bid)
        if fixed_real is None:
            limit_p = pkg.prior_param_limit(spec.prior, k_T)
            limit_q = pkg.prior_pred_limit(spec.law, spec.prior, k_T)
        else:
            limit_p = pkg.theory_param_limit(real_T, k_T)
            limit_q = pkg.theory_pred_limit(real_T, k_T)
        tracer.close(limits)
        for name, est in (("classical", est_c), ("bayes", est_b)):
            efmse = tracer.open("metrics.efmse", bid)
            inp = pkg.EfmseInput(estimates=est[ok], truth=truth[ok], last_coeffs=last[ok])
            ep, eq = pkg.efmse_param(inp), pkg.efmse_pred(inp)
            tracer.close(efmse)
            reports.append(
                pkg.EfmseReport(
                    example=config.label, T=T, N=config.N, kT=k_T, estimator=name,
                    efmse_param=ep, efmse_pred=eq, t_efmse_param=T * ep,
                    theory_param_limit=limit_p, theory_pred_limit=limit_q,
                    ref_one_over_T=1.0 / T,
                )
            )
        tracer.close(block)
    tracer.close(loop)
    return reports


def run_trace(request: dict) -> dict:
    t0 = time.perf_counter()
    pkg = _import_package()
    import arh1bench.cli  # noqa: F401  (what every CLI call imports)

    t1 = time.perf_counter()
    config = pkg.config_from_dict(request["config"])
    t2 = time.perf_counter()
    workers = int(request["workers"])
    out = Path(config.output_dir)
    log = _AbortLog()
    logging.getLogger("arh1bench").addHandler(log)
    attempted = 0

    def untraced(n_workers: int, subdir: str):
        nonlocal attempted
        attempted += _replications(config)
        start = time.perf_counter()
        try:
            reports = pkg.run_experiment(config, workers=n_workers)
        except _lost(pkg) as exc:
            return None, time.perf_counter() - start, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
        pkg.emit_reports(reports, config.formats, out / subdir)
        return reports, wall, None

    reports_w, run_s, error = untraced(workers, "untraced")
    reports_1, run_1w_s, error_1 = (
        untraced(1, "untraced-1w") if workers > 1 else (reports_w, run_s, error)
    )

    tracer = Tracer()
    attempted += _replications(config)
    start = time.perf_counter()
    traced = traced_study(pkg, config, tracer)
    traced_s = time.perf_counter() - start
    emit = tracer.open("harness.emit", -1)
    paths = pkg.emit_reports(traced, config.formats, out / "traced")
    tracer.close(emit)
    tracer.write(Path(request["spans_path"]))

    span, number = tracer.totals()
    layer_sum = sum(
        span[n]
        for n in (
            "spectral_model.seed", "spectral_model.realize", "simulator.simulate",
            "estimators.estimate_all", "metrics.efmse", "metrics.limits",
        )
    )
    counts = tracer.counts
    simulate_s = span["simulator.simulate"]
    samples = counts["simulator.samples"]
    layers = {
        "spectral_model.seed_s": span["spectral_model.seed"],
        "spectral_model.realize_s": span["spectral_model.realize"],
        "spectral_model.realize_calls": number["spectral_model.realize"],
        "simulator.simulate_s": simulate_s,
        "simulator.calls": number["simulator.simulate"],
        "simulator.samples": samples,
        "simulator.ns_per_sample": 1e9 * simulate_s / samples,
        # computed, not measured: the normal draws, the scaled innovations
        # and the coefficient matrix, each (T+1) x k float64
        "simulator.bytes_computed": 3 * 8 * samples,
        "estimators.stats_s": span["estimators.stats"],
        "estimators.stats_elements": counts["estimators.stats_elements"],
        "estimators.estimate_all_s": span["estimators.estimate_all"],
        "estimators.roots_s": span["estimators.estimate_all"] - span["estimators.stats"],
        "estimators.calls": number["estimators.estimate_all"],
        "estimators.degenerate": counts["estimators.degenerate"],
        "estimators.errors": counts["estimators.errors"],
        "metrics.efmse_s": span["metrics.efmse"],
        "metrics.limits_s": span["metrics.limits"],
        "harness.run_s": run_s,
        "harness.self_s": run_1w_s - layer_sum,
        "harness.emit_s": span["harness.emit"],
        "harness.emit_bytes": sum(p.stat().st_size for p in paths),
        "harness.pool_overhead_s": run_s - layer_sum / workers,
        "harness.parallel_speedup": run_1w_s / run_s,
        "cli.import_s": t1 - t0,
        "cli.config_s": t2 - t1,
        "trace.overhead_s": traced_s - run_1w_s,
    }
    errors = [e for e in (error, error_1) if e]
    lost = counts["estimators.degenerate"] + counts["estimators.errors"]
    return {
        "layers": layers,
        "attempted": attempted,
        "failed": log.aborted + lost + _replications(config) * len(errors),
        "error": "; ".join(errors) or None,
        # Trace fidelity: the traced loop must reproduce the untraced
        # values exactly, and one worker must reproduce the pool's output.
        "traced_matches": reports_w is not None and traced == reports_w,
        "workers_match": reports_1 is not None and reports_1 == reports_w,
        "cells": _cells(traced),
        "sha256": _sha256(out / "traced" / "efmse.csv"),
        "versions": _versions(),
    }


def main(argv) -> int:
    if len(argv) != 2 or argv[0] not in ("study", "trace"):
        print(__doc__, file=sys.stderr)
        return 2
    request = json.loads(argv[1])
    result = run_study(request) if argv[0] == "study" else run_trace(request)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
