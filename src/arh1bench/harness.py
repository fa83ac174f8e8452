"""Experiment orchestration: seeded replication streams, parallel Monte
Carlo runs over a grid of sample sizes, and report/diagnostic emission.

Determinism contract
--------------------
Replication omega of sample size T draws everything it needs from
``numpy.random.default_rng([seed, 1, T, omega])`` — first the coefficient
redraw (when ``rho_mode == "redraw"``), then the trajectory.  A shared
coefficient draw for ``rho_mode == "fixed"`` comes from
``default_rng([seed, 2])`` and diagnostics use ``[seed, 3, ...]`` streams.
Workers receive contiguous replication blocks and results are merged in
replication order, so every emitted byte depends only on (config, seed),
never on the worker count or scheduling.
"""
from __future__ import annotations

import dataclasses
import json
import logging
import math
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .estimators import DegenerateTrajectoryError, estimate_all
from .metrics import (
    EfmseInput,
    EfmseReport,
    KtRule,
    bartlett_check,
    efmse_param,
    efmse_pred,
    ergodic_estimates,
    normality_check,
    prior_param_limit,
    prior_pred_limit,
    theory_param_limit,
    theory_pred_limit,
    truncation_order,
)
from .simulator import positivity_diagnostic, simulate
from .spectral_model import (
    EigenvalueLaw,
    ModelRealization,
    PriorSpec,
    SpectralModelSpec,
    realize,
    truncate_realization,
)

logger = logging.getLogger("arh1bench")

DEFAULT_T_GRID = (250, 500, 750, 1000, 1250, 1500, 1750, 2000)

# Fraction of degenerate (aborted) replications above which a run is
# considered misconfigured and fails outright.
ABORT_THRESHOLD = 1e-3

# One-sided 0.5% Kolmogorov-Smirnov critical value is KS_CRITICAL / sqrt(N).
KS_CRITICAL = 1.73

CSV_HEADER = (
    "example,T,N,kT,estimator,efmse_param,efmse_pred,t_efmse_param,"
    "theory_param_limit,theory_pred_limit,ref_one_over_T"
)

# Built-in model presets: eigenvalue decay exponent and truncation rule.
EXAMPLE_EXPONENTS = {1: 1.5, 2: 1.1, 3: 2.0}
EXAMPLE_KT_RULES = {1: KtRule.fixed(5), 2: KtRule.fixed(5), 3: KtRule.power(4.1)}

DIAGNOSTIC_KINDS = ("bartlett", "normality", "ergodic", "positivity")
_DIAG_STREAM = {"bartlett": 1, "normality": 2, "ergodic": 3, "positivity": 4}


class AbortedReplicationsError(RuntimeError):
    """Raised when degenerate replications exceed the documented threshold."""

    def __init__(self, aborted: int, total: int):
        self.aborted = aborted
        self.total = total
        super().__init__(
            f"{aborted} of {total} replications aborted "
            f"(threshold {ABORT_THRESHOLD:.1%})"
        )


def _is_int(value) -> bool:
    # bool is an int subclass, but True is not a count, a seed or an example.
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def example_model(
    example: int,
    T_max: int,
    kT_rule: KtRule | None = None,
    rho_mode: str = "redraw",
    rho_values: tuple[float, ...] | None = None,
) -> tuple[SpectralModelSpec, KtRule]:
    """The model of built-in example 1, 2 or 3 and its truncation rule.

    ``kT_rule`` defaults to the example's own rule; the spec holds the k_T
    components that rule keeps at sample size ``T_max``, which covers every
    smaller T because k_T never decreases in T.
    """
    if not _is_int(example) or example not in EXAMPLE_EXPONENTS:
        raise ValueError(f"example must be 1, 2 or 3, got {example!r}")
    rule = EXAMPLE_KT_RULES[example] if kT_rule is None else kT_rule
    spec = SpectralModelSpec(
        law=EigenvalueLaw.power_law(EXAMPLE_EXPONENTS[example]),
        prior=PriorSpec(),
        k_max=truncation_order(T_max, rule),
        rho_mode=rho_mode,
        rho_values=rho_values,
    )
    return spec, rule


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything that determines a benchmark run.

    ``example`` is the built-in model 1, 2 or 3; ``kT_rule`` defaults to
    that example's rule.  ``spec`` is derived at construction: the
    example's model with the components the largest T on the grid needs,
    which validates ``rho_mode`` and ``rho_values``.
    """

    example: int
    T_grid: tuple[int, ...] = DEFAULT_T_GRID
    N: int = 1000
    kT_rule: KtRule | None = None
    seed: int = 0
    rho_mode: str = "redraw"
    rho_values: tuple[float, ...] | None = None
    output_dir: Path = Path("out")
    formats: tuple[str, ...] = ("csv", "json")
    spec: SpectralModelSpec = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        grid = self.T_grid
        if (
            not isinstance(grid, (tuple, list))
            or not grid
            or not all(_is_int(t) and t >= 1 for t in grid)
        ):
            raise ValueError(
                f"T_grid must be a nonempty sequence of positive integers, got {grid!r}"
            )
        grid = tuple(int(t) for t in grid)
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError(f"T_grid must be strictly increasing, got {grid}")
        object.__setattr__(self, "T_grid", grid)
        if not _is_int(self.N) or self.N < 1:
            raise ValueError(f"replication count N must be an integer >= 1, got {self.N!r}")
        if not _is_int(self.seed) or not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be an integer that fits in 64 bits, got {self.seed!r}")
        object.__setattr__(self, "seed", int(self.seed))
        if self.kT_rule is not None and not isinstance(self.kT_rule, KtRule):
            raise ValueError(f"kT_rule must be a truncation rule, got {self.kT_rule!r}")

        spec, rule = example_model(
            self.example, grid[-1], self.kT_rule, self.rho_mode, self.rho_values
        )
        object.__setattr__(self, "kT_rule", rule)
        object.__setattr__(self, "rho_values", spec.rho_values)
        object.__setattr__(self, "spec", spec)

        fmts = self.formats
        if isinstance(fmts, str):
            fmts = tuple(f for f in fmts.split(",") if f)
        if not isinstance(fmts, (tuple, list)) or any(f not in ("csv", "json") for f in fmts):
            raise ValueError(f"formats must be a subset of csv,json, got {fmts!r}")
        object.__setattr__(self, "formats", tuple(dict.fromkeys(fmts)))
        if not isinstance(self.output_dir, (str, os.PathLike)):
            raise ValueError(f"output_dir must be a path, got {self.output_dir!r}")
        object.__setattr__(self, "output_dir", Path(self.output_dir))

    @property
    def label(self) -> str:
        return str(self.example)


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build a config from a JSON-style mapping with the field names above."""
    if not isinstance(data, dict):
        raise ValueError(f"config must be a JSON object, got {type(data).__name__}")
    known = {f.name for f in dataclasses.fields(ExperimentConfig) if f.init}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    kwargs = dict(data)
    if isinstance(kwargs.get("kT_rule"), str):
        kwargs["kT_rule"] = KtRule.parse(kwargs["kT_rule"])
    if "example" not in kwargs:
        raise ValueError("config must specify an example")
    return ExperimentConfig(**kwargs)


def load_config(path) -> dict:
    """Read a JSON config file into a plain mapping (validated on build)."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"config file {path} must contain a JSON object")
    return data


def _partition(n: int, parts: int) -> list[tuple[int, int]]:
    """Split replications 1..n into contiguous half-open blocks [lo, hi)."""
    parts = max(1, min(parts, n))
    base, extra = divmod(n, parts)
    blocks = []
    lo = 1
    for i in range(parts):
        hi = lo + base + (1 if i < extra else 0)
        blocks.append((lo, hi))
        lo = hi
    return blocks


def _run_block(task):
    """Run one contiguous block of replications; returns stacked records.

    Must stay a module-level function so worker processes can unpickle it.
    """
    spec, T, k_T, lo, hi, seed, fixed_real = task
    m = hi - lo
    est_c = np.empty((m, k_T))
    est_b = np.empty((m, k_T))
    truth = np.empty((m, k_T))
    last = np.empty((m, k_T))
    ok = np.ones(m, dtype=bool)
    aborted = []
    for i, omega in enumerate(range(lo, hi)):
        rng = np.random.default_rng([seed, 1, T, omega])
        real = fixed_real if fixed_real is not None else realize(spec, rng)
        traj = simulate(real, T, rng)
        try:
            est = estimate_all(traj, real, k_T, spec.prior)
        except DegenerateTrajectoryError:
            ok[i] = False
            aborted.append(omega)
            continue
        est_c[i] = est.rho_hat
        est_b[i] = est.rho_tilde_minus
        truth[i] = real.rho[:k_T]
        last[i] = traj.coeffs[-1, :k_T]
    return est_c[ok], est_b[ok], truth[ok], last[ok], aborted


def run_experiment(config: ExperimentConfig, workers: int | None = None) -> list[EfmseReport]:
    """Run the full Monte Carlo study and return one report per (T, estimator).

    ``workers`` is the process count (None or 1 runs inline).  Results are
    identical for any worker count; see the module docstring.
    """
    workers = 1 if workers is None else max(1, int(workers))
    rule = config.kT_rule
    spec = config.spec

    fixed_real = None
    if spec.rho_mode == "fixed":
        fixed_real = realize(spec, np.random.default_rng([config.seed, 2]))
    elif spec.rho_mode == "explicit":
        fixed_real = realize(spec)

    reports: list[EfmseReport] = []
    aborted_total = 0
    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    try:
        for T in config.T_grid:
            k_T = truncation_order(T, rule)
            if fixed_real is None:
                spec_T = dataclasses.replace(spec, k_max=k_T)
                real_T = None
            else:
                spec_T = spec
                real_T = truncate_realization(fixed_real, k_T)
            tasks = [
                (spec_T, T, k_T, lo, hi, config.seed, real_T)
                for lo, hi in _partition(config.N, workers)
            ]
            if pool is None:
                results = [_run_block(t) for t in tasks]
            else:
                results = list(pool.map(_run_block, tasks))

            aborted = [w for r in results for w in r[4]]
            aborted_total += len(aborted)
            if aborted:
                logger.warning(
                    "T=%d: aborted %d degenerate replications: %s",
                    T, len(aborted), aborted,
                )
            est_c = np.concatenate([r[0] for r in results])
            est_b = np.concatenate([r[1] for r in results])
            truth = np.concatenate([r[2] for r in results])
            last = np.concatenate([r[3] for r in results])
            if est_c.shape[0] == 0:
                raise AbortedReplicationsError(aborted_total, len(config.T_grid) * config.N)

            if fixed_real is None:
                param_limit = prior_param_limit(spec.prior, k_T)
                pred_limit = prior_pred_limit(spec.law, spec.prior, k_T)
            else:
                param_limit = theory_param_limit(real_T, k_T)
                pred_limit = theory_pred_limit(real_T, k_T)

            for name, est in (("classical", est_c), ("bayes", est_b)):
                inp = EfmseInput(estimates=est, truth=truth, last_coeffs=last)
                ep = efmse_param(inp)
                reports.append(
                    EfmseReport(
                        example=config.label,
                        T=T,
                        N=config.N,
                        kT=k_T,
                        estimator=name,
                        efmse_param=ep,
                        efmse_pred=efmse_pred(inp),
                        t_efmse_param=T * ep,
                        theory_param_limit=param_limit,
                        theory_pred_limit=pred_limit,
                        ref_one_over_T=1.0 / T,
                    )
                )
    finally:
        if pool is not None:
            pool.shutdown()

    total = len(config.T_grid) * config.N
    if aborted_total > ABORT_THRESHOLD * total:
        raise AbortedReplicationsError(aborted_total, total)
    return reports


def _csv_cell(value) -> str:
    # repr of a builtin float keeps the shortest digits that round-trip, so
    # emitted tables are exactly reproducible and diffable.
    return repr(float(value)) if isinstance(value, float) else str(value)


def emit_reports(reports, formats, output_dir) -> list[Path]:
    """Write efmse.csv / efmse.json plus the two plot tables; returns paths."""
    reports = list(reports)
    if not reports:
        raise ValueError("no reports to emit")
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    if "csv" in formats:
        lines = [CSV_HEADER]
        for r in reports:
            lines.append(
                ",".join(_csv_cell(getattr(r, f.name)) for f in dataclasses.fields(r))
            )
        path = out / "efmse.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="")
        written.append(path)

    if "json" in formats:
        path = out / "efmse.json"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            json.dump([dataclasses.asdict(r) for r in reports], fh, indent=2)
            fh.write("\n")
        written.append(path)

    by_T: dict[int, dict[str, EfmseReport]] = {}
    for r in reports:
        by_T.setdefault(r.T, {})[r.estimator] = r
    for fname, field in (("plot_param.csv", "efmse_param"), ("plot_pred.csv", "efmse_pred")):
        lines = ["T,classical,bayes,one_over_T"]
        for T, pair in by_T.items():
            if not {"classical", "bayes"} <= pair.keys():
                raise ValueError(f"T={T} lacks one of the two estimator reports")
            lines.append(
                ",".join(
                    (
                        str(T),
                        _csv_cell(getattr(pair["classical"], field)),
                        _csv_cell(getattr(pair["bayes"], field)),
                        _csv_cell(1.0 / T),
                    )
                )
            )
        path = out / fname
        path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="")
        written.append(path)
    return written


def _diag_params(kind: str, params: dict, defaults: dict) -> dict:
    unknown = sorted(set(params) - set(defaults))
    if unknown:
        raise ValueError(
            f"unknown {kind} parameters: {', '.join(unknown)} "
            f"(accepted: {', '.join(sorted(defaults))})"
        )
    merged = dict(defaults)
    merged.update(params)
    return merged


def run_diagnostics(kind: str, params: dict | None, seed: int, output_dir) -> Path:
    """Run one statistical self-check and write diag_<kind>.json.

    Each kind validates its parameters, runs the corresponding metrics
    operation on a dedicated seeded stream, and records inputs, outputs,
    targets and the pass verdict (None where the check is informational).
    """
    if kind not in DIAGNOSTIC_KINDS:
        raise ValueError(f"diagnostic kind must be one of {DIAGNOSTIC_KINDS}, got {kind!r}")
    params = dict(params or {})
    rng = np.random.default_rng([int(seed), 3, _DIAG_STREAM[kind]])

    if kind == "bartlett":
        p = _diag_params(kind, params, {"rho": 0.6, "sigma2": 1.0, "T": 4000, "N": 4000})
        t_mse, target = bartlett_check(p["rho"], p["sigma2"], int(p["T"]), int(p["N"]), rng)
        tol = 0.1 * target
        record = {
            "inputs": p,
            "outputs": {"t_mse": t_mse},
            "targets": {"limit": target, "tolerance": tol},
            "pass": bool(abs(t_mse - target) <= tol),
        }
    elif kind == "normality":
        p = _diag_params(kind, params, {"rho": 0.5, "T": 3000, "N": 2000})
        ks, _ = normality_check(p["rho"], int(p["T"]), int(p["N"]), rng)
        crit = KS_CRITICAL / math.sqrt(int(p["N"]))
        record = {
            "inputs": p,
            "outputs": {"ks_distance": ks},
            "targets": {"critical_value": crit},
            "pass": bool(ks <= crit),
        }
    elif kind == "ergodic":
        p = _diag_params(kind, params, {"rho": 0.9, "C": 1.0, "n": 200_000})
        rho, C, n = float(p["rho"]), float(p["C"]), int(p["n"])
        real = ModelRealization(C=[C], rho=[rho], sigma2=[C * (1.0 - rho * rho)])
        traj = simulate(real, n, rng)
        c_hat, d_hat = ergodic_estimates(traj, 1, n)
        ratio_target = rho * n / (n - 1)
        record = {
            "inputs": p,
            "outputs": {"c_hat": c_hat, "d_hat": d_hat, "ratio": d_hat / c_hat},
            "targets": {
                "c": C,
                "c_tolerance": 0.05 * C,
                "ratio": ratio_target,
                "ratio_tolerance": 0.02,
            },
            "pass": bool(
                abs(c_hat - C) <= 0.05 * C
                and abs(d_hat / c_hat - ratio_target) <= 0.02
            ),
        }
    else:  # positivity
        p = _diag_params(kind, params, {"example": 1, "T": 500, "N": 100})
        T, N = int(p["T"]), int(p["N"])
        if T < 2 or N < 1:
            raise ValueError("positivity diagnostic needs T >= 2 and N >= 1")
        spec, _ = example_model(p["example"], T)
        per_component = np.zeros(spec.k_max)
        all_hold = 0
        for i in range(1, N + 1):
            rep_rng = np.random.default_rng([int(seed), 3, _DIAG_STREAM[kind], i])
            real = realize(spec, rep_rng)
            traj = simulate(real, T, rep_rng, record_innovations=True)
            report = positivity_diagnostic(traj)
            per_component += report.holds
            all_hold += bool(report.all_hold)
        record = {
            "inputs": p,
            "outputs": {
                "satisfied_fraction": all_hold / N,
                "component_fractions": (per_component / N).tolist(),
            },
            "targets": {},
            "pass": None,
        }

    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"diag_{kind}.json"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump({"kind": kind, "seed": int(seed), **record}, fh, indent=2)
        fh.write("\n")
    return path
