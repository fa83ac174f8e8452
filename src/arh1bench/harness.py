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

Within a block, replications are simulated and estimated together in
groups (``_run_group``): one time loop over the columns of every
replication in the group, exact column sums and elementwise estimators,
the same helpers that ``simulate``, ``sufficient_stats`` and
``estimate_all`` run for a single replication, so both routes give the
same bits.
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

from .estimators import (
    CHUNK_ELEMENTS,
    ColumnSums,
    DegenerateTrajectoryError,
    estimate_columns,
    first_fault,
    lag_products,
    lag_sums,
    prior_columns,
)
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
from .simulator import ar1_steps, positivity_diagnostic, simulate
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

# A replication group has at most this many columns (replications times
# components); its rows are simulated in chunks whose product arrays hold at
# most CHUNK_ELEMENTS values.
GROUP_COLUMNS = 2048

# One-sided 0.5% Kolmogorov-Smirnov critical value is KS_CRITICAL / sqrt(N).
KS_CRITICAL = 1.73

CSV_HEADER = (
    "example,T,N,kT,estimator,efmse_param,efmse_pred,t_efmse_param,"
    "theory_param_limit,theory_pred_limit,ref_one_over_T"
)

# Built-in model presets: eigenvalue decay exponent and truncation rule.
EXAMPLE_EXPONENTS = {1: 1.5, 2: 1.1, 3: 2.0}
EXAMPLE_KT_RULES = {1: KtRule.fixed(5), 2: KtRule.fixed(5), 3: KtRule.power(4.1)}

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


def _check_seed(seed) -> int:
    if not _is_int(seed) or not 0 <= seed < 2**64:
        raise ValueError(f"seed must be an integer that fits in 64 bits, got {seed!r}")
    return int(seed)


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
        object.__setattr__(self, "seed", _check_seed(self.seed))
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

    Every realization, shared or drawn, has exactly k_T components.  Must
    stay a module-level function so worker processes can unpickle it.
    """
    spec, T, k_T, lo, hi, seed, fixed_real = task
    per = max(1, GROUP_COLUMNS // k_T)
    groups = [
        _run_group(spec, T, k_T, range(g, min(g + per, hi)), seed, fixed_real)
        for g in range(lo, hi, per)
    ]
    est_c, est_b, truth, last, ok = (np.concatenate(parts) for parts in zip(*groups))
    aborted = [lo + i for i in np.flatnonzero(~ok).tolist()]
    return est_c[ok], est_b[ok], truth[ok], last[ok], aborted


def _run_group(spec, T, k, omegas, seed, fixed_real):
    """Simulate and estimate replications ``omegas`` together.

    Each replication seeds its own stream, realizes its coefficients (unless
    they are shared) and draws its normals chunk by chunk, in the order
    ``simulate`` draws them.  A column whose chunked sum is not certified
    exact is re-summed from its replication, re-run whole.
    """
    rngs = [np.random.default_rng([seed, 1, T, omega]) for omega in omegas]
    reals = [fixed_real if fixed_real is not None else realize(spec, r) for r in rngs]
    m, c = len(rngs), len(rngs) * k
    rho = np.concatenate([r.rho for r in reals])
    sigma2 = np.concatenate([r.sigma2 for r in reals])
    sd = np.sqrt(sigma2)

    rows = max(1, min(T, CHUNK_ELEMENTS // (2 * c)))
    x = np.empty((rows + 1, c))
    products = np.empty((rows, 2 * c))
    for i, rng in enumerate(rngs):
        x[0, i * k : (i + 1) * k] = rng.standard_normal(k)
    x[0] *= np.sqrt(np.concatenate([r.C for r in reals]))
    finite = np.isfinite(x[0])
    sums = ColumnSums(2 * c)
    done = 0
    while done < T:
        n = min(rows, T - done)
        for i, rng in enumerate(rngs):
            x[1 : n + 1, i * k : (i + 1) * k] = rng.standard_normal((n, k))
        x[1 : n + 1] *= sd
        ar1_steps(x[: n + 1], rho)
        finite &= np.isfinite(x[1 : n + 1]).all(axis=0)
        sums.add(lag_products(x[: n + 1], out=products[:n]))
        x[0] = x[n]
        done += n
    total, exact = sums.result()
    alpha, beta = total[:c].reshape(m, k), total[c:].reshape(m, k)
    exact = (exact[:c] & exact[c:]).reshape(m, k).all(axis=1)
    finite = finite.reshape(m, k).all(axis=1)
    for i in np.flatnonzero(finite & ~exact).tolist():
        rng = np.random.default_rng([seed, 1, T, omegas[i]])
        real = fixed_real if fixed_real is not None else realize(spec, rng)
        alpha[i], beta[i] = lag_sums(simulate(real, T, rng).coeffs)

    alpha, beta = alpha.ravel(), beta.ravel()
    a, b = (np.tile(v, m) for v in prior_columns(spec.prior, k))
    est_c, est_b, fault = estimate_columns(alpha, beta, sigma2, a, b)
    ok = np.ones(m, dtype=bool)
    # the first failure in replication order decides, as in a one-by-one run
    for i in np.flatnonzero(~finite | fault.reshape(m, k).any(axis=1)).tolist():
        if not finite[i]:
            raise ValueError("trajectory contains non-finite coefficients")
        cols = slice(i * k, (i + 1) * k)
        error = first_fault(
            fault[cols], T, alpha[cols], beta[cols], sigma2[cols], a[cols], b[cols]
        )
        if not isinstance(error, DegenerateTrajectoryError):
            raise error
        ok[i] = False
    return (
        est_c.reshape(m, k), est_b.reshape(m, k), rho.reshape(m, k),
        x[0].reshape(m, k).copy(), ok,
    )


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
    blocks = _partition(config.N, workers)
    pool = ProcessPoolExecutor(max_workers=len(blocks)) if len(blocks) > 1 else None
    try:
        for T in config.T_grid:
            k_T = truncation_order(T, rule)
            if fixed_real is None:
                spec_T = dataclasses.replace(spec, k_max=k_T)
                real_T = None
            else:
                spec_T = spec
                real_T = truncate_realization(fixed_real, k_T)
            tasks = [(spec_T, T, k_T, lo, hi, config.seed, real_T) for lo, hi in blocks]
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
    """Write efmse.csv / efmse.json plus the two plot tables; returns paths.

    Every table is serialized before any file is written, so a bad report
    (such as a non-finite value bound for strict JSON) leaves no output.
    """
    reports = list(reports)
    if not reports:
        raise ValueError("no reports to emit")
    texts = {}
    if "csv" in formats:
        lines = [CSV_HEADER]
        for r in reports:
            lines.append(
                ",".join(_csv_cell(getattr(r, f.name)) for f in dataclasses.fields(r))
            )
        texts["efmse.csv"] = "\n".join(lines) + "\n"
    if "json" in formats:
        rows = [dataclasses.asdict(r) for r in reports]
        texts["efmse.json"] = json.dumps(rows, indent=2, allow_nan=False) + "\n"

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
        texts[fname] = "\n".join(lines) + "\n"
    return [_write_text(Path(output_dir) / name, text) for name, text in texts.items()]


def _write_text(path: Path, text: str) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8", newline="")
    return path


def _bartlett(key, rho, sigma2, T, N):
    t_mse, target = bartlett_check(rho, sigma2, T, N, np.random.default_rng(key))
    tol = 0.1 * target
    return {"t_mse": t_mse}, {"limit": target, "tolerance": tol}, abs(t_mse - target) <= tol


def _normality(key, rho, T, N):
    ks, _ = normality_check(rho, T, N, np.random.default_rng(key))
    crit = KS_CRITICAL / math.sqrt(N)
    return {"ks_distance": ks}, {"critical_value": crit}, ks <= crit


def _ergodic(key, rho, C, n):
    if not -1.0 < rho < 1.0:
        raise ValueError(f"rho must lie in (-1, 1), got {rho}")
    if not 0.0 < C < math.inf:
        raise ValueError(f"C must be positive and finite, got {C}")
    real = ModelRealization(C=[C], rho=[rho], sigma2=[C * (1.0 - rho * rho)])
    traj = simulate(real, n, np.random.default_rng(key))
    c_hat, d_hat = ergodic_estimates(traj, 1, n)
    ratio = rho * n / (n - 1)
    return (
        {"c_hat": c_hat, "d_hat": d_hat, "ratio": d_hat / c_hat},
        {"c": C, "c_tolerance": 0.05 * C, "ratio": ratio, "ratio_tolerance": 0.02},
        abs(c_hat - C) <= 0.05 * C and abs(d_hat / c_hat - ratio) <= 0.02,
    )


def _positivity(key, example, T, N):
    if T < 2 or N < 1:
        raise ValueError("positivity diagnostic needs T >= 2 and N >= 1")
    spec, _ = example_model(example, T)
    per_component = np.zeros(spec.k_max)
    all_hold = 0
    for i in range(1, N + 1):
        rng = np.random.default_rng([*key, i])
        traj = simulate(realize(spec, rng), T, rng, record_innovations=True)
        report = positivity_diagnostic(traj)
        per_component += report.holds
        all_hold += bool(report.all_hold)
    fractions = (per_component / N).tolist()
    return {"satisfied_fraction": all_hold / N, "component_fractions": fractions}, {}, None


# kind -> (stream code, parameter defaults, runner).  A default's type is
# its parameter's type; a runner takes the stream key and the parameters and
# returns (outputs, targets, pass), pass None where the check is informational.
DIAGNOSTICS = {
    "bartlett": (1, {"rho": 0.6, "sigma2": 1.0, "T": 4000, "N": 4000}, _bartlett),
    "normality": (2, {"rho": 0.5, "T": 3000, "N": 2000}, _normality),
    "ergodic": (3, {"rho": 0.9, "C": 1.0, "n": 200_000}, _ergodic),
    "positivity": (4, {"example": 1, "T": 500, "N": 100}, _positivity),
}


def run_diagnostics(kind: str, params: dict | None, seed: int, output_dir) -> Path:
    """Run one statistical self-check and write diag_<kind>.json.

    Parameters not given take the kind's defaults; each must have its
    default's type (int, or any real number for a float).  The check runs
    on its own ``[seed, 3, stream]`` stream, and the record holds inputs,
    outputs, targets and the pass verdict (None where informational).
    """
    if kind not in DIAGNOSTICS:
        raise ValueError(f"diagnostic kind must be one of {tuple(DIAGNOSTICS)}, got {kind!r}")
    stream, defaults, runner = DIAGNOSTICS[kind]
    params = dict(params or {})
    unknown = sorted(set(params) - set(defaults))
    if unknown:
        raise ValueError(f"unknown {kind} parameters: {', '.join(unknown)} "
                         f"(accepted: {', '.join(sorted(defaults))})")
    inputs = {}
    for name, default in defaults.items():
        value, typ = params.get(name, default), type(default)
        real = isinstance(value, numbers.Real) and not isinstance(value, bool)
        if not (_is_int(value) if typ is int else real):
            raise ValueError(f"{kind} parameter {name} must be {typ.__name__}, got {value!r}")
        try:
            inputs[name] = typ(value)
        except OverflowError:
            raise ValueError(f"{kind} parameter {name} is beyond float range: {value!r}") from None
    seed = _check_seed(seed)
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            outputs, targets, verdict = runner([seed, 3, stream], **inputs)
    except ArithmeticError as exc:
        raise ValueError(f"{kind} diagnostic is not computable at {inputs}: {exc}") from exc
    record = {"kind": kind, "seed": seed, "inputs": inputs, "outputs": outputs,
              "targets": targets, "pass": verdict}
    text = json.dumps(record, indent=2, allow_nan=False) + "\n"
    return _write_text(Path(output_dir) / f"diag_{kind}.json", text)
