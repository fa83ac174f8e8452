"""Experiment orchestration: seeded replication streams, parallel Monte
Carlo runs over a grid of sample sizes, and report/diagnostic emission.

Determinism contract
--------------------
Replication omega of sample size T draws everything it needs from
``numpy.random.default_rng([seed, 1, T, omega])`` — first the coefficient
redraw (when ``rho_mode == "redraw"``), then the trajectory.  The kernel
derives those generators a group at a time (``_replication_rngs``), with
the same PCG64 states as ``default_rng`` gives each one.  A shared
coefficient draw for ``rho_mode == "fixed"`` comes from
``default_rng([seed, 2])`` and diagnostics use ``[seed, 3, ...]`` streams.
Each worker receives one contiguous replication block for the whole T
grid, and results are merged per T in replication order, so every emitted
byte depends only on (config, seed), never on the worker count or
scheduling.  Bad replications are dropped, then counted and logged per T
and reason; past ABORT_THRESHOLD the run fails.

Within a block, the (T, omega) streams run longest T first, packed into
groups (``_run_group``) that may mix T: one time loop over the columns of
every stream in the group, a stream's columns dropping out at its T, exact
column sums and elementwise estimators, the same helpers that
``simulate``, ``sufficient_stats`` and ``estimate_all`` run for a single
replication, so both routes give the same bits; a replication simulated
again for an exact sum runs ``simulate`` itself.
"""
from __future__ import annotations

import dataclasses
import functools
import json
import logging
import math
import numbers
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .estimators import (
    CHUNK_ELEMENTS,
    FAULT_NAMES,
    NON_FINITE,
    ColumnSums,
    _view,
    estimate_columns,
    lag_products,
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
    SpectralModelSpec,
    draw_rho,
    eigenvalues,
    prior_shapes,
    realize,
)

logger = logging.getLogger("arh1bench")

DEFAULT_T_GRID = (250, 500, 750, 1000, 1250, 1500, 1750, 2000)

# Fraction of dropped (aborted) replications, whatever their reason, above
# which a run is considered misconfigured and fails outright.
ABORT_THRESHOLD = 1e-3

# A replication group has at most this many columns (replications times
# components); its rows are simulated in chunks whose product arrays hold at
# most CHUNK_ELEMENTS values.
GROUP_COLUMNS = 2048

# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF

# One-sided 0.5% Kolmogorov-Smirnov critical value is KS_CRITICAL / sqrt(N).
KS_CRITICAL = 1.73

CSV_HEADER = ",".join(f.name for f in dataclasses.fields(EfmseReport))

# Built-in model presets: eigenvalue decay exponent and truncation rule.
EXAMPLE_EXPONENTS = {1: 1.5, 2: 1.1, 3: 2.0}
EXAMPLE_KT_RULES = {1: KtRule.fixed(5), 2: KtRule.fixed(5), 3: KtRule.power(4.1)}

class AbortedReplicationsError(RuntimeError):
    """Raised when the replications dropped, for any reason, exceed the threshold."""

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
        # each replication's stream key takes omega <= N as one 32-bit word
        if not _is_int(self.N) or not 1 <= self.N < 2**32:
            raise ValueError(
                f"replication count N must be an integer in [1, 2**32), got {self.N!r}"
            )
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
        if (
            not isinstance(fmts, (tuple, list))
            or not fmts
            or any(f not in ("csv", "json") for f in fmts)
        ):
            raise ValueError(f"formats must be a nonempty subset of csv,json, got {fmts!r}")
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
    """Run one contiguous block of replications at every T of the grid.

    The block's (T, omega) streams run longest T first, packed into groups
    of at most GROUP_COLUMNS columns that share one scratch.  Returns, for
    each T in grid order, the stacked records of the replications kept and
    every replication's reason code (see ``_run_group``).  Must stay a
    module-level function so worker processes can unpickle it.
    """
    spec, levels, lo, hi, seed, fixed_real = task
    groups, runs, width = [], [], 0
    for T, k in sorted(levels, reverse=True):
        omega = lo
        while omega < hi:
            # a group takes on a shorter T only while it is less than half
            # full: a wider group shortens every row chunk, so each stream
            # draws its normals in more calls, for little saved per row
            if runs and (
                width + k > GROUP_COLUMNS or runs[-1][0] != T and 2 * width >= GROUP_COLUMNS
            ):
                groups.append(runs)
                runs, width = [], 0
            n = min(max(1, (GROUP_COLUMNS - width) // k), hi - omega)
            runs.append((T, k, range(omega, omega + n)))
            width, omega = width + n * k, omega + n
    groups.append(runs)
    work = _workspace(max(sum(len(o) * k for _, k, o in g) for g in groups))
    parts = {}
    for runs in groups:
        for T, part in _run_group(spec, runs, seed, fixed_real, work).items():
            parts.setdefault(T, []).append(part)
    del work  # free it before stacking the records, not under them
    results = []
    for T, _ in levels:
        *records, reason = (np.concatenate(v) for v in zip(*parts.pop(T)))
        kept = reason == 0
        results.append((*(r[kept] for r in records), reason))
    return results


def _workspace(c: int):
    """Flat scratch (x, products, tree) for the row chunks of groups of at
    most c columns, three slices of one allocation.

    A chunk of any width holds at most e = max(CHUNK_ELEMENTS // 2, c)
    trajectory values (see ``_run_group``), so no size depends on T or on
    how many columns are still running; x holds c more for the carry row.
    """
    e = max(CHUNK_ELEMENTS // 2, c)
    buf = np.empty(6 * e + c)
    return buf[: e + c], buf[e + c : 3 * e + c], buf[3 * e + c :]


def _words(n: int) -> list[int]:
    """n as little-endian 32-bit words, split as SeedSequence splits an int."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _hash_consts(init: int, mult: int, n: int):
    """The xor and multiply constants of n successive SeedSequence hash
    steps, as two (n, 1) uint32 arrays."""
    h = [init]
    for _ in range(n):
        h.append(h[-1] * mult & _MASK32)
    h = np.array(h, np.uint32)[:, None]
    return h[:-1], h[1:]


def _mix(x, y):
    r = _MIX_MULT_L * x - _MIX_MULT_R * y
    return r ^ r >> 16


@functools.cache
def _fixed_seed_sequence():
    """An ISeedSequence that hands PCG64 the state words it was built with.

    Built on first use, so that importing the package leaves numpy.random
    unloaded.
    """
    from numpy.random.bit_generator import ISeedSequence

    class FixedSeedSequence(ISeedSequence):
        def __init__(self, state):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            return self.state

    return FixedSeedSequence


def _replication_rngs(seed: int, T: int, omegas) -> list:
    """``default_rng([seed, 1, T, omega])`` for each omega, in one pass.

    SeedSequence hashes the 32-bit words of its entropy with uint32
    arithmetic whose constants do not depend on the data, so that hash runs
    here once over all omegas, each a single word, and yields every
    stream's ``generate_state(4, uint64)``.  PCG64 seeds itself from those
    words exactly as from a SeedSequence, so the states are the same.
    """
    omegas = list(omegas)
    if omegas and not 0 <= min(omegas) <= max(omegas) < 2**32:
        raise ValueError("replication numbers must lie in [0, 2**32)")
    key = [*_words(seed), 1, *_words(T)]
    words = np.empty((len(key) + 1, len(omegas)), np.uint32)
    words[:-1] = np.array(key, np.uint32)[:, None]
    words[-1] = omegas
    # SeedSequence.mix_entropy into a pool of 4 words: hash in the first 4,
    # mix each pool word into the other 3, then hash and mix in the rest
    xor, mul = _hash_consts(_INIT_A, _MULT_A, 4 * len(words))

    def hashmix(v, i, n):
        v = (v ^ xor[i : i + n]) * mul[i : i + n]
        return v ^ v >> 16

    pool = hashmix(words[:4], 0, 4)
    i = 4
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        pool[dst] = _mix(pool[dst], hashmix(pool[src], i, 3))
        i += 3
    for word in words[4:]:
        pool = _mix(pool, hashmix(word, i, 4))
        i += 4
    # SeedSequence.generate_state(4, uint64): 8 words cycled from the pool
    xor, mul = _hash_consts(_INIT_B, _MULT_B, 8)
    state = (np.concatenate([pool, pool]) ^ xor) * mul
    state ^= state >> 16
    states = np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64)
    seq = _fixed_seed_sequence()
    return [np.random.Generator(np.random.PCG64(seq(row))) for row in states]


def _coefficients(spec, k, rngs, fixed_real):
    """C, rho and sigma2 of the columns of the replications with streams
    ``rngs``, k per replication: drawn from each stream in turn (redraw
    mode), or the shared realization's first k repeated."""
    m = len(rngs)
    if fixed_real is None:
        C = eigenvalues(spec.law, k)
        rho = draw_rho(*prior_shapes(k), rngs)
        return np.tile(C, m), rho.ravel(), (C * (1.0 - rho**2)).ravel()
    return tuple(np.tile(v[:k], m) for v in (fixed_real.C, fixed_real.rho, fixed_real.sigma2))


def _fsum_into(sums, redo, batch, products):
    """Set each sum that ``redo`` marks for replications ``batch`` to the
    math.fsum of its products.

    ``sums`` and ``redo`` are (2, m, k): alpha then beta, by replication and
    component; ``products`` holds the lag products of the batch's
    replications, alpha then beta, side by side as ``lag_products`` lays
    them out.
    """
    products = products.reshape(len(products), 2, len(batch), -1)
    for half, i, j in zip(*np.nonzero(redo[:, batch])):
        sums[half, batch[i], j] = math.fsum(products[:, half, i, j].tolist())


def _run_group(spec, runs, seed, fixed_real, work):
    """Simulate and estimate the streams of ``runs`` together.

    A run (T, k, omegas) is replications omegas at sample size T, k columns
    each; the runs come longest T first, one per T.  Each replication seeds
    its own stream, realizes its coefficients (unless they are shared) and
    draws its normals chunk by chunk, in the order ``simulate`` draws them.
    The rows run in segments, each ending at a run's T, where that run's
    columns, the last ones, drop out; the columns still running are laid
    out again at the front of the scratch, in chunks of as many rows as
    fill CHUNK_ELEMENTS products.  Every array the size of a row chunk is a
    view into ``work``, the parts ``_workspace`` plans.

    A replication is usable when its alpha and beta sums are finite: every
    state enters a lag product of its column, so a non-finite state leaves
    a non-finite sum.  A usable column whose chunked sum is not certified
    exact is summed by ``math.fsum`` over its products: when its run ended
    with the first chunk those are still whole in the scratch; otherwise
    each replication concerned is simulated again, whole, by ``simulate``
    from its stream and its own coefficient draw.

    Returns, by T, the estimates, true coefficients and last states of the
    run's replications and a reason code for each: NON_FINITE where its sums
    are not finite, else the fault code of its first faulty component, 0
    where it is kept.
    """
    rngs = [_replication_rngs(seed, T, omegas) for T, _, omegas in runs]
    C, rho, sigma2 = (
        np.concatenate(v)
        for v in zip(*(_coefficients(spec, k, r, fixed_real) for (_, k, _), r in zip(runs, rngs)))
    )
    sd = np.sqrt(sigma2)
    edges = np.cumsum([0] + [len(omegas) * k for _, k, omegas in runs]).tolist()
    x_part, products_part, tree = work
    sums = ColumnSums((2, edges[-1]), tree)
    done = chunks = 0
    out = {}
    for end in range(len(runs), 0, -1):
        T, k, omegas = runs[end - 1]
        ca = edges[end]
        rows = max(1, CHUNK_ELEMENTS // (2 * ca))
        # row 0 carries the states on: the front of the same buffer, which
        # _view never regrows (it raises), so _workspace plans x for every width
        x = _view(x_part, (rows + 1, ca))
        while done < T:
            n = min(rows, T - done)
            # the normals go through the products buffer, free until the
            # products of this chunk fill it; the first chunk takes row 0
            lead = int(done == 0)
            z = _view(products_part, ((n + lead) * ca,))
            for (_, kr, o), r, a, b in zip(runs, rngs, edges, edges[1 : end + 1]):
                zr = z[(n + lead) * a : (n + lead) * b].reshape(len(o), n + lead, kr)
                for row, rng in zip(zr, r):
                    rng.standard_normal(out=row)
                x[1 - lead : n + 1, a:b].reshape(n + lead, len(o), kr)[...] = zr.transpose(1, 0, 2)
            if lead:
                x[0] *= np.sqrt(C)
            x[1 : n + 1] *= sd[:ca]
            ar1_steps(x[: n + 1], rho[:ca])
            products = lag_products(x[: n + 1], out=_view(products_part, (n, 2 * ca)))
            sums.add(products.reshape(n, 2, ca))
            x[0] = x[n]
            done, chunks = done + n, chunks + 1

        # the run ends here: settle and estimate it before its columns go
        m, cols = len(omegas), slice(edges[end - 1], ca)
        total, exact = sums.result()
        by_rep = total[:, cols].reshape(2, m, k)
        ok = np.isfinite(by_rep).all(axis=(0, 2))
        redo = ~exact[:, cols].reshape(2, m, k) & ok[:, None]
        if chunks == 1:  # one chunk: products holds every row
            _fsum_into(by_rep, redo, np.arange(m), products.reshape(n, 2, ca)[..., cols])
        elif redo.any():  # seeding costs about 0.1 ms even with no stream to seed
            batch = np.flatnonzero(redo.any(axis=(0, 2))).tolist()
            for i, rng in zip(batch, _replication_rngs(seed, T, [omegas[i] for i in batch])):
                real = ModelRealization(*_coefficients(spec, k, [rng], fixed_real))
                _fsum_into(by_rep, redo, [i], lag_products(simulate(real, T, rng).coeffs))
        alpha, beta = by_rep.reshape(2, -1)
        a, b = (np.tile(v, m) for v in prior_shapes(k))
        est_c, est_b, fault = estimate_columns(alpha, beta, sigma2[cols], a, b)
        fault = fault.reshape(m, k)
        first = fault[np.arange(m), (fault != 0).argmax(axis=1)]
        out[T] = (
            est_c.reshape(m, k), est_b.reshape(m, k), rho[cols].reshape(m, k),
            x[0, cols].reshape(m, k).copy(), np.where(ok, first, NON_FINITE),
        )
    return out


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

    levels = tuple((T, truncation_order(T, rule)) for T in config.T_grid)
    tasks = [
        (spec, levels, lo, hi, config.seed, fixed_real)
        for lo, hi in _partition(config.N, workers)
    ]
    if len(tasks) == 1:
        results = [_run_block(tasks[0])]
    else:
        # imported here, so that importing the package loads no multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=len(tasks))
        try:
            results = list(pool.map(_run_block, tasks))
        finally:
            pool.shutdown()

    reports: list[EfmseReport] = []
    aborted_total, total = 0, len(config.T_grid) * config.N
    for i, (T, k_T) in enumerate(levels):
        # the blocks run on from replication 1: reason[j] is replication j + 1's
        est_c, est_b, truth, last, reason = map(np.concatenate, zip(*(r[i] for r in results)))
        for code, name in FAULT_NAMES.items():
            bad = (np.flatnonzero(reason == code) + 1).tolist()
            aborted_total += len(bad)
            if bad:
                logger.warning(f"T=%d: aborted %d {name} replications: %s", T, len(bad), bad)
        if est_c.shape[0] == 0:
            raise AbortedReplicationsError(aborted_total, total)

        if fixed_real is None:
            param_limit = prior_param_limit(spec.prior, k_T)
            pred_limit = prior_pred_limit(spec.law, spec.prior, k_T)
        else:
            param_limit = theory_param_limit(fixed_real, k_T)
            pred_limit = theory_pred_limit(fixed_real, k_T)

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
    """Write text to path atomically: to a temporary file beside it, then
    renamed over it, so a failed write leaves any earlier file whole."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8", newline="")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
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
    if n < 2:
        raise ValueError(f"ergodic averages need n >= 2, got {n}")
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
        real = realize(spec, rng)
        holds = positivity_diagnostic(simulate(real, T, rng), real.rho) >= 0.0
        per_component += holds
        all_hold += bool(holds.all())
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
